import itertools

import numpy as np
import pytest

from avmir import _kernels, imgprep
import cn_oracle
import lch_oracle
from conftest import (SHAPES, angle_gap, circular_trig, random_frame,
                      solid_frame)


class TestStripLetterbox:
    def test_all_black_frame_unchanged(self):
        frame = np.zeros((64, 64, 3), np.uint8)
        out = imgprep.strip_letterbox(frame)
        assert out.shape == (64, 64, 3)

    def test_letterboxed_frame_cropped(self, rng):
        inner = rng.integers(60, 256, size=(48, 64, 3), dtype=np.uint8)
        padded = np.zeros((64, 64, 3), np.uint8)
        padded[8:56] = inner
        out = imgprep.strip_letterbox(padded)
        assert out.shape == (48, 64, 3)
        np.testing.assert_array_equal(out, inner)

    def test_pillarboxed_frame_cropped(self, rng):
        inner = rng.integers(60, 256, size=(32, 20, 3), dtype=np.uint8)
        padded = np.zeros((32, 32, 3), np.uint8)
        padded[:, 6:26] = inner
        out = imgprep.strip_letterbox(padded)
        np.testing.assert_array_equal(out, inner)

    def test_no_dark_border_identity(self, rng):
        frame = rng.integers(60, 256, size=(32, 32, 3), dtype=np.uint8)
        np.testing.assert_array_equal(imgprep.strip_letterbox(frame), frame)

    def test_idempotent(self, rng):
        frame = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        frame[:5] = 0
        frame[-3:] = 0
        once = imgprep.strip_letterbox(frame)
        twice = imgprep.strip_letterbox(once)
        np.testing.assert_array_equal(once, twice)


class TestIhls:
    def test_black(self):
        ih = imgprep.FrameContext(solid_frame(0, 0, 0)).ihls
        assert ih.luminance[0, 0] == 0.0
        assert ih.saturation[0, 0] == 0.0
        assert not ih.chromatic[0, 0]

    @pytest.mark.parametrize("g", [1, 77, 128, 254])
    def test_gray_has_zero_saturation(self, g):
        ih = imgprep.FrameContext(solid_frame(g, g, g)).ihls
        assert ih.saturation[0, 0] == 0.0
        assert not ih.chromatic[0, 0]

    def test_pure_red(self):
        ih = imgprep.FrameContext(solid_frame(255, 0, 0)).ihls
        assert ih.hue_cos[0, 0] == 1.0 and ih.hue_sin[0, 0] == 0.0
        assert ih.saturation[0, 0] == pytest.approx(1.0)
        assert ih.chromatic[0, 0]

    def test_saturation_is_max_minus_min(self, rng):
        # exhaustive over a sampled grid of 8-bit triples
        levels = np.arange(0, 256, 51, dtype=np.uint8)
        r, g, b = np.meshgrid(levels, levels, levels, indexing="ij")
        frame = np.stack([r, g, b], axis=-1).reshape(1, -1, 3)
        ih = imgprep.FrameContext(frame).ihls
        expect = (frame.max(axis=2) - frame.min(axis=2)) / 255.0
        np.testing.assert_allclose(ih.saturation, expect, atol=1e-12)

    def test_hue_range(self, rng):
        ih = imgprep.FrameContext(random_frame(rng)).ihls
        assert np.all(np.abs(ih.hue_cos) <= 1.0)
        np.testing.assert_allclose(ih.hue_cos ** 2 + ih.hue_sin ** 2, 1.0,
                                   atol=1e-12)


class TestLch:
    def test_black(self):
        lch = imgprep.FrameContext(solid_frame(0, 0, 0)).lch
        assert lch.L[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert lch.C[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_white_is_whitepoint(self):
        lch = imgprep.FrameContext(solid_frame(255, 255, 255)).lch
        assert lch.L[0, 0] == pytest.approx(100.0, abs=1e-6)
        assert lch.C[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_red_reference_values(self):
        # independent sRGB -> LAB computation: L 53.2408, a 80.0925, b 67.2032
        lch = imgprep.FrameContext(solid_frame(255, 0, 0)).lch
        assert lch.L[0, 0] == pytest.approx(53.24, abs=0.01)
        assert lch.C[0, 0] == pytest.approx(104.55, abs=0.01)


def lch_parity_frames():
    rng = np.random.default_rng(22)
    pillarboxed = random_frame(rng, 40, 64)
    pillarboxed[:, :8] = pillarboxed[:, -8:] = 0
    return {
        "noise-270x480": random_frame(rng, 270, 480),
        "all-greys": np.repeat(np.arange(256, dtype=np.uint8),
                               3).reshape(16, 16, 3),
        "dark": rng.integers(0, 10, (37, 41, 3), dtype=np.uint8),
        "cube-corners": np.array(list(itertools.product((0, 255), repeat=3)),
                                 dtype=np.uint8).reshape(2, 4, 3),
        "1x1": random_frame(rng, 1, 1),
        "pillarboxed-view": pillarboxed[:, 8:-8],
    }


class TestLchParity:
    @pytest.mark.parametrize("name", list(lch_parity_frames()))
    def test_planes_match_oracle(self, name):
        frame = lch_parity_frames()[name]
        got = imgprep.FrameContext(frame).lch
        want = lch_oracle.lch(frame)
        for plane in ("L", "H", "a", "b"):
            assert getattr(got, plane).tobytes() == \
                getattr(want, plane).tobytes(), plane
        a, b = got.a, got.b
        assert got.C.tobytes() == np.sqrt(a * a + b * b).tobytes()
        assert np.all(np.abs(got.C - want.C) <= np.spacing(want.C))

    def test_inputs_cover_their_cases(self):
        frames = lch_parity_frames()
        # every X, Y and Z of the dark frame is on f's linear segment
        xyz = lch_oracle.white_relative_xyz(frames["dark"])
        assert np.all(xyz <= lch_oracle.DELTA ** 3)
        assert not frames["pillarboxed-view"].flags.c_contiguous


class TestAsFrame:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, value):
        frame = np.full((2, 3, 3), 7.0)
        frame[1, 2, 0] = value
        with pytest.raises(ValueError, match="uint8"):
            imgprep.as_frame(frame)

    def test_non_uint8_frame_rejected(self):
        for frame in (np.full((2, 3, 3), 254.0),
                      np.full((2, 3, 3), 7, np.int64)):
            with pytest.raises(ValueError, match="uint8"):
                imgprep.as_frame(frame)

    def test_uint8_frame_is_returned_as_is(self, rng):
        frame = random_frame(rng)
        assert imgprep.as_frame(frame) is frame


class TestWrapAngle:
    def test_equals_np_mod_bit_for_bit(self, rng):
        two_pi = 2.0 * np.pi
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, -1e-17, np.pi, -np.pi,
                          np.nextafter(-np.pi, 0.0)])
        for theta in (rng.uniform(-np.pi, np.pi, 1000), edges):
            want = np.mod(theta, two_pi)
            want = np.where(want >= two_pi, 0.0, want)
            x = theta.copy()
            got = imgprep.wrap_angle(x)
            assert got is x
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert imgprep.wrap_angle(-1e-17) == 0.0
        assert imgprep.wrap_angle(-0.0) == 0.0
        assert not np.signbit(imgprep.wrap_angle(-0.0))


def _stats(hues, weights=None):
    """circular_stats of hue angles, equally weighted by default."""
    hues = np.asarray(hues, dtype=np.float64)
    weights = np.ones_like(hues) if weights is None else np.asarray(weights)
    return imgprep.circular_stats(np.cos(hues), np.sin(hues), weights)


class TestCircularStats:
    def test_symmetric_pair_means_zero(self):
        cs = _stats(np.deg2rad([10.0, 350.0]))
        assert cs.angular_mean == pytest.approx(0.0, abs=1e-12)
        assert cs.angular_deviation > 0.0

    def test_identical_angles(self):
        cs = _stats(np.deg2rad([90.0, 90.0, 90.0]))
        assert cs.angular_mean == pytest.approx(np.pi / 2.0)
        assert cs.angular_deviation == pytest.approx(0.0, abs=1e-9)

    def test_zero_weight_discards(self):
        for weights in ([1.0, 0.0], [True, False]):
            cs = _stats([0.0, np.pi / 2.0], weights)
            assert cs.angular_mean == pytest.approx(0.0, abs=1e-12)
            assert cs.angular_deviation == pytest.approx(0.0, abs=1e-9)

    def test_matches_trig_formulas(self, rng):
        for n in (1, 2, 7, 500):
            hues = rng.uniform(-1.0, 7.0, n)
            # a tight cluster: the deviation is near zero
            for spread in (1.0, 1e-6):
                cluster = rng.uniform(0.0, 2.0 * np.pi) + spread * hues
                for weights in (None, rng.uniform(0.0, 3.0, n) + 1e-3):
                    cs = _stats(cluster, weights)
                    mean, dev = circular_trig(cluster, weights)
                    assert 0.0 <= cs.angular_mean < 2.0 * np.pi
                    assert angle_gap(cs.angular_mean, mean) <= 1e-12
                    assert abs(cs.angular_deviation - dev) <= 1e-12

    def test_hues_symmetric_about_zero_mean_exactly_zero(self):
        # sin(-h) is -sin(h) exactly, so the resultant lies on the axis
        for h in (0.3, 1e-9, 1.5):
            for weights in (None, [2.0, 2.0]):
                cs = _stats([h, -h], weights)
                assert cs.angular_mean == 0.0
                assert not np.signbit(cs.angular_mean)


class TestClahe:
    def test_constant_raster_unchanged(self):
        raster = np.full((30, 30), 77, np.uint8)
        np.testing.assert_array_equal(_kernels.clahe_u8(raster, 22, 22, 1.0),
                                      raster)

    def test_two_valued_maps_to_extremes(self):
        raster = np.empty((16, 16), np.uint8)
        raster[:8] = 10
        raster[8:] = 245
        out = _kernels.clahe_u8(raster, 16, 16, 0.0)
        assert set(out[raster == 10].ravel()) == {0}
        assert set(out[raster == 245].ravel()) == {255}

    def test_equalized_ramp_is_fixed_point(self):
        ramp = np.tile(np.arange(256, dtype=np.uint8), (4, 1))
        out = _kernels.clahe_u8(ramp, 256, 4, 0.0)
        assert np.abs(out.astype(int) - ramp.astype(int)).max() <= 1

    def test_smaller_than_tile_is_single_tile(self):
        raster = np.tile(np.arange(0, 80, 10, dtype=np.uint8), (8, 1))
        a = _kernels.clahe_u8(raster, 100, 100, 0.0)
        b = _kernels.clahe_u8(raster, 8, 8, 0.0)
        np.testing.assert_array_equal(a, b)

    def test_output_monotone_in_input(self, rng):
        raster = rng.integers(0, 256, size=(22, 22), dtype=np.uint8)
        out = _kernels.clahe_u8(raster, 22, 22, 0.0)
        order = np.argsort(raster.ravel(), kind="stable")
        assert np.all(np.diff(out.ravel()[order].astype(int)) >= 0)

    def test_black_stays_black_next_to_a_bright_tile(self, rng):
        # value 0 lies below every occupied bin of the bright right tile;
        # blending that tile's map into the left one must not wrap to 255
        raster = np.empty((22, 44), np.uint8)
        raster[:, :22] = rng.integers(0, 40, size=(22, 22))
        raster[:, 22:] = rng.integers(200, 256, size=(22, 22))
        raster[0, 0] = 0
        out = _kernels.clahe_u8(raster, 22, 22, 0.0)
        assert set(out[raster == 0].ravel()) == {0}


class TestBayer:
    def test_order_two_base_case(self):
        np.testing.assert_allclose(imgprep.bayer_matrix(2),
                                   [[0.0, 0.5], [0.75, 0.25]])

    def test_order_four_values(self):
        m = imgprep.bayer_matrix(4)
        assert sorted(m.ravel()) == [k / 16.0 for k in range(16)]

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64])
    def test_each_threshold_exactly_once(self, order):
        m = imgprep.bayer_matrix(order)
        assert m.shape == (order, order)
        assert sorted(m.ravel()) == [k / order ** 2 for k in range(order ** 2)]

    @pytest.mark.parametrize("order", [0, 1, 3, 12, 128])
    def test_invalid_order_raises(self, order):
        with pytest.raises(ValueError):
            imgprep.bayer_matrix(order)


class TestOrderedDither:
    PALETTE = np.array([[0, 0, 0], [255, 0, 0], [0, 255, 0], [255, 255, 255]])

    def test_palette_colors_reproduced_with_zero_spread(self, rng):
        choice = rng.integers(0, 4, size=(12, 12))
        frame = self.PALETTE[choice].astype(np.uint8)
        idx = cn_oracle.dither_indices(frame, self.PALETTE,
                                       imgprep.bayer_matrix(4), 0.0)
        np.testing.assert_array_equal(idx, choice)

    def test_mid_gray_dithers_half_and_half(self):
        frame = np.full((64, 64, 3), 128, np.uint8)
        palette = np.array([[0, 0, 0], [255, 255, 255]])
        idx = cn_oracle.dither_indices(frame, palette,
                                       imgprep.bayer_matrix(2), 255.0)
        assert idx.mean() == pytest.approx(0.5, abs=0.01)

    def test_single_color_palette(self, rng):
        idx = cn_oracle.dither_indices(random_frame(rng),
                                       np.array([[12, 40, 200]]),
                                       imgprep.bayer_matrix(32), 64.0)
        assert np.all(idx == 0)

    def test_zero_spread_equals_nearest_palette(self, rng):
        frame = random_frame(rng)
        idx = cn_oracle.dither_indices(frame, self.PALETTE,
                                       imgprep.bayer_matrix(2), 0.0)
        diff = frame[:, :, None, :].astype(float) - self.PALETTE[None, None]
        nearest = (diff ** 2).sum(axis=-1).argmin(axis=-1)
        np.testing.assert_array_equal(idx, nearest)


class TestHsv:
    def test_hsv_to_rgb_broadcasts_and_takes_scalars(self):
        assert cn_oracle.hsv_to_rgb(0.0, 1.0, 1.0).tolist() == [255, 0, 0]
        row = cn_oracle.hsv_to_rgb(np.array([0.0, 120.0, 240.0]), 1.0, 1.0)
        assert row.tolist() == [[255, 0, 0], [0, 255, 0], [0, 0, 255]]
        tall = cn_oracle.hsv_to_rgb(np.full((70, 2), 60.0), 1.0,
                                    np.ones((1, 2)))
        assert tall.shape == (70, 2, 3)
        assert np.all(tall == [255, 255, 0])

    def test_roundtrip(self, rng):
        frame = random_frame(rng, 24, 24)
        h, s, v = cn_oracle.hsv_planes(frame)
        back = cn_oracle.hsv_to_rgb(h, s, v)
        assert np.abs(back.astype(int) - frame.astype(int)).max() <= 1

    def test_primaries(self):
        for (r, g, b), hue in (((255, 0, 0), 0.0), ((0, 255, 0), 120.0),
                               ((0, 0, 255), 240.0)):
            frame = solid_frame(r, g, b)
            h, s, v = cn_oracle.hsv_planes(frame)
            assert h[0, 0] == pytest.approx(hue)
            assert s[0, 0] == 1.0 and v[0, 0] == 1.0
            h, s, v = imgprep.FrameContext(frame).hsv_levels
            assert h[0, 0] == pytest.approx(hue)
            assert s[0, 0] == 255 and v[0, 0] == 255


def _hsv_sector_frame(rng):
    """Every (max, min) level pair with a random middle level, in each of
    the six channel orders: all six hue sectors, and every entry of the
    tables over (max, min) level."""
    top, bottom = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    keep = top >= bottom
    top, bottom = top[keep], bottom[keep]
    middle = rng.integers(bottom, top + 1)
    triples = np.stack([top, middle, bottom], axis=-1)
    orders = [(0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0), (1, 2, 0),
              (0, 2, 1)]
    pixels = np.concatenate([triples[:, order] for order in orders])
    return pixels.astype(np.uint8).reshape(-1, 256, 3)


class TestHsvLevels:
    """FrameContext.hsv_levels against the float HSV planes of
    cn_oracle.hsv_planes, whose s and v round to levels half to even."""

    @staticmethod
    def _assert_matches(frame, name):
        hue, s, v = imgprep.FrameContext(frame).hsv_levels
        want_h, want_s, want_v = cn_oracle.hsv_planes(frame)
        assert s.dtype == v.dtype == np.uint8
        assert hue.tobytes() == want_h.tobytes(), name
        assert np.array_equal(s, cn_oracle.unit_levels(want_s)), name
        assert np.array_equal(v, cn_oracle.unit_levels(want_v)), name

    def test_every_shape_grey_and_flat(self, rng):
        # 70 rows span three row blocks, the last one short
        for h, w in SHAPES + [(70, 45)]:
            self._assert_matches(random_frame(rng, h, w), f"noise {h}x{w}")
            grey = rng.integers(0, 256, size=(h, w, 1), dtype=np.uint8)
            self._assert_matches(np.repeat(grey, 3, axis=2), f"grey {h}x{w}")
            for rgb in [(0, 0, 0), (255, 255, 255), (128, 128, 128),
                        (10, 200, 90), (255, 0, 255)]:
                self._assert_matches(solid_frame(*rgb, h, w),
                                     f"flat {rgb} {h}x{w}")

    def test_one_pixel(self):
        for rgb in [(200, 30, 90), (0, 0, 0), (1, 0, 0), (0, 0, 1)]:
            self._assert_matches(np.array([[rgb]], np.uint8), f"{rgb}")

    def test_every_sector_and_level_pair(self, rng):
        frame = _hsv_sector_frame(rng)
        hue = imgprep.FrameContext(frame).hsv_levels[0]
        assert set(np.unique((hue // 60).astype(int))) == set(range(6))
        self._assert_matches(frame, "sectors")

    def test_channel_ties(self, rng):
        # a largest level shared by two or three channels takes the first
        # of them: max == r == g is the red branch, max == g == b green
        levels = rng.integers(1, 256, size=(40, 30))
        lower = rng.integers(0, levels)
        for name, order in (("max == r == g", (0, 0, 1)),
                            ("max == g == b", (1, 0, 0)),
                            ("max == r == b", (0, 1, 0))):
            planes = [levels if k == 0 else lower for k in order]
            frame = np.stack(planes, axis=-1).astype(np.uint8)
            self._assert_matches(frame, name)


class TestStripLetterboxDarkColumns:
    def test_frame_whose_kept_rows_are_dark_in_every_column(self):
        # the first and last rows are half bright, so they stay, but every
        # column is dark in 99 of the 100 rows: nothing would be left
        frame = np.zeros((100, 2, 3), np.uint8)
        frame[0, 0] = 200
        frame[-1, 1] = 200
        assert imgprep.strip_letterbox(frame) is frame
