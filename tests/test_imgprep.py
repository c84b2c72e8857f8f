import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmir import _kernels, imgprep
from conftest import random_frame, solid_frame


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
        assert ih.hue[0, 0] == pytest.approx(0.0, abs=1e-12)
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
        assert np.all(ih.hue >= 0.0)
        assert np.all(ih.hue < 2.0 * np.pi)


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


class TestWrapAngle:
    def test_equals_np_mod_bit_for_bit(self, rng):
        two_pi = 2.0 * np.pi
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, two_pi, -two_pi,
                          np.nextafter(two_pi, 0.0), -np.nextafter(two_pi, 0.0),
                          -1e-17, np.pi, -np.pi, 100.0, -100.0])
        # in range (the fast path), out of range (np.mod itself), and mixed
        for theta in (rng.uniform(-two_pi, two_pi, 1000), edges,
                      rng.uniform(-50.0, 50.0, 1000)):
            want = np.mod(theta, two_pi)
            want = np.where(want >= two_pi, 0.0, want)
            got = imgprep.wrap_angle(theta)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert imgprep.wrap_angle(-0.0) == 0.0
        assert not np.signbit(imgprep.wrap_angle(-0.0))


class TestCircularStats:
    def test_symmetric_pair_means_zero(self):
        cs = imgprep.circular_stats(np.deg2rad([10.0, 350.0]))
        assert cs.angular_mean == pytest.approx(0.0, abs=1e-12)
        assert cs.angular_deviation > 0.0

    def test_identical_angles(self):
        cs = imgprep.circular_stats(np.deg2rad([90.0, 90.0, 90.0]))
        assert cs.angular_mean == pytest.approx(np.pi / 2.0)
        assert cs.angular_deviation == pytest.approx(0.0, abs=1e-9)

    def test_zero_weight_discards(self):
        cs = imgprep.circular_stats([0.0, np.pi / 2.0], weights=[1.0, 0.0])
        assert cs.angular_mean == pytest.approx(0.0, abs=1e-12)
        assert cs.angular_deviation == pytest.approx(0.0, abs=1e-9)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="no chromatic pixels"):
            imgprep.circular_stats([])

    def test_all_zero_weights_raise(self):
        with pytest.raises(ValueError):
            imgprep.circular_stats([0.0, 1.0], weights=[0.0, 0.0])

    @given(st.lists(st.floats(0.0, 2.0 * np.pi - 1e-9), min_size=1,
                    max_size=32),
           st.floats(-10.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_rotation_equivariance(self, hues, delta):
        base = imgprep.circular_stats(hues)
        rotated = imgprep.circular_stats(np.mod(np.array(hues) + delta,
                                                2.0 * np.pi))
        expected = np.mod(base.angular_mean + delta, 2.0 * np.pi)
        diff = np.angle(np.exp(1j * (rotated.angular_mean - expected)))
        assert abs(diff) < 1e-9
        assert rotated.angular_deviation == pytest.approx(
            base.angular_deviation, abs=1e-9)


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
        idx = _kernels.dither_indices(frame, self.PALETTE,
                                      imgprep.bayer_matrix(4), 0.0)
        np.testing.assert_array_equal(idx, choice)

    def test_mid_gray_dithers_half_and_half(self):
        frame = np.full((64, 64, 3), 128, np.uint8)
        palette = np.array([[0, 0, 0], [255, 255, 255]])
        idx = _kernels.dither_indices(frame, palette,
                                      imgprep.bayer_matrix(2), 255.0)
        assert idx.mean() == pytest.approx(0.5, abs=0.01)

    def test_single_color_palette(self, rng):
        idx = _kernels.dither_indices(random_frame(rng),
                                      np.array([[12, 40, 200]]),
                                      imgprep.bayer_matrix(32), 64.0)
        assert np.all(idx == 0)

    def test_zero_spread_equals_nearest_palette(self, rng):
        frame = random_frame(rng)
        idx = _kernels.dither_indices(frame, self.PALETTE,
                                      imgprep.bayer_matrix(2), 0.0)
        diff = frame[:, :, None, :].astype(float) - self.PALETTE[None, None]
        nearest = (diff ** 2).sum(axis=-1).argmin(axis=-1)
        np.testing.assert_array_equal(idx, nearest)


class TestHsv:
    def test_hsv_to_rgb_broadcasts_and_takes_scalars(self):
        assert imgprep.hsv_to_rgb(0.0, 1.0, 1.0).tolist() == [255, 0, 0]
        row = imgprep.hsv_to_rgb(np.array([0.0, 120.0, 240.0]), 1.0, 1.0)
        assert row.tolist() == [[255, 0, 0], [0, 255, 0], [0, 0, 255]]
        tall = imgprep.hsv_to_rgb(np.full((70, 2), 60.0), 1.0, np.ones((1, 2)))
        assert tall.shape == (70, 2, 3)
        assert np.all(tall == [255, 255, 0])

    def test_roundtrip(self, rng):
        frame = random_frame(rng, 24, 24)
        h, s, v = imgprep.FrameContext(frame).hsv
        back = imgprep.hsv_to_rgb(h, s, v)
        assert np.abs(back.astype(int) - frame.astype(int)).max() <= 1

    def test_primaries(self):
        h, s, v = imgprep.FrameContext(solid_frame(255, 0, 0)).hsv
        assert h[0, 0] == 0.0 and s[0, 0] == 1.0 and v[0, 0] == 1.0
        h, s, v = imgprep.FrameContext(solid_frame(0, 255, 0)).hsv
        assert h[0, 0] == pytest.approx(120.0)
        h, s, v = imgprep.FrameContext(solid_frame(0, 0, 255)).hsv
        assert h[0, 0] == pytest.approx(240.0)
