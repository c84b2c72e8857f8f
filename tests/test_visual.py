import numpy as np
import pytest

from avmir import imgprep, visual
from conftest import random_frame, solid_frame


def make_lch(l_values, c_values, h_values):
    """Synthetic LCH frame from flat per-pixel arrays (one row)."""
    l_arr = np.atleast_2d(np.asarray(l_values, dtype=np.float64))
    c_arr = np.atleast_2d(np.asarray(c_values, dtype=np.float64))
    h_arr = np.atleast_2d(np.asarray(h_values, dtype=np.float64))
    return imgprep.LchFrame(L=l_arr, C=c_arr, H=h_arr)


class TestGcs:
    def test_all_black_is_degenerate(self):
        feat = visual.gcs(imgprep.rgb_to_ihls(solid_frame(0, 0, 0)))
        assert feat.degenerate
        assert feat.values[0] == 0.0
        assert feat.values[1] == 0.0
        assert feat.values[3] == pytest.approx(np.sqrt(2.0))

    def test_pure_red(self):
        feat = visual.gcs(imgprep.rgb_to_ihls(solid_frame(255, 0, 0)))
        sat, lum, mean_h, dev_h, wmean_h, wdev_h = feat.values
        assert sat == pytest.approx(1.0)
        assert mean_h == pytest.approx(0.0, abs=1e-9)
        assert dev_h == pytest.approx(0.0, abs=1e-9)
        assert wmean_h == pytest.approx(0.0, abs=1e-9)
        assert wdev_h == pytest.approx(0.0, abs=1e-9)

    def test_opposed_hues_give_max_deviation(self):
        frame = np.zeros((2, 2, 3), np.uint8)
        frame[0, :, 0] = 255              # red: hue 0
        frame[1, :, 1] = 255              # green-cyan side
        frame[1, :, 2] = 255              # cyan: hue pi, saturation 1
        feat = visual.gcs(imgprep.rgb_to_ihls(frame))
        _, _, mean_h, dev_h, wmean_h, wdev_h = feat.values
        assert dev_h == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert wdev_h == pytest.approx(np.sqrt(2.0), abs=1e-9)
        # equal saturations: weighted and unweighted stats agree
        assert wmean_h == pytest.approx(mean_h, abs=1e-9)

    def test_dimension(self, rng):
        assert visual.gcs(imgprep.rgb_to_ihls(random_frame(rng))).values.shape == (6,)


class TestGev:
    def test_zero_input(self):
        np.testing.assert_allclose(visual.gev_values(0.0, 0.0), [0.0, 0.0, 0.0])

    def test_unit_input(self):
        np.testing.assert_allclose(visual.gev_values(1.0, 1.0),
                                   [0.91, 0.29, 1.08], atol=1e-12)

    def test_half_brightness_no_saturation(self):
        np.testing.assert_allclose(visual.gev_values(0.5, 0.0),
                                   [0.345, -0.155, 0.38], atol=1e-12)

    def test_exactly_linear(self, rng):
        for _ in range(20):
            b, s, alpha = rng.random(3)
            np.testing.assert_allclose(visual.gev_values(alpha * b, alpha * s),
                                       alpha * visual.gev_values(b, s),
                                       atol=1e-12)


class TestColorfulness:
    def test_uniform_histogram_is_maximal(self, rng):
        # frame hitting all 8 cells of a 2-partition cube equally
        corners = np.array([[c * 255 for c in (r, g, b)]
                            for r in (0, 1) for g in (0, 1) for b in (0, 1)])
        frame = corners[np.tile(np.arange(8), 8)].reshape(8, 8, 3).astype(np.uint8)
        feat = visual.colorfulness(frame, partitions=2)
        centers = visual._rgb_cell_centers(2)
        diff = centers[:, None] - centers[None, :]
        dmax = np.sqrt((diff ** 2).sum(-1)).max()
        assert feat.values[0] == pytest.approx(dmax, abs=1e-9)

    def test_single_color_closed_form(self):
        # point mass -> uniform: optimal transport is forced, cost is the
        # mean distance from the occupied cell to all cells
        frame = solid_frame(10, 10, 10)
        feat = visual.colorfulness(frame, partitions=2)
        centers = visual._rgb_cell_centers(2)
        dists = np.sqrt(((centers - centers[0]) ** 2).sum(axis=1))
        expected = dists.max() - dists.mean()
        assert feat.values[0] == pytest.approx(expected, abs=1e-9)

    def test_noise_beats_flat_color(self, rng):
        noisy = visual.colorfulness(random_frame(rng, 32, 32))
        flat = visual.colorfulness(solid_frame(80, 120, 200, 32, 32))
        assert noisy.values[0] > flat.values[0]

    def test_permutation_invariant(self, rng):
        frame = random_frame(rng, 12, 12)
        shuffled = frame.reshape(-1, 3)[rng.permutation(144)].reshape(12, 12, 3)
        a = visual.colorfulness(frame).values[0]
        b = visual.colorfulness(shuffled).values[0]
        assert a == pytest.approx(b, abs=1e-9)


class TestColorNames:
    def test_all_black(self):
        feat = visual.color_names(solid_frame(0, 0, 0, 40, 40))
        black_idx = visual.CN_COLOR_ORDER.index("black")
        assert feat.values[black_idx] == 1.0

    def test_pure_red(self):
        feat = visual.color_names(solid_frame(255, 0, 0, 40, 40))
        assert feat.values[visual.CN_COLOR_ORDER.index("red")] >= 0.99

    def test_histogram_sums_to_one(self, rng):
        for _ in range(5):
            feat = visual.color_names(random_frame(rng, 30, 30))
            assert feat.values.sum() == pytest.approx(1.0, abs=1e-9)
            assert feat.values.shape == (8,)


class TestWaf:
    def test_all_black_mass_in_very_dark(self):
        lch = imgprep.rgb_to_lch(solid_frame(0, 0, 0))
        feat = visual.waf(lch, sharpness=0.37)
        values = feat.values
        # factor one: 5 levels x (cold, warm); all mass in the first level
        assert values[0] + values[1] == pytest.approx(1.0)
        assert values[2:10].sum() == pytest.approx(0.0)
        # factor two warm/cool shares vanish for achromatic input
        assert values[10:16].sum() == pytest.approx(0.0)
        assert values[17] == pytest.approx(0.37)

    def test_mid_gray_centered_lightness(self):
        lch = imgprep.rgb_to_lch(solid_frame(128, 128, 128))
        values = visual.waf(lch, 0.0).values
        mid = values[4] + values[5]           # level 2 (center 50)
        assert mid > 0.5
        assert values[10:16].sum() == pytest.approx(0.0)

    def test_half_warm_half_cool_equal_shares(self):
        lch = make_lch([50.0] * 8,
                       [45.0] * 8,
                       [np.deg2rad(30)] * 4 + [np.deg2rad(200)] * 4)
        values = visual.waf(lch, 0.0).values
        warm = values[10] + values[12] + values[14]
        cool = values[11] + values[13] + values[15]
        assert warm == pytest.approx(cool, abs=0.01)
        assert warm > 0

    def test_dimension_and_range(self, rng):
        lch = imgprep.rgb_to_lch(random_frame(rng))
        values = visual.waf(lch, 0.5).values
        assert values.shape == (18,)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


class TestBlurMeasure:
    def test_constant_raster_is_zero(self):
        assert visual.blur_measure(np.full((16, 16), 9.0)) == 0.0

    def test_checkerboard_sharper_than_blurred(self):
        board = np.indices((32, 32)).sum(axis=0) % 2 * 255.0
        kernel = np.ones(9) / 9.0
        blurred = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), 0, board)
        blurred = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), 1, blurred)
        assert visual.blur_measure(board) > visual.blur_measure(blurred)

    def test_blurring_never_raises_score(self, rng):
        img = rng.random((24, 24)) * 255.0
        kernel = np.ones(9) / 9.0
        blurred = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), 0, img)
        blurred = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), 1, blurred)
        assert visual.blur_measure(blurred) <= visual.blur_measure(img) + 1e-9

    def test_range(self, rng):
        v = visual.blur_measure(rng.random((16, 16)) * 255.0)
        assert 0.0 <= v <= 1.0

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            visual.blur_measure(np.zeros((2, 5)))


class TestSegmentFrame:
    def test_grid_counts(self, rng):
        seg = visual.segment_frame(imgprep.rgb_to_lch(random_frame(rng, 64, 64)))
        assert seg.segment_count == 16
        assert np.all(seg.areas == 256)

    def test_ids_contiguous(self, rng):
        seg = visual.segment_frame(imgprep.rgb_to_lch(random_frame(rng, 33, 47)))
        assert set(np.unique(seg.labels)) == set(range(seg.segment_count))

    def test_mean_l_matches_brute_force(self, rng):
        frame = random_frame(rng, 32, 32)
        lch = imgprep.rgb_to_lch(frame)
        seg = visual.segment_frame(lch)
        for sid in range(seg.segment_count):
            mask = seg.labels == sid
            assert seg.mean_l[sid] == pytest.approx(lch.L[mask].mean(),
                                                    abs=1e-9)


class TestIttenContrasts:
    def _two_segment_map(self, l_vals, c_vals, h_vals, areas=(1.0, 1.0)):
        labels = np.zeros((2, 2), np.int64)
        labels[1] = 1
        return visual.SegmentationMap(
            labels=labels, segment_count=2,
            mean_l=np.asarray(l_vals, float), mean_c=np.asarray(c_vals, float),
            mean_h=np.asarray(h_vals, float), areas=np.asarray(areas, float))

    def test_uniform_frame_all_zero(self, rng):
        frame = solid_frame(90, 40, 160, 32, 32)
        seg = visual.segment_frame(imgprep.rgb_to_lch(frame))
        np.testing.assert_allclose(visual.itten_contrasts(seg).values, 0.0,
                                   atol=1e-9)

    def test_full_lightness_contrast(self):
        seg = self._two_segment_map([0.0, 100.0], [30.0, 30.0], [1.0, 1.0])
        values = visual.itten_contrasts(seg).values
        assert values[0] == pytest.approx(1.0)
        assert values[2] == pytest.approx(0.0, abs=1e-9)  # same hue

    def test_warm_cold_balance(self):
        seg = self._two_segment_map([50.0, 50.0], [40.0, 40.0],
                                    [np.deg2rad(30), np.deg2rad(200)])
        values = visual.itten_contrasts(seg).values
        assert values[3] == pytest.approx(1.0)

    def test_single_segment_is_zero(self, rng):
        seg = visual.segment_frame(imgprep.rgb_to_lch(random_frame(rng, 8, 8)))
        assert seg.segment_count == 1
        np.testing.assert_allclose(visual.itten_contrasts(seg).values, 0.0)


def blink_frames(freq_hz, fps, count, low=60, high=200, size=8):
    frames = []
    for i in range(count):
        phase = int(np.floor(2.0 * freq_hz * i / fps)) % 2
        v = high if phase else low
        frames.append(np.full((size, size, 3), v, np.uint8))
    return frames


class TestLfp:
    def test_constant_video_is_silent(self):
        frames = [solid_frame(90, 90, 90)] * 550
        pattern = visual.lfp(frames, fps=25.0)
        assert not pattern.short_input
        np.testing.assert_allclose(pattern.values, 0.0, atol=1e-9)

    def test_blink_located_within_one_bin(self):
        pattern = visual.lfp(blink_frames(2.0, 25.0, 512), fps=25.0)
        active = pattern.values.sum(axis=1).argmax()
        peak = pattern.values[active].argmax()
        target = np.abs(pattern.mod_frequencies - 2.0).argmin()
        assert abs(peak - target) <= 1

    def test_linearity(self, rng):
        hists = rng.random((128, 24))
        a = visual.lfp_from_histograms(hists, 25.0)
        b = visual.lfp_from_histograms(2.0 * hists, 25.0)
        np.testing.assert_allclose(b.values, 2.0 * a.values, atol=1e-9)

    def test_time_reversal_preserves_magnitudes(self, rng):
        hists = rng.random((512, 24))
        fwd = visual.lfp_from_histograms(hists, 25.0)
        rev = visual.lfp_from_histograms(hists[::-1], 25.0)
        np.testing.assert_allclose(fwd.values, rev.values, atol=1e-9)

    def test_short_input_flagged(self, rng):
        pattern = visual.lfp_from_histograms(rng.random((40, 24)), 25.0)
        assert pattern.short_input

    def test_preset_dimensions(self):
        frames = blink_frames(2.0, 25.0, 64)
        p80 = visual.lfp(frames, 25.0, bins=8)
        assert visual.lfp_feature(p80, "paper-80").shape == (80,)
        p60 = visual.lfp(frames, 25.0, bins=24)
        assert visual.lfp_feature(p60, "paper-60").shape == (60,)

    def test_fps_too_low_raises(self, rng):
        with pytest.raises(ValueError):
            visual.lfp_from_histograms(rng.random((64, 8)), fps=15.0)


class TestFrameDims:
    def test_per_frame_dimensions_match_table(self, rng):
        frame = random_frame(rng, 33, 44)
        feats = visual.frame_features(frame, list(visual.FRAME_FEATURE_DIMS))
        for name, dim in visual.FRAME_FEATURE_DIMS.items():
            assert feats[name].values.shape == (dim,), name
            assert np.all(np.isfinite(feats[name].values)), name
