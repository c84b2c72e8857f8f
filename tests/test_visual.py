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
        values = visual.gcs(imgprep.FrameContext(solid_frame(0, 0, 0)).ihls)
        assert values[0] == 0.0
        assert values[1] == 0.0
        assert values[3] == pytest.approx(np.sqrt(2.0))

    def test_pure_red(self):
        ihls = imgprep.FrameContext(solid_frame(255, 0, 0)).ihls
        sat, lum, mean_h, dev_h, wmean_h, wdev_h = visual.gcs(ihls)
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
        ihls = imgprep.FrameContext(frame).ihls
        _, _, mean_h, dev_h, wmean_h, wdev_h = visual.gcs(ihls)
        assert dev_h == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert wdev_h == pytest.approx(np.sqrt(2.0), abs=1e-9)
        # equal saturations: weighted and unweighted stats agree
        assert wmean_h == pytest.approx(mean_h, abs=1e-9)

    def test_dimension(self, rng):
        ihls = imgprep.FrameContext(random_frame(rng)).ihls
        assert visual.gcs(ihls).shape == (6,)


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
        # frame hitting every cell of the partitioned cube once, at its center
        frame = visual.CF_CENTERS.reshape(8, 8, 3).astype(np.uint8)
        # the farthest centers are opposite corner cells, 3/4 of 256 apart
        # along each axis
        dmax = 192.0 * np.sqrt(3.0)
        assert visual.colorfulness(frame)[0] == pytest.approx(dmax, abs=1e-9)

    def test_single_color_closed_form(self):
        # point mass -> uniform: optimal transport is forced, cost is the
        # mean distance from the occupied cell to all cells
        frame = solid_frame(10, 10, 10)
        dists = visual.CF_COST[0]
        expected = dists.max() - dists.mean()
        assert visual.colorfulness(frame)[0] == pytest.approx(expected,
                                                              abs=1e-9)

    def test_noise_beats_flat_color(self, rng):
        noisy = visual.colorfulness(random_frame(rng, 32, 32))
        flat = visual.colorfulness(solid_frame(80, 120, 200, 32, 32))
        assert noisy[0] > flat[0]

    def test_permutation_invariant(self, rng):
        frame = random_frame(rng, 12, 12)
        shuffled = frame.reshape(-1, 3)[rng.permutation(144)].reshape(12, 12, 3)
        a = visual.colorfulness(frame)[0]
        b = visual.colorfulness(shuffled)[0]
        assert a == pytest.approx(b, abs=1e-9)


def frame_color_names(frame):
    return visual.color_names(imgprep.FrameContext(frame).hsv)


class TestColorNames:
    def test_all_black(self):
        values = frame_color_names(solid_frame(0, 0, 0, 40, 40))
        black_idx = visual.CN_COLOR_ORDER.index("black")
        assert values[black_idx] == 1.0

    def test_pure_red(self):
        values = frame_color_names(solid_frame(255, 0, 0, 40, 40))
        assert values[visual.CN_COLOR_ORDER.index("red")] >= 0.99

    def test_histogram_sums_to_one(self, rng):
        for _ in range(5):
            values = frame_color_names(random_frame(rng, 30, 30))
            assert values.sum() == pytest.approx(1.0, abs=1e-9)
            assert values.shape == (8,)


class TestWaf:
    def test_all_black_mass_in_very_dark(self):
        lch = imgprep.FrameContext(solid_frame(0, 0, 0)).lch
        values = visual.waf(lch, sharpness=0.37)
        # factor one: 5 levels x (cold, warm); all mass in the first level
        assert values[0] + values[1] == pytest.approx(1.0)
        assert values[2:10].sum() == pytest.approx(0.0)
        # factor two warm/cool shares vanish for achromatic input
        assert values[10:16].sum() == pytest.approx(0.0)
        assert values[17] == pytest.approx(0.37)

    def test_mid_gray_centered_lightness(self):
        lch = imgprep.FrameContext(solid_frame(128, 128, 128)).lch
        values = visual.waf(lch, 0.0)
        mid = values[4] + values[5]           # level 2 (center 50)
        assert mid > 0.5
        assert values[10:16].sum() == pytest.approx(0.0)

    def test_half_warm_half_cool_equal_shares(self):
        lch = make_lch([50.0] * 8,
                       [45.0] * 8,
                       [np.deg2rad(30)] * 4 + [np.deg2rad(200)] * 4)
        values = visual.waf(lch, 0.0)
        warm = values[10] + values[12] + values[14]
        cool = values[11] + values[13] + values[15]
        assert warm == pytest.approx(cool, abs=0.01)
        assert warm > 0

    def test_dimension_and_range(self, rng):
        lch = imgprep.FrameContext(random_frame(rng)).lch
        values = visual.waf(lch, 0.5)
        assert values.shape == (18,)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


def _triangular_memberships_loop(x, centers):
    """Reference: each triangle's rising, falling and saturated parts set
    through boolean masks, one center at a time."""
    x = np.asarray(x, dtype=np.float64)
    n = len(centers)
    out = np.zeros(x.shape + (n,))
    for i, c in enumerate(centers):
        m = np.zeros_like(x)
        if i > 0:
            left = centers[i - 1]
            rising = (x > left) & (x <= c)
            m[rising] = (x[rising] - left) / (c - left)
        if i < n - 1:
            right = centers[i + 1]
            falling = (x > c) & (x < right)
            m[falling] = (right - x[falling]) / (right - c)
        m[x == c] = 1.0
        if i == 0:
            m[x < c] = 1.0
        if i == n - 1:
            m[x > c] = 1.0
        out[..., i] = m
    return out


class TestTriangularMemberships:
    @pytest.mark.parametrize("centers", [visual.WAF_LIGHTNESS_CENTERS,
                                         visual.WAF_CHROMA_CENTERS])
    def test_matches_mask_loop(self, rng, centers):
        c = np.asarray(centers)
        at = np.concatenate([c, np.nextafter(c, -np.inf),
                             np.nextafter(c, np.inf)])
        between = np.concatenate([(c[:-1] + c[1:]) / 2.0,
                                  rng.uniform(c[0], c[-1], 2000)])
        beyond = np.array([c[0] - 1.0, c[0] - 1e9, c[-1] + 1.0, c[-1] + 1e9,
                           -np.inf, np.inf, 0.0, -0.0])
        x = np.concatenate([at, between, beyond, rng.uniform(-50, 200, 2000)])
        rng.shuffle(x)
        for shaped in (x, x[:x.size // 6 * 6].reshape(-1, 6)):
            got = visual._triangular_memberships(shaped, centers)
            want = _triangular_memberships_loop(shaped, centers)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
    def test_single_row_or_column_is_fully_blurred(self, rng, shape):
        # an axis of one pixel has no variation, so it counts as blurred
        assert visual.blur_measure(rng.random(shape) * 255.0) == 0.0

    def test_thin_rasters_are_defined(self):
        # 2 x 2 checkerboard: along either axis a 0 -> 255 step becomes a
        # 255/9 step after the edge-padded 9-tap blur, so each axis keeps
        # 1/9 of its variation and the sharpness is 8/9
        board = np.array([[0.0, 255.0], [255.0, 0.0]])
        assert visual.blur_measure(board) == pytest.approx(8.0 / 9.0)
        # two rows that are constant along each row: that axis has no
        # variation, so the raster counts as fully blurred
        two_rows = np.zeros((2, 5))
        two_rows[1] = 255.0
        assert visual.blur_measure(two_rows) == 0.0

    @pytest.mark.parametrize("raster", [np.zeros((0, 4)), np.zeros(5),
                                        np.zeros((2, 2, 2))])
    def test_empty_or_not_2d_raises(self, raster):
        with pytest.raises(ValueError):
            visual.blur_measure(raster)


class TestSegmentFrame:
    def test_grid_counts(self, rng):
        lch = imgprep.FrameContext(random_frame(rng, 64, 64)).lch
        seg = visual.segment_frame(lch)
        assert seg.segment_count == 16
        assert np.all(seg.areas == 256)

    def test_ids_contiguous(self, rng):
        lch = imgprep.FrameContext(random_frame(rng, 33, 47)).lch
        seg = visual.segment_frame(lch)
        assert set(np.unique(seg.labels)) == set(range(seg.segment_count))

    def test_mean_l_matches_brute_force(self, rng):
        frame = random_frame(rng, 32, 32)
        lch = imgprep.FrameContext(frame).lch
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
        seg = visual.segment_frame(imgprep.FrameContext(frame).lch)
        np.testing.assert_allclose(visual.itten_contrasts(seg), 0.0,
                                   atol=1e-9)

    def test_full_lightness_contrast(self):
        seg = self._two_segment_map([0.0, 100.0], [30.0, 30.0], [1.0, 1.0])
        values = visual.itten_contrasts(seg)
        assert values[0] == pytest.approx(1.0)
        assert values[2] == pytest.approx(0.0, abs=1e-9)  # same hue

    def test_warm_cold_balance(self):
        seg = self._two_segment_map([50.0, 50.0], [40.0, 40.0],
                                    [np.deg2rad(30), np.deg2rad(200)])
        values = visual.itten_contrasts(seg)
        assert values[3] == pytest.approx(1.0)

    def test_single_segment_is_zero(self, rng):
        lch = imgprep.FrameContext(random_frame(rng, 8, 8)).lch
        seg = visual.segment_frame(lch)
        assert seg.segment_count == 1
        np.testing.assert_allclose(visual.itten_contrasts(seg), 0.0)


def blink_frames(freq_hz, fps, count, low=60, high=200, size=8):
    frames = []
    for i in range(count):
        phase = int(np.floor(2.0 * freq_hz * i / fps)) % 2
        v = high if phase else low
        frames.append(np.full((size, size, 3), v, np.uint8))
    return frames


def lfp_pattern(frames, preset="paper-60"):
    """The LFP pattern extract_video_features finds in uncropped frames."""
    _, pattern = visual.extract_video_features(
        frames, ["lfp"], lfp_preset=preset, crop_letterbox=False)
    return pattern


class TestLfp:
    def test_constant_video_is_silent(self):
        frames = [solid_frame(90, 90, 90)] * 550
        pattern = lfp_pattern(frames)
        assert not pattern.short_input
        np.testing.assert_allclose(pattern.values, 0.0, atol=1e-9)

    def test_blink_located_within_one_bin(self):
        pattern = lfp_pattern(blink_frames(2.0, 25.0, 512))
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
        for preset, dims in visual.LFP_PRESET_DIMS.items():
            with pytest.warns(UserWarning, match="fewer frames"):
                pattern = lfp_pattern(frames, preset)
            assert visual.lfp_feature(pattern, preset).shape == (dims,)

    def test_fps_too_low_raises(self, rng):
        with pytest.raises(ValueError):
            visual.lfp_from_histograms(rng.random((64, 8)), fps=15.0)


def _parity_frames():
    rng = np.random.default_rng(41)
    noise = random_frame(rng, 37, 53)
    boxed = np.zeros((48, 40, 3), np.uint8)
    boxed[6:42] = random_frame(rng, 36, 40)
    return {"noise": noise, "letterboxed": boxed,
            "black": np.zeros((24, 24, 3), np.uint8),
            "one pixel": np.array([[[200, 30, 90]]], np.uint8)}


class TestFrameContext:
    FEATURES = list(visual.FRAME_FEATURE_DIMS)

    @staticmethod
    def _separately(frame):
        """Each feature from planes converted on their own."""
        ihls = imgprep.FrameContext(frame).ihls
        lch = imgprep.FrameContext(frame).lch
        return {
            "gcs": visual.gcs(ihls), "gev": visual.gev(ihls),
            "cf": visual.colorfulness(frame), "cn": frame_color_names(frame),
            "waf": visual.waf(lch, visual.blur_measure(ihls.luminance * 255.0)),
            "ic": visual.itten_contrasts(visual.segment_frame(lch)),
        }

    @pytest.mark.parametrize("name", list(_parity_frames()))
    def test_frame_features_equal_separate_features(self, name):
        frame = _parity_frames()[name]
        before = frame.copy()
        want = self._separately(frame)
        got = visual.frame_features(imgprep.FrameContext(frame), self.FEATURES)
        assert list(got) == self.FEATURES
        for feat in self.FEATURES:
            assert np.array_equal(got[feat], want[feat]), feat
        assert np.array_equal(frame, before)

    @pytest.mark.parametrize("name", list(_parity_frames()))
    def test_video_rows_and_lfp_histograms_equal_per_frame(self, name):
        frame = _parity_frames()[name]
        frames = [frame, frame[::-1].copy(), 255 - frame]
        copies = [f.copy() for f in frames]
        with pytest.warns(UserWarning, match="fewer frames"):
            matrices, pattern = visual.extract_video_features(
                frames, self.FEATURES + ["lfp"], lfp_preset="paper-60")
        cropped = [imgprep.strip_letterbox(f) for f in frames]
        for feat in self.FEATURES:
            want = [self._separately(c)[feat] for c in cropped]
            assert np.array_equal(matrices[feat], np.array(want)), feat
        hists = [visual.lightness_histogram(imgprep.FrameContext(c).lch, 24)
                 for c in cropped]
        want_lfp = visual.lfp_from_histograms(np.array(hists), 25.0)
        assert np.array_equal(pattern.values, want_lfp.values)
        assert all(np.array_equal(f, c) for f, c in zip(frames, copies))

    def test_planes_are_converted_once_and_kept(self, rng):
        ctx = imgprep.FrameContext(random_frame(rng))
        visual.frame_features(ctx, self.FEATURES)
        assert ctx.lch is ctx.lch and ctx.ihls is ctx.ihls
        fresh = imgprep.FrameContext(ctx.frame).lch
        assert np.array_equal(ctx.lch.L, fresh.L)
        assert np.array_equal(ctx.lch.H, fresh.H)
        h, s, v = imgprep.FrameContext(ctx.frame).hsv
        assert all(np.array_equal(a, b) for a, b in zip(ctx.hsv, (h, s, v)))


class TestFrameDims:
    def test_per_frame_dimensions_match_table(self, rng):
        frame = random_frame(rng, 33, 44)
        feats = visual.frame_features(imgprep.FrameContext(frame),
                                      list(visual.FRAME_FEATURE_DIMS))
        for name, dim in visual.FRAME_FEATURE_DIMS.items():
            assert feats[name].shape == (dim,), name
            assert feats[name].dtype == np.float64, name
            assert np.all(np.isfinite(feats[name])), name
