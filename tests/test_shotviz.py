import numpy as np
import pytest

from avmir import shotviz
from conftest import random_frame, solid_frame


class TestMeanColorBar:
    def test_constant_video_exact(self):
        frames = [solid_frame(12, 200, 77, 10, 6)] * 5
        bar = shotviz.mean_color_bar(frames)
        assert bar.shape == (10, 5, 3)
        assert np.all(bar[:, :, 0] == 12)
        assert np.all(bar[:, :, 1] == 200)
        assert np.all(bar[:, :, 2] == 77)

    def test_alternating_black_white(self):
        frames = [solid_frame(v, v, v) for v in (0, 255, 0, 255)]
        bar = shotviz.mean_color_bar(frames)
        np.testing.assert_array_equal(bar[:, 0], 0)
        np.testing.assert_array_equal(bar[:, 1], 255)

    def test_columns_match_brute_force(self, rng):
        frames = [random_frame(rng, 12, 20) for _ in range(4)]
        bar = shotviz.mean_color_bar(frames)
        for i, frame in enumerate(frames):
            expect = frame.astype(float).mean(axis=1)
            assert np.abs(bar[:, i].astype(float) - expect).max() <= 1.0

    def test_mirror_invariance(self, rng):
        frames = [random_frame(rng, 8, 10)]
        mirrored = [frames[0][:, ::-1]]
        np.testing.assert_array_equal(shotviz.mean_color_bar(frames),
                                      shotviz.mean_color_bar(mirrored))

    def test_resample_height(self, rng):
        frames = [random_frame(rng, 32, 8), random_frame(rng, 16, 8)]
        bar = shotviz.mean_color_bar(frames, resample_height=24)
        assert bar.shape == (24, 2, 3)


class TestFrameActivity:
    def test_identical_frames_zero(self, rng):
        f = random_frame(rng)
        distances = shotviz.frame_activity([f, f.copy(), f.copy()])
        np.testing.assert_allclose(distances, 0.0)

    def test_black_white_is_maximal(self):
        frames = [solid_frame(0, 0, 0), solid_frame(255, 255, 255)]
        distances = shotviz.frame_activity(frames, "mean-rgb-l1")
        assert distances[0] == pytest.approx(1.0)

    def test_length(self, rng):
        frames = [random_frame(rng) for _ in range(7)]
        assert shotviz.frame_activity(frames).shape == (6,)

    def test_symmetric_metrics(self, rng):
        a, b = random_frame(rng), random_frame(rng)
        for metric in shotviz.ACTIVITY_METRICS:
            d_ab = shotviz.frame_activity([a, b], metric)[0]
            d_ba = shotviz.frame_activity([b, a], metric)[0]
            assert d_ab == pytest.approx(d_ba)

    def test_chi2_range(self, rng):
        frames = [random_frame(rng) for _ in range(4)]
        distances = shotviz.frame_activity(frames, "histogram-chi2")
        assert np.all(distances >= 0.0)
        assert np.all(distances <= 1.0)


class TestNaiveCutDetect:
    def test_constant_profile_no_boundaries(self):
        assert shotviz.naive_cut_detect(np.full(40, 0.2)) == []

    def test_single_spike(self):
        d = np.full(41, 0.01)
        d[20] = 0.9
        assert shotviz.naive_cut_detect(d) == [21]

    def test_boundaries_strictly_increasing_in_range(self, rng):
        d = rng.random(200)
        out = shotviz.naive_cut_detect(d, window=9, kappa=1.5)
        assert all(1 <= b <= 200 for b in out)
        assert all(a < b for a, b in zip(out, out[1:]))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            shotviz.naive_cut_detect(np.ones(5), window=4)

    def test_strobe_video_overfires(self):
        # one true scene, strobing light: a threshold detector fires on
        # every flash, massively overcounting the single scene boundary
        frames = []
        for i in range(120):
            v = 255 if (i // 6) % 2 else 20
            frames.append(solid_frame(v, v, v))
        distances = shotviz.frame_activity(frames)
        boundaries = shotviz.naive_cut_detect(distances)
        true_scene_count = 1
        assert len(boundaries) > true_scene_count
