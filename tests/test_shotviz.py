import numpy as np
import pytest

from avmir import shotviz
from conftest import random_frame, solid_frame


def mean_color_bar_oracle(frames, resample_height=None):
    """The float64 formula: per-row channel means of each frame, each column
    resampled by np.interp when asked, rounded half to even."""
    columns = []
    for frame in frames:
        col = frame.astype(np.float64).mean(axis=1)
        if resample_height is not None:
            src = np.linspace(0.0, 1.0, col.shape[0])
            dst = np.linspace(0.0, 1.0, resample_height)
            col = np.stack([np.interp(dst, src, col[:, c]) for c in range(3)],
                           axis=1)
        columns.append(col)
    bar = np.stack(columns, axis=1)
    return np.clip(np.round(bar), 0, 255).astype(np.uint8)


def views(rng):
    """Non-contiguous frames: a letterbox-and-pillarbox crop, a mirror and a
    read-only (H, W, 3) view of channel-planar storage."""
    crop = random_frame(rng, 20, 30)[3:-3, 2:-2]
    mirror = random_frame(rng, 14, 9)[:, ::-1]
    planar = np.moveaxis(random_frame(rng, 11, 6).transpose(2, 0, 1).copy(),
                         0, -1)
    planar.flags.writeable = False
    frames = crop, mirror, planar
    assert not any(f.flags.c_contiguous for f in frames)
    return frames


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
            expect = np.round(frame.astype(float).mean(axis=1)).astype(np.uint8)
            assert bar[:, i].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("h, w", [(1, 1), (7, 13)])
    def test_bytes_match_float_oracle(self, rng, h, w):
        frames = [random_frame(rng, h, w) for _ in range(3)]
        assert shotviz.mean_color_bar(frames).tobytes() == \
            mean_color_bar_oracle(frames).tobytes()

    def test_non_contiguous_views_match_float_oracle(self, rng):
        for view in views(rng):
            frames = [view, np.ascontiguousarray(view)]
            assert shotviz.mean_color_bar(frames).tobytes() == \
                mean_color_bar_oracle(frames).tobytes()

    def test_half_means_round_to_even(self):
        # rows of two pixels v and v + 1: every mean is exactly v + 0.5
        v = np.array([0, 1, 2, 3, 126, 127, 253, 254], np.uint8)
        frame = np.empty((v.size, 2, 3), np.uint8)
        frame[:, 0] = v[:, None]
        frame[:, 1] = v[:, None] + 1
        bar = shotviz.mean_color_bar([frame])
        assert bar.tobytes() == mean_color_bar_oracle([frame]).tobytes()
        even = v + v % 2
        np.testing.assert_array_equal(bar[:, 0], np.repeat(even[:, None], 3, 1))

    def test_resampled_bytes_match_float_oracle(self, rng):
        frames = [random_frame(rng, 32, 8), random_frame(rng, 17, 5),
                  random_frame(rng, 40, 12)[::-1, 2:9]]
        assert shotviz.mean_color_bar(frames, 24).tobytes() == \
            mean_color_bar_oracle(frames, 24).tobytes()

    def test_mirror_invariance(self, rng):
        frames = [random_frame(rng, 8, 10)]
        mirrored = [frames[0][:, ::-1]]
        np.testing.assert_array_equal(shotviz.mean_color_bar(frames),
                                      shotviz.mean_color_bar(mirrored))

    def test_resample_height(self, rng):
        frames = [random_frame(rng, 32, 8), random_frame(rng, 16, 8)]
        bar = shotviz.mean_color_bar(frames, resample_height=24)
        assert bar.shape == (24, 2, 3)


def mean_rgb_l1(a, b):
    ma = a.astype(np.float64).mean(axis=(0, 1))
    mb = b.astype(np.float64).mean(axis=(0, 1))
    return float(np.abs(ma - mb).sum() / 765.0)


def histogram_chi2(a, b):
    # 64 bins per channel: a level's bin is level // 4
    def hist(frame):
        h = np.concatenate([np.bincount(frame[..., c].ravel() // 4,
                                        minlength=64) for c in range(3)])
        return h / h.sum()

    ha, hb = hist(a), hist(b)
    total = ha + hb
    occupied = total > 0
    diff = ha[occupied] - hb[occupied]
    return float(np.sum(diff * diff / total[occupied])) / 2.0


# each metric of one frame pair, by its formula
PAIRWISE_ACTIVITY = {"mean-rgb-l1": mean_rgb_l1,
                     "histogram-chi2": histogram_chi2}


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

    @pytest.mark.parametrize("metric", sorted(shotviz.ACTIVITY_METRICS))
    def test_one_descriptor_per_frame(self, rng, monkeypatch, metric):
        frames = [random_frame(rng, 12, 20) for _ in range(7)]
        describe, distance = shotviz.ACTIVITY_METRICS[metric]
        described = []

        def counting(frame):
            described.append(frame)
            return describe(frame)

        monkeypatch.setitem(shotviz.ACTIVITY_METRICS, metric,
                            (counting, distance))
        got = shotviz.frame_activity(frames, metric)
        want = np.array([PAIRWISE_ACTIVITY[metric](a, b)
                         for a, b in zip(frames, frames[1:])])
        assert got.tobytes() == want.tobytes()
        assert len(described) == len(frames)

    @pytest.mark.parametrize("metric", sorted(shotviz.ACTIVITY_METRICS))
    def test_non_contiguous_views_match_formula(self, rng, metric):
        crop, mirror, planar = views(rng)
        frames = [crop, mirror, planar, crop[::-1], planar]
        want = np.array([PAIRWISE_ACTIVITY[metric](a, b)
                         for a, b in zip(frames, frames[1:])])
        assert shotviz.frame_activity(frames, metric).tobytes() == \
            want.tobytes()

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
