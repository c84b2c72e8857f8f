import numpy as np
import pytest

from avmir import aggregate
from avmir.aggregate import SegmentBundle


def brute_moment(values, name):
    values = [float(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    sd = var ** 0.5
    ordered = sorted(values)
    median = (ordered[n // 2] if n % 2
              else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0)
    if name == "mean":
        return mean
    if name == "median":
        return median
    if name == "variance":
        return var
    if name == "std":
        return sd
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    if name == "range":
        return max(values) - min(values)
    if name == "skewness":
        return sum((v - mean) ** 3 for v in values) / n / sd ** 3 if sd else 0.0
    if name == "kurtosis":
        return sum((v - mean) ** 4 for v in values) / n / sd ** 4 if sd else 0.0
    raise AssertionError(name)


def random_bundle(rng, segments=10):
    return SegmentBundle(
        timbre=rng.normal(size=(segments, 12)),
        pitches=rng.random((segments, 12)),
        loudness_max=rng.random(segments),
        loudness_max_time=rng.random(segments),
        segment_length=np.full(segments, 1.0),
    )


class TestMoments:
    def test_identical_vectors(self):
        v = np.array([1.5, -2.0, 7.0])
        out = aggregate.moments([v, v, v], aggregate.TEN_MOMENTS)
        expected = []
        for x in v:
            expected.extend([x, x, 0.0, x, x, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_scalar_sequence(self):
        out = aggregate.moments([[1.0], [2.0], [3.0], [4.0]],
                                ("mean", "range"))
        np.testing.assert_allclose(out, [2.5, 3.0])

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            seq = rng.normal(size=(rng.integers(2, 40), 12))
            out = aggregate.moments(seq, aggregate.TEN_MOMENTS)
            for d in range(12):
                for j, name in enumerate(aggregate.TEN_MOMENTS):
                    assert out[d * 8 + j] == pytest.approx(
                        brute_moment(seq[:, d], name), abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate.moments(np.zeros((0, 3)))

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            aggregate.moments([[1.0]], ())
        with pytest.raises(ValueError):
            aggregate.moments([[1.0]], ("mean", "mean"))
        with pytest.raises(ValueError):
            aggregate.moments([[1.0]], ("mean", "mode"))

    def test_permutation_invariant(self, rng):
        seq = rng.normal(size=(30, 5))
        shuffled = seq[rng.permutation(30)]
        np.testing.assert_allclose(aggregate.moments(seq),
                                   aggregate.moments(shuffled), atol=1e-12)

    def test_subnormal_pair_is_symmetric(self):
        # the mean of [0, 5e-324] rounds to an endpoint; scaling before
        # centring keeps the pair symmetric, so skewness 0 and kurtosis 1
        out = aggregate.moments([[0.0], [5e-324]],
                                ("variance", "skewness", "kurtosis"))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0])


class TestPresets:
    def test_ten_is_216_for_any_bundle(self, rng):
        for segments in (1, 2, 7, 40):
            bundle = random_bundle(rng, segments)
            assert aggregate.preset(bundle, "TEN").shape == (216,)

    def test_identical_segments_give_zero_covariance(self):
        row = np.arange(12.0)
        bundle = SegmentBundle(np.tile(row, (5, 1)), np.tile(row, (5, 1)),
                               np.ones(5), np.ones(5), np.ones(5))
        en3 = aggregate.preset(bundle, "EN3")
        np.testing.assert_allclose(en3[:12], row)
        np.testing.assert_allclose(en3[12:], 0.0, atol=1e-12)

    def test_single_segment_en3_warns(self):
        bundle = SegmentBundle(np.ones((1, 12)), np.ones((1, 12)),
                               [1.0], [0.5], [1.0])
        with pytest.warns(UserWarning, match="degenerate"):
            en3 = aggregate.preset(bundle, "EN3")
        np.testing.assert_allclose(en3[12:], 0.0)

    def test_en5_concatenates_en4_of_both(self, rng):
        bundle = random_bundle(rng)
        en5 = aggregate.preset(bundle, "EN5")
        en4 = aggregate.preset(bundle, "EN4")
        np.testing.assert_array_equal(en5[:96], en4)
        np.testing.assert_array_equal(
            en5[96:], aggregate.moments(bundle.pitches, aggregate.TEN_MOMENTS))

    def test_en3_covariance_matches_numpy(self, rng):
        bundle = random_bundle(rng, 20)
        en3 = aggregate.preset(bundle, "EN3")
        cov = np.cov(bundle.timbre.T, bias=True)
        np.testing.assert_allclose(en3[12:], cov[np.triu_indices(12)],
                                   atol=1e-9)

    def test_unknown_preset_raises(self, rng):
        with pytest.raises(ValueError):
            aggregate.preset(random_bundle(rng), "EN9")


class TestSegmentBundleFromAudio:
    def test_ten_second_clip_gives_ten_segments(self, rng):
        from avmir.audio import AudioClip

        clip = AudioClip(rng.normal(0.0, 0.1, 22050 * 10), 22050)
        bundle = aggregate.segment_bundle_from_audio(clip)
        assert bundle.timbre.shape == (10, 12)
        assert bundle.pitches.shape == (10, 12)
        np.testing.assert_allclose(bundle.segment_length, 1.0)

    def test_silence_has_floor_loudness(self):
        from avmir.audio import AudioClip

        clip = AudioClip(np.zeros(22050 * 3), 22050)
        bundle = aggregate.segment_bundle_from_audio(clip)
        np.testing.assert_allclose(bundle.loudness_max, 0.0)

    def test_click_position_recovered(self):
        from avmir.audio import AudioClip

        samples = np.zeros(22050 * 3)
        samples[int(0.25 * 22050)] = 0.9
        bundle = aggregate.segment_bundle_from_audio(AudioClip(samples, 22050))
        assert bundle.loudness_max_time[0] == pytest.approx(0.25, abs=0.01)
        assert bundle.loudness_max[0] == pytest.approx(0.9)

    def test_too_short_raises(self):
        from avmir.audio import AudioClip

        with pytest.raises(ValueError):
            aggregate.segment_bundle_from_audio(AudioClip(np.zeros(22050), 22050))

    def test_peaks_match_the_absolute_value_argmax(self, rng):
        # 16-bit levels repeat magnitudes, so maxima and minima often tie
        rows = np.round(rng.normal(0.0, 40.0, (64, 50))) / 32768.0
        rows[0] = 0.0
        rows[1, [3, 7]] = [-0.5, 0.5]
        rows[2, [3, 7]] = [0.5, -0.5]
        rows[3, [3, 7, 9]] = [np.nan, 0.9, np.nan]
        rows[4] = -rows[4]
        rows[5, 20] = -0.0
        want = np.abs(rows).argmax(axis=1)
        assert np.array_equal(aggregate._first_abs_peaks(rows), want)
        assert np.array_equal(aggregate._first_abs_peaks(rows[:, ::-1]),
                              np.abs(rows[:, ::-1]).argmax(axis=1))
