import numpy as np
import pytest

from avmir import aggregate, audio
from avmir.audio import AudioClip
from conftest import sine_clip


def brute_seven_stats(values):
    """Pure-python reimplementation of the seven-statistics convention."""
    values = [float(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    sd = var ** 0.5
    if sd > 0:
        skew = sum((v - mean) ** 3 for v in values) / n / sd ** 3
        kurt = sum((v - mean) ** 4 for v in values) / n / sd ** 4
    else:
        skew = kurt = 0.0
    ordered = sorted(values)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    return [min(values), max(values), mean, median, var, skew, kurt]


class TestResample:
    @staticmethod
    def amplitude(clip):
        # peak over the interior; the first and last 10 ms see the filter's
        # zero padding
        edge = clip.sample_rate // 100
        return np.abs(clip.samples[edge:-edge]).max()

    def test_content_above_new_nyquist_is_removed(self):
        # without the low-pass, 15 kHz at 44.1 kHz folds to 7.05 kHz
        out = audio.resample(sine_clip(15000.0, sr=44100, amplitude=0.5))
        assert out.sample_rate == audio.ANALYSIS_RATE
        assert self.amplitude(out) < 0.01 * 0.5

    @pytest.mark.parametrize("sr", [44100, 48000])
    def test_passband_tone_keeps_its_amplitude(self, sr):
        out = audio.resample(sine_clip(1000.0, sr=sr, amplitude=0.5))
        assert out.samples.size == audio.ANALYSIS_RATE
        assert self.amplitude(out) == pytest.approx(0.5, rel=0.01)

    def test_analysis_rate_clip_is_returned_as_is(self):
        clip = sine_clip(15000.0, sr=audio.ANALYSIS_RATE)
        assert audio.resample(clip) is clip

    def test_clip_shorter_than_the_filter(self):
        out = audio.resample(AudioClip(np.full(10, 0.25), 44100))
        assert out.samples.size == 5
        assert np.all(np.isfinite(out.samples))


class TestSonogram:
    def test_silence_is_at_floor(self):
        son = audio.sonogram(AudioClip(np.zeros(22050), 22050))
        assert son.values.shape[0] == 24
        assert son.values.max() == 0.0

    def test_short_clip_raises(self):
        with pytest.raises(ValueError, match="too short"):
            audio.sonogram(AudioClip(np.zeros(100), 22050))

    def test_tone_energy_in_first_band(self):
        clip = sine_clip(100.0, seconds=2.0, amplitude=1.0)
        power, _ = audio.bark_power(clip)
        band_energy = power.mean(axis=1)
        # oracle: locate the tone's FFT bins and their Bark bands directly
        freqs = np.fft.rfftfreq(512, d=1.0 / 22050)
        main_bins = np.argsort(np.abs(freqs - 100.0))[:2]
        bands = set(np.searchsorted(audio.BARK_EDGES, freqs[main_bins],
                                    side="right") - 1)
        assert band_energy.argmax() in bands
        assert band_energy.argmax() == 0
        son = audio.sonogram(clip)
        assert son.values[4:].max() < 0.05 * son.values[:2].max()

    def test_doubling_amplitude_adds_six_db(self):
        quiet = sine_clip(1000.0, seconds=1.0, amplitude=0.25)
        loud = sine_clip(1000.0, seconds=1.0, amplitude=0.5)
        db_q = audio.db_from_power(audio.bark_power(quiet)[0])
        db_l = audio.db_from_power(audio.bark_power(loud)[0])
        band = 8  # 1 kHz lies in band 9 (index 8)
        np.testing.assert_allclose(db_l[band] - db_q[band], 6.0206, atol=0.01)


def make_segment(frame_rate=22050 / 512.0, mod_band=None, mod_freq=4.0):
    frames = int(round(6.0 * frame_rate))
    values = np.ones((24, frames))
    if mod_band is not None:
        t = np.arange(frames) / frame_rate
        values[mod_band] = 1.0 + 0.5 * np.sin(2.0 * np.pi * mod_freq * t)
    return values, frame_rate


class TestRhythmPattern:
    def test_constant_sonogram_is_silent(self):
        values, fr = make_segment()
        np.testing.assert_allclose(audio.rhythm_pattern(values, fr), 0.0,
                                   atol=1e-9)

    def test_shape(self):
        values, fr = make_segment(mod_band=3)
        assert audio.rhythm_pattern(values, fr).shape == (24, 60)

    def test_modulation_located_within_one_bin(self):
        values, fr = make_segment(mod_band=10, mod_freq=4.0)
        rp = audio.rhythm_pattern(values, fr)
        freqs = audio.modulation_frequencies(fr, values.shape[1])
        # oracle: direct DFT of the modulated band
        spectrum = np.abs(np.fft.rfft(values[10]))[1:61]
        oracle_peak = int(spectrum.argmax())
        target = int(np.abs(freqs - 4.0).argmin())
        assert abs(oracle_peak - target) <= 1
        assert abs(int(rp[10].argmax()) - target) <= 1

    def test_weighting_peaks_near_four_hz(self):
        w = audio.fluctuation_weight(np.array([0.5, 2.0, 4.0, 8.0, 10.0]))
        assert w.argmax() == 2
        assert w.max() == pytest.approx(1.0)


class TestRhythmHistogram:
    def test_zero_pattern(self):
        np.testing.assert_array_equal(
            audio.rhythm_histogram(np.zeros((24, 60))), np.zeros(60))

    def test_single_entry(self):
        rp = np.zeros((24, 60))
        rp[5, 17] = 3.25
        rh = audio.rhythm_histogram(rp)
        assert rh[17] == 3.25
        assert rh.sum() == 3.25

    def test_total_preserved(self, rng):
        rp = rng.random((24, 60))
        assert audio.rhythm_histogram(rp).sum() == pytest.approx(rp.sum())


class TestSsd:
    def test_constant_band(self):
        values = np.full((24, 10), 3.5)
        out = audio.ssd(values)
        np.testing.assert_allclose(out[0], [3.5, 3.5, 3.5, 3.5, 0, 0, 0])

    def test_small_example(self):
        values = np.tile([1.0, 2.0, 3.0, 4.0], (24, 1))
        out = audio.ssd(values)
        np.testing.assert_allclose(out[0], [1.0, 4.0, 2.5, 2.5, 1.25,
                                            0.0, 1.64], atol=1e-9)

    def test_matches_brute_force(self, rng):
        values = rng.random((24, 50))
        out = audio.ssd(values)
        for band in range(24):
            np.testing.assert_allclose(out[band],
                                       brute_seven_stats(values[band]),
                                       atol=1e-9)

    def test_flattened_length(self, rng):
        assert audio.ssd(rng.random((24, 9))).size == 168


class TestModvar:
    def test_zero_pattern(self):
        out = audio.modvar(np.zeros((24, 60)))
        np.testing.assert_array_equal(out, np.zeros((60, 7)))

    def test_flattened_length(self, rng):
        assert audio.modvar(rng.random((24, 60))).size == 420

    def test_constant_column(self, rng):
        rp = rng.random((24, 60))
        rp[:, 13] = 2.0
        out = audio.modvar(rp)
        np.testing.assert_allclose(out[13], [2, 2, 2, 2, 0, 0, 0], atol=1e-12)

    def test_matches_brute_force(self, rng):
        rp = rng.random((24, 60))
        out = audio.modvar(rp)
        for col in range(60):
            np.testing.assert_allclose(out[col],
                                       brute_seven_stats(rp[:, col]),
                                       atol=1e-9)


class TestTrackFeatures:
    def test_dimensions(self, rng):
        clip = AudioClip(rng.normal(0.0, 0.1, 22050 * 26), 22050)
        feats = audio.track_features(clip)
        for name, dim in audio.TRACK_FEATURE_DIMS.items():
            assert feats[name].shape == (dim,), name

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="6 s"):
            audio.track_features(AudioClip(np.zeros(22050 * 3), 22050))

    def test_single_segment_temporal_variance_zero(self, rng):
        clip = AudioClip(rng.normal(0.0, 0.1, int(22050 * 6.5)), 22050)
        feats = audio.track_features(clip)
        tssd = feats["tssd"].reshape(168, 7)
        np.testing.assert_allclose(tssd[:, 4:], 0.0, atol=1e-12)

    def test_identical_segments_median_equals_segment(self, rng):
        fr = 22050 / 512.0
        seg_samples = int(round(6.0 * fr)) * 512
        chunk = rng.normal(0.0, 0.1, seg_samples)
        clip = AudioClip(np.tile(chunk, 2), 22050)
        feats = audio.track_features(clip)
        son = audio.sonogram(AudioClip(chunk, 22050))
        rp_single = audio.rhythm_pattern(
            son.values[:, :int(round(6.0 * fr))], son.frame_rate)
        np.testing.assert_allclose(feats["rp"], rp_single.ravel(), atol=1e-9)

    def test_resampled_input_accepted(self, rng):
        clip = AudioClip(rng.normal(0.0, 0.1, 44100 * 7), 44100)
        feats = audio.track_features(clip)
        assert feats["rp"].shape == (1440,)

    def test_segment_permutation_leaves_median_rp_unchanged(self, rng):
        # median aggregation is order-free: swapping whole segments of the
        # clip must not move the aggregated RP (3 segments, none skipped)
        fr = 22050 / 512.0
        seg_samples = int(round(6.0 * fr)) * 512
        chunks = [rng.normal(0.0, 0.1, seg_samples) for _ in range(3)]
        a = audio.track_features(AudioClip(np.concatenate(chunks), 22050))
        permuted = [chunks[2], chunks[0], chunks[1]]
        b = audio.track_features(AudioClip(np.concatenate(permuted), 22050))
        np.testing.assert_allclose(a["rp"], b["rp"], atol=1e-9)
        np.testing.assert_allclose(a["rh"], b["rh"], atol=1e-9)


class TestMfcc:
    def test_silence_constant_frames(self):
        out = audio.mfcc(np.zeros(22050), 22050)
        assert out.shape[1] == 13
        np.testing.assert_allclose(out.var(axis=0), 0.0, atol=1e-12)

    def test_gain_invariance_of_higher_coefficients(self, rng):
        noise = rng.normal(0.0, 0.2, 22050)
        a = audio.mfcc(0.9 * noise, 22050)
        b = audio.mfcc(0.009 * noise, 22050)
        np.testing.assert_allclose(a[:, 1:], b[:, 1:], atol=1e-6)

    def test_tone_and_noise_differ(self, rng):
        t = np.arange(22050) / 22050.0
        tone = audio.mfcc(0.5 * np.sin(2 * np.pi * 440 * t), 22050)
        noise = audio.mfcc(rng.normal(0.0, 0.2, 22050), 22050)
        a = tone.mean(axis=0)
        b = noise.mean(axis=0)
        scale = np.maximum(np.abs(a) + np.abs(b), 1e-9)
        assert np.linalg.norm((a - b) / scale) > 0.1


class TestChroma:
    def test_a440_maps_to_pitch_class_a(self):
        values, significant = audio.chroma(sine_clip(440.0).samples, 22050)
        assert significant.all()
        assert values.mean(axis=0).argmax() == audio.PITCH_CLASS_NAMES.index("A")

    def test_octave_invariance(self):
        values, _ = audio.chroma(sine_clip(880.0).samples, 22050)
        assert values.mean(axis=0).argmax() == audio.PITCH_CLASS_NAMES.index("A")

    def test_silence_uniform_and_flagged(self):
        values, significant = audio.chroma(np.zeros(22050), 22050)
        assert not significant.any()
        np.testing.assert_allclose(values, 1.0 / 12.0)

    def test_rows_normalized(self, rng):
        values, significant = audio.chroma(rng.normal(0.0, 0.3, 22050), 22050)
        np.testing.assert_allclose(values[significant].sum(axis=1), 1.0,
                                   atol=1e-9)


def click_track(seconds=5.3, sr=22050, every=11025):
    samples = np.zeros(int(seconds * sr))
    samples[::every] = 0.9
    return AudioClip(samples, sr)


class TestBatchedFrontEnd:
    """mfcc and chroma on a (k, n) array equal the row-by-row calls, and
    the batched segment bundle equals a per-segment loop."""

    @staticmethod
    def rows(rng):
        noise = rng.normal(0.0, 0.2, (3, 22050))
        return np.vstack([noise, click_track(1.0).samples[None, :],
                          np.zeros((1, 22050))])

    def test_mfcc_rows_match_single_calls(self, rng):
        rows = self.rows(rng)
        batched = audio.mfcc(rows, 22050)
        assert batched.shape[0] == rows.shape[0]
        for row, out in zip(rows, batched):
            assert np.array_equal(out, audio.mfcc(row, 22050))

    def test_chroma_rows_match_single_calls(self, rng):
        rows = self.rows(rng)
        values, significant = audio.chroma(rows, 22050)
        assert not significant[-1].any()
        for row, v, s in zip(rows, values, significant):
            v1, s1 = audio.chroma(row, 22050)
            assert np.array_equal(v, v1)
            assert np.array_equal(s, s1)

    @staticmethod
    def loop_bundle(clip):
        """Per-segment oracle: one mfcc and one chroma call per segment."""
        rate = clip.sample_rate
        seg_len = int(round(aggregate.BUNDLE_SEGMENT_SECONDS * rate))
        timbre, pitches, lmax, lmax_t = [], [], [], []
        for s in range(clip.samples.size // seg_len):
            chunk = clip.samples[s * seg_len:(s + 1) * seg_len]
            timbre.append(audio.mfcc(chunk, rate)[:, 1:13].mean(axis=0))
            ch, _ = audio.chroma(chunk, rate)
            pitches.append(ch.mean(axis=0))
            peak = int(np.argmax(np.abs(chunk)))
            lmax.append(float(np.abs(chunk[peak])))
            lmax_t.append(peak / rate)
        return (np.array(timbre), np.array(pitches), np.array(lmax),
                np.array(lmax_t))

    @pytest.mark.parametrize("kind", ["noise", "clicks"])
    def test_bundle_matches_per_segment_loop(self, rng, kind):
        if kind == "noise":
            clip = AudioClip(rng.normal(0.0, 0.2, 22050 * 6 + 1234), 22050)
        else:
            clip = click_track()
        bundle = aggregate.segment_bundle_from_audio(clip)
        timbre, pitches, lmax, lmax_t = self.loop_bundle(clip)
        assert np.array_equal(bundle.timbre, timbre)
        assert np.array_equal(bundle.pitches, pitches)
        assert np.array_equal(bundle.loudness_max, lmax)
        assert np.array_equal(bundle.loudness_max_time, lmax_t)
        np.testing.assert_array_equal(bundle.segment_length,
                                      np.full(timbre.shape[0], 1.0))

    def test_bundle_resamples_to_analysis_rate(self, rng):
        clip = AudioClip(rng.normal(0.0, 0.2, 44100 * 4 + 17), 44100)
        bundle = aggregate.segment_bundle_from_audio(clip)
        oracle = aggregate.segment_bundle_from_audio(audio.resample(clip))
        for name in ("timbre", "pitches", "loudness_max", "loudness_max_time",
                     "segment_length"):
            assert np.array_equal(getattr(bundle, name),
                                  getattr(oracle, name)), name
