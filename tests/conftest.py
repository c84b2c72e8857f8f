import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240311)


# (height, width): smaller than a tile or threshold map, not a multiple of
# one, a single pixel, single rows and columns
SHAPES = [(37, 41), (33, 17), (3, 5), (1, 1), (1, 9), (9, 1), (2, 2)]


def solid_frame(r, g, b, h=16, w=16):
    frame = np.empty((h, w, 3), dtype=np.uint8)
    frame[..., 0] = r
    frame[..., 1] = g
    frame[..., 2] = b
    return frame


def random_frame(rng, h=16, w=16):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def circular_trig(hues, weights=None):
    """(angular mean, angular deviation) of hue angles by the trig
    formulas: the wrapped arctan2 of the summed weighted sines and cosines,
    and 2 * sqrt(sum(w * sin^2((h - mean) / 2)) / W)."""
    hues = np.asarray(hues, dtype=np.float64)
    w = np.ones_like(hues) if weights is None else np.asarray(weights, float)
    mean = np.mod(np.arctan2(np.sum(w * np.sin(hues)),
                             np.sum(w * np.cos(hues))), 2.0 * np.pi)
    half = np.sin((hues - mean) / 2.0)
    return mean, 2.0 * np.sqrt(np.sum(w * half * half) / w.sum())


def angle_gap(a, b):
    """The distance between two angles around the circle."""
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


def sine_clip(freq, seconds=1.0, sr=22050, amplitude=0.9):
    from avmir.audio import AudioClip

    t = np.arange(int(seconds * sr)) / sr
    return AudioClip(amplitude * np.sin(2.0 * np.pi * freq * t), sr)


def am_noise_clip(mod_freq, seconds=6.2, sr=22050, seed=0, depth=0.9):
    """White noise amplitude-modulated at mod_freq Hz."""
    from avmir.audio import AudioClip

    r = np.random.default_rng(seed)
    t = np.arange(int(seconds * sr)) / sr
    envelope = 1.0 + depth * np.sin(2.0 * np.pi * mod_freq * t)
    samples = 0.3 * envelope * r.normal(0.0, 1.0, t.size)
    return AudioClip(np.clip(samples, -1.0, 1.0), sr)


def stft_power_oracle(samples, window):
    """One-shot reference for audio._stft_power: the whole clip's windowed
    frames, complex spectrum and power in single whole-array steps."""
    if samples.shape[-1] < window:
        raise ValueError("clip too short for one analysis window")
    n_frames = samples.shape[-1] // window
    frames = samples[..., :n_frames * window].reshape(
        samples.shape[:-1] + (n_frames, window))
    hann = np.hanning(window)
    spec = np.fft.rfft(frames * hann, axis=-1)
    scale = (hann.sum() / 2.0) ** 2
    return np.abs(spec) ** 2 / scale


def chroma_oracle(samples):
    """Whole-power reference for audio.chroma: the one-shot power of every
    frame, and each pitch class's bins summed from one gather of that whole
    array.  numpy lays the gather out column-first and adds a class's bins
    one after another in bin order, except when the array holds a single
    frame, which it sums pairwise."""
    from avmir import audio

    power = stft_power_oracle(samples, audio.CHROMA_WINDOW)
    values = np.stack([power[..., bins].sum(axis=-1)
                       for bins in audio._CHROMA_BINS], axis=-1)
    totals = values.sum(axis=-1)
    significant = totals > 1e-10
    values[significant] /= totals[significant][:, None]
    values[~significant] = 1.0 / 12.0
    return values, significant


def mfcc_oracle(samples):
    """Whole-power reference for audio.mfcc of a clip's samples: the
    one-shot power and one mel product."""
    from avmir import audio

    power = stft_power_oracle(samples, audio.SPECTRUM_WINDOW)
    logs = np.log(power @ audio._MEL_BANK.T + 1e-20)
    return audio._dct2_ortho(logs)[..., :audio.MFCC_COEFFS]


class FixedClassifier:
    """Ensemble member classifier that predicts one label for every row."""

    def __init__(self, label):
        self.label = label

    def predict(self, x):
        return np.full(len(x), self.label)


def fixed_member(label, confidence):
    from avmir.ml import EnsembleMember

    return EnsembleMember(classifier=FixedClassifier(label), scaler=None,
                          confidence=confidence)


def vote_one_row(votes, n_classes):
    """ensemble_predict on a 1-row matrix with one fixed member per
    (label, weight) vote, in vote order; returns the winning label id."""
    from avmir.ml import ensemble_predict

    members = [fixed_member(label, weight) for label, weight in votes]
    return int(ensemble_predict([members], [np.zeros((1, 1))],
                                n_classes)[0])
