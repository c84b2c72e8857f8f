import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240311)


def solid_frame(r, g, b, h=16, w=16):
    frame = np.empty((h, w, 3), dtype=np.uint8)
    frame[..., 0] = r
    frame[..., 1] = g
    frame[..., 2] = b
    return frame


def random_frame(rng, h=16, w=16):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


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


class FixedClassifier:
    """Ensemble member classifier that predicts one label for every row."""

    def __init__(self, label):
        self.label = label

    def predict(self, x):
        return np.full(len(x), self.label)


def fixed_member(label, confidence):
    from avmir.ml import EnsembleMember

    return EnsembleMember(tag="t", classifier=FixedClassifier(label),
                          scaler=None, confidence=confidence)


def vote_one_row(votes, n_classes):
    """ensemble_predict on a 1-row matrix with one fixed member per
    (label, weight) vote, in vote order; returns the winning label id."""
    from avmir.ml import ensemble_predict

    members = [fixed_member(label, weight) for label, weight in votes]
    return int(ensemble_predict([members], [np.zeros((1, 1))],
                                n_classes)[0])
