"""The audio path's working set per track is bounded.

A 30 s track at ANALYSIS_RATE keeps two whole-track arrays: its float64
samples and its SPECTRUM_WINDOW power spectrum.  Every other temporary of
extract-audio and aggregate goes by block, so the traced peak stays within
one MiB above those two, and a long-lived process does not give the heap
back to the kernel and fault it in again on every track.
"""

import json
import os
import platform
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import avmir
from avmir import audio, cli
from avmir.audio import AudioClip

import fileutil

SECONDS = 30
AUDIO_FEATURES = ["rp", "rh", "ssd", "mvd", "tssd", "trh", "mfcc", "chroma"]
ROWS = {
    "extract-audio": partial(cli._audio_feature_vector,
                             features=AUDIO_FEATURES),
    "aggregate": partial(cli._segment_vector, preset="TEN"),
}


def write_am_noise_wav(path, seed):
    """SECONDS of amplitude-modulated noise at ANALYSIS_RATE, 16-bit."""
    rng = np.random.default_rng(seed)
    t = np.arange(SECONDS * audio.ANALYSIS_RATE) / audio.ANALYSIS_RATE
    envelope = 1.0 + 0.9 * np.sin(2.0 * np.pi * 3.0 * t)
    samples = np.clip(0.3 * envelope * rng.normal(0.0, 1.0, t.size), -1, 1)
    fileutil.write_wav(path, AudioClip(samples, audio.ANALYSIS_RATE))


@pytest.fixture(scope="module")
def tracks(tmp_path_factory):
    root = tmp_path_factory.mktemp("tracks")
    paths = [root / f"track{i}.wav" for i in range(3)]
    for seed, path in enumerate(paths):
        write_am_noise_wav(path, seed)
    return paths


@pytest.mark.parametrize("step", sorted(ROWS))
def test_traced_peak_is_samples_spectrum_and_one_mib(tracks, step):
    row = ROWS[step]
    n = SECONDS * audio.ANALYSIS_RATE
    samples_bytes = 8 * n
    spectrum_bytes = 8 * (n // audio.SPECTRUM_WINDOW) * (
        audio.SPECTRUM_WINDOW // 2 + 1)
    row(tracks[0])  # lazy imports and numpy's first-call caches
    tracemalloc.start()
    try:
        row(tracks[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples_bytes + spectrum_bytes + 2 ** 20


# the child imports avmir, then reads its minor page faults around each
# track; the tracks were written by the parent process, so the child's heap
# has seen no large frees before its first track
FAULTS_CHILD = """
import json, resource, sys
from functools import partial
from avmir import cli

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

rows = {
    "extract-audio": partial(cli._audio_feature_vector,
                             features=sys.argv[1].split(",")),
    "aggregate": partial(cli._segment_vector, preset="TEN"),
}
out = {}
for step, row in rows.items():
    out[step] = []
    for path in sys.argv[2:]:
        before = faults()
        row(path)
        out[step].append(faults() - before)
print(json.dumps(out))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's heap trimming on Linux")
def test_a_fresh_process_does_not_refault_its_heap_per_track(tracks):
    env = dict(os.environ)
    src = str(Path(avmir.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_CHILD, ",".join(AUDIO_FEATURES),
         *map(str, tracks)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    faults = json.loads(done.stdout)
    # the first track grows the heap; a whole-track temporary that the
    # heap gives back costs about 2,400 faults on every later track
    for step in ROWS:
        assert faults[step][2] < 300, (step, faults[step])
