"""Property: a reader given a truncated or byte-flipped copy of a valid file
returns a valid object or raises an InputError that names the file."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avmir import concepts
from avmir import io as avio
from avmir.audio import AudioClip
from avmir.errors import InputError
from avmir.ml import LabeledDataset

VOCAB = ["a", "b", "c"]


def _valid_files(root):
    """name -> bytes of one small valid file per reader."""
    rng = np.random.default_rng(7)
    avio.write_wav(root / "ok.wav",
                   AudioClip(rng.uniform(-0.5, 0.5, 40), 8000))
    avio.write_ppm(root / "ok.ppm",
                   rng.integers(0, 256, (3, 4, 3), dtype=np.uint8))
    avio.write_pgm(root / "ok.pgm",
                   rng.integers(0, 256, (4, 3), dtype=np.uint8))
    avio.write_raw_stream(
        root / "ok.rgb",
        [rng.integers(0, 256, (2, 3, 3), dtype=np.uint8) for _ in range(2)])
    avio.write_arff(LabeledDataset(rng.normal(size=(3, 2)) * 1e5,
                                   ["x", "y", "x"], ["f0", "f1"]),
                    "rel", root / "ok.arff")
    (root / "ok.csv").write_text("frame_index,a,b,c\n0,0.25,0.5,0.25\n"
                                 "1,0.125,0.125,0.75\n")
    (root / "ok.json").write_text(json.dumps({"entries": [
        {"track_id": "t1", "label": "x", "artist": "p", "audio": "ok.wav"},
        {"track_id": "t2", "label": "y", "concepts": "ok.csv"}]}))
    return {p.suffix: p.read_bytes() for p in root.glob("ok.*")}


def _wav(path):
    clip = avio.read_wav(path)
    assert clip.sample_rate > 0 and clip.samples.size > 0
    assert np.all(np.abs(clip.samples) <= 1.0)


def _ppm(path):
    image = avio.read_ppm(path)
    assert image.dtype == np.uint8 and image.ndim == 3
    assert image.shape[0] > 0 and image.shape[1] > 0 and image.shape[2] == 3


def _pgm(path):
    image = avio.read_pgm(path)
    assert image.dtype == np.uint8 and image.ndim == 2 and image.size > 0


def _raw_stream(path):
    stream = avio.read_frames(path)
    assert np.isfinite(stream.fps) and stream.fps > 0
    for frame in stream:
        assert frame.shape == (stream.height, stream.width, 3)


def _arff(path):
    dataset = avio.read_arff(path)
    assert np.all(np.isfinite(dataset.matrix))
    assert dataset.matrix.shape == (len(dataset.labels), len(dataset.schema))


def _concept_scores(path):
    seq = concepts.read_concept_scores(path, VOCAB)
    assert seq.rows.shape[1] == len(VOCAB)


def _manifest(path):
    manifest = avio.load_manifest(path)
    for entry in manifest:
        for kind in ("audio", "frames", "concepts"):
            rel = getattr(entry, kind)
            assert rel is None or manifest.resolve(rel).exists()


READERS = {".wav": _wav, ".ppm": _ppm, ".pgm": _pgm, ".rgb": _raw_stream,
           ".arff": _arff, ".csv": _concept_scores, ".json": _manifest}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    blobs = _valid_files(root)
    for suffix, read in READERS.items():
        read(root / f"ok{suffix}")
    return root, blobs


@st.composite
def corruptions(draw, blob):
    """A strict prefix of blob, or blob with one to three bytes changed."""
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))]
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data) - 1))
        data[pos] ^= draw(st.integers(1, 255))
    return bytes(data)


@pytest.mark.parametrize("suffix", sorted(READERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupt_file_gives_valid_object_or_located_input_error(
        originals, suffix, data):
    root, blobs = originals
    path = root / f"corrupt{suffix}"
    path.write_bytes(data.draw(corruptions(blobs[suffix])))
    try:
        READERS[suffix](path)
    except InputError as exc:
        assert str(path) in str(exc)
