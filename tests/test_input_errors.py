"""Input checks reached through the command line: each malformed input
exits 2 and the message names the file (and the line, where there is one)
or the flag value at fault."""

import json

import numpy as np
import pytest

from avmir import cli
from avmir import io as avio
from avmir.audio import AudioClip
from avmir.ml import LabeledDataset

import fileutil


def run(*argv):
    return cli.main([str(a) for a in argv])


def fails_naming(capsys, argv, message):
    """Run argv, expect exit 2 and message in stderr."""
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert message in err, err


class TestArffExport:
    @pytest.mark.parametrize("table, message", [
        ("", ": empty file"),
        ("x,y,class\n1.0,2.0,a\n3.0,b\n", ":3: expected 3 cells, got 2"),
        ("x,y,class\n1.0,two,a\n", ":2: non-numeric feature value"),
        ("x,y,class\n", ": no data rows"),
    ], ids=["empty", "cell-count", "non-numeric", "no-rows"])
    def test_malformed_csv(self, tmp_path, capsys, table, message):
        csv_path = tmp_path / "f.csv"
        csv_path.write_text(table)
        fails_naming(capsys, ["arff-export", "--csv", csv_path,
                              "--out", tmp_path / "f.arff"],
                     f"{csv_path}{message}")
        assert not (tmp_path / "f.arff").exists()


class TestFeatureList:
    @pytest.mark.parametrize("features, message", [
        ("bogus", "unknown features: bogus; choose from"),
        (" , ", "empty feature list"),
    ], ids=["unknown", "empty"])
    @pytest.mark.parametrize("command, source", [
        ("extract-audio", "--wav"), ("extract-visual", "--frames")])
    def test_bad_feature_list(self, tmp_path, capsys, command, source,
                              features, message):
        fails_naming(capsys, [command, source, tmp_path / "none",
                              "--features", features,
                              "--out", tmp_path / "o.arff"],
                     message)


class TestManifest:
    @pytest.mark.parametrize("payload, message", [
        ([], "manifest must be an object with 'entries'"),
        ({"entries": [{"track_id": "a"}]}, "entry 0 missing key 'label'"),
        ({"entries": []}, "empty manifest"),
    ], ids=["not-an-object", "missing-key", "empty"])
    def test_malformed_manifest(self, tmp_path, capsys, payload, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        fails_naming(capsys, ["extract-audio", "--manifest", manifest,
                              "--out", tmp_path / "o.arff"],
                     f"{manifest}: {message}")


class TestFrameSources:
    @pytest.mark.parametrize("command", ["extract-visual", "meancolorbar"])
    def test_empty_ppm_directory(self, tmp_path, capsys, command):
        frames = tmp_path / "frames"
        frames.mkdir()
        fails_naming(capsys, [command, "--frames", frames,
                              "--out", tmp_path / "out"],
                     f"no .ppm files in {frames}")


class TestArffHeader:
    @pytest.mark.parametrize("header, message", [
        ("@ATTRIBUTE f NUMERIC\n@ATTRIBUTE class {a,b\n",
         "unterminated nominal set (line 3)"),
        ("@ATTRIBUTE f NUMERIC\n@ATTRIBUTE g NUMERIC\n",
         "no nominal class attribute (line 4)"),
    ], ids=["unterminated-set", "no-class"])
    def test_malformed_header(self, tmp_path, capsys, header, message):
        arff = tmp_path / "bad.arff"
        arff.write_text(f"@RELATION r\n{header}@DATA\n1.0,a\n")
        fails_naming(capsys, ["crossval", "--arff", arff,
                              "--out-dir", tmp_path / "cv"],
                     f"{arff}: {message}")


def _write_faces(directory, count, rng):
    directory.mkdir(parents=True)
    for i in range(count):
        fileutil.write_pgm(directory / f"{i}.pgm",
                           rng.integers(0, 256, (16, 16), dtype=np.uint8))


class TestConceptInputs:
    def test_empty_vocabulary_file(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n  \n")
        scores = tmp_path / "s.csv"
        scores.write_text("frame_index,a\n0,1.0\n")
        fails_naming(capsys, ["ingest-concepts", "--scores", scores,
                              "--vocab", vocab, "--out", tmp_path / "o.arff"],
                     f"empty vocabulary file: {vocab}")

    def test_empty_gallery(self, tmp_path, capsys, rng):
        gallery = tmp_path / "gallery"
        (gallery / "alice").mkdir(parents=True)
        _write_faces(tmp_path / "probes", 1, rng)
        fails_naming(capsys, ["faces", "--gallery", gallery,
                              "--probes", tmp_path / "probes",
                              "--out-dir", tmp_path / "out"],
                     f"no gallery images under {gallery}")

    def test_no_probes(self, tmp_path, capsys, rng):
        _write_faces(tmp_path / "gallery" / "alice", 1, rng)
        probes = tmp_path / "probes"
        probes.mkdir()
        fails_naming(capsys, ["faces", "--gallery", tmp_path / "gallery",
                              "--probes", probes,
                              "--out-dir", tmp_path / "out"],
                     f"no .pgm probes in {probes}")


def _write_arff(path, rows=10):
    """A two-class ARFF of rows rows, alternating labels."""
    labels = ["a" if i % 2 else "b" for i in range(rows)]
    matrix = np.arange(rows * 2, dtype=np.float64).reshape(rows, 2)
    avio.write_arff(LabeledDataset(matrix, labels, ["f0", "f1"]), "r", path)
    return path


class TestMediaSources:
    def test_wav_too_short_to_resample(self, tmp_path, capsys):
        # one sample at 48 kHz resamples to round(22050 / 48000) = 0
        wav = tmp_path / "one.wav"
        fileutil.write_wav(wav, AudioClip(np.array([0.5]), 48000))
        fails_naming(capsys, ["extract-audio", "--wav", wav, "--features",
                              "ssd", "--out", tmp_path / "o.arff"],
                     f"{wav}: empty audio clip")
        assert not (tmp_path / "o.arff").exists()

    def test_header_only_stream(self, tmp_path, capsys):
        stream = tmp_path / "empty.rgb"
        stream.write_bytes(b'{"width": 4, "height": 2, "fps": 25}\n')
        fails_naming(capsys, ["extract-visual", "--frames", stream,
                              "--out", tmp_path / "o.arff"],
                     f"{stream}: empty frame stream")

    def test_lfp_of_one_frame(self, tmp_path, capsys):
        stream = tmp_path / "one.rgb"
        fileutil.write_raw_stream(stream, [np.full((4, 4, 3), 90, np.uint8)])
        fails_naming(capsys, ["extract-visual", "--frames", stream,
                              "--features", "gcs,lfp",
                              "--out", tmp_path / "o.arff"],
                     f"{stream}: lfp needs at least two frames")

    def test_negative_kappa(self, tmp_path, capsys):
        stream = tmp_path / "two.rgb"
        fileutil.write_raw_stream(stream, [np.full((4, 4, 3), v, np.uint8)
                                           for v in (20, 200)])
        fails_naming(capsys, ["cutscan", "--frames", stream, "--kappa", "-1",
                              "--out", tmp_path / "cuts.json"],
                     "kappa must be >= 0")
        assert not (tmp_path / "cuts.json").exists()


class TestClassifierRuns:
    def test_one_fold(self, tmp_path, capsys):
        fails_naming(capsys, ["crossval", "--arff",
                              _write_arff(tmp_path / "d.arff"),
                              "--folds", "1", "--out-dir", tmp_path / "cv"],
                     "need at least 2 folds")
        assert not (tmp_path / "cv" / "metrics.json").exists()

    @pytest.mark.parametrize("options, message", [
        (["--n", "0"], "no ensemble members"),
        (["--holdout", "0.01"], "holdout fraction leaves no held-out rows"),
    ], ids=["no-members", "no-held-out-rows"])
    def test_ensemble(self, tmp_path, capsys, options, message):
        fails_naming(capsys, ["ensemble", "--arff",
                              _write_arff(tmp_path / "d.arff"), *options,
                              "--clf", "knn", "--out-dir", tmp_path / "ens"],
                     message)
        assert not (tmp_path / "ens" / "metrics.json").exists()


class TestSplits:
    def _manifest(self, tmp_path, entries):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": entries}))
        return manifest

    def _fails(self, capsys, tmp_path, manifest, options, message):
        train, test = tmp_path / "train.txt", tmp_path / "test.txt"
        fails_naming(capsys, ["splits", "--manifest", manifest, *options,
                              "--out-train", train, "--out-test", test],
                     message)
        assert not train.exists() and not test.exists()

    def test_zero_fraction(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, [
            {"track_id": f"t{i}", "label": "ab"[i % 2]} for i in range(4)])
        self._fails(capsys, tmp_path, manifest, ["--fraction", "0"],
                    "train fraction must lie in (0, 1)")

    def test_entry_without_artist(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, [
            {"track_id": "a", "label": "x", "artist": "p"},
            {"track_id": "b", "label": "y"}])
        self._fails(capsys, tmp_path, manifest, ["--filter", "artist"],
                    "entry 'b' lacks the artist key")

    def test_one_artist_leaves_a_side_empty(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, [
            {"track_id": f"t{i}", "label": "ab"[i % 2], "artist": "p"}
            for i in range(4)])
        with pytest.warns(UserWarning, match="one artist group"):
            self._fails(capsys, tmp_path, manifest, ["--filter", "artist"],
                        "group filter produced an empty split side")


class TestConceptScores:
    def test_non_numeric_frame_index_after_the_header(self, tmp_path,
                                                      capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n")
        scores = tmp_path / "s.csv"
        scores.write_text("frame_index,a,b\n0,0.5,0.5\nx,0.5,0.5\n")
        fails_naming(capsys, ["ingest-concepts", "--scores", scores,
                              "--vocab", vocab, "--out", tmp_path / "o.arff"],
                     f"{scores}:3: non-numeric frame index")


class TestFileFormats:
    @pytest.mark.parametrize("blob, message", [
        (b"P3\n1 1\n255\n0 0 0\n", "not a P6 file"),
        (b"P6\n1 1\n65535\n" + bytes(6), "only maxval 255 supported"),
    ], ids=["magic", "maxval"])
    def test_malformed_ppm_frame(self, tmp_path, capsys, blob, message):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "0.ppm").write_bytes(blob)
        fails_naming(capsys, ["extract-visual", "--frames", frames,
                              "--out", tmp_path / "o.arff"],
                     f"{frames / '0.ppm'}: {message}")

    @pytest.mark.parametrize("header, message", [
        ("@ATTRIBUTE f\n@ATTRIBUTE class {a,b}\n",
         "malformed attribute (line 2)"),
        ("@ATTRIBUTE f STRING\n@ATTRIBUTE class {a,b}\n",
         "unsupported attribute type 'STRING' (line 2)"),
    ], ids=["no-type", "string-type"])
    def test_malformed_arff_attribute(self, tmp_path, capsys, header,
                                      message):
        arff = tmp_path / "bad.arff"
        arff.write_text(f"@RELATION r\n{header}@DATA\n1.0,a\n")
        fails_naming(capsys, ["crossval", "--arff", arff,
                              "--out-dir", tmp_path / "cv"],
                     f"{arff}: {message}")

    @pytest.mark.parametrize("table, message", [
        ("frame_index,a,b\n0,1.0\n", "{}:2: expected 2 scores, got 1"),
        ("frame_index,a,b\n", "no score rows in {}"),
    ], ids=["score-count", "no-rows"])
    def test_malformed_concept_scores(self, tmp_path, capsys, table, message):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n")
        scores = tmp_path / "s.csv"
        scores.write_text(table)
        fails_naming(capsys, ["ingest-concepts", "--scores", scores,
                              "--vocab", vocab, "--out", tmp_path / "o.arff"],
                     message.format(scores))

    def test_manifest_that_is_not_json(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"entries": [')
        fails_naming(capsys, ["extract-audio", "--manifest", manifest,
                              "--out", tmp_path / "o.arff"],
                     f"{manifest}: invalid JSON: ")
