"""Input checks reached through the command line: each malformed input
exits 2 and the message names the file (and the line, where there is one)
or the flag value at fault."""

import json

import numpy as np
import pytest

from avmir import cli

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
