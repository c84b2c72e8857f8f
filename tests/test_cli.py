import json
import struct

import numpy as np
import pytest

from avmir import cli
from avmir import io as avio
from avmir.audio import AudioClip
from avmir.ml import LabeledDataset


def run(*argv):
    return cli.main([str(a) for a in argv])


def make_wav(path, seconds=7.0, freq=440.0, sr=22050, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * sr)) / sr
    samples = 0.4 * np.sin(2 * np.pi * freq * t) + rng.normal(0, 0.05, t.size)
    avio.write_wav(path, AudioClip(np.clip(samples, -1, 1), sr))


def make_frames(path, count=40, size=12, color=(200, 30, 30), blink=None,
                fps=25.0, seed=0):
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(count):
        frame = np.empty((size, size, 3), np.uint8)
        scale = 1.0
        if blink:
            scale = 1.0 if int(np.floor(2 * blink * i / fps)) % 2 else 0.3
        for c in range(3):
            frame[..., c] = np.clip(
                color[c] * scale + rng.integers(-15, 16, (size, size)), 0, 255)
        frames.append(frame)
    avio.write_raw_stream(path, frames, fps=fps)


def make_concepts(path, vocab_size=5, frames=8, hot=0, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.random((frames, vocab_size)) * 0.2
    rows[:, hot] += 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    lines = ["frame_index," + ",".join(f"p_{i}" for i in range(vocab_size))]
    for i, row in enumerate(rows):
        lines.append(f"{i}," + ",".join(f"{v:.12f}" for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workspace(tmp_path):
    """Two-class manifest with audio, frames and concept scores."""
    entries = []
    for ci, label in enumerate(["rock", "pop"]):
        for i in range(3):
            tid = f"{label}{i}"
            make_wav(tmp_path / f"{tid}.wav", freq=300.0 + 200 * ci,
                     seed=ci * 10 + i)
            make_frames(tmp_path / f"{tid}.rgb",
                        color=(200, 30, 30) if ci == 0 else (30, 30, 200),
                        seed=ci * 10 + i)
            make_concepts(tmp_path / f"{tid}.csv", hot=ci, seed=ci * 10 + i)
            entries.append({"track_id": tid, "label": label,
                            "artist": f"artist_{ci}_{i}",
                            "album": f"album_{ci}",
                            "audio": f"{tid}.wav",
                            "frames": f"{tid}.rgb",
                            "concepts": f"{tid}.csv"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}))
    (tmp_path / "vocab.txt").write_text(
        "\n".join(f"concept_{i}" for i in range(5)) + "\n")
    return tmp_path


class TestExtractAudio:
    def test_manifest_mode(self, workspace):
        out = workspace / "audio.arff"
        assert run("extract-audio", "--manifest", workspace / "manifest.json",
                   "--features", "rh,ssd", "--out", out) == 0
        ds = avio.read_arff(out)
        assert ds.matrix.shape == (6, 60 + 168)
        assert (workspace / "run.json").exists()

    def test_single_wav_mfcc(self, workspace):
        out = workspace / "one.arff"
        assert run("extract-audio", "--wav", workspace / "rock0.wav",
                   "--features", "mfcc,chroma", "--label", "rock",
                   "--out", out) == 0
        ds = avio.read_arff(out)
        assert ds.matrix.shape == (1, 26 + 24)
        assert ds.labels == ["rock"]

    def test_missing_file_is_input_error(self, workspace):
        assert run("extract-audio", "--wav", workspace / "nope.wav",
                   "--out", workspace / "x.arff") == 2


class TestExtractVisual:
    def test_dimension_arithmetic(self, workspace):
        # gcs,gev,cn: (6+3+8) per-frame dims x 7 moments = 119 columns
        out = workspace / "vis.arff"
        assert run("extract-visual", "--frames", workspace / "rock0.rgb",
                   "--features", "gcs,gev,cn", "--label", "rock",
                   "--out", out) == 0
        ds = avio.read_arff(out)
        assert ds.matrix.shape == (1, 119)

    def test_manifest_with_lfp(self, workspace):
        out = workspace / "vis_all.arff"
        assert run("extract-visual", "--manifest",
                   workspace / "manifest.json",
                   "--features", "gcs,lfp", "--lfp-preset", "paper-80",
                   "--out", out) == 0
        ds = avio.read_arff(out)
        assert ds.matrix.shape == (6, 42 + 80)

    def test_per_frame_dump(self, workspace):
        out = workspace / "vis.arff"
        dump = workspace / "frames.csv"
        assert run("extract-visual", "--frames", workspace / "rock0.rgb",
                   "--features", "gev", "--dump-frames", dump,
                   "--out", out) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "frame_index,gev_0,gev_1,gev_2"
        assert len(lines) == 41  # header + 40 frames

    def test_thin_strip_video_exits_zero(self, tmp_path):
        # black but for rows 20-21, so letterbox cropping leaves 2 x 40
        frames = tmp_path / "strip"
        frames.mkdir()
        rng = np.random.default_rng(3)
        for i in range(4):
            frame = np.zeros((40, 40, 3), np.uint8)
            frame[20:22] = rng.integers(60, 256, (2, 40, 3))
            avio.write_ppm(frames / f"{i:03d}.ppm", frame)
        out = tmp_path / "strip.arff"
        assert run("extract-visual", "--frames", frames, "--features", "waf",
                   "--label", "strip", "--out", out) == 0
        assert avio.read_arff(out).matrix.shape == (1, 18 * 7)


class TestAggregateCmd:
    def test_ten_dimensions(self, workspace):
        out = workspace / "ten.arff"
        assert run("aggregate", "--manifest", workspace / "manifest.json",
                   "--preset", "TEN", "--out", out) == 0
        assert avio.read_arff(out).matrix.shape == (6, 216)

    def test_en3_dimensions(self, workspace):
        out = workspace / "en3.arff"
        assert run("aggregate", "--wav", workspace / "pop1.wav",
                   "--preset", "EN3", "--out", out) == 0
        assert avio.read_arff(out).matrix.shape == (1, 90)


class TestIngestConcepts:
    def test_manifest_mode(self, workspace):
        out = workspace / "concepts.arff"
        assert run("ingest-concepts", "--manifest",
                   workspace / "manifest.json",
                   "--vocab", workspace / "vocab.txt",
                   "--moments", "max+mean", "--out", out) == 0
        assert avio.read_arff(out).matrix.shape == (6, 10)

    def test_single_file(self, workspace):
        out = workspace / "one.arff"
        assert run("ingest-concepts", "--scores", workspace / "rock0.csv",
                   "--vocab", workspace / "vocab.txt", "--moments", "mean",
                   "--label", "rock", "--out", out) == 0
        assert avio.read_arff(out).matrix.shape == (1, 5)


class TestFuseAndCrossval:
    def _build_parts(self, workspace):
        run("extract-audio", "--manifest", workspace / "manifest.json",
            "--features", "rh", "--out", workspace / "a.arff")
        run("ingest-concepts", "--manifest", workspace / "manifest.json",
            "--vocab", workspace / "vocab.txt", "--moments", "mean",
            "--out", workspace / "v.arff")

    def test_fuse_column_count(self, workspace):
        self._build_parts(workspace)
        out = workspace / "fused.arff"
        assert run("fuse", "--arff", f"audio={workspace / 'a.arff'}",
                   "--arff", f"visual={workspace / 'v.arff'}",
                   "--out", out) == 0
        ds = avio.read_arff(out)
        assert ds.matrix.shape == (6, 65)
        assert ds.schema[0].startswith("audio.")

    def test_crossval_outputs(self, workspace):
        self._build_parts(workspace)
        out_dir = workspace / "cv"
        assert run("crossval", "--arff", workspace / "v.arff",
                   "--clf", "knn", "--k", "1", "--folds", "2",
                   "--repeats", "2", "--seed", "7", "--out-dir", out_dir) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert "mean_accuracy" in metrics
        assert (out_dir / "per_class.csv").exists()
        assert (out_dir / "confusion.csv").exists()
        assert (out_dir / "run.json").exists()

    def test_crossval_deterministic_bytes(self, workspace):
        self._build_parts(workspace)
        blobs = []
        for name in ("cv1", "cv2"):
            out_dir = workspace / name
            assert run("crossval", "--arff", workspace / "v.arff",
                       "--clf", "nb", "--folds", "2", "--repeats", "2",
                       "--seed", "11", "--out-dir", out_dir) == 0
            blobs.append((out_dir / "metrics.json").read_bytes()
                         + (out_dir / "confusion.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestEnsembleCmd:
    def test_two_modalities(self, workspace):
        run("extract-audio", "--manifest", workspace / "manifest.json",
            "--features", "rh", "--out", workspace / "a.arff")
        run("ingest-concepts", "--manifest", workspace / "manifest.json",
            "--vocab", workspace / "vocab.txt", "--moments", "mean",
            "--out", workspace / "v.arff")
        out_dir = workspace / "ens"
        assert run("ensemble", "--arff", workspace / "a.arff",
                   "--arff", workspace / "v.arff", "--clf", "knn",
                   "--n", "4", "--holdout", "0.25", "--test-fraction", "0.34",
                   "--seed", "3", "--out-dir", out_dir) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert len(metrics["confidences"]) == 2
        assert all(len(c) == 4 for c in metrics["confidences"])


class TestFacesCmd:
    def test_identification(self, tmp_path, rng):
        gallery = tmp_path / "gallery"
        for label, pattern in (("alice", 3), ("bob", 17)):
            d = gallery / label
            d.mkdir(parents=True)
            for i in range(2):
                base = rng.integers(0, 256, size=(32, 32))
                img = (base // pattern * pattern).astype(np.uint8)
                avio.write_pgm(d / f"{i}.pgm", img)
        probes = tmp_path / "probes"
        probes.mkdir()
        base = rng.integers(0, 256, size=(32, 32))
        avio.write_pgm(probes / "p0.pgm", (base // 3 * 3).astype(np.uint8))
        out_dir = tmp_path / "out"
        assert run("faces", "--gallery", gallery, "--probes", probes,
                   "--out-dir", out_dir) == 0
        result = json.loads((out_dir / "predictions.json").read_text())
        assert result["winner"] in ("alice", "bob")
        assert len(result["per_probe"]) == 1


class TestSalienceCmd:
    def test_ranking(self, workspace):
        out = workspace / "salience.json"
        assert run("salience", "--manifest", workspace / "manifest.json",
                   "--vocab", workspace / "vocab.txt", "--top", "3",
                   "--out", out) == 0
        ranked = json.loads(out.read_text())
        # rock tracks were built hot on concept_0, pop on concept_1
        assert ranked["rock"][0][0] == "concept_0"
        assert ranked["pop"][0][0] == "concept_1"

    def test_exclusions(self, workspace):
        (workspace / "exclude.txt").write_text("concept_0\n")
        out = workspace / "salience2.json"
        assert run("salience", "--manifest", workspace / "manifest.json",
                   "--vocab", workspace / "vocab.txt",
                   "--exclude", workspace / "exclude.txt",
                   "--out", out) == 0
        ranked = json.loads(out.read_text())
        names = [n for n, _ in ranked["rock"]]
        assert "concept_0" not in names


class TestShotCommands:
    def test_meancolorbar_width_is_frame_count(self, workspace):
        out = workspace / "bar.ppm"
        assert run("meancolorbar", "--frames", workspace / "rock0.rgb",
                   "--out", out) == 0
        bar = avio.read_ppm(out)
        assert bar.shape[1] == 40

    @pytest.mark.parametrize("height", [0, -2])
    def test_meancolorbar_rejects_height_below_one(self, workspace, capsys,
                                                   height):
        out = workspace / "bar.ppm"
        assert run("meancolorbar", "--frames", workspace / "rock0.rgb",
                   "--height", height, "--out", out) == 2
        assert not out.exists()
        assert f"got {height}" in capsys.readouterr().err

    def test_cutscan_boundaries_json(self, tmp_path):
        frames = []
        for i in range(60):
            v = 230 if i >= 30 else 20
            frames.append(np.full((8, 8, 3), v, np.uint8))
        avio.write_raw_stream(tmp_path / "cut.rgb", frames)
        out = tmp_path / "bounds.json"
        assert run("cutscan", "--frames", tmp_path / "cut.rgb",
                   "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["boundaries"] == [30]


class TestSplitsCmd:
    def test_artist_filter(self, workspace):
        assert run("splits", "--manifest", workspace / "manifest.json",
                   "--fraction", "0.5", "--filter", "artist", "--seed", "5",
                   "--out-train", workspace / "train.txt",
                   "--out-test", workspace / "test.txt") == 0
        train = set(avio.read_id_list(workspace / "train.txt"))
        test = set(avio.read_id_list(workspace / "test.txt"))
        assert train and test
        assert not train & test


class TestArffExport:
    def test_roundtrip(self, tmp_path):
        (tmp_path / "f.csv").write_text(
            "x,y,class\n1.0,2.0,a\n3.0,4.0,b\n")
        out = tmp_path / "f.arff"
        assert run("arff-export", "--csv", tmp_path / "f.csv",
                   "--out", out) == 0
        ds = avio.read_arff(out)
        assert ds.matrix.shape == (2, 2)
        assert ds.labels == ["a", "b"]

    def test_missing_label_column(self, tmp_path):
        (tmp_path / "f.csv").write_text("x,y\n1.0,2.0\n")
        assert run("arff-export", "--csv", tmp_path / "f.csv",
                   "--out", tmp_path / "f.arff") == 2


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["crossval", "--bogus"])
        assert err.value.code == 2

    def test_seed_reproducibility_arff_bytes(self, workspace):
        out1 = workspace / "s1.arff"
        out2 = workspace / "s2.arff"
        for out in (out1, out2):
            assert run("extract-audio", "--manifest",
                       workspace / "manifest.json", "--features", "ssd",
                       "--out", out) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_jobs_byte_identical(self, workspace):
        serial = workspace / "serial.arff"
        parallel = workspace / "parallel.arff"
        assert run("extract-audio", "--manifest", workspace / "manifest.json",
                   "--features", "rh", "--jobs", "1", "--out", serial) == 0
        assert run("extract-audio", "--manifest", workspace / "manifest.json",
                   "--features", "rh", "--jobs", "2", "--out", parallel) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("command, jobs", [
        ("extract-audio", "1"), ("extract-audio", "2"), ("aggregate", None)])
    def test_malformed_wav_exits_two_naming_the_file(self, tmp_path, capsys,
                                                     command, jobs):
        # a zero sample rate used to end in a division by zero (exit 3), and
        # a worker's WAV error could not be sent back to the parent (exit 3)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": [
            {"track_id": "a", "label": "x", "audio": "zero.wav"},
            {"track_id": "b", "label": "y", "audio": "zero.wav"}]}))
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 4, b"WAVE",
                             b"fmt ", 16, 1, 1, 0, 0, 2, 16, b"data", 4)
        (tmp_path / "zero.wav").write_bytes(header + bytes(4))
        argv = [command, "--manifest", manifest, "--out", tmp_path / "o.arff"]
        if jobs:
            argv += ["--jobs", jobs]
        assert run(*argv) == 2
        assert "zero.wav: sample rate 0 (byte offset 12)" in \
            capsys.readouterr().err


class TestManifestRunner:
    def test_rows_follow_track_ids_not_manifest_order(self, workspace):
        entries = json.loads((workspace / "manifest.json").read_text())
        shuffled = workspace / "shuffled.json"
        # rock1, pop0, rock2, pop2, rock0, pop1: summing the class means in
        # this order would move the last bits of the salience scores
        shuffled.write_text(json.dumps({"entries": [
            entries["entries"][i] for i in (1, 3, 2, 5, 0, 4)]}))
        outputs = []
        for manifest in (workspace / "manifest.json", shuffled):
            out = workspace / manifest.stem
            out.mkdir()
            assert run("aggregate", "--manifest", manifest,
                       "--out", out / "ten.arff") == 0
            assert run("ingest-concepts", "--manifest", manifest,
                       "--vocab", workspace / "vocab.txt",
                       "--moments", "max,std,skewness",
                       "--out", out / "concepts.arff") == 0
            assert run("salience", "--manifest", manifest,
                       "--vocab", workspace / "vocab.txt",
                       "--out", out / "salience.json") == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("ten.arff", "concepts.arff", "salience.json")])
        assert outputs[0] == outputs[1]
        labels = avio.read_arff(workspace / "shuffled" / "ten.arff").labels
        assert labels == ["pop"] * 3 + ["rock"] * 3

    @pytest.mark.parametrize("argv", [
        ("extract-audio", "--features", "rh,tssd,mfcc,chroma",
         "--wav", "rock1.wav"),
        ("extract-visual", "--features", "gev,ic,lfp",
         "--frames", "rock1.rgb"),
        ("aggregate", "--preset", "EN4", "--wav", "rock1.wav"),
        ("ingest-concepts", "--vocab", "vocab.txt",
         "--moments", "variance,kurtosis", "--scores", "rock1.csv"),
    ], ids=lambda argv: argv[0])
    def test_single_source_row_equals_manifest_row(self, workspace,
                                                   monkeypatch, argv):
        monkeypatch.chdir(workspace)
        *options, flag, source = argv
        assert run(*options, "--manifest", "manifest.json",
                   "--out", "many.arff") == 0
        assert run(*options, flag, source, "--label", "rock",
                   "--out", "one.arff") == 0
        assert avio.read_arff("one.arff").schema == \
            avio.read_arff("many.arff").schema
        # track-id order is pop0..pop2, rock0..rock2: rock1 is row 5 of 6
        one = (workspace / "one.arff").read_text().splitlines()
        many = (workspace / "many.arff").read_text().splitlines()
        assert one[-1] == many[-2]

    def test_entries_checked_before_any_row(self, workspace, monkeypatch,
                                            capsys):
        manifest = json.loads((workspace / "manifest.json").read_text())
        del manifest["entries"][2]["audio"]           # rock2, last by id
        (workspace / "gap.json").write_text(json.dumps(manifest))

        def no_rows(path):
            raise AssertionError(f"computed a row for {path}")

        monkeypatch.setattr(avio, "read_wav", no_rows)
        assert run("aggregate", "--manifest", workspace / "gap.json",
                   "--out", workspace / "ten.arff") == 2
        assert "'rock2' has no audio path" in capsys.readouterr().err


def write_planted_arff(path, seed, dim, classes=3, per_class=12, signal=0.6):
    """Class means drawn with std `signal` plus unit Gaussian noise."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, signal, (classes, dim))
    rows, labels = [], []
    for c in range(classes):
        rows.append(means[c] + rng.normal(0.0, 1.0, (per_class, dim)))
        labels += [f"g{c}"] * per_class
    avio.write_arff(LabeledDataset(np.vstack(rows), labels,
                                   [f"f{j}" for j in range(dim)]),
                    path.stem, path)


class TestClassifierSettingsExitTwo:
    @pytest.mark.parametrize("flags, message", [
        (["--clf", "svm", "--c", "0"], "c must be positive"),
        (["--clf", "svm", "--c", "-1"], "c must be positive"),
        (["--clf", "svm", "--c", "inf"], "c must be positive"),
        (["--clf", "svm", "--epochs", "0"], "epochs must be at least 1"),
        (["--clf", "knn", "--k", "0"], "k must be at least 1"),
        (["--repeats", "0"], "repeats must be at least 1, got 0"),
        (["--repeats", "-3"], "repeats must be at least 1, got -3"),
    ])
    def test_crossval_rejects_setting(self, tmp_path, capsys, flags,
                                      message):
        write_planted_arff(tmp_path / "a.arff", seed=31, dim=4)
        assert run("crossval", "--arff", tmp_path / "a.arff",
                   "--folds", "2", "--repeats", "1", *flags,
                   "--out-dir", tmp_path / "cv") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cv" / "metrics.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--test-fraction", "0"], "--test-fraction must lie strictly "
                                   "between 0 and 1, got 0.0"),
        (["--test-fraction", "-1"], "--test-fraction must lie strictly "
                                    "between 0 and 1, got -1.0"),
        (["--test-fraction", "1.0"], "--test-fraction must lie strictly "
                                     "between 0 and 1, got 1.0"),
        (["--holdout", "1.5"], "holdout fraction must lie strictly between 0 "
                               "and 1, got 1.5"),
        (["--holdout", "0"], "holdout fraction must lie strictly between 0 "
                             "and 1, got 0.0"),
        (["--holdout", "nan"], "holdout fraction must lie strictly between 0 "
                               "and 1, got nan"),
    ])
    def test_ensemble_rejects_setting(self, tmp_path, capsys, flags,
                                      message):
        write_planted_arff(tmp_path / "a.arff", seed=31, dim=4)
        assert run("ensemble", "--arff", tmp_path / "a.arff", "--n", "2",
                   *flags, "--out-dir", tmp_path / "ens") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ens" / "metrics.json").exists()

    @pytest.mark.parametrize("rows, detail", [
        (range(35, -1, -1), "data row 1 is 'g2', expected 'g0'"),
        (range(30), "30 data rows, expected 36"),
    ], ids=["reordered", "truncated"])
    def test_ensemble_label_mismatch_names_both_files(self, tmp_path, capsys,
                                                      rows, detail):
        write_planted_arff(tmp_path / "a.arff", seed=31, dim=4)
        write_planted_arff(tmp_path / "b.arff", seed=32, dim=2)
        ds = avio.read_arff(tmp_path / "b.arff")
        avio.write_arff(ds.subset(list(rows)), "b", tmp_path / "b.arff")
        assert run("ensemble", "--arff", tmp_path / "a.arff",
                   "--arff", tmp_path / "b.arff",
                   "--out-dir", tmp_path / "ens") == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'b.arff'}: labels disagree with "
                f"{tmp_path / 'a.arff'} ({detail})") in err
        assert not (tmp_path / "ens" / "metrics.json").exists()

    @pytest.mark.parametrize("rows, detail", [
        (range(35, -1, -1), "data row 1 is 'g2', expected 'g0'"),
        (range(30), "30 data rows, expected 36"),
    ], ids=["reordered", "truncated"])
    def test_fuse_label_mismatch_names_both_parts(self, tmp_path, capsys,
                                                  rows, detail):
        write_planted_arff(tmp_path / "a.arff", seed=31, dim=4)
        write_planted_arff(tmp_path / "b.arff", seed=32, dim=2)
        ds = avio.read_arff(tmp_path / "b.arff")
        avio.write_arff(ds.subset(list(rows)), "b", tmp_path / "b.arff")
        assert run("fuse", "--arff", f"audio={tmp_path / 'a.arff'}",
                   "--arff", tmp_path / "b.arff",
                   "--out", tmp_path / "fused.arff") == 2
        err = capsys.readouterr().err
        assert f"part 'b' labels disagree with part 'audio' ({detail})" in err
        assert not (tmp_path / "fused.arff").exists()


# Outputs of the commands below, written before the classifier hot loops
# (the Pegasos sum form, chunked kNN distances and the batched ensemble
# vote) were rewritten.  Any change to these bytes moves results.

SVM_METRICS = """\
{
  "classes": [
    "g0",
    "g1",
    "g2"
  ],
  "classifier": "svm",
  "folds": 3,
  "mean_accuracy": 0.7222222222222222,
  "per_class": {
    "g0": {
      "f1": 0.8400000000000001,
      "precision": 0.8076923076923077,
      "recall": 0.875
    },
    "g1": {
      "f1": 0.5957446808510638,
      "precision": 0.6086956521739131,
      "recall": 0.5833333333333334
    },
    "g2": {
      "f1": 0.723404255319149,
      "precision": 0.7391304347826086,
      "recall": 0.7083333333333334
    }
  },
  "repeats": 2,
  "seed": 5,
  "std_accuracy": 0.10393492741038725
}
"""

SVM_CONFUSION = b'truth\\pred,g0,g1,g2\r\ng0,21,2,1\r\ng1,5,14,5\r\ng2,0,7,17\r\n'

KNN_METRICS = """\
{
  "classes": [
    "g0",
    "g1",
    "g2"
  ],
  "classifier": "knn",
  "folds": 3,
  "mean_accuracy": 0.5972222222222222,
  "per_class": {
    "g0": {
      "f1": 0.7457627118644068,
      "precision": 0.6285714285714286,
      "recall": 0.9166666666666666
    },
    "g1": {
      "f1": 0.4166666666666667,
      "precision": 0.4166666666666667,
      "recall": 0.4166666666666667
    },
    "g2": {
      "f1": 0.5945945945945945,
      "precision": 0.8461538461538461,
      "recall": 0.4583333333333333
    }
  },
  "repeats": 2,
  "seed": 5,
  "std_accuracy": 0.05726535591135637
}
"""

KNN_CONFUSION = b'truth\\pred,g0,g1,g2\r\ng0,22,2,0\r\ng1,12,10,2\r\ng2,1,12,11\r\n'

ENSEMBLE_METRICS = """\
{
  "accuracy": 0.5833333333333334,
  "classes": [
    "g0",
    "g1",
    "g2"
  ],
  "classifier": "svm",
  "confidences": [
    [
      0.0,
      0.0,
      1.0
    ],
    [
      1.0,
      0.5,
      0.5
    ]
  ],
  "members_per_modality": 3,
  "modalities": [
    "a.arff",
    "b.arff"
  ],
  "test_rows": 12
}
"""


class TestPinnedClassifierOutputs:
    @pytest.fixture
    def arffs(self, tmp_path, monkeypatch):
        # relative paths keep the ensemble's "modalities" field fixed
        monkeypatch.chdir(tmp_path)
        write_planted_arff(tmp_path / "a.arff", seed=31, dim=16)
        write_planted_arff(tmp_path / "b.arff", seed=32, dim=8)
        return tmp_path

    @pytest.mark.parametrize("flags, metrics, confusion", [
        (["--clf", "svm"], SVM_METRICS, SVM_CONFUSION),
        (["--clf", "knn", "--k", "3"], KNN_METRICS, KNN_CONFUSION),
    ])
    def test_crossval(self, arffs, flags, metrics, confusion):
        assert run("crossval", "--arff", "a.arff", *flags, "--folds", "3",
                   "--repeats", "2", "--seed", "5", "--out-dir", "cv") == 0
        assert (arffs / "cv" / "metrics.json").read_bytes() == \
            metrics.encode()
        assert (arffs / "cv" / "confusion.csv").read_bytes() == confusion

    def test_ensemble(self, arffs):
        assert run("ensemble", "--arff", "a.arff", "--arff", "b.arff",
                   "--clf", "svm", "--n", "3", "--seed", "5",
                   "--out-dir", "ens") == 0
        assert (arffs / "ens" / "metrics.json").read_bytes() == \
            ENSEMBLE_METRICS.encode()
