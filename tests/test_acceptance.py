"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All tolerances are pinned here; nothing is deferred to later
calibration.
"""

import itertools
import json

import numpy as np
import pytest

from avmir import aggregate, audio, cli, concepts, imgprep, ml, shotviz, visual
from avmir import io as avio
from avmir.audio import AudioClip
from conftest import am_noise_clip, sine_clip, vote_one_row


class _criterion:
    """Prints '[acceptance] <name>: PASS/FAIL' around a criterion's asserts."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance] {self.name}: {verdict}")
        return False


# ---------------------------------------------------------------------------
# 1. dimensionality conformance
# ---------------------------------------------------------------------------

def test_criterion_1_dimensionality_conformance(rng):
    with _criterion("1 dimensionality conformance"):
        # audio family on a 26 s synthetic clip (4 segments, first/last skipped)
        clip = AudioClip(rng.normal(0.0, 0.1, 22050 * 26), 22050)
        feats = audio.track_features(clip)
        assert feats["rp"].shape == (1440,)
        assert feats["ssd"].shape == (168,)
        assert feats["rh"].shape == (60,)
        assert feats["mvd"].shape == (420,)
        assert feats["tssd"].shape == (1176,)
        assert feats["trh"].shape == (420,)

        # visual family: aggregated dims and the 360-dim combination
        frames = [rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
                  for _ in range(30)]
        with pytest.warns(UserWarning, match="fewer frames"):
            matrices, pattern = visual.extract_video_features(
                frames, [*visual.FRAME_FEATURES, "lfp"],
                lfp_preset="paper-80", crop_letterbox=False)
        aggregated = {name: aggregate.moments(m, aggregate.VISUAL_MOMENTS)
                      for name, m in matrices.items()}
        expected = {"gcs": 42, "gev": 21, "cf": 7, "cn": 56, "ic": 28,
                    "waf": 126}
        for name, dim in expected.items():
            assert aggregated[name].shape == (dim,), name
        lfp80 = visual.lfp_feature(pattern, "paper-80")
        assert lfp80.shape == (80,)
        combined = sum(v.size for v in aggregated.values()) + lfp80.size
        assert combined == 360

        # aggregation presets
        bundle = aggregate.SegmentBundle(
            rng.normal(size=(12, 12)), rng.random((12, 12)),
            rng.random(12), rng.random(12), np.ones(12))
        assert aggregate.preset(bundle, "TEN").shape == (216,)
        assert aggregate.preset(bundle, "EN3").shape == (90,)


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------

def _brute_stats(values):
    values = [float(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    sd = var ** 0.5
    ordered = sorted(values)
    median = (ordered[n // 2] if n % 2
              else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0)
    skew = sum((v - mean) ** 3 for v in values) / n / sd ** 3 if sd else 0.0
    kurt = sum((v - mean) ** 4 for v in values) / n / sd ** 4 if sd else 0.0
    return {"min": min(values), "max": max(values), "mean": mean,
            "median": median, "variance": var, "skewness": skew,
            "kurtosis": kurt, "range": max(values) - min(values),
            "std": sd}


def test_criterion_2_oracle_equivalence(rng):
    with _criterion("2 oracle equivalence"):
        # moments vs brute force: 100 random instances at 1e-9
        for _ in range(100):
            seq = rng.normal(size=(int(rng.integers(2, 30)), 4))
            out = aggregate.moments(seq, aggregate.TEN_MOMENTS)
            for d in range(4):
                ref = _brute_stats(seq[:, d])
                for j, name in enumerate(aggregate.TEN_MOMENTS):
                    assert out[d * 8 + j] == pytest.approx(ref[name],
                                                           abs=1e-9)

        # SSD and ModVar vs brute force at 1e-9
        son = rng.random((24, 40))
        ssd_out = audio.ssd(son)
        order = ("min", "max", "mean", "median", "variance", "skewness",
                 "kurtosis")
        for band in range(24):
            ref = _brute_stats(son[band])
            for j, name in enumerate(order):
                assert ssd_out[band, j] == pytest.approx(ref[name], abs=1e-9)
        rp = rng.random((24, 60))
        mvd_out = audio.modvar(rp)
        for col in range(60):
            ref = _brute_stats(rp[:, col])
            for j, name in enumerate(order):
                assert mvd_out[col, j] == pytest.approx(ref[name], abs=1e-9)

        # kNN vs exhaustive scan: 200 points, 100% agreement
        train = rng.normal(size=(200, 6))
        y = rng.integers(0, 3, size=200)
        probes = rng.normal(size=(60, 6))
        clf = ml.KnnClassifier(k=1).fit(train, y, 3)
        pred = clf.predict(probes)
        agree = 0
        for i in range(60):
            dists = [sum((a - b) ** 2 for a, b in zip(probes[i], row)) ** 0.5
                     for row in train]
            agree += int(y[int(np.argmin(dists))] == pred[i])
        assert agree == 60

        # ensemble vote vs exhaustive weighted-sum enumeration,
        # all configurations with <= 3 members x 3 classes
        for n_members in (1, 2, 3):
            for labels in itertools.product(range(3), repeat=n_members):
                for weights in itertools.product((0.2, 0.5, 0.9),
                                                 repeat=n_members):
                    votes = list(zip(labels, weights))
                    sums = [0.0, 0.0, 0.0]
                    for lb, w in votes:
                        sums[lb] += w
                    best = max(sums)
                    expected = min(c for c in range(3) if sums[c] == best)
                    assert vote_one_row(votes, 3) == expected


# ---------------------------------------------------------------------------
# 3. signal-level checks
# ---------------------------------------------------------------------------

def test_criterion_3_signal_checks():
    with _criterion("3 signal-level checks"):
        # LFP: 2 Hz synthetic blink located within +-1 modulation bin
        frames = []
        for i in range(512):
            bright = int(np.floor(4.0 * i / 25.0)) % 2  # 2 Hz square wave
            v = 200 if bright else 60
            frames.append(np.full((8, 8, 3), v, np.uint8))
        _, pattern = visual.extract_video_features(
            frames, ["lfp"], lfp_preset="paper-60", crop_letterbox=False)
        active = pattern.values.sum(axis=1).argmax()
        peak = int(pattern.values[active].argmax())
        target = int(np.abs(pattern.mod_frequencies - 2.0).argmin())
        assert abs(peak - target) <= 1

        # rhythm pattern: 4 Hz sone modulation located within +-1 bin
        fr = 22050 / 512.0
        t_frames = int(round(6.0 * fr))
        values = np.ones((24, t_frames))
        tt = np.arange(t_frames) / fr
        values[9] = 1.0 + 0.5 * np.sin(2.0 * np.pi * 4.0 * tt)
        rp = audio.rhythm_pattern(values)
        freqs = audio.MOD_FREQUENCIES
        target = int(np.abs(freqs - 4.0).argmin())
        assert abs(int(rp[9].argmax()) - target) <= 1

        # chroma: 440 Hz sine lands on pitch class A
        chroma_values, significant = audio.chroma(sine_clip(440.0).samples)
        assert significant.all()
        assert chroma_values.mean(axis=0).argmax() == \
            audio.PITCH_CLASS_NAMES.index("A")


# ---------------------------------------------------------------------------
# 4. synthetic fusion experiment
# ---------------------------------------------------------------------------

def _fusion_datasets():
    """4 classes x 50 tracks; audio AM tempo separates {A,B}|{C,D}, visual
    color separates {A,C}|{B,D}.  Each modality carries exactly one bit."""
    r = np.random.default_rng(424242)
    audio_rows, visual_rows, labels = [], [], []
    classes = ["A", "B", "C", "D"]
    for ci, label in enumerate(classes):
        fast_tempo = label in ("C", "D")
        red = label in ("A", "C")
        for i in range(50):
            seed = ci * 1000 + i
            mod = (7.0 if fast_tempo else 3.0) + r.uniform(-0.3, 0.3)
            clip = am_noise_clip(mod, seconds=6.2, seed=seed)
            son = audio.sonogram(clip)
            seg = int(round(6.0 * audio.FRAME_RATE))
            rp = audio.rhythm_pattern(son[:, :seg])
            audio_rows.append(audio.rhythm_histogram(rp))

            base = np.array([200, 40, 40]) if red else np.array([40, 40, 200])
            frames = []
            for _ in range(12):
                noise = r.integers(-25, 26, size=(12, 12, 3))
                frames.append(np.clip(base + noise, 0, 255).astype(np.uint8))
            gcs_rows = [visual.gcs(imgprep.FrameContext(f).ihls)
                        for f in frames]
            visual_rows.append(aggregate.moments(np.array(gcs_rows),
                                                 aggregate.VISUAL_MOMENTS))
            labels.append(label)

    audio_ds = ml.LabeledDataset(np.array(audio_rows), labels,
                                 [f"rh_{i}" for i in range(60)])
    visual_ds = ml.LabeledDataset(
        np.array(visual_rows), labels,
        [f"gcs_{d}_{m}" for d in range(6) for m in aggregate.VISUAL_MOMENTS])
    return audio_ds, visual_ds


def test_criterion_4_synthetic_fusion():
    with _criterion("4 synthetic fusion experiment"):
        audio_ds, visual_ds = _fusion_datasets()
        folds = ml.stratified_kfold(audio_ds.labels, k=10, repeats=1, seed=7)
        spec = ("knn", {"k": 1})

        acc_audio = ml.cross_validate(audio_ds, spec, folds).mean_accuracy
        acc_visual = ml.cross_validate(visual_ds, spec, folds).mean_accuracy
        fused = ml.early_fuse([("audio", audio_ds), ("visual", visual_ds)])
        acc_fused = ml.cross_validate(fused, spec, folds).mean_accuracy

        print(f"\n  single-modality accuracies: audio {acc_audio:.3f}, "
              f"visual {acc_visual:.3f}; fused {acc_fused:.3f}")
        assert acc_audio <= 0.60
        assert acc_visual <= 0.60
        assert acc_fused >= 0.95


# ---------------------------------------------------------------------------
# 5. ensemble math worked examples
# ---------------------------------------------------------------------------

def test_criterion_5_ensemble_math():
    with _criterion("5 ensemble math worked examples"):
        # one vote for A at 0.9 vs two votes for B at 0.4: sums 0.9 > 0.8
        winner = vote_one_row([(0, 0.9), (1, 0.4), (1, 0.4)], 2)
        assert winner == 0

        # ln penalty: 10 x 0.5 for A vs 1 x 0.9 for B
        board = concepts.artist_score([("A", 0.5)] * 10 + [("B", 0.9)])
        assert board.penalized["A"] == pytest.approx(0.5 / np.log(10.0))
        assert board.penalized["B"] == pytest.approx(0.9 / np.log(2.0))
        assert board.penalized["B"] > board.penalized["A"]
        assert board.winner == "B"


# ---------------------------------------------------------------------------
# 6. I/O bit-exactness
# ---------------------------------------------------------------------------

def test_criterion_6_io_bit_exactness(tmp_path, rng):
    with _criterion("6 I/O bit-exactness"):
        # ARFF round-trip within 1e-9
        ds = ml.LabeledDataset(rng.uniform(-1.0, 1.0, size=(20, 30)),
                               [f"c{i % 4}" for i in range(20)],
                               [f"f{i}" for i in range(30)])
        avio.write_arff(ds, "roundtrip", tmp_path / "rt.arff")
        back = avio.read_arff(tmp_path / "rt.arff")
        assert np.abs(back.matrix - ds.matrix).max() <= 1e-9
        assert back.labels == ds.labels

        # stratified folds deviate <= 1 per class
        labels = list(rng.choice(["w", "x", "y", "z"], size=137))
        arr = np.array(labels)
        for assignment in ml.stratified_kfold(labels, k=10, repeats=3,
                                              seed=13):
            for c in set(labels):
                counts = np.bincount(assignment[arr == c], minlength=10)
                assert counts.max() - counts.min() <= 1

        # artist-filtered splits have zero group overlap
        entries = []
        for ci, label in enumerate(["rock", "pop", "jazz"]):
            for i in range(30):
                entries.append({"track_id": f"{label}{i}", "label": label,
                                "artist": f"{label}_art{i % 9}"})
        (tmp_path / "m.json").write_text(json.dumps({"entries": entries}))
        manifest = avio.load_manifest(tmp_path / "m.json")
        spec = avio.SplitSpec(train_fraction=0.66, group_filter="artist",
                              seed=5)
        train, test = avio.make_splits(manifest, spec)
        artist_of = {e.track_id: e.artist for e in manifest}
        assert {artist_of[t] for t in train} & \
            {artist_of[t] for t in test} == set()
        assert set(train) | set(test) == set(artist_of)

        # identical seeds reproduce byte-identical outputs end to end
        (tmp_path / "f.csv").write_text(
            "x,y,class\n" + "\n".join(
                f"{rng.uniform(-1, 1):.12f},{rng.uniform(-1, 1):.12f},"
                f"c{i % 2}" for i in range(24)) + "\n")
        assert cli.main(["arff-export", "--csv", str(tmp_path / "f.csv"),
                         "--out", str(tmp_path / "e.arff")]) == 0
        blobs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert cli.main(["crossval", "--arff", str(tmp_path / "e.arff"),
                             "--clf", "knn", "--folds", "4", "--repeats", "2",
                             "--seed", "99", "--out-dir", str(out_dir)]) == 0
            blobs.append((out_dir / "metrics.json").read_bytes()
                         + (out_dir / "confusion.csv").read_bytes()
                         + (out_dir / "per_class.csv").read_bytes())
        assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# 7. known-failure fixture
# ---------------------------------------------------------------------------

def test_criterion_7_cut_detector_overfires_on_strobe():
    with _criterion("7 naive cut detector over-fires on strobe"):
        # a single scene with 2 Hz strobe lighting at 25 fps
        frames = []
        for i in range(150):
            bright = int(np.floor(4.0 * i / 25.0)) % 2
            v = 235 if bright else 15
            frames.append(np.full((8, 8, 3), v, np.uint8))
        distances = shotviz.frame_activity(frames)
        boundaries = shotviz.naive_cut_detect(distances)
        true_scene_count = 1
        assert len(boundaries) > true_scene_count
