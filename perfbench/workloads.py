"""Seeded inputs, command lists and output checks of the benchmark workloads.

Inputs are written with numpy and plain file writers only, so the program
under test sees nothing but the generated files.  Every path handed to the
CLI is relative to the work directory, which keeps byte-compared artifacts
(ARFF, metrics.json, CSV, PPM, JSON) identical wherever the run happens.

A workload plan is plain JSON: the steps (name, argv with an ``{out}``
placeholder for the pass output directory), the work unit that the
throughput metric counts, and the expectations each step's outputs must meet.
"""

import csv
import json
import struct
from pathlib import Path

import numpy as np

# visual-cf: several short raw-RGB24 videos of small letterboxed frames
CF_VIDEOS, CF_FRAMES, CF_W, CF_H, CF_BAR = 3, 4, 64, 48, 8
# visual-hd: one 480x360 PPM-directory video with 45-row letterbox bars
HD_FRAMES, HD_W, HD_H, HD_BAR = 6, 480, 360, 45
# audio-concepts: 30 s AM-noise tracks with concept scores, plus faces
AU_CLASSES, AU_PER_CLASS, AU_SECONDS, AU_RATE = 3, 4, 30.0, 22050
AU_VOCAB, AU_CONCEPT_ROWS = 16, 60
FACE_LABELS, FACE_PER_LABEL, FACE_PROBES, FACE_SIZE = 3, 3, 5, 48
# classify: n=200, k=5 modality files (d=1440 and d=360) plus a larger
# d=1440 file for the kNN crossval whose distance array sets peak memory
CL_CLASSES, CL_PER_CLASS, CL_KNN_PER_CLASS = 5, 40, 80
CL_D_A, CL_D_B = 1440, 360
CL_SIGNAL = 0.2           # per-dimension class-mean spread, noise std 1
ACCURACY_FLOOR = 0.75     # chance is 1 / CL_CLASSES

VISUAL_ALL = "gcs,gev,cf,cn,waf,ic,lfp"
VISUAL_NO_CF = "gcs,gev,cn,waf,ic,lfp"
AUDIO_ALL = "rp,rh,ssd,mvd,tssd,trh,mfcc,chroma"

WORKLOADS = {
    "visual-cf": ("extract-visual",),
    "visual-hd": ("extract-visual", "meancolorbar", "cutscan"),
    "audio-concepts": ("extract-audio", "aggregate", "ingest-concepts",
                       "salience", "faces", "fuse"),
    "classify": ("crossval-svm", "crossval-knn", "crossval-nb", "ensemble"),
}
ALL_STEPS = tuple(dict.fromkeys(s for steps in WORKLOADS.values()
                                for s in steps))


# ---------------------------------------------------------------------------
# file writers (independent of the program under test)
# ---------------------------------------------------------------------------

def _write_raw_stream(path, frames, fps=25.0):
    h, w = frames[0].shape[:2]
    with open(path, "wb") as fh:
        fh.write(json.dumps({"width": w, "height": h, "fps": fps}).encode()
                 + b"\n")
        for frame in frames:
            fh.write(np.ascontiguousarray(frame, dtype=np.uint8).tobytes())


def _write_pnm(path, image, magic):
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(image, dtype=np.uint8).tobytes())


def _write_wav(path, samples, rate):
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    data = pcm.tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data),
                         b"WAVE", b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16,
                         b"data", len(data))
    Path(path).write_bytes(header + data)


def _write_arff(path, matrix, labels, classes):
    lines = ["@RELATION bench", ""]
    lines.extend(f"@ATTRIBUTE f{j} NUMERIC" for j in range(matrix.shape[1]))
    lines.append(f"@ATTRIBUTE class {{{','.join(classes)}}}")
    lines += ["", "@DATA"]
    for row, label in zip(matrix, labels):
        lines.append(",".join(f"{v:.6g}" for v in row.tolist()) + "," + label)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(path, entries):
    Path(path).write_text(json.dumps({"entries": entries}, indent=1),
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# synthetic content
# ---------------------------------------------------------------------------

def _letterboxed_video(rng, n_frames, width, content_h, bar, shots):
    """Shots of 3x4 colour-tile mosaics with texture, a drifting bright
    block and a brightness flicker, between near-black bars.  Each shot
    draws its own tiles, so CF work per frame varies little from seed to
    seed.  Content pixels stay above the letterbox darkness threshold, so
    only the bars are cropped."""
    frames = []
    per_shot = -(-n_frames // shots)
    tile_h, tile_w = -(-content_h // 3), -(-width // 4)
    for s in range(shots):
        tiles = rng.uniform(60, 255, (3, 4, 3))
        base = np.kron(tiles, np.ones((tile_h, tile_w, 1)))[:content_h, :width]
        accent = rng.uniform(120, 255, 3)
        texture = rng.normal(0.0, 18.0, base.shape)
        for k in range(min(per_shot, n_frames - s * per_shot)):
            flicker = 1.0 + 0.15 * np.sin(2.0 * np.pi * 3.0 * k / 25.0)
            img = base * flicker + texture + rng.normal(0.0, 6.0, base.shape)
            bx = (k * width // 7 + s * 11) % max(width - width // 4, 1)
            by = content_h // 4
            img[by:by + content_h // 3, bx:bx + width // 4] = accent
            frame = rng.integers(0, 12, (content_h + 2 * bar, width, 3),
                                 dtype=np.uint8)
            frame[bar:bar + content_h] = np.clip(img, 40, 255)
            frames.append(frame)
    return frames


def _am_noise(rng, mod_freq, seconds, rate, depth=0.9):
    t = np.arange(int(seconds * rate)) / rate
    envelope = 1.0 + depth * np.sin(2.0 * np.pi * mod_freq * t)
    return np.clip(0.3 * envelope * rng.normal(0.0, 1.0, t.size), -1.0, 1.0)


def _face(base, rng):
    noise = rng.normal(0.0, 2.0, base.shape)
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def _face_base(rng, size):
    coarse = rng.uniform(0, 255, (size // 6, size // 6))
    return np.kron(coarse, np.ones((6, 6)))


# ---------------------------------------------------------------------------
# workload plans
# ---------------------------------------------------------------------------

def _visual_cf(rng, inp):
    """Small raw-RGB24 frames with all seven features: CF/EMD dominates."""
    entries = []
    for v in range(CF_VIDEOS):
        frames = _letterboxed_video(rng, CF_FRAMES, CF_W, CF_H, CF_BAR,
                                    shots=CF_FRAMES)
        _write_raw_stream(inp / f"v{v}.rgb", frames)
        entries.append({"track_id": f"v{v}", "label": f"c{v % 2}",
                        "frames": f"v{v}.rgb"})
    _write_manifest(inp / "cf.json", entries)
    steps = [{
        "name": "extract-visual",
        "argv": ["extract-visual", "--manifest", "in/cf.json",
                 "--features", VISUAL_ALL, "--lfp-preset", "paper-80",
                 "--jobs", "1", "--out", "{out}/visual.arff"],
        "outputs": ["visual.arff"],
        "expect": {"arff": {"visual.arff": [360, CF_VIDEOS]}},
    }]
    return steps, CF_VIDEOS * CF_FRAMES


def _visual_hd(rng, inp):
    """One 480x360 PPM video without CF: per-frame conversion dominates."""
    frames = _letterboxed_video(rng, HD_FRAMES, HD_W, HD_H - 2 * HD_BAR,
                                HD_BAR, shots=3)
    (inp / "hd").mkdir()
    for k, frame in enumerate(frames):
        _write_pnm(inp / "hd" / f"{k:05d}.ppm", frame, "P6")
    steps = [
        {"name": "extract-visual",
         "argv": ["extract-visual", "--frames", "in/hd", "--features",
                  VISUAL_NO_CF, "--lfp-preset", "paper-80", "--jobs", "1",
                  "--label", "hd", "--dump-frames", "{out}/hd_frames.csv",
                  "--out", "{out}/hd.arff"],
         "outputs": ["hd.arff", "hd_frames.csv"],
         "expect": {"arff": {"hd.arff": [353, 1]},
                    "csv_rows": {"hd_frames.csv": HD_FRAMES}}},
        {"name": "meancolorbar",
         "argv": ["meancolorbar", "--frames", "in/hd", "--out",
                  "{out}/bar.ppm"],
         "outputs": ["bar.ppm"],
         "expect": {"ppm_width": {"bar.ppm": HD_FRAMES}}},
        {"name": "cutscan",
         "argv": ["cutscan", "--frames", "in/hd", "--window", "3",
                  "--out", "{out}/cuts.json"],
         "outputs": ["cuts.json"],
         "expect": {"cuts": {"cuts.json": HD_FRAMES}}},
    ]
    return steps, HD_FRAMES


def _audio_concepts(rng, inp):
    """30 s WAVs through every audio feature, concepts and faces."""
    vocab = [f"concept{j:02d}" for j in range(AU_VOCAB)]
    (inp / "vocab.txt").write_text("\n".join(vocab) + "\n", encoding="utf-8")
    # the last concept is common to every class and excluded from salience
    (inp / "exclude.txt").write_text(vocab[-1] + "\n", encoding="utf-8")
    entries = []
    for c in range(AU_CLASSES):
        for i in range(AU_PER_CLASS):
            tid = f"t{c}{i:02d}"
            _write_wav(inp / f"{tid}.wav",
                       _am_noise(rng, 2.0 + 2.0 * c, AU_SECONDS, AU_RATE),
                       AU_RATE)
            raw = rng.uniform(0.0, 1.0, (AU_CONCEPT_ROWS, AU_VOCAB))
            raw[:, c] += 3.0          # the planted salient concept
            raw[:, -1] += 6.0
            rows = raw / raw.sum(axis=1, keepdims=True)
            with open(inp / f"{tid}.csv", "w", encoding="utf-8",
                      newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["frame_index"] + vocab)
                for k, row in enumerate(rows):
                    writer.writerow([k] + [f"{v:.9f}" for v in row])
            entries.append({"track_id": tid, "label": f"class{c}",
                            "audio": f"{tid}.wav", "concepts": f"{tid}.csv"})
    _write_manifest(inp / "manifest.json", entries)

    bases = [_face_base(rng, FACE_SIZE) for _ in range(FACE_LABELS)]
    for f, base in enumerate(bases):
        d = inp / "gallery" / f"artist{f}"
        d.mkdir(parents=True)
        for i in range(FACE_PER_LABEL):
            _write_pnm(d / f"{i}.pgm", _face(base, rng), "P5")
    star = int(rng.integers(FACE_LABELS))
    (inp / "probes").mkdir()
    for i in range(FACE_PROBES):
        _write_pnm(inp / "probes" / f"p{i}.pgm", _face(bases[star], rng), "P5")

    n = AU_CLASSES * AU_PER_CLASS
    audio_dims, ten_dims, concept_dims = 3734, 216, 2 * AU_VOCAB
    steps = [
        {"name": "extract-audio",
         "argv": ["extract-audio", "--manifest", "in/manifest.json",
                  "--features", AUDIO_ALL, "--jobs", "1",
                  "--out", "{out}/audio.arff"],
         "outputs": ["audio.arff"],
         "expect": {"arff": {"audio.arff": [audio_dims, n]}}},
        {"name": "aggregate",
         "argv": ["aggregate", "--manifest", "in/manifest.json", "--preset",
                  "TEN", "--out", "{out}/ten.arff"],
         "outputs": ["ten.arff"],
         "expect": {"arff": {"ten.arff": [ten_dims, n]}}},
        {"name": "ingest-concepts",
         "argv": ["ingest-concepts", "--manifest", "in/manifest.json",
                  "--vocab", "in/vocab.txt", "--out", "{out}/concepts.arff"],
         "outputs": ["concepts.arff"],
         "expect": {"arff": {"concepts.arff": [concept_dims, n]}}},
        {"name": "salience",
         "argv": ["salience", "--manifest", "in/manifest.json", "--vocab",
                  "in/vocab.txt", "--exclude", "in/exclude.txt", "--top", "3",
                  "--out", "{out}/salience.json"],
         "outputs": ["salience.json"],
         "expect": {"salience": {"salience.json": {
             f"class{c}": vocab[c] for c in range(AU_CLASSES)}}}},
        {"name": "faces",
         "argv": ["faces", "--gallery", "in/gallery", "--probes", "in/probes",
                  "--out-dir", "{out}/faces"],
         "outputs": ["faces/predictions.json"],
         "expect": {"faces": {"faces/predictions.json": f"artist{star}"}}},
        {"name": "fuse",
         "argv": ["fuse", "--arff", "audio={out}/audio.arff",
                  "--arff", "ten={out}/ten.arff",
                  "--arff", "concepts={out}/concepts.arff",
                  "--out", "{out}/fused.arff"],
         "outputs": ["fused.arff"],
         "expect": {"arff": {"fused.arff": [
             audio_dims + ten_dims + concept_dims, n]}}},
    ]
    return steps, n


def _class_data(rng, means, per_class):
    classes = [f"k{c}" for c in range(CL_CLASSES)]
    labels = [classes[c] for _ in range(per_class) for c in range(CL_CLASSES)]
    ids = np.tile(np.arange(CL_CLASSES), per_class)
    matrix = means[ids] + rng.normal(0.0, 1.0, (ids.size, means.shape[1]))
    return matrix, labels, classes


def _classify(rng, inp, seed):
    """Planted-signal ARFFs through crossval and an SVM ensemble."""
    mean_a = rng.normal(0.0, CL_SIGNAL, (CL_CLASSES, CL_D_A))
    mean_b = rng.normal(0.0, CL_SIGNAL, (CL_CLASSES, CL_D_B))
    a, labels, classes = _class_data(rng, mean_a, CL_PER_CLASS)
    b, _, _ = _class_data(rng, mean_b, CL_PER_CLASS)
    big, big_labels, _ = _class_data(rng, mean_a, CL_KNN_PER_CLASS)
    _write_arff(inp / "a.arff", a, labels, classes)
    _write_arff(inp / "b.arff", b, labels, classes)
    _write_arff(inp / "knn.arff", big, big_labels, classes)

    def crossval(clf, arff):
        out = f"cv_{clf}"
        return {"name": f"crossval-{clf}",
                "argv": ["crossval", "--arff", f"in/{arff}", "--clf", clf,
                         "--folds", "10", "--repeats", "1",
                         "--seed", str(seed), "--out-dir", f"{{out}}/{out}"],
                "outputs": [f"{out}/metrics.json", f"{out}/per_class.csv",
                            f"{out}/confusion.csv"],
                "expect": {"accuracy": {f"{out}/metrics.json":
                                        ["mean_accuracy", ACCURACY_FLOOR]}}}

    steps = [crossval("svm", "a.arff"), crossval("knn", "knn.arff"),
             crossval("nb", "a.arff"),
             {"name": "ensemble",
              "argv": ["ensemble", "--arff", "in/a.arff", "--arff",
                       "in/b.arff", "--clf", "svm", "--n", "4",
                       "--seed", str(seed), "--out-dir", "{out}/ens"],
              "outputs": ["ens/metrics.json"],
              "expect": {"accuracy": {"ens/metrics.json":
                                      ["accuracy", ACCURACY_FLOOR]}}}]
    return steps


def generate(name, seed, work_dir):
    """Write the inputs of workload `name` under work_dir/in; return its plan."""
    inp = Path(work_dir) / "in"
    inp.mkdir(parents=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(name)]))
    if name == "visual-cf":
        steps, frames = _visual_cf(rng, inp)
        items = {"unit": "frames", "count": frames,
                 "steps": ["extract-visual"]}
    elif name == "visual-hd":
        steps, frames = _visual_hd(rng, inp)
        items = {"unit": "frames", "count": frames,
                 "steps": ["extract-visual"]}
    elif name == "audio-concepts":
        steps, tracks = _audio_concepts(rng, inp)
        items = {"unit": "tracks", "count": tracks,
                 "steps": ["extract-audio", "aggregate"]}
    elif name == "classify":
        steps = _classify(rng, inp, seed)
        items = {"unit": "folds", "count": 30,
                 "steps": ["crossval-svm", "crossval-knn", "crossval-nb"]}
    else:
        raise ValueError(f"unknown workload {name!r}")
    if tuple(s["name"] for s in steps) != WORKLOADS[name]:
        raise RuntimeError(f"{name}: steps do not match WORKLOADS")
    return {"workload": name, "seed": seed, "steps": steps, "items": items}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _arff_shape(path):
    numeric = rows = 0
    in_data = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if in_data:
                rows += 1
            elif line.upper().startswith("@ATTRIBUTE") and \
                    line.upper().endswith("NUMERIC"):
                numeric += 1
            elif line.upper().startswith("@DATA"):
                in_data = True
    return [numeric, rows]


def _check_one(kind, path, want):
    if kind == "arff":
        got = _arff_shape(path)
        return None if got == want else f"(dims, rows) {got} != {want}"
    if kind == "csv_rows":
        with open(path, encoding="utf-8", newline="") as fh:
            got = sum(1 for _ in csv.reader(fh)) - 1
        return None if got == want else f"{got} frame rows != {want}"
    if kind == "ppm_width":
        data = path.read_bytes().split(maxsplit=3)
        got = int(data[1])
        return None if data[0] == b"P6" and got == want else \
            f"bar width {got} != {want}"
    if kind == "cuts":
        got = json.loads(path.read_text(encoding="utf-8"))["boundaries"]
        ok = all(0 < b < want for b in got) and got == sorted(set(got))
        return None if ok else f"bad cut list {got}"
    if kind == "salience":
        ranked = json.loads(path.read_text(encoding="utf-8"))
        got = {label: rows[0][0] for label, rows in ranked.items()}
        return None if got == want else f"top concepts {got} != {want}"
    if kind == "faces":
        pred = json.loads(path.read_text(encoding="utf-8"))
        labels = {p["label"] for p in pred["per_probe"]}
        ok = pred["winner"] == want and labels == {want}
        return None if ok else f"faces {sorted(labels)} / {pred['winner']}"
    if kind == "accuracy":
        key, floor = want
        got = json.loads(path.read_text(encoding="utf-8"))[key]
        return None if got >= floor else f"{key} {got:.3f} < {floor}"
    raise ValueError(f"unknown check {kind!r}")


def check_step(step, out_dir):
    """Problems with one step's outputs in out_dir (empty when correct)."""
    problems = []
    for rel in step["outputs"]:
        if not (out_dir / rel).is_file():
            problems.append(f"missing {rel}")
    if problems:
        return problems
    for kind, files in step["expect"].items():
        for rel, want in files.items():
            problem = _check_one(kind, out_dir / rel, want)
            if problem:
                problems.append(f"{rel}: {problem}")
    return problems
