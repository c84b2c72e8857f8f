"""Command-line surface.

Every command writes its artifacts under the requested output location;
main() then adds a run.json beside them (in --out-dir, or the directory of
--out / --out-train) recording the command and its full resolved
configuration (seed included), so any run can be reproduced byte-identically.

The manifest commands (extract-audio, extract-visual, aggregate,
ingest-concepts, salience) share one runner, _source_rows: it checks every
entry's input path before computing anything, computes one feature row per
path (in --jobs worker processes where the command offers them) and returns
the rows in track-id order, whatever the order of the manifest entries.  The
single-source flags (--wav, --frames, --scores with --label) give the same
row the file would get as a manifest entry.

Exit codes: 0 success, 2 input error, 3 internal invariant violation.
"""

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, aggregate, audio, concepts, ml, shotviz, visual
from . import io as avio
from .errors import InputError

# dims of one track's audio features; mfcc and chroma are the mean and std
# of 13 coefficients and 12 pitch classes
_AUDIO_DIMS = {**audio.TRACK_FEATURE_DIMS, "mfcc": 26, "chroma": 24}
AUDIO_FEATURES = tuple(_AUDIO_DIMS)
VISUAL_FEATURES = (*visual.FRAME_FEATURE_DIMS, "lfp")


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _plain(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def write_run_config(out_dir, command, args):
    config = {k: _plain(v) for k, v in sorted(vars(args).items())
              if k != "func"}
    write_json(Path(out_dir) / "run.json",
               {"command": command, "config": config, "version": __version__})


def _run_dir(args):
    """Where a command's run.json goes: its output directory, or the
    directory of its (first) output file."""
    options = vars(args)
    if "out_dir" in options:
        return options["out_dir"]
    return (options.get("out") or options["out_train"]).parent


def _parse_feature_list(raw, allowed):
    features = [f.strip().lower() for f in raw.split(",") if f.strip()]
    unknown = [f for f in features if f not in allowed]
    if unknown:
        raise InputError(f"unknown features: {', '.join(unknown)}; "
                         f"choose from {', '.join(allowed)}")
    if not features:
        raise InputError("empty feature list")
    return features


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def _source_rows(manifest_path, source, label, field, row_fn, jobs=1):
    """Labels and feature rows for every manifest entry, or for one source.

    With a manifest, each entry's `field` path (audio, frames or concepts) is
    checked before any row is computed; rows come back in track-id order,
    computed by a pool of `jobs` processes when jobs > 1 (row_fn must then
    pickle: a module-level function or a functools.partial of one).
    Without one, the single `source` file gives one row labelled `label`.
    """
    if manifest_path is None:
        return [label], [row_fn(source)]
    manifest = avio.load_manifest(manifest_path)
    entries = sorted(manifest, key=lambda e: e.track_id)
    for e in entries:
        if getattr(e, field) is None:
            raise InputError(f"entry {e.track_id!r} has no {field} path")
    paths = [str(manifest.resolve(getattr(e, field))) for e in entries]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(row_fn, paths))
    else:
        rows = [row_fn(p) for p in paths]
    return [e.label for e in entries], rows


def _audio_feature_vector(wav_path, features):
    clip = audio.resample(avio.read_wav(wav_path))
    vector = []
    track = None
    for name in features:
        if name in audio.TRACK_FEATURE_DIMS:
            if track is None:
                track = audio.track_features(clip)
            vector.append(track[name])
        elif name == "mfcc":
            frames = audio.mfcc(clip.samples, clip.sample_rate)
            vector.append(aggregate.moments(frames, ("mean", "std")))
        elif name == "chroma":
            frames, _ = audio.chroma(clip.samples, clip.sample_rate)
            vector.append(aggregate.moments(frames, ("mean", "std")))
    return np.concatenate(vector)


def _visual_feature_vector(frames_path, features, fps, lfp_preset,
                           crop_letterbox, dump_csv=None):
    stream = avio.read_frames(frames_path, fps=fps)
    matrices, lfp_pattern = visual.extract_video_features(
        stream, features, fps=stream.fps, lfp_preset=lfp_preset,
        crop_letterbox=crop_letterbox)
    if dump_csv is not None:
        _dump_frame_features(dump_csv, matrices,
                             [f for f in features if f != "lfp"])
    return np.concatenate([
        visual.lfp_feature(lfp_pattern, lfp_preset) if name == "lfp"
        else aggregate.moments(matrices[name], aggregate.VISUAL_MOMENTS)
        for name in features])


def _visual_schema(features, lfp_preset):
    schema = []
    for name in features:
        if name == "lfp":
            dims = visual.LFP_PRESET_DIMS[lfp_preset]
            schema.extend(f"lfp_{i}" for i in range(dims))
        else:
            dims = visual.FRAME_FEATURE_DIMS[name]
            schema.extend(aggregate.moment_schema(
                [f"{name}_{d}" for d in range(dims)], aggregate.VISUAL_MOMENTS))
    return schema


def _dump_frame_features(path, matrices, features):
    header = ["frame_index"]
    for name in features:
        header.extend(f"{name}_{k}" for k in range(matrices[name].shape[1]))
    n = matrices[features[0]].shape[0] if features else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            row = [i]
            for name in features:
                row.extend(f"{v:.9g}" for v in matrices[name][i])
            writer.writerow(row)


def _segment_vector(wav_path, preset):
    bundle = aggregate.segment_bundle_from_audio(avio.read_wav(wav_path))
    return aggregate.preset(bundle, preset)


def _concept_vector(scores_path, vocab, spec):
    seq = concepts.read_concept_scores(scores_path, vocab)
    return concepts.aggregate_concepts(seq, spec)


def _concept_means(scores_path, vocab):
    return concepts.read_concept_scores(scores_path, vocab).rows.mean(axis=0)


def cmd_extract_audio(args):
    features = _parse_feature_list(args.features, AUDIO_FEATURES)
    labels, rows = _source_rows(
        args.manifest, args.wav, args.label, "audio",
        partial(_audio_feature_vector, features=features), args.jobs)
    schema = [f"{name}_{i}" for name in features
              for i in range(_AUDIO_DIMS[name])]
    dataset = ml.LabeledDataset(np.array(rows), labels, schema)
    avio.write_arff(dataset, args.relation, args.out)
    print(f"wrote {dataset.n} x {len(dataset.schema)} features to {args.out}")
    return 0


def cmd_extract_visual(args):
    features = _parse_feature_list(args.features, VISUAL_FEATURES)
    row_fn = partial(_visual_feature_vector, features=features, fps=args.fps,
                     lfp_preset=args.lfp_preset,
                     crop_letterbox=not args.keep_letterbox,
                     dump_csv=None if args.manifest else args.dump_frames)
    labels, rows = _source_rows(args.manifest, args.frames, args.label,
                                "frames", row_fn, args.jobs)
    dataset = ml.LabeledDataset(np.array(rows), labels,
                                _visual_schema(features, args.lfp_preset))
    avio.write_arff(dataset, args.relation, args.out)
    print(f"wrote {dataset.n} x {len(dataset.schema)} features to {args.out}")
    return 0


def cmd_aggregate(args):
    preset = args.preset.upper()
    if preset not in aggregate.PRESET_DIMS:
        raise InputError(f"unknown preset {args.preset!r}")
    labels, rows = _source_rows(args.manifest, args.wav, args.label, "audio",
                                partial(_segment_vector, preset=preset))
    schema = [f"{preset.lower()}_{i}"
              for i in range(aggregate.PRESET_DIMS[preset])]
    avio.write_arff(ml.LabeledDataset(np.array(rows), labels, schema),
                    args.relation, args.out)
    print(f"wrote {preset} vectors ({len(schema)} dims) to {args.out}")
    return 0


def cmd_ingest_concepts(args):
    vocab = concepts.read_vocabulary(args.vocab)
    spec = args.moments.lower()
    if spec not in concepts.CONCEPT_PRESETS:
        spec = tuple(m.strip() for m in args.moments.split(",") if m.strip())
    labels, rows = _source_rows(
        args.manifest, args.scores, args.label, "concepts",
        partial(_concept_vector, vocab=vocab, spec=spec))
    dataset = ml.LabeledDataset(np.array(rows), labels,
                                concepts.concept_schema(vocab, spec))
    avio.write_arff(dataset, args.relation, args.out)
    print(f"wrote {dataset.n} x {len(dataset.schema)} concept features "
          f"to {args.out}")
    return 0


def cmd_fuse(args):
    parts = []
    for item in args.arff:
        if "=" in item:
            name, path = item.split("=", 1)
        else:
            name, path = Path(item).stem, item
        parts.append((name, avio.read_arff(path)))
    fused = ml.early_fuse(parts)
    avio.write_arff(fused, args.relation, args.out)
    print(f"fused {len(parts)} parts into {fused.matrix.shape[1]} columns "
          f"at {args.out}")
    return 0


def _classifier_spec(args):
    name = args.clf.lower()
    if name == "knn":
        return ("knn", {"k": args.k, "metric": args.metric})
    if name == "nb":
        return ("nb", {})
    if name == "svm":
        return ("svm", {"c": args.c, "epochs": args.epochs,
                        "seed": args.seed})
    if name == "majority":
        return ("majority", {})
    raise InputError(f"unknown classifier {args.clf!r}")


def cmd_crossval(args):
    dataset = avio.read_arff(args.arff)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    folds = ml.stratified_kfold(dataset.labels, k=args.folds,
                                repeats=args.repeats, seed=args.seed)
    result = ml.cross_validate(dataset, _classifier_spec(args), folds,
                               paper_normalization=args.paper_normalization)

    write_json(out_dir / "metrics.json", {
        "classifier": args.clf,
        "folds": args.folds,
        "repeats": args.repeats,
        "seed": args.seed,
        "mean_accuracy": result.mean_accuracy,
        "std_accuracy": result.std_accuracy,
        "classes": result.classes,
        "per_class": result.per_class,
    })
    with open(out_dir / "per_class.csv", "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "precision", "recall", "f1"])
        for label in result.classes:
            m = result.per_class[label]
            writer.writerow([label, f"{m['precision']:.6f}",
                             f"{m['recall']:.6f}", f"{m['f1']:.6f}"])
    with open(out_dir / "confusion.csv", "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["truth\\pred"] + result.classes)
        for label, row in zip(result.classes, result.confusion):
            writer.writerow([label] + [int(v) for v in row])

    print(f"{args.clf}: mean accuracy {result.mean_accuracy:.4f} "
          f"(std {result.std_accuracy:.4f}) over "
          f"{args.folds}x{args.repeats} folds")
    for label in result.classes:
        m = result.per_class[label]
        print(f"  {label:<20} P {m['precision']:.3f}  R {m['recall']:.3f}  "
              f"F1 {m['f1']:.3f}")
    return 0


def cmd_ensemble(args):
    if not 0.0 < args.test_fraction < 1.0:
        raise ValueError("--test-fraction must lie strictly between 0 and 1, "
                         f"got {args.test_fraction}")
    datasets = [avio.read_arff(p) for p in args.arff]
    base = datasets[0]
    for path, ds in zip(args.arff[1:], datasets[1:]):
        if ds.labels != base.labels:
            raise InputError(f"{path}: labels disagree with {args.arff[0]} "
                             f"({ml.first_difference(ds.labels, base.labels)})")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    by_class = {}
    for i, lb in enumerate(base.labels):
        by_class.setdefault(lb, []).append(i)
    test_idx = []
    for lb in sorted(by_class):
        members = by_class[lb]
        order = rng.permutation(len(members))
        take = max(1, int(round(args.test_fraction * len(members))))
        test_idx.extend(members[i] for i in order[:take])
    test_idx = sorted(test_idx)
    train_idx = sorted(set(range(base.n)) - set(test_idx))

    classes = base.classes
    modalities = []
    for tag, ds in zip(args.arff, datasets):
        train = ds.subset(train_idx)
        modalities.append(ml.bagging_train(
            train, _classifier_spec(args), n=args.n,
            holdout_fraction=args.holdout, seed=args.seed,
            tag=str(tag), classes=classes))

    pred = ml.ensemble_predict(modalities,
                               [ds.matrix[test_idx] for ds in datasets],
                               len(classes))
    correct = int((pred == base.label_ids()[test_idx]).sum())
    accuracy = correct / len(test_idx)

    write_json(out_dir / "metrics.json", {
        "classifier": args.clf,
        "members_per_modality": args.n,
        "modalities": [str(p) for p in args.arff],
        "test_rows": len(test_idx),
        "accuracy": accuracy,
        "confidences": [[m.confidence for m in mod] for mod in modalities],
        "classes": classes,
    })
    print(f"ensemble accuracy {accuracy:.4f} on {len(test_idx)} held-out "
          f"rows ({len(datasets)} modalities x {args.n} members)")
    return 0


def cmd_faces(args):
    gallery = concepts.load_face_gallery(args.gallery)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    probe_paths = sorted(Path(args.probes).glob("*.pgm"))
    if not probe_paths:
        raise InputError(f"no .pgm probes in {args.probes}")
    predictions = []
    votes = []
    for path in probe_paths:
        descriptor = concepts.lbp_descriptor(avio.read_pgm(path))
        label, distance, confidence = concepts.recognize_face(descriptor,
                                                              gallery)
        predictions.append({"probe": path.name, "label": label,
                            "distance": distance, "confidence": confidence})
        votes.append((label, confidence))
    board = concepts.artist_score(votes)

    write_json(out_dir / "predictions.json", {
        "per_probe": predictions,
        "winner": board.winner,
        "scoreboard": {lb: {"count": board.counts[lb],
                            "mean_confidence": board.mean_confidence[lb],
                            "penalized": board.penalized[lb]}
                       for lb in sorted(board.counts)},
    })
    print(f"identified {board.winner} from {len(predictions)} probes")
    return 0


def cmd_salience(args):
    vocab = concepts.read_vocabulary(args.vocab)
    exclusions = set()
    if args.exclude:
        exclusions = set(concepts.read_vocabulary(args.exclude))
    labels, means = _source_rows(args.manifest, None, None, "concepts",
                                 partial(_concept_means, vocab=vocab))
    sums, counts = {}, {}
    for label, mean in zip(labels, means):
        sums[label] = sums.get(label, 0.0) + mean
        counts[label] = counts.get(label, 0) + 1

    class_freqs = {lb: (vocab, sums[lb] / counts[lb]) for lb in sorted(sums)}
    ranked = concepts.salient_concepts(class_freqs, exclusions)
    write_json(args.out, {lb: [[name, score] for name, score in rows[:args.top]]
                          for lb, rows in ranked.items()})
    print(f"ranked {len(vocab) - len(exclusions)} concepts for "
          f"{len(class_freqs)} classes into {args.out}")
    return 0


def cmd_meancolorbar(args):
    bar = shotviz.mean_color_bar(avio.read_frames(args.frames),
                                 resample_height=args.height)
    avio.write_ppm(args.out, bar)
    print(f"wrote {bar.shape[1]}-column mean-color bar to {args.out}")
    return 0


def cmd_cutscan(args):
    distances = shotviz.frame_activity(avio.read_frames(args.frames),
                                       args.metric)
    boundaries = shotviz.naive_cut_detect(distances, window=args.window,
                                          kappa=args.kappa)
    write_json(args.out, {"metric": args.metric, "window": args.window,
                          "kappa": args.kappa, "boundaries": boundaries})
    print(f"{len(boundaries)} candidate cuts -> {args.out}")
    return 0


def cmd_splits(args):
    manifest = avio.load_manifest(args.manifest, check_paths=False)
    spec = avio.SplitSpec(train_fraction=args.fraction,
                          per_class_count=args.per_class,
                          group_filter=args.filter, seed=args.seed)
    train, test = avio.make_splits(manifest, spec)
    avio.write_id_list(args.out_train, train)
    avio.write_id_list(args.out_test, test)
    print(f"split {len(train)} train / {len(test)} test ids")
    return 0


def cmd_arff_export(args):
    with avio.open_text(args.csv, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{args.csv}: empty file")
        if args.label_col not in header:
            raise InputError(f"{args.csv}: no column named {args.label_col!r}")
        label_idx = header.index(args.label_col)
        schema = [h for i, h in enumerate(header) if i != label_idx]
        rows, labels = [], []
        for ln, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise InputError(f"{args.csv}:{ln}: expected "
                                 f"{len(header)} cells, got {len(cells)}")
            labels.append(cells[label_idx])
            try:
                row = [float(c) for i, c in enumerate(cells) if i != label_idx]
            except ValueError:
                raise InputError(f"{args.csv}:{ln}: non-numeric feature "
                                 "value") from None
            if not np.isfinite(row).all():
                raise InputError(f"{args.csv}:{ln}: non-finite feature value")
            rows.append(row)
    if not rows:
        raise InputError(f"{args.csv}: no data rows")
    dataset = ml.LabeledDataset(np.array(rows), labels, schema)
    avio.write_arff(dataset, args.relation, args.out)
    print(f"exported {dataset.n} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="avmir",
        description="audio-visual music analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        return p

    p = add("extract-audio", cmd_extract_audio,
            help="psychoacoustic track features from WAV audio")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", type=Path)
    src.add_argument("--wav", type=Path)
    p.add_argument("--features", default="rp,rh,ssd,mvd,tssd,trh")
    p.add_argument("--label", default="unknown")
    p.add_argument("--relation", default="audio_features")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)

    p = add("extract-visual", cmd_extract_visual,
            help="per-video color/affect features from frame streams")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", type=Path)
    src.add_argument("--frames", type=Path)
    p.add_argument("--features", default="gcs,gev,cf,cn,waf,ic,lfp")
    p.add_argument("--fps", type=float, default=25.0)
    p.add_argument("--lfp-preset", default="paper-80",
                   choices=["paper-80", "paper-60"])
    p.add_argument("--keep-letterbox", action="store_true")
    p.add_argument("--dump-frames", type=Path,
                   help="per-frame feature CSV (single-source mode)")
    p.add_argument("--label", default="unknown")
    p.add_argument("--relation", default="visual_features")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)

    p = add("aggregate", cmd_aggregate,
            help="segment-descriptor aggregation presets (EN0..EN5, TEN)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", type=Path)
    src.add_argument("--wav", type=Path)
    p.add_argument("--preset", default="TEN")
    p.add_argument("--label", default="unknown")
    p.add_argument("--relation", default="segment_features")
    p.add_argument("--out", type=Path, required=True)

    p = add("ingest-concepts", cmd_ingest_concepts,
            help="aggregate per-frame concept scores into track vectors")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", type=Path)
    src.add_argument("--scores", type=Path)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--moments", default="max+mean")
    p.add_argument("--label", default="unknown")
    p.add_argument("--relation", default="concept_features")
    p.add_argument("--out", type=Path, required=True)

    p = add("fuse", cmd_fuse, help="early-fuse feature ARFF files")
    p.add_argument("--arff", action="append", required=True,
                   metavar="[NAME=]PATH")
    p.add_argument("--relation", default="fused")
    p.add_argument("--out", type=Path, required=True)

    p = add("crossval", cmd_crossval,
            help="stratified repeated cross-validation of one feature set")
    p.add_argument("--arff", type=Path, required=True)
    p.add_argument("--clf", default="svm",
                   choices=["knn", "nb", "svm", "majority"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--metric", default="l2", choices=["l1", "l2"])
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paper-normalization", action="store_true",
                   help="normalize train and test separately")
    p.add_argument("--out-dir", type=Path, required=True)

    p = add("ensemble", cmd_ensemble,
            help="bagged weighted-majority ensemble over modalities")
    p.add_argument("--arff", action="append", type=Path, required=True,
                   help="one feature ARFF per modality, aligned rows")
    p.add_argument("--clf", default="svm",
                   choices=["knn", "nb", "svm", "majority"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--metric", default="l2", choices=["l1", "l2"])
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--n", type=int, default=10,
                   help="ensemble members per modality")
    p.add_argument("--holdout", type=float, default=0.10)
    p.add_argument("--test-fraction", type=float, default=0.30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", type=Path, required=True)

    p = add("faces", cmd_faces,
            help="LBP face identification with log-penalized voting")
    p.add_argument("--gallery", type=Path, required=True,
                   help="directory of <label>/<n>.pgm crops")
    p.add_argument("--probes", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)

    p = add("salience", cmd_salience,
            help="rank per-class salient concepts by minimal lead")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--exclude", type=Path)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)

    p = add("meancolorbar", cmd_meancolorbar,
            help="mean-color bar image of a frame stream")
    p.add_argument("--frames", type=Path, required=True)
    p.add_argument("--height", type=int)
    p.add_argument("--out", type=Path, required=True)

    p = add("cutscan", cmd_cutscan,
            help="naive adaptive-threshold cut detection (baseline)")
    p.add_argument("--frames", type=Path, required=True)
    p.add_argument("--metric", default="mean-rgb-l1",
                   choices=sorted(shotviz.ACTIVITY_METRICS))
    p.add_argument("--window", type=int, default=15)
    p.add_argument("--kappa", type=float, default=3.0)
    p.add_argument("--out", type=Path, required=True)

    p = add("splits", cmd_splits,
            help="stratified train/test id lists with group filters")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--fraction", type=float, default=0.66)
    p.add_argument("--per-class", type=int)
    p.add_argument("--filter", default="none",
                   choices=["none", "artist", "album"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", type=Path, required=True)
    p.add_argument("--out-test", type=Path, required=True)

    p = add("arff-export", cmd_arff_export,
            help="convert a labeled CSV feature table to ARFF")
    p.add_argument("--csv", type=Path, required=True)
    p.add_argument("--label-col", default="class")
    p.add_argument("--relation", default="exported")
    p.add_argument("--out", type=Path, required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        if status == 0:
            write_run_config(_run_dir(args), args.command, args)
        return status
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
