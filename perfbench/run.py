"""Pipeline benchmark: seeded workloads through the avmir CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload visual-cf --seed 1 --seconds 25 --trace 0

Workloads: visual-cf, visual-hd, audio-concepts, classify (see README.md).
The benchmark writes the workload's inputs from --seed under
.perfbench_work/, then runs one child process that calls avmir.cli.main for
every command of the workload (--jobs 1) in timed passes for about
--seconds, and times fresh interpreters importing avmir.cli (setup_s)
between the passes.  Outputs are
checked after every pass: exit codes, documented dimensions, accuracy
floors, planted answers, and SHA-256 digests that must repeat across passes.

--trace 0 prints the end-to-end metrics: medians over the timed passes.
--trace 1 spends half the time untraced and half with every public function
of the layer modules wrapped, and prints per-layer calls, self time and
exact work counts, plus the tracing overhead.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; a full record
with the environment goes to .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170.0

# spans reported as <name>.calls and <name>.self_s; `kernels` is _kernels
LAYER_SPANS = (
    "io.frame_decode", "io.read_ppm", "io.read_wav", "io.read_arff",
    "io.write_arff",
    "imgprep.as_frame", "imgprep.strip_letterbox", "imgprep.rgb_to_ihls",
    "imgprep.rgb_to_lch", "imgprep.rgb_to_hsv", "imgprep.hsv_to_rgb",
    "kernels.emd", "kernels.clahe_u8", "kernels.dither_indices",
    "kernels.lbp_codes",
    "visual.colorfulness", "visual.color_names", "visual.waf",
    "visual.blur_measure", "visual.gcs", "visual.segment_frame",
    "audio.resample", "audio.sonogram", "audio.rhythm_pattern", "audio.ssd",
    "audio.modvar", "audio.mfcc", "audio.chroma",
    "aggregate.moments", "aggregate.segment_bundle_from_audio",
    "aggregate.preset",
    "concepts.read_concept_scores", "concepts.aggregate_concepts",
    "concepts.salient_concepts", "concepts.lbp_descriptor",
    "ml.LinearSvmClassifier.fit", "ml.LinearSvmClassifier.predict",
    "ml.KnnClassifier.predict", "ml.ensemble_predict", "ml.early_fuse",
    "shotviz.mean_color_bar", "shotviz.frame_activity",
)
CLASSIFIERS = ("KnnClassifier", "GaussianNbClassifier", "LinearSvmClassifier",
               "MajorityClassifier")


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS thread: the workload is one single-threaded CLI process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(args, child):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "backend": "numba" if child["numba"] else "numpy",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "blas_threads": 1,
    }


def run_child(work, plan, env, deadline):
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    with open(work / "child.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passes.py"), "plan.json",
             "result.json"], cwd=work, env=env, stdout=log,
            stderr=subprocess.STDOUT, timeout=max(deadline, 1.0))
    if proc.returncode != 0:
        tail = (work / "child.log").read_text(encoding="utf-8")[-3000:]
        raise RuntimeError(f"workload process exited {proc.returncode}:\n"
                           f"{tail}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def tally(plan, passes):
    """(attempted, failed, problems, combined digest) over every pass."""
    reference = passes[0]["steps"]
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        for step in plan["steps"]:
            entry = p["steps"][step["name"]]
            issues = list(entry["problems"])
            if entry["digests"] != reference[step["name"]]["digests"]:
                issues.append("artifact digest differs from the first pass")
            attempted += 1
            if issues:
                failed += 1
                problems.extend(f"pass {i} {step['name']}: {x}"
                                for x in issues)
    lines = sorted(f"{rel} {sha}" for entry in reference.values()
                   for rel, sha in entry["digests"].items())
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return attempted, failed, problems, combined


def pass_wall(p):
    return sum(e["s"] for e in p["steps"].values())


def item_rates(plan, timed):
    """Per-pass throughput: work units over the time of the counted steps."""
    items = plan["items"]
    return [items["count"] / sum(p["steps"][s]["s"] for s in items["steps"])
            for p in timed]


def end_to_end(plan, timed, setup, peak_rss_kib):
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(pass_wall(p) for p in timed), "s"),
        "items_per_s": (statistics.median(item_rates(plan, timed)), "1/s"),
        "peak_rss_mib": (peak_rss_kib / 1024.0, "MiB"),
    }


def step_medians(plan, timed):
    return {s["name"]: statistics.median(p["steps"][s["name"]]["s"]
                                         for p in timed)
            for s in plan["steps"]}


def layer_values(trace):
    """Per-layer metrics of one traced pass."""
    spans, counts = {}, {}
    per_step = {}
    for step, name, calls, total, self_s in trace["spans"]:
        agg = spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += total
        agg[2] += self_s
        per_step[(step, name)] = calls
    for step, name, value in trace["counts"]:
        counts[name] = counts.get(name, 0) + value

    out = {}
    for name in LAYER_SPANS:
        calls, _, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    decode_calls, _, decode_s = spans.get("io.frame_decode", (0, 0.0, 0.0))
    out["io.frame_decode.s_per_frame"] = (
        decode_s / decode_calls if decode_calls else 0.0, "s")
    for step in workloads.ALL_STEPS:
        out[f"cli.{step}.wall_s"] = (spans.get(f"cli.{step}", (0, 0.0))[1], "s")
    out["count.frames_decoded"] = (counts.get("frames_decoded", 0), "count")
    out["count.bytes_decoded"] = (counts.get("bytes_decoded", 0), "B")
    out["count.pixels_featurized"] = (counts.get("pixels_featurized", 0),
                                      "count")
    featurized = per_step.get(("extract-visual", "visual.frame_features"),
                              0)
    as_frame = per_step.get(("extract-visual", "imgprep.as_frame"), 0)
    out["count.as_frame_per_frame"] = (
        as_frame / featurized if featurized else 0.0, "calls/frame")
    for kind in ("fit", "predict"):
        out[f"count.clf_{kind}"] = (
            sum(spans.get(f"ml.{c}.{kind}", (0,))[0] for c in CLASSIFIERS),
            "count")
    out["count.audio_samples_read"] = (counts.get("audio_samples_read", 0),
                                       "count")
    return out, spans


def per_layer(traced):
    rows = [layer_values(p["trace"]) for p in traced]
    metrics = {name: (statistics.median(r[0][name][0] for r in rows), unit)
               for name, (_, unit) in rows[0][0].items()}
    spans = {}
    for _, pass_spans in rows:
        for name, (calls, total, self_s) in pass_spans.items():
            spans.setdefault(name, []).append((calls, total, self_s))
    table = {name: [statistics.median(v[k] for v in vals) for k in range(3)]
             for name, vals in spans.items()}
    return metrics, table


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "avmir" / "cli.py").is_file():
        print(f"error: no avmir sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = (ROOT / ".perfbench_work"
            / f"{args.workload}-s{args.seed}-{os.getpid()}")
    env = child_env()
    try:
        plan = workloads.generate(args.workload, args.seed, work)
        plan.update(seconds=args.seconds, trace=args.trace)
        child = run_child(work, plan, env, CHILD_TIMEOUT_S
                          - (time.monotonic() - started))
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = child["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted, failed, problems, digest = tally(plan, passes)
    env_record = environment(args, child)
    steps = step_medians(plan, untraced)
    setup = child["setup_s"]
    record = {"env": env_record, "digest": digest, "problems": problems,
              "attempted": attempted, "failed": failed,
              "step_median_s": steps, "setup_s": setup,
              "pass_wall_s": [pass_wall(p) for p in untraced]}

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} timed "
          f"+ {len(traced)} traced passes; "
          f"avmir from {child['avmir_file']}")
    print("env " + json.dumps(env_record, sort_keys=True))
    print(f"artifact digest sha256:{digest}")
    for line in problems:
        print(f"FAILED {line}")
    print(f"  error_rate           {failed / attempted:.6g} "
          f"({failed}/{attempted} commands)")
    unit = f"{plan['items']['unit']}_per_s"
    print(f"  {unit:<20} "
          f"{statistics.median(item_rates(plan, untraced)):.6g} 1/s")
    for name, value in steps.items():
        print(f"  {name + '_s':<20} {value:.6g} s")

    if args.trace:
        metrics, table = per_layer(traced)
        overhead = (statistics.median(pass_wall(p) for p in traced)
                    - statistics.median(pass_wall(p) for p in untraced))
        record.update(tracing_overhead_s=overhead, spans=table)
        for name in LAYER_SPANS[1:]:       # io.frame_decode is the iterator
            if name not in child["instrumented"]:
                print(f"WARNING no function {name} in the program; "
                      "its metrics read 0")
        print(f"  tracing_overhead_s   {overhead:.6g} s (traced minus "
              "untraced wall_s)")
        print("  top self time: " + ", ".join(
            f"{n} {v[2]:.4g}s/{v[0]:.0f}"
            for n, v in sorted(table.items(), key=lambda kv: -kv[1][2])[:8]))
    else:
        metrics = end_to_end(plan, untraced, setup, child["peak_rss_kib"])
    for name, (value, unit) in metrics.items():
        if not args.trace or value:
            print(f"  {name:<40} {value:.6g} {unit}")
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                  encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
