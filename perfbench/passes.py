"""Child process of the benchmark: runs workload passes through the CLI.

Usage: python passes.py PLAN.json RESULT.json

The plan (see workloads.py and run.py) names the steps, the measurement
time and whether to trace.  Every step calls ``avmir.cli.main`` in this one
process, with paths relative to the working directory.  Passes repeat while
a typical pass still ends within the measurement time.  After each pass,
outside the timed region, the outputs are checked and hashed; the first
pass's artifacts are the reference that later passes must reproduce.
Untraced runs also time fresh interpreters importing avmir.cli (setup_s)
between passes.  The result file holds per-pass step times, exit codes,
problems, artifact digests, setup samples, per-layer trace stats and the
process's peak resident memory.
"""

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

# setup_s samples are taken after each pass of an untraced run, so that they
# spread over the whole run like the passes do
SETUP_PER_PASS = 2
SETUP_CODE = ("import time; t = time.perf_counter(); import avmir.cli; "
              "print(repr(time.perf_counter() - t))")


def measure_setup():
    """Seconds a fresh interpreter takes to import avmir.cli."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE],
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.strip())


def digest_outputs(step, out_dir):
    return {rel: hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
            for rel in step["outputs"] if (out_dir / rel).is_file()}


def run_pass(cli, plan, index, tracer):
    out_dir = Path("out") / f"p{index}"
    out_dir.mkdir(parents=True)
    if tracer is not None:
        tracer.reset()
    record = {"traced": tracer is not None, "steps": {}}
    for step in plan["steps"]:
        argv = [a.replace("{out}", str(out_dir)) for a in step["argv"]]
        if tracer is not None:
            tracer.step = step["name"]
            start = tracer.enter()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.leave(f"cli.{step['name']}", start)
        record["steps"][step["name"]] = {"s": seconds, "rc": rc}
    for step in plan["steps"]:
        entry = record["steps"][step["name"]]
        entry["problems"] = ([f"exit code {entry['rc']}"] if entry["rc"]
                             else workloads.check_step(step, out_dir))
        entry["digests"] = digest_outputs(step, out_dir)
    if tracer is not None:
        record["trace"] = {
            "spans": [[s, n, *v] for (s, n), v in sorted(tracer.stats.items())],
            "counts": [[s, n, v] for (s, n), v in
                       sorted(tracer.counts.items())],
        }
    shutil.rmtree(out_dir)
    return record


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    from avmir import _kernels, cli

    passes, instrumented, setup = [], [], []
    phases = [(None, plan["seconds"])]
    if plan["trace"]:
        tracer = tracing.Tracer()
        half = plan["seconds"] / 2.0
        phases = [(None, half), (tracer, half)]
    for tracer, budget in phases:
        if tracer is not None:
            instrumented = tracing.instrument(tracer)
        start = time.perf_counter()
        times = []
        # start a pass only if a typical pass still ends within the budget
        while not times or (time.perf_counter() - start
                            + statistics.median(times) <= budget):
            t0 = time.perf_counter()
            passes.append(run_pass(cli, plan, len(passes), tracer))
            if not plan["trace"]:
                setup.extend(measure_setup()
                             for _ in range(SETUP_PER_PASS))
            times.append(time.perf_counter() - t0)
    result = {
        "passes": passes,
        "numba": bool(_kernels.NUMBA_ENABLED),
        "avmir_file": cli.__file__,
        "instrumented": instrumented,
        "setup_s": setup,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
