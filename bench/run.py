"""Benchmark for monolc: one workload per invocation.

    python3 bench/run.py --workload corpus_mix --seed 1 --seconds 30 --trace 0

Run from the repository root; monolc is imported from ``src/`` next to
this directory, never from an installed copy.  Workloads and the reason
for each are in BENCHMARK.json and bench/README.md.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, untraced.
--trace 1 runs the same passes untraced and then traced, and reports
the per-layer metrics; the traced outputs must equal the untraced ones
byte for byte, and the wrappers are removed before the run ends.

Everything runs in this one process, with no threads.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  Details (metadata, pass times, failures, spans) go to
bench/out/.  Exit status: 0 all outputs correct, 1 a check failed,
2 usage error or no monolc sources.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import speed
import workloads
from spans import Tracer
from workloads import JobError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# set-up is re-done this many times and its median reported
SETUP_REPEATS = 10
# job_tail_ms is the highest percentile with at least this many samples above
TAIL_BEYOND = 10


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def import_monolc():
    """A fresh import of monolc, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "monolc" or n.startswith("monolc.")]:
        del sys.modules[name]
    return importlib.import_module("monolc")


def set_up(workload: str, seed: int) -> tuple[object, list, list[float]]:
    """Import plus input generation, SETUP_REPEATS times, each scaled to
    the reference speed."""
    make_jobs = workloads.WORKLOADS[workload][0]
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.reading()
        start = time.perf_counter()
        m = import_monolc()
        jobs = make_jobs(seed)
        elapsed = time.perf_counter() - start
        times.append(speed.scaled(elapsed, before, speed.reading()))
    return m, jobs, times


def run_pass(m, jobs, tracer: Tracer | None = None) -> tuple[float, list[float], list]:
    """One pass over the job list: wall seconds, job seconds at the
    reference speed, outputs.

    The host's speed is read before the first job, and after each job
    that ends speed.EVERY_S or more after the last reading.  A job is
    scaled by the readings just before and just after it.
    """
    times, outputs, unscaled = [], [], []
    start = time.perf_counter()
    before = speed.reading()
    since = time.perf_counter()
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_job(i)
        try:
            out = workloads.RUNNERS[job.kind](m, job)
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            out = JobError(f"{type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.end_job()
        t1 = time.perf_counter()
        unscaled.append(t1 - t0)
        outputs.append(out)
        if t1 - since >= speed.EVERY_S or i == len(jobs) - 1:
            after = speed.reading()
            times.extend(speed.scaled(t, before, after) for t in unscaled[len(times):])
            before, since = after, time.perf_counter()
    return time.perf_counter() - start, times, outputs


class Pass(NamedTuple):
    wall: float
    times: list[float]
    bad: dict[int, str]  # job index -> why its output is not the reference
    layers: dict | None  # per-layer metrics of a traced pass


def timed_passes(
    m, jobs, seconds: float, reference: list | None, tracer: Tracer | None = None
) -> tuple[list, list[Pass]]:
    """Passes until the next one would end after `seconds`; at least one.

    Each pass's outputs are compared with the reference (the first
    pass's outputs when none is given) and then dropped, so the harness
    holds one copy.  The tracer is reset before each pass, so it ends
    holding the spans of the last one.
    """
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        if tracer is not None:
            tracer.reset()
        wall, times, outputs = run_pass(m, jobs, tracer)
        if reference is None:
            reference = outputs
        bad = {}
        for i, (out, ref) in enumerate(zip(outputs, reference)):
            if isinstance(out, JobError):
                bad[i] = f"raised {out.message}"
            elif out != ref:
                bad[i] = "output differs from the first untraced pass"
        layers = tracer.layer_metrics() if tracer is not None else None
        passes.append(Pass(wall, times, bad, layers))
        if time.perf_counter() + wall > deadline:
            return reference, passes


def job_times(passes: list[Pass]) -> list[float]:
    """Each job's median scaled time over the passes.  A change of host
    speed between a job and its readings skews that execution either
    way, so the median, not the minimum."""
    return [statistics.median(times) for times in zip(*(p.times for p in passes))]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it.  With TAIL_BEYOND samples or fewer no
    percentile qualifies, and the maximum (p100) stands in."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def measure(m, jobs, seconds: float, trace: bool) -> dict:
    """Time passes over the jobs, then check the outputs untimed.

    Untraced, the whole run is timed passes.  Traced, half the time is
    untraced passes and half traced passes.  An execution fails when it
    raised, when its output differs from the job's first output, or
    when that first output fails its check.
    """
    tracer = Tracer() if trace else None
    reference, plain = timed_passes(m, jobs, seconds / 2 if trace else seconds, None)
    traced: list[Pass] = []
    spans: list = []
    if tracer is not None:
        tracer.install()
        try:
            _, traced = timed_passes(m, jobs, seconds / 2, reference, tracer)
            spans = tracer.spans
        finally:
            tracer.uninstall()
    problems = workloads.check_outputs(m, jobs, reference)
    failures = []
    for p, one in enumerate(plain + traced):
        for i, job in enumerate(jobs):
            why = problems[i] or one.bad.get(i)
            if why is not None:
                failures.append({"pass": p, "job": i, "kind": job.kind, "reason": why})
    attempted = len(jobs) * (len(plain) + len(traced))
    per_job = job_times(plain)
    tail_value, tail_pct = tail(per_job)
    wall_s = sum(per_job)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_walls_s": [one.wall for one in plain],
        "traced_pass_walls_s": [one.wall for one in traced],
        "job_scaled_s": per_job,
        "job_tail_percentile": tail_pct,
        "fail_frac": len(failures) / attempted,
        "spans": spans,
    }
    if trace:
        layers = {
            name: statistics.median_low(one.layers[name] for one in traced)
            for name in traced[0].layers
        }
        layers["trace.overhead_frac"] = sum(job_times(traced)) / wall_s - 1
        result["metrics"] = {k: (v, layer_unit(k)) for k, v in layers.items()}
    else:
        result["metrics"] = {
            "wall_s": (wall_s, "s"),
            "degrees_per_s": (sum(j.degrees for j in jobs) / wall_s, "1/s"),
            "job_p50_ms": (1000 * statistics.median(per_job), "ms"),
            "job_tail_ms": (1000 * tail_value, "ms"),
            "ok_frac": (1 - len(failures) / attempted, "fraction"),
        }
    return result


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="monolc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monolc" / "__init__.py").is_file():
        print(f"error: no monolc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    m, jobs, setup_times = set_up(args.workload, args.seed)
    if Path(m.__file__).resolve().parent != SRC / "monolc":
        print(f"error: imported monolc from {m.__file__}, not {SRC}", file=sys.stderr)
        return 2
    golden = workloads.golden_problems(m)
    if golden:
        for problem in golden:
            print(f"error: golden ideal: {problem}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    result = measure(m, jobs, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - started
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss / 1024, "MB")
    meta = {
        "workload": args.workload,
        "workload_params": workloads.WORKLOADS[args.workload][1],
        "jobs": len(jobs),
        "seed": args.seed,
        "trace": args.trace,
        "seconds_requested": args.seconds,
        "seconds_measured": elapsed,
        "passes": result["passes"],
        "traced_passes": result["traced_passes"],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "setup_times_s": setup_times,
        "reference_s": speed.REFERENCE_S,
    }
    correct = result["failed"] == 0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {k: v for k, v in result.items() if k not in ("metrics", "spans")}
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, **details}, indent=1) + "\n")
    if args.trace:
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {result['fail_frac']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} executions)")
    if not args.trace:
        print(f"job_tail_ms is p{result['job_tail_percentile']:.1f} "
              f"of {len(jobs)} jobs, each the median of {result['passes']} executions")
    for f in result["failures"][:10]:
        print(f"failed: pass {f['pass']} job {f['job']} ({f['kind']}): {f['reason']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
