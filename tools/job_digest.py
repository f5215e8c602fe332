"""One sha256 per benchmark workload over every job output, to check that
two trees compute byte-identical results.

Builds the job lists of bench/workloads.py for seeds 1-3 and runs each
job once, in-process, through that file's RUNNERS, the calls the
benchmark times; a job that raises stands for its exception type and
message, as in bench/run.py.  It prints per workload the sha256 of every
(seed, kind, field, input text, output) it gave, and then the count-unit
per_layer metrics of BENCHMARK.json over one seed-1 pass of each
workload, traced by bench/spans.py's Tracer as bench/run.py traces one,
and last the sha256 of every (field, rows, cols, by_row, rank) that
another seed-1 pass ranks through the two cohomology routes' bindings
of rank, monolc.simplicial.rank and monolc.cech.rank, with the count
of those calls, so that two rank kernels can be shown to agree:

    python3 tools/job_digest.py > before.txt   # in one checkout
    python3 tools/job_digest.py > after.txt    # in the other
    diff before.txt after.txt

tools/digests.txt holds the job-output lines, then the lines of
tools/cli_digest.py, as the code computes them today; the counters and
the rank digest change with the work done, so they are not in it.  To
check one tree against it:

    { python3 tools/job_digest.py | grep ' jobs$'; python3 tools/cli_digest.py; } \
        | diff - tools/digests.txt

tests/test_digests.py checks the job-output lines in-process.

It uses the standard library, the monolc of its own checkout and
bench/workloads.py and bench/spans.py, which it only imports; pytest
does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import monolc  # noqa: E402
from monolc import cech, simplicial  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SEEDS = (1, 2, 3)
COUNTS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
          if m["unit"] == "count"]


def output(job: workloads.Job) -> str:
    """The job's output, or its exception as bench/run.py records it."""
    try:
        return workloads.RUNNERS[job.kind](monolc, job)
    except Exception as exc:  # a job that raises is part of the digest, not an abort
        return repr(workloads.JobError(f"{type(exc).__name__}: {exc}"))


def counters(jobs: list[workloads.Job]) -> dict[str, int]:
    """The COUNTS metrics of one traced pass over the jobs."""
    tracer = Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            tracer.begin_job(i)
            output(job)
            tracer.end_job()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return {k: metrics[k] for k in COUNTS}


def rank_digest(jobs: list[workloads.Job]) -> tuple[str, int]:
    """The sha256 of every matrix one pass over the jobs ranks through
    simplicial.rank and cech.rank, with its field and rank, and the count."""
    digest, calls = hashlib.sha256(), 0

    def recording(original):
        def rank(matrix, field, **kwargs):
            nonlocal calls
            result = original(matrix, field, **kwargs)
            digest.update(repr((str(field), matrix.rows, matrix.cols, matrix.by_row,
                                result)).encode())
            calls += 1
            return result
        return rank

    bindings = [(mod, mod.rank) for mod in (simplicial, cech)]
    for mod, original in bindings:
        mod.rank = recording(original)
    try:
        for job in jobs:
            output(job)
    finally:
        for mod, original in bindings:
            mod.rank = original
    return digest.hexdigest(), calls


def job_digests(seeds: tuple[int, ...] = SEEDS) -> Iterator[str]:
    """Per workload, one line: the sha256 of every (seed, kind, field,
    input text, output) of its jobs at the seeds, its name and the count."""
    for name, (make_jobs, _) in workloads.WORKLOADS.items():
        digest, count = hashlib.sha256(), 0
        for seed in seeds:
            for job in make_jobs(seed):
                digest.update(repr((seed, job.kind, job.field, job.text, output(job))).encode())
                count += 1
        yield f"{digest.hexdigest()} {name} {count} jobs"


def main() -> None:
    for line in job_digests():
        print(line, flush=True)
    print(f"# counters of one traced pass at seed {SEEDS[0]}")
    for name, (make_jobs, _) in workloads.WORKLOADS.items():
        print(name, *(f"{k}={v}" for k, v in counters(make_jobs(SEEDS[0])).items()), flush=True)
    print(f"# rank calls of the cohomology routes in one pass at seed {SEEDS[0]}")
    for name, (make_jobs, _) in workloads.WORKLOADS.items():
        sha, calls = rank_digest(make_jobs(SEEDS[0]))
        print(sha, name, f"{calls} rank calls", flush=True)


if __name__ == "__main__":
    main()
