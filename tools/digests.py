"""The reference digests of monolc's outputs and kernel work.  Its whole
stdout is tools/digests.txt, so a tree checks itself with

    python3 tools/digests.py | diff - tools/digests.txt

and a change that means to alter a line updates the file and says why.
The sections, in order:

1. job_lines: per workload of bench/workloads.py, a sha256 over every
   (seed, kind, field, input, output) of its jobs at seeds 1-3, run
   through its RUNNERS; a job that raises stands for its exception, as
   in bench/run.py.
2. counter_lines: the count-unit per_layer metrics of BENCHMARK.json
   over one seed-1 pass per workload, traced by bench/spans.py's Tracer.
3. rank_lines: a sha256 over the (field, rows, cols, by_row, rank) of
   every matrix that another seed-1 pass ranks through the two
   cohomology routes' bindings, simplicial.rank and cech.rank, and the
   count of those calls.
4. cli_lines: per command line, a sha256 over the (argv, input, stdout,
   stderr, exit code) of cli.main run in-process on the non-unit ideals
   of tests/conftest.py's corpus(200) and many_generators(40) and on
   their polarizations; `complex` at up to 8 degrees of each canonical
   box, and `fuzz` on fixed shapes and at --trials 0 and 1.

tests/test_digests.py holds sections 1-3 to the file; section 4 takes
about 30 s and is left to the diff.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import monolc  # noqa: E402
from monolc import (  # noqa: E402
    canonical_box, cech, cli, format_ideal, parse_ideal, polarize_ideal, simplicial,
)
import workloads  # noqa: E402
from conftest import corpus, many_generators  # noqa: E402
from spans import Tracer  # noqa: E402

SEEDS = (1, 2, 3)
COUNTS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
          if m["unit"] == "count"]
FIELDS = ("q", "gf:2", "gf:32003")
FORMATS = ([], ["--format", "json"])
COMMANDS = [["parse", "-"], ["polarize", "-"]] + [
    [name, "-", *options, "--field", field]
    for field in FIELDS
    for name, *options in (
        ["table"],
        ["table", "--format", "json"],
        ["table", "--format", "tsv"],
        ["oracle"],
        ["depth"],
        ["verify", "--chain", "--depth-shift", "--format", "json"],
    )
]
FUZZ_SHAPES = (
    ["--n", "2", "--max-exp", "2", "--gens", "3", "--seed", "0"],
    ["--n", "3", "--max-exp", "3", "--gens", "4", "--seed", "100"],
    ["--n", "4", "--max-exp", "2", "--gens", "6", "--seed", "200"],
)
# the shape check alone, on a valid and a bad shape, and the bad one at a trial
FUZZ_CHECKS = (
    ["--trials", "0", "--n", "5", "--max-exp", "4", "--gens", "7"],
    ["--trials", "0", "--n", "0"],
    ["--trials", "1", "--n", "0"],
)


def output(job: workloads.Job) -> str:
    """The job's output, or its exception as bench/run.py records it."""
    try:
        return workloads.RUNNERS[job.kind](monolc, job)
    except Exception as exc:  # a job that raises is part of the digest, not an abort
        return repr(workloads.JobError(f"{type(exc).__name__}: {exc}"))


def job_lines() -> Iterator[str]:
    """Section 1: per workload, the digest of its job outputs at SEEDS."""
    for name, (make_jobs, _) in workloads.WORKLOADS.items():
        digest, count = hashlib.sha256(), 0
        for seed in SEEDS:
            for job in make_jobs(seed):
                digest.update(repr((seed, job.kind, job.field, job.text, output(job))).encode())
                count += 1
        yield f"{digest.hexdigest()} {name} {count} jobs"


def counter_lines() -> Iterator[str]:
    """Section 2: per workload, the COUNTS metrics of one traced pass."""
    yield f"# counters of one traced pass at seed {SEEDS[0]}"
    for name, (make_jobs, _) in workloads.WORKLOADS.items():
        tracer = Tracer()
        tracer.install()
        try:
            for i, job in enumerate(make_jobs(SEEDS[0])):
                tracer.begin_job(i)
                output(job)
                tracer.end_job()
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        yield " ".join([name, *(f"{k}={metrics[k]}" for k in COUNTS)])


def rank_lines() -> Iterator[str]:
    """Section 3: per workload, the digest of every matrix one pass ranks
    through simplicial.rank and cech.rank, with its field and rank."""
    yield f"# rank calls of the cohomology routes in one pass at seed {SEEDS[0]}"
    for name, (make_jobs, _) in workloads.WORKLOADS.items():
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
            for job in make_jobs(SEEDS[0]):
                output(job)
        finally:
            for mod, original in bindings:
                mod.rank = original
        yield f"{digest.hexdigest()} {name} {calls} rank calls"


def cli_runs(texts: list[str]) -> list[tuple[str, list[tuple[list[str], str]]]]:
    """Per CLI line, its label and the (argv, stdin text) pairs it covers."""
    runs = [(" ".join(argv), [(argv, text) for text in texts]) for argv in COMMANDS]
    at = [(text, ",".join(map(str, d.entries)))  # up to 8 evenly spaced degrees of each box
          for text in texts for box in [canonical_box(parse_ideal(text))]
          for d in box[:: -(-len(box) // 8)]]
    for fmt in FORMATS:
        runs.append((" ".join(["complex", "-", "--degree", "*", *fmt]),
                     [(["complex", "-", "--degree", d, *fmt], text) for text, d in at]))
    for field in FIELDS:
        for fmt in FORMATS:
            runs.append((" ".join(["fuzz", "*", "--field", field, *fmt]),
                         [(["fuzz", *shape, "--field", field, *fmt], "") for shape in FUZZ_SHAPES]))
    for fmt in FORMATS:
        runs.append((" ".join(["fuzz", "--trials", "0|1", *fmt]),
                     [(["fuzz", *argv, *fmt], "") for argv in FUZZ_CHECKS]))
    return runs


def cli_lines() -> Iterator[str]:
    """Section 4: per CLI command line, the digest of its runs over the
    recipe ideals, then over their polarizations."""
    ideals = [ideal for ideal in corpus(200) + many_generators(40) if not ideal.is_unit]
    texts = [format_ideal(i) for i in ideals] + [
        format_ideal(polarize_ideal(i).ideal) for i in ideals
    ]
    yield f"# {len(texts)} inputs"
    for label, pairs in cli_runs(texts):
        digest = hashlib.sha256()
        for argv, text in pairs:
            out, err = io.StringIO(), io.StringIO()
            stdin, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                sys.stdin = stdin
            digest.update(repr((argv, text, out.getvalue(), err.getvalue(), code)).encode())
        yield f"{digest.hexdigest()} {label}"


SECTIONS = (job_lines, counter_lines, rank_lines, cli_lines)

if __name__ == "__main__":
    for section in SECTIONS:
        for line in section():
            print(line, flush=True)
