"""Run the benchmark on a parent tree and on this checkout in
alternating pairs, and write BENCH_<pr>.json.

    python3 tools/pairs.py --parent HEAD~1 --out BENCH_31.json
    python3 tools/pairs.py --parent ../parent --workload corpus_mix \\
        --seeds 1 2 3 --seconds 4 --out /tmp/preview.json

For each workload and seed, one pair: `python3 bench/run.py --workload W
--seed S --seconds T --trace 0` runs in each tree, one process at a
time.  The parent goes first in even-numbered pairs and the change in
odd ones, counting across workloads.  Each run's end-to-end metrics are
read from the last line of its stdout.

--parent is a directory or a revision of this repository; a revision is
extracted with `git archive` into a temporary directory, removed at the
end.  The change is this checkout as it stands.  Workloads, run length
and the metrics with their direction and bound come from
BENCHMARK.json.

The file holds, per workload, the seeds, the value pairs and the
change's wins for every end-to-end metric (`wall_s_pairs`,
`wins_wall_s`, ...), each tree's median and quartiles, and the spread
check: the change's IQR against the metric's bound times the parent's
median.  The same check is printed, one line per metric, with `OVER`
where the IQR exceeds the bound.  A pair's gap is a win when the change
is better by the metric's direction; ties count for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[bool, dict]:
    """(correct, {metric: value}) of one untraced run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    last = json.loads(lines[-1])
    return last["correct"], {k: v["value"] for k, v in last["metrics"].items()}


def summary(values: list[float]) -> dict:
    """Median and quartiles, linear between order statistics."""
    if len(values) == 1:
        return {"median": values[0], "quartiles": [values[0], values[0]]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "quartiles": [q1, q3]}


def compare(runs: list[tuple[dict, dict]], seeds: list[int]) -> dict:
    """The per-workload record of (parent, change) metric pairs, seed by seed."""
    out: dict = {"seeds": seeds, "pairs": len(runs)}
    for m in METRICS:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [[p[name], c[name]] for p, c in runs]
        out[f"{name}_pairs"] = pairs
        out[f"wins_{name}"] = sum(c < p if lower else c > p for p, c in pairs)
    for side, index in (("parent", 0), ("change", 1)):
        out[side] = {m["name"]: summary([run[index][m["name"]] for run in runs])
                     for m in METRICS}
    out["spread"] = {}
    for m in METRICS:
        name = m["name"]
        lo, hi = out["change"][name]["quartiles"]
        bound = m["bound"] * abs(out["parent"][name]["median"])
        out["spread"][name] = {"change_iqr": hi - lo, "bound": bound, "over": hi - lo > bound}
    return out


def report(workload: str, record: dict) -> None:
    """The per-metric lines of one workload."""
    print(f"{workload}: {record['pairs']} pairs, seeds {record['seeds']}")
    for m in METRICS:
        name = m["name"]
        parent, change = record["parent"][name], record["change"][name]
        p_iqr = parent["quartiles"][1] - parent["quartiles"][0]
        gap = change["median"] - parent["median"]
        rel = f"{100 * gap / parent['median']:+.1f}%" if parent["median"] else "n/a"
        spread = record["spread"][name]
        print(f"  {name:14} parent {parent['median']:.6g} change {change['median']:.6g} "
              f"({rel}), wins {record[f'wins_{name}']}/{record['pairs']}, "
              f"|gap| {abs(gap):.4g} vs parent IQR {p_iqr:.4g}; change IQR "
              f"{spread['change_iqr']:.4g} vs {m['bound']:.0%} of parent median "
              f"{spread['bound']:.4g}{'  OVER' if spread['over'] else ''}")


def commit_of(tree: Path) -> str:
    """The checked-out commit, with -dirty when the tree has changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def extract(revision: str, into: Path) -> str:
    """Write the files of a revision of this repository into a directory;
    return the commit it names."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True)
    if sha.returncode != 0:
        raise SystemExit(f"error: {revision!r} is neither a directory nor a revision")
    archive = subprocess.Popen(["git", "archive", sha.stdout.strip()], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {revision} failed")
    return sha.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="directory or revision")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]

    scratch = None
    try:
        if Path(args.parent).is_dir():
            parent = Path(args.parent).resolve()
            parent_commit = commit_of(parent)
        else:
            scratch = parent = Path(tempfile.mkdtemp(prefix="pairs-parent-"))
            parent_commit = extract(args.parent, parent)
        result = {
            "benchmark": "bench/run.py and BENCHMARK.json as in each tree",
            "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds "
                       f"{args.seconds:g} --trace 0, one pair per seed, parent first in "
                       f"even-numbered pairs (tools/pairs.py)",
            "commits": {"parent": parent_commit, "change": commit_of(ROOT)},
            "host": f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
                    f"{platform.python_version()}, {platform.machine()}; "
                    f"timings scaled by bench/speed.py",
            "workloads": {},
        }
        k = 0
        for workload in workloads:
            runs, failed = [], 0
            for seed in args.seeds:
                order = [("parent", parent), ("change", ROOT)]
                got = {}
                for side, tree in order if k % 2 == 0 else order[::-1]:
                    correct, got[side] = bench_run(tree, workload, seed, args.seconds)
                    failed += not correct
                runs.append((got["parent"], got["change"]))
                k += 1
            record = compare(runs, args.seeds)
            record["failed_runs"] = failed
            result["workloads"][workload] = record
            report(workload, record)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    finally:
        if scratch is not None:
            shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
