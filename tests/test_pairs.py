"""tools/pairs.py on a tiny case: one workload at two seeds, one pass
per run, with this checkout as both trees, so no revision is extracted;
and its verdicts, on synthetic runs through compare."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def test_writes_the_bench_file(tmp_path, capsys):
    pairs = load_pairs()
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(ROOT), "--workload", "polarized_verify", "--seeds", "1", "2",
            "--seconds", "0", "--out", str(out)]
    assert pairs.main(argv) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"benchmark", "command", "commits", "host", "workloads"}
    assert set(data["commits"]) == {"parent", "change"}
    assert list(data["workloads"]) == ["polarized_verify"]
    record = data["workloads"]["polarized_verify"]
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert set(record) == {"seeds", "pairs", "parent", "change", "spread", "verdict",
                           "failed_runs"} | {
        key for name in names for key in (f"{name}_pairs", f"wins_{name}")}
    assert (record["seeds"], record["pairs"], record["failed_runs"]) == ([1, 2], 2, 0)
    for name in names:
        assert len(record[f"{name}_pairs"]) == 2 and 0 <= record[f"wins_{name}"] <= 2
        for side in ("parent", "change"):
            assert set(record[side][name]) == {"median", "quartiles"}
        assert set(record["spread"][name]) == {"change_iqr", "bound", "over"}
        assert record["verdict"][name] in {"gain", "worse", "unresolved", "same"}
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("polarized_verify: 2 pairs")
    assert [line.split()[0] for line in printed[1:]] == names
    assert [line.split()[-1] for line in printed[1:]] == [record["verdict"][n] for n in names]


PARENT = [10.0 + k / 10 for k in range(10)]  # median 10.45, IQR 0.45


@pytest.mark.parametrize("parent, change, lower, higher", [
    # 10 of 10 lower by 1, more than the parent's IQR; 10 % is within the bound
    (PARENT, [p - 1 for p in PARENT], "gain", "same"),
    # 50 % higher: past the 24 % bound either way
    (PARENT, [p * 1.5 for p in PARENT], "worse", "gain"),
    # the same runs: no wins, no gap, no spread
    (PARENT, PARENT, "same", "same"),
    # a median on the parent's, spread over the bound
    (PARENT, [5.0, 15.0] * 5, "unresolved", "unresolved"),
    # every change run lower, by less than the parent's IQR of 40 but
    # more than the bound, with a spread over the bound
    ([60.0] * 5 + [100.0] * 5, [30.0] * 5 + [59.0] * 5, "same", "worse"),
])
def test_verdicts_on_synthetic_runs(parent, change, lower, higher):
    """wall_s is better lower and degrees_per_s higher, both with bound 0.24."""
    pairs = load_pairs()
    runs = [({m["name"]: p for m in pairs.METRICS}, {m["name"]: c for m in pairs.METRICS})
            for p, c in zip(parent, change)]
    record = pairs.compare(runs, list(range(1, len(runs) + 1)))
    assert set(record["verdict"]) == {m["name"] for m in pairs.METRICS}
    assert (record["verdict"]["wall_s"], record["verdict"]["degrees_per_s"]) == (lower, higher)
