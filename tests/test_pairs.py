"""tools/pairs.py on a tiny case: one workload at two seeds, one pass
per run, with this checkout as both trees, so no revision is extracted."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_writes_the_bench_file(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
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
    assert set(record) == {"seeds", "pairs", "parent", "change", "spread", "failed_runs"} | {
        key for name in names for key in (f"{name}_pairs", f"wins_{name}")}
    assert (record["seeds"], record["pairs"], record["failed_runs"]) == ([1, 2], 2, 0)
    for name in names:
        assert len(record[f"{name}_pairs"]) == 2 and 0 <= record[f"wins_{name}"] <= 2
        for side in ("parent", "change"):
            assert set(record[side][name]) == {"median", "quartiles"}
        assert set(record["spread"][name]) == {"change_iqr", "bound", "over"}
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("polarized_verify: 2 pairs")
    assert [line.split()[0] for line in printed[1:]] == names
