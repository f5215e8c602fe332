"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def m():
    return run.import_monolc()


@pytest.fixture(scope="module")
def small_jobs():
    """Two two-variable corpus ideals with six box degrees, three jobs each."""
    return [job for job in workloads.corpus_mix_jobs(5) if job.degrees == 6][:6]


def _last_json_line(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "corpus_mix",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _last_json_line(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == spec


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_outputs_count_as_failures(m, small_jobs, monkeypatch):
    table, verify = workloads.RUNNERS["table"], workloads.RUNNERS["verify_chain"]
    monkeypatch.setitem(workloads.RUNNERS, "table", lambda m, job: table(m, job) + " ")
    monkeypatch.setitem(
        workloads.RUNNERS, "verify_chain",
        lambda m, job: verify(m, job).replace('"pass": true', '"pass": false', 1),
    )
    result = run.measure(m, small_jobs, 0, trace=False)
    # per ideal: the table and the oracle disagree, and the report fails
    assert result["failed"] == 6 and result["attempted"] == 6
    assert result["fail_frac"] == 1.0
    assert result["metrics"]["ok_frac"][0] == 0.0


def test_raising_job_counts_as_failure(m, small_jobs, monkeypatch):
    def boom(m, job):
        raise ValueError("corrupt")

    monkeypatch.setitem(workloads.RUNNERS, "oracle", boom)
    result = run.measure(m, small_jobs, 0, trace=False)
    reasons = {f["reason"] for f in result["failures"]}
    assert "raised ValueError: corrupt" in reasons
    assert 0 < result["fail_frac"] < 1


def test_tracing_restores_monolc_attributes(m, small_jobs):
    before = {mod.__name__: dict(vars(mod)) for mod in spans.monolc_modules()}
    result = run.measure(m, small_jobs, 0, trace=True)
    after = {mod.__name__: dict(vars(mod)) for mod in spans.monolc_modules()}
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, (name, attr)
    # the traced pass reproduced the untraced outputs byte for byte
    assert result["failed"] == 0 and result["traced_passes"] == 1
    layers = {k: v for k, (v, _) in result["metrics"].items()}
    assert layers["linalg.rank_calls"] > 0 and layers["ideals.parse_calls"] == 6


def test_tracer_wraps_every_binding(m):
    original = m.linalg.rank
    tracer = spans.Tracer()
    tracer.install()
    try:
        # rank is bound in linalg, simplicial, cech and the package
        for mod in (m, m.linalg, m.simplicial, m.cech):
            assert mod.rank is not original and mod.rank.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert m.linalg.rank is original and m.cech.rank is original


def test_golden_gate(m, monkeypatch):
    assert workloads.golden_problems(m) == []
    monkeypatch.setattr(m, "oracle_table", lambda ideal, field: m.lc_table(
        m.parse_ideal("vars x y\ngens x^2, y"), field))
    assert workloads.golden_problems(m)


@pytest.mark.parametrize("n, max_exp, max_gens, seed", [(1, 3, 4, 7), (2, 3, 3, 11), (3, 1, 4, 0), (3, 3, 4, 99)])
def test_generator_mirrors_random_ideal(m, n, max_exp, max_gens, seed):
    gens = workloads.draw_gens((max_exp,) * n, max_gens, seed)
    ideal = m.parse_ideal(workloads.ideal_text(n, gens))
    expected = m.random_ideal(n, max_exp, max_gens, seed)
    assert sorted(g.exponents for g in ideal.gens) == sorted(g.exponents for g in expected.gens)
    assert workloads.box_size(n, gens) == len(m.canonical_box(ideal))


def test_recipe_draw_mirrors_the_test_corpus(m):
    # tests/conftest.py: corpus ideal s
    for s in range(40):
        r = random.Random(s)
        n = r.randint(1, 3)
        expected = m.random_ideal(n, r.randint(1, 3), r.randint(0, 4), seed=10_000 + 7919 * s)
        rng = random.Random(s)
        assert rng.randint(1, 3) == n
        gens = workloads.recipe_draw(rng, n, 10_000 + 7919 * s)
        assert gens == sorted(g.exponents for g in m.minimalize(expected.gens))


def test_corpus_mix_fills_every_stratum():
    strata = workloads.corpus_strata()
    scaled_draws = workloads.CORPUS_RECIPE_DRAWS / workloads.CORPUS_SCALE
    assert abs(sum(strata.values()) - scaled_draws) <= 0.05 * scaled_draws
    assert any(zero for _, _, zero in strata)
    jobs = workloads.corpus_mix_jobs(1)
    assert len(jobs) == len(workloads.CORPUS_KINDS) * sum(strata.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_jobs_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name][0]
    assert make(1) == make(1)
    assert make(1) != make(2)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
