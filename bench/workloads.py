"""Seeded inputs, jobs and output checks for the monolc benchmark.

Inputs are generated here, from the seed alone, as ideal text: monolc
itself never runs during input generation, so a change to the library
cannot change what the benchmark feeds it.  Each job calls the public
API the way the matching CLI command does (parse the text, compute,
serialize) without going through ``monolc.cli.main``, which rebuilds
its argparse parser on every call; a shell user pays that once per
process, so it would only blur the per-job numbers.

Job costs grow like 2^(rho_total) on the polarized side and 4^n on the
Cech side, so the random draws are stratified by shape (fixed rho
vectors, and for two workloads fixed generator counts) and a seed only
varies the generators inside each stratum.  That keeps the
cost of a pass, and which job sits at the median, nearly the same for
every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One CLI-equivalent call on one ideal.

    kind is "table", "oracle", "verify" or "verify_chain" (the last is
    ``verify --chain --depth-shift``); field is CLI field text; degrees
    is the size of the ideal's canonical box, counted by the benchmark.
    """

    kind: str
    text: str
    field: str
    degrees: int


@dataclass(frozen=True)
class JobError:
    """Stands in for the output of a job that raised."""

    message: str


# ---------------------------------------------------------------------------
# input generation (benchmark code only)


def minimal_gens(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Minimal generators of the ideal the exponent vectors generate."""
    unique = set(gens)
    return sorted(
        g
        for g in unique
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in unique)
    )


def draw_gens(caps: tuple[int, ...], max_gens: int, seed: int) -> list[tuple[int, ...]]:
    """Up to max_gens exponent vectors with entry i uniform in
    [0, caps[i]], all-zero draws dropped, minimalized.  With equal caps
    this is the stream ``monolc.random_ideal(n, cap, max_gens, seed)``
    draws, kept here so the inputs never depend on library code."""
    rng = random.Random(seed)
    gens = []
    for _ in range(max_gens):
        exps = tuple(rng.randint(0, cap) for cap in caps)
        if any(exps):
            gens.append(exps)
    return minimal_gens(gens)


def rho_of(n: int, gens: list[tuple[int, ...]]) -> tuple[int, ...]:
    return tuple(max(1, max((g[i] for g in gens), default=0)) for i in range(n))


def box_size(n: int, gens: list[tuple[int, ...]]) -> int:
    """Number of degrees in the canonical box, prod(rho_i + 1)."""
    out = 1
    for r in rho_of(n, gens):
        out *= r + 1
    return out


def ideal_text(n: int, gens: list[tuple[int, ...]]) -> str:
    names = ["x"] if n == 1 else [f"x{i}" for i in range(1, n + 1)]

    def mono(exps: tuple[int, ...]) -> str:
        return "*".join(
            nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, exps) if e
        )

    body = ", ".join(mono(g) for g in gens)
    return f"vars {' '.join(names)}\ngens {body}".rstrip() + "\n"


def _draw_matching(
    rng: random.Random,
    draw: Callable[[int], list[tuple[int, ...]]],
    accept: Callable[[list[tuple[int, ...]]], bool],
) -> list[tuple[int, ...]]:
    """Draw with seeds from rng until the draw is accepted (rejection
    sampling)."""
    while True:
        gens = draw(rng.randrange(2**32))
        if accept(gens):
            return gens


def _job(kind: str, n: int, gens: list[tuple[int, ...]], field: str) -> Job:
    return Job(kind, ideal_text(n, gens), field, box_size(n, gens))


# polarized_verify: verify_main_theorem over Q.  The principal powers are
# the same for every seed; the random draws have fixed rho vectors and
# exactly two minimal generators, so only their generator shapes vary
# with the seed.  The four two-variable draws at rho total 10 cost less
# than (x^11) and the two at rho total 11 cost more, so (x^11) is the
# median job and (x^13) the slowest.
PRINCIPAL_EXPONENTS = (11, 12, 13)
POLARIZED_RHO = ((5, 5), (4, 6), (6, 4), (3, 7), (5, 6), (3, 4, 4))
POLARIZED_GENS = 2


def polarized_verify_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [_job("verify", 1, [(e,)], "q") for e in PRINCIPAL_EXPONENTS]
    for target in POLARIZED_RHO:
        n = len(target)
        gens = _draw_matching(
            rng,
            lambda s: draw_gens(target, POLARIZED_GENS + 1, s),
            lambda g: len(g) == POLARIZED_GENS and rho_of(n, g) == target,
        )
        jobs.append(_job("verify", n, gens, "q"))
    return jobs


# cech_oracle: oracle_table on square-free ideals, fields alternating.
# The strand build tests every subset at every box degree, 4^n tests per
# ideal, so n pins most of the cost.  The rest grows with the generators'
# degrees (from 430 ms for degrees 2, 2, 2, 3 to 710 ms for 4, 6, 6, 6),
# so the minimal generator count and their total degree are fixed too.
CECH_N = 9
CECH_GENS = (3, 4, 5, 6)
CECH_MEAN_DEGREE = 4
CECH_FIELDS = ("gf:2", "gf:32003")


def cech_oracle_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for k, g in enumerate(CECH_GENS):
        gens = _draw_matching(
            rng,
            lambda s: draw_gens((1,) * CECH_N, g + 2, s),
            lambda d: len(d) == g and sum(map(sum, d)) == CECH_MEAN_DEGREE * g,
        )
        jobs.append(_job("oracle", CECH_N, gens, CECH_FIELDS[k % len(CECH_FIELDS)]))
    return jobs


# corpus_mix: the corpus recipe of tests/conftest.py.  Ideal number s
# draws n, max_exp and a generator count uniformly from 1..3, 1..3 and
# 0..4 with random.Random(s), then random_ideal(n, max_exp, count,
# seed=10_000 + 7919 * s).  The draws are stratified by n, rho vector and
# minimal generator count (0 for the zero ideal), and each stratum's size
# is its count among the recipe's first CORPUS_RECIPE_DRAWS ideals (the
# same ones for every seed) divided by CORPUS_SCALE and rounded, so the
# mix follows the recipe's own probabilities.  A seed redraws the ideals
# inside each stratum from the recipe with n fixed.  The few n = 3
# ideals with rho total 7 to 9 cost more than dozens of small ones, so
# leaving their number, or their generator count, to chance would let
# the seed set the pass time; and with about 200 ideals the heavy strata
# hold one ideal each.  Fields rotate, and each ideal runs three
# CLI-equivalent jobs.
CORPUS_RECIPE_DRAWS = 2000
CORPUS_SCALE = 5
CORPUS_FIELDS = ("q", "gf:2", "gf:32003")
CORPUS_KINDS = ("table", "oracle", "verify_chain")


def recipe_draw(rng: random.Random, n: int, seed: int) -> list[tuple[int, ...]]:
    """The recipe's draw after n: max_exp and the generator count from
    rng, then random_ideal's stream for seed."""
    max_exp = rng.randint(1, 3)
    count = rng.randint(0, 4)
    return draw_gens((max_exp,) * n, count, seed)


def stratum(n: int, gens: list[tuple[int, ...]]) -> tuple:
    return (n, rho_of(n, gens), len(gens))


def corpus_strata() -> dict[tuple, int]:
    """Stratum -> number of ideals, from the recipe's first draws."""
    counts: dict[tuple, int] = {}
    for s in range(CORPUS_RECIPE_DRAWS):
        rng = random.Random(s)
        n = rng.randint(1, 3)
        key = stratum(n, recipe_draw(rng, n, 10_000 + 7919 * s))
        counts[key] = counts.get(key, 0) + 1
    sizes = {key: round(c / CORPUS_SCALE) for key, c in sorted(counts.items())}
    return {key: size for key, size in sizes.items() if size}


def corpus_mix_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for target, size in corpus_strata().items():
        n = target[0]
        for _ in range(size):
            gens = _draw_matching(
                rng, lambda s: recipe_draw(rng, n, s), lambda g: stratum(n, g) == target
            )
            field = CORPUS_FIELDS[len(jobs) // len(CORPUS_KINDS) % len(CORPUS_FIELDS)]
            jobs.extend(_job(kind, n, gens, field) for kind in CORPUS_KINDS)
    return jobs


WORKLOADS: dict[str, tuple[Callable[[int], list[Job]], dict]] = {
    "polarized_verify": (
        polarized_verify_jobs,
        {
            "field": "q",
            "principal_exponents": list(PRINCIPAL_EXPONENTS),
            "rho_vectors": [list(r) for r in POLARIZED_RHO],
            "minimal_gens": POLARIZED_GENS,
        },
    ),
    "cech_oracle": (
        cech_oracle_jobs,
        {
            "n": CECH_N,
            "minimal_gens": list(CECH_GENS),
            "mean_generator_degree": CECH_MEAN_DEGREE,
            "fields": list(CECH_FIELDS),
        },
    ),
    "corpus_mix": (
        corpus_mix_jobs,
        {
            "recipe": "tests/conftest.py corpus: n, max_exp, gens uniform in 1..3, 1..3, 0..4",
            "strata": "(n, rho vector, minimal generator count)",
            "stratum_sizes": f"count in the first {CORPUS_RECIPE_DRAWS} recipe draws / {CORPUS_SCALE}",
            "fields": list(CORPUS_FIELDS),
            "kinds": list(CORPUS_KINDS),
        },
    ),
}


# ---------------------------------------------------------------------------
# jobs: the public API in the order the CLI command uses it


def _table(m, job: Job) -> str:
    return m.lc_table(m.parse_ideal(job.text), m.FieldSpec.parse(job.field)).to_json()


def _oracle(m, job: Job) -> str:
    return m.oracle_table(m.parse_ideal(job.text), m.FieldSpec.parse(job.field)).to_json()


def _verify(m, job: Job) -> str:
    report = m.verify_main_theorem(m.parse_ideal(job.text), m.FieldSpec.parse(job.field))
    return json.dumps(report.to_json_dict(), indent=2)


def _verify_chain(m, job: Job) -> str:
    ideal = m.parse_ideal(job.text)
    field = m.FieldSpec.parse(job.field)
    reports = [m.verify_main_theorem(ideal, field)]
    for degree in m.canonical_box(ideal):
        reports.append(m.verify_reduction_chain(ideal, degree, field))
    reports.append(m.verify_depth_shift(ideal, field))
    merged = m.VerificationReport(ideal, field, tuple(m.cli._merge_checks(reports)))
    return json.dumps(merged.to_json_dict(), indent=2)


# Looked up at call time, so a test can substitute a runner.
RUNNERS: dict[str, Callable] = {
    "table": _table,
    "oracle": _oracle,
    "verify": _verify,
    "verify_chain": _verify_chain,
}


# ---------------------------------------------------------------------------
# checks, run outside the timed region


def _report_problem(out: str) -> str | None:
    report = json.loads(out)
    failing = [c["name"] for c in report["checks"] if c["failures"]]
    if report["pass"] is not True or failing:
        return f"verification failed: {failing or 'pass is not true'}"
    return None


def check_outputs(m, jobs: list[Job], outputs: list) -> list[str | None]:
    """One entry per job: None if its output is correct, else the reason.

    A verify report must pass.  A table must equal the other route's
    table for the same ideal and field: the matching job's output when
    the job list has one, otherwise a reference computed here.
    """
    by_key = {
        (job.kind, job.text, job.field): out for job, out in zip(jobs, outputs)
    }
    other = {"table": ("oracle", _oracle), "oracle": ("table", _table)}
    problems: list[str | None] = []
    for job, out in zip(jobs, outputs):
        if isinstance(out, JobError):
            problems.append(f"raised {out.message}")
        elif job.kind in other:
            kind, runner = other[job.kind]
            ref = by_key.get((kind, job.text, job.field))
            if ref is None:
                try:
                    ref = runner(m, job)
                except Exception as exc:  # reported as this job's failure
                    ref = JobError(f"{type(exc).__name__}: {exc}")
            problems.append(None if out == ref else f"{job.kind} differs from {kind}")
        else:
            try:
                problems.append(_report_problem(out))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"malformed report: {exc!r}")
    return problems


GOLDEN_TEXT = "vars x y\ngens x^2, x*y\n"
GOLDEN_ENTRIES = [((0, -1), 1, 1), ((1, 0), 0, 1)]


def golden_problems(m) -> list[str]:
    """The README example (x^2, xy) over Q through both routes."""
    ideal = m.parse_ideal(GOLDEN_TEXT)
    field = m.FieldSpec.rationals()
    problems = []
    for route, table in (("lc_table", m.lc_table(ideal, field)),
                         ("oracle_table", m.oracle_table(ideal, field))):
        got = [(deg.entries, i, d) for deg, i, d in table.entries]
        if got != GOLDEN_ENTRIES:
            problems.append(f"{route} entries {got} != {GOLDEN_ENTRIES}")
        dd = m.depth_and_dim(ideal, field, table=table)
        if (dd.depth, dd.dim) != (0, 1):
            problems.append(f"{route} depth/dim ({dd.depth}, {dd.dim}) != (0, 1)")
    return problems
