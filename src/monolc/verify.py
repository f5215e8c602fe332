"""Executable checks of the polarization correspondence.

Each verify_* function sweeps exact dimension computations on both
sides of an identity and reports mismatches as data instead of
raising, so a sweep always completes and a report can drive CI.  Only
bad input raises ValueError, the unit ideal (a zero quotient) included.
`oracle_table` runs the Čech route over the box, to check `lc_table`.

A reduction step is a tuple (name, ideal, degree, shift): the
dimensions before it at index i must equal those of the step's ideal
at its degree at index i + shift.  Partial polarization names its
copies x_i_j, so the steps run on the ideal renamed x1..xn when a name
starts with x_; the reports carry the caller's ideal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Iterator, Sequence

from .cech import cech_dims
from .ideals import Monomial, MonomialIdeal, MultiDegree, format_ideal, rho
from .linalg import FieldSpec
from .polarization import degree_map, partial_polarize, polarize_ideal, restrict
from .simplicial import is_cone
from .takayama import LCTable, box_table, canonical_box, depth_and_dim, lc_dims, takayama_complex

Step = tuple[str, MonomialIdeal, MultiDegree, int]
Dims = dict[int, int]  # cohomological index -> nonzero dimension, as lc_dims returns


@dataclass(frozen=True)
class Mismatch:
    """One failed comparison; index -1 marks a structural test."""

    degree: tuple[int, ...]
    index: int
    lhs: int
    rhs: int

    def to_json_dict(self) -> dict:
        return {
            "degree": list(self.degree),
            "i": self.index,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    degrees_checked: int
    indices_checked: int
    failures: tuple[Mismatch, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "degrees_checked": self.degrees_checked,
            "indices_checked": self.indices_checked,
            "failures": [f.to_json_dict() for f in self.failures],
        }


@dataclass(frozen=True)
class VerificationReport:
    ideal: MonomialIdeal
    field: FieldSpec
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "ideal": format_ideal(self.ideal),
            "field": str(self.field),
            "checks": [c.to_json_dict() for c in self.checks],
            "pass": self.passed,
        }


def _compare(
    degree: MultiDegree, lhs: Dims, rhs: Dims, shift: int, indices: Sequence[int] | None = None
) -> tuple[list[Mismatch], int]:
    """Expect lhs[i] == rhs[i + shift] for every i in indices, by default
    every index where either side is nonzero; also counts the indices."""
    if indices is None:
        indices = sorted(set(lhs) | {i - shift for i in rhs})
    out = []
    for i in indices:
        l = lhs.get(i, 0)
        r = rhs.get(i + shift, 0)
        if l != r:
            out.append(Mismatch(degree.entries, i, l, r))
    return out, len(indices)


def verify_main_theorem(ideal: MonomialIdeal, field: FieldSpec) -> VerificationReport:
    """Sweep the canonical box comparing each graded piece against the
    polarized quotient at the mapped degree, index shifted by rho - n.

    A second check confirms the polarized side never carries cohomology
    outside the shifted window [rho - n, rho].
    """
    if ideal.is_unit:
        raise ValueError("the unit ideal has a zero quotient")
    n = ideal.n
    polarized = polarize_ideal(ideal)
    shift = polarized.rho_total - n
    box = canonical_box(ideal)
    main: list[Mismatch] = []
    window: list[Mismatch] = []
    for degree in box:
        lhs = lc_dims(ideal, degree, field)
        alpha = degree_map(degree, polarized.rho)
        rhs = lc_dims(polarized.ideal, alpha, field)
        main.extend(_compare(degree, lhs, rhs, shift, range(n + 1))[0])
        for idx, d in rhs.items():
            if not shift <= idx <= shift + n:
                window.append(Mismatch(degree.entries, idx - shift, 0, d))
    checks = (
        CheckResult("main_theorem", len(box), len(box) * (n + 1), tuple(main)),
        CheckResult("rhs_index_window", len(box), len(box), tuple(window)),
    )
    return VerificationReport(ideal, field, checks)


def _boxed(ideal: MonomialIdeal, degree: MultiDegree) -> tuple[MonomialIdeal, tuple[int, ...]]:
    """Check that degree lies in the box of ideal; return the ideal, renamed
    x1..xn if a name might clash with a copy x_i_j, and rho(ideal)."""
    if not isinstance(degree, MultiDegree):
        raise ValueError(f"degree {degree!r} is not a MultiDegree")
    if ideal.is_unit:
        raise ValueError("the unit ideal has a zero quotient")
    bounds = rho(ideal)
    top = tuple(r - 1 for r in bounds)
    if degree.n != ideal.n:
        raise ValueError("degree length does not match variable count")
    if not degree.leq(top):
        raise ValueError(f"degree {degree.entries} exceeds rho - 1 = {top}")
    if any(v.startswith("x_") for v in ideal.var_names):
        # kept in the ideal's memo, so the steps at every degree share
        # one renamed ideal and with it its memo of step ideals
        if (renamed := ideal._derived.get("x1..xn")) is None:
            names = tuple(f"x{i}" for i in range(1, ideal.n + 1))
            ideal._derived["x1..xn"] = renamed = MonomialIdeal._trusted(names, ideal.gens)
        ideal = renamed
    return ideal, bounds


def _cappable(degree: MultiDegree, bounds: tuple[int, ...]) -> list[int]:
    """The coordinates j with 0 <= a_j < rho_j - 1, where partial polarization
    applies; restriction applies to a boxed degree exactly when there are none."""
    return [j for j, (a, r) in enumerate(zip(degree.entries, bounds), 1) if 0 <= a < r - 1]


def _step2_data(ideal: MonomialIdeal, degree: MultiDegree) -> Step:
    """Drop the variables at negative coordinates: indices shift down
    by their count."""
    keep = [j for j in range(1, ideal.n + 1) if degree.entries[j - 1] >= 0]
    sub = MultiDegree._trusted(tuple(degree.entries[j - 1] for j in keep))
    return "step2_restriction", restrict(ideal, keep), sub, len(keep) - ideal.n


def _step3_data(ideal: MonomialIdeal, degree: MultiDegree, j: int, name: str) -> Step:
    """Cap variable j at a_j + 1: indices shift up by the number of
    appended copies, which sit at degree -1."""
    capped = partial_polarize(ideal, j, degree.entries[j - 1])
    tail = capped.n - ideal.n
    return name, capped, MultiDegree._trusted(degree.entries + (-1,) * tail), tail


def _take(
    step: Step, degree: MultiDegree, lhs: Dims, field: FieldSpec, indices: Sequence[int] | None
) -> tuple[CheckResult, Dims]:
    """Check a step from lhs, the dimensions at degree; also return those after it."""
    name, reduced, at, shift = step
    rhs = lc_dims(reduced, at, field)
    fails, seen = _compare(degree, lhs, rhs, shift, indices)
    return CheckResult(name, 1, seen, tuple(fails)), rhs


def verify_reduction_chain(
    ideal: MonomialIdeal, degree: MultiDegree, field: FieldSpec
) -> VerificationReport:
    """Check the two elementary reduction identities at one degree.

    Restriction applies when every coordinate is negative or maximal
    (a_j = rho_j - 1): dropping the negative-coordinate variables
    shifts indices down by their count.  Partial polarization applies
    at every j with 0 <= a_j < rho_j - 1: capping variable j at a_j+1
    shifts indices up by the number of appended copies.
    """
    work, bounds = _boxed(ideal, degree)
    steps = [
        _step3_data(work, degree, j, f"step3_partial_polarization_j{j}")
        for j in _cappable(degree, bounds)
    ] or [_step2_data(work, degree)]
    lhs = lc_dims(ideal, degree, field)
    checks = tuple(_take(s, degree, lhs, field, range(ideal.n + 1))[0] for s in steps)
    return VerificationReport(ideal, field, checks)


def _walk(ideal: MonomialIdeal, degree: MultiDegree) -> Iterator[Step]:
    """The steps from a boxed degree towards degree zero: partial
    polarization at the first cappable coordinate while there is one,
    restriction, then full polarization unless the degree left the box."""
    while cappable := _cappable(degree, rho(ideal)):
        step = _step3_data(ideal, degree, cappable[0], f"step3_j{cappable[0]}")
        yield step
        _, ideal, degree, _ = step
    step = _step2_data(ideal, degree)
    yield step
    _, ideal, degree, _ = step
    top = tuple(r - 1 for r in rho(ideal))
    if degree.leq(top):
        if degree.entries != top:
            raise AssertionError(f"terminal degree {degree.entries} is not rho - 1")
        polarized = polarize_ideal(ideal)
        alpha = degree_map(degree, polarized.rho)
        if any(alpha.entries):
            raise AssertionError(f"terminal degree maps to {alpha.entries}, not 0")
        shift = polarized.rho_total - ideal.n
        yield "terminal_polarized_degree_zero", polarized.ideal, alpha, shift


def verify_reduction_to_degree_zero(
    ideal: MonomialIdeal, degree: MultiDegree, field: FieldSpec
) -> VerificationReport:
    """Drive one boxed degree to the fully polarized degree-zero case.

    Repeats partial polarization until every coordinate is maximal or
    negative, restricts away the negative coordinates, then closes with
    the degree-zero comparison against the full polarization.  When the
    restricted degree escapes the box of the restricted ideal, the
    chain instead terminates by confirming cone vanishing, which forces
    every dimension along the whole chain to be zero.
    """
    at_ideal, at_degree = _boxed(ideal, degree)[0], degree
    dims = lc_dims(ideal, degree, field)
    checks: list[CheckResult] = []
    for step in _walk(at_ideal, at_degree):
        check, dims = _take(step, at_degree, dims, field, None)
        checks.append(check)
        _, at_ideal, at_degree, _ = step
    outside = [j for j, (a, r) in enumerate(zip(at_degree.entries, rho(at_ideal)), 1) if a >= r]
    if outside:
        fails = [Mismatch(at_degree.entries, i, 0, d) for i, d in sorted(dims.items())]
        cx = takayama_complex(at_ideal, at_degree)
        if not cx.is_void and not is_cone(cx, outside[0]):
            fails.append(Mismatch(at_degree.entries, -1, 1, 0))
        checks.append(CheckResult("terminal_cone_vanishing", 1, len(dims) + 1, tuple(fails)))
    return VerificationReport(ideal, field, tuple(checks))


def verify_depth_shift(ideal: MonomialIdeal, field: FieldSpec) -> VerificationReport:
    """Depth and Krull dimension both move up by exactly rho - n under
    full polarization."""
    before = depth_and_dim(ideal, field)
    polarized = polarize_ideal(ideal)
    shift = polarized.rho_total - ideal.n
    after = depth_and_dim(polarized.ideal, field)
    fails = []
    if before.depth + shift != after.depth:
        fails.append(Mismatch((), 0, before.depth + shift, after.depth))
    if before.dim + shift != after.dim:
        fails.append(Mismatch((), 1, before.dim + shift, after.dim))
    box_size = prod(r + 1 for r in rho(ideal)) + prod(r + 1 for r in rho(polarized.ideal))
    checks = (CheckResult("depth_shift", box_size, 2, tuple(fails)),)
    return VerificationReport(ideal, field, checks)


def random_ideal(n: int, max_exp: int, max_gens: int, seed: int) -> MonomialIdeal:
    """Seed-deterministic random monomial ideal.

    Draws max_gens exponent vectors uniformly from [0, max_exp]^n,
    drops all-zero draws, and minimalizes, so the result has at most
    max_gens generators and may be the zero ideal.
    """
    for arg in (n, max_exp, max_gens):
        if not isinstance(arg, int) or isinstance(arg, bool):
            raise ValueError(f"n, max_exp and max_gens must be integers, got {arg!r}")
    if n < 1 or max_exp < 1 or max_gens < 0:
        raise ValueError("need n >= 1, max_exp >= 1, max_gens >= 0")
    rng = random.Random(seed)
    names = tuple(f"x{i}" for i in range(1, n + 1))
    gens = []
    for _ in range(max_gens):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(exps):
            gens.append(Monomial(exps))
    return MonomialIdeal(names, tuple(gens))


def oracle_table(ideal: MonomialIdeal, field: FieldSpec) -> LCTable:
    """The table over the canonical box computed by the brute-force
    route; mirrors lc_table entry for entry when both are correct."""
    return box_table(ideal, field, cech_dims)
