"""Executable checks of the polarization correspondence.

Each verify_* function sweeps exact dimension computations on both
sides of an identity and reports mismatches as data instead of
raising, so a sweep always completes and a report can drive CI.  Only
bad input raises ValueError, the unit ideal (a zero quotient) included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod
from typing import Iterable

from .ideals import Monomial, MonomialIdeal, MultiDegree, format_ideal, rho
from .linalg import FieldSpec
from .polarization import degree_map, partial_polarize, polarize_ideal, restrict
from .simplicial import is_cone
from .takayama import canonical_box, depth_and_dim, lc_dims, takayama_complex


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
    degree: MultiDegree,
    lhs: dict[int, int],
    rhs: dict[int, int],
    shift: int,
    indices: Iterable[int],
) -> list[Mismatch]:
    """Expect lhs[i] == rhs[i + shift] for every i in indices."""
    out = []
    for i in indices:
        l = lhs.get(i, 0)
        r = rhs.get(i + shift, 0)
        if l != r:
            out.append(Mismatch(degree.entries, i, l, r))
    return out


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
        main.extend(_compare(degree, lhs, rhs, shift, range(n + 1)))
        for idx, d in rhs.items():
            if not shift <= idx <= shift + n:
                window.append(Mismatch(degree.entries, idx - shift, 0, d))
    checks = (
        CheckResult("main_theorem", len(box), len(box) * (n + 1), tuple(main)),
        CheckResult("rhs_index_window", len(box), len(box), tuple(window)),
    )
    return VerificationReport(ideal, field, checks)


def _check_boxed(ideal: MonomialIdeal, degree: MultiDegree) -> tuple[int, ...]:
    if ideal.is_unit:
        raise ValueError("the unit ideal has a zero quotient")
    bounds = rho(ideal)
    if degree.n != ideal.n:
        raise ValueError("degree length does not match variable count")
    if not degree.leq(tuple(r - 1 for r in bounds)):
        raise ValueError(f"degree {degree.entries} exceeds rho - 1 = "
                         f"{tuple(r - 1 for r in bounds)}")
    return bounds


def _step2_data(
    ideal: MonomialIdeal, degree: MultiDegree
) -> tuple[MonomialIdeal, MultiDegree, int]:
    keep = [j for j in range(1, ideal.n + 1) if degree.entries[j - 1] >= 0]
    restricted = restrict(ideal, keep)
    sub = MultiDegree(tuple(degree.entries[j - 1] for j in keep))
    return restricted, sub, ideal.n - len(keep)


def _step3_data(
    ideal: MonomialIdeal, degree: MultiDegree, j: int, bounds: tuple[int, ...]
) -> tuple[MonomialIdeal, MultiDegree, int]:
    t = degree.entries[j - 1]
    tail = bounds[j - 1] - t - 1
    capped = partial_polarize(ideal, j, t)
    extended = MultiDegree(degree.entries + (-1,) * tail)
    return capped, extended, tail


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
    bounds = _check_boxed(ideal, degree)
    n = ideal.n
    lhs = lc_dims(ideal, degree, field)
    checks: list[CheckResult] = []
    if all(e < 0 or e == bounds[j] - 1 for j, e in enumerate(degree.entries)):
        restricted, sub, drop = _step2_data(ideal, degree)
        rhs = lc_dims(restricted, sub, field)
        fails = _compare(degree, lhs, rhs, -drop, range(n + 1))
        checks.append(CheckResult("step2_restriction", 1, n + 1, tuple(fails)))
    for j in range(1, n + 1):
        e = degree.entries[j - 1]
        if 0 <= e < bounds[j - 1] - 1:
            capped, extended, tail = _step3_data(ideal, degree, j, bounds)
            rhs = lc_dims(capped, extended, field)
            fails = _compare(degree, lhs, rhs, tail, range(n + 1))
            checks.append(
                CheckResult(f"step3_partial_polarization_j{j}", 1, n + 1, tuple(fails))
            )
    return VerificationReport(ideal, field, tuple(checks))


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
    _check_boxed(ideal, degree)
    checks: list[CheckResult] = []
    current_ideal, current_degree = ideal, degree
    current = lc_dims(current_ideal, current_degree, field)
    while True:
        bounds = rho(current_ideal)
        j = next(
            (
                j
                for j in range(1, current_ideal.n + 1)
                if 0 <= current_degree.entries[j - 1] < bounds[j - 1] - 1
            ),
            None,
        )
        if j is None:
            break
        capped, extended, tail = _step3_data(current_ideal, current_degree, j, bounds)
        nxt = lc_dims(capped, extended, field)
        fails, seen = _union_compare(current_degree, current, nxt, tail)
        checks.append(CheckResult(f"step3_j{j}", 1, seen, tuple(fails)))
        current_ideal, current_degree, current = capped, extended, nxt
    restricted, sub, drop = _step2_data(current_ideal, current_degree)
    nxt = lc_dims(restricted, sub, field)
    fails, seen = _union_compare(current_degree, current, nxt, -drop)
    checks.append(CheckResult("step2_restriction", 1, seen, tuple(fails)))
    current_ideal, current_degree, current = restricted, sub, nxt

    bounds = rho(current_ideal)
    if current_degree.leq(tuple(r - 1 for r in bounds)):
        if current_degree.entries != tuple(r - 1 for r in bounds):
            raise AssertionError(
                f"terminal degree {current_degree.entries} is not rho - 1"
            )
        polarized = polarize_ideal(current_ideal)
        alpha = degree_map(current_degree, polarized.rho)
        if any(alpha.entries):
            raise AssertionError(f"terminal degree maps to {alpha.entries}, not 0")
        final = lc_dims(polarized.ideal, alpha, field)
        shift = polarized.rho_total - current_ideal.n
        fails, seen = _union_compare(current_degree, current, final, shift)
        checks.append(
            CheckResult("terminal_polarized_degree_zero", 1, seen, tuple(fails))
        )
    else:
        fails = [
            Mismatch(current_degree.entries, i, 0, d) for i, d in sorted(current.items())
        ]
        witness = next(
            j
            for j in range(1, current_ideal.n + 1)
            if current_degree.entries[j - 1] >= bounds[j - 1]
        )
        cx = takayama_complex(current_ideal, current_degree)
        if not cx.is_void and not is_cone(cx, witness):
            fails.append(Mismatch(current_degree.entries, -1, 1, 0))
        checks.append(
            CheckResult(
                "terminal_cone_vanishing", 1, len(current) + 1, tuple(fails)
            )
        )
    return VerificationReport(ideal, field, tuple(checks))


def _union_compare(
    degree: MultiDegree, lhs: dict[int, int], rhs: dict[int, int], shift: int
) -> tuple[list[Mismatch], int]:
    """Full-map equality of lhs and the shifted rhs; also counts the
    indices inspected."""
    indices = sorted(set(lhs) | {i - shift for i in rhs})
    return _compare(degree, lhs, rhs, shift, indices), len(indices)


def verify_depth_shift(ideal: MonomialIdeal, field: FieldSpec) -> VerificationReport:
    """Depth and Krull dimension both move up by exactly rho - n under
    full polarization."""
    if ideal.is_unit:
        raise ValueError("the unit ideal has a zero quotient")
    polarized = polarize_ideal(ideal)
    shift = polarized.rho_total - ideal.n
    before = depth_and_dim(ideal, field)
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
