"""Polarization of monomial ideals and the degree correspondence.

Full polarization splits x_i^b into a product of b distinct copies
x_{i,1}...x_{i,b}, giving a square-free ideal in rho = sum(rho_i)
variables.  The degree map sends a multidegree a <= rho - 1 to the
Z^rho degree where the polarized quotient carries the matching graded
piece of local cohomology.  Restriction and partial polarization are
the two elementary moves that reduce any boxed degree to that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ideals import (Monomial, MonomialIdeal, MultiDegree, _canonical_key, _check_ideal,
                     minimalize, rho)


def _check_rho(rho_vec: Sequence[int], n: int) -> tuple[int, ...]:
    vec = tuple(rho_vec)
    if len(vec) != n:
        raise ValueError("rho vector length does not match variable count")
    for r in vec:
        if not isinstance(r, int) or isinstance(r, bool) or r < 1:
            raise ValueError(f"rho entries must be positive integers, got {r!r}")
    return vec


@dataclass(frozen=True)
class PolarizedIdeal:
    """A fully polarized ideal plus the bookkeeping to map back."""

    ideal: MonomialIdeal
    rho: tuple[int, ...]

    @property
    def origin_n(self) -> int:
        """The variable count of the ideal it was polarized from."""
        return len(self.rho)

    @property
    def rho_total(self) -> int:
        return sum(self.rho)

    @property
    def var_map(self) -> dict[tuple[int, int], int]:
        """(original index, copy index) -> flat position, all 1-based
        on the left, 0-based flat on the right."""
        out: dict[tuple[int, int], int] = {}
        flat = 0
        for i, r in enumerate(self.rho, start=1):
            for j in range(1, r + 1):
                out[(i, j)] = flat
                flat += 1
        return out

    def depolarize_monomial(self, m: Monomial) -> Monomial:
        """Collapse each block by substituting every copy by the first."""
        if m.n != self.rho_total:
            raise ValueError("monomial does not live in the polarized ring")
        exps = []
        pos = 0
        for r in self.rho:
            exps.append(sum(m.exponents[pos : pos + r]))
            pos += r
        return Monomial(tuple(exps))


def polarize_ideal(ideal: MonomialIdeal) -> PolarizedIdeal:
    """Polarize every minimal generator with block widths rho(I): its
    image has exponent 1 on (i, j) for j <= its i-th exponent.  Built
    once per ideal and kept in its memo."""
    _check_ideal(ideal)
    if (known := ideal._derived.get("polarized")) is not None:
        return known
    rho_vec = rho(ideal)
    # x_i_j: blocks by original variable, copies within
    names = tuple(f"x_{i}_{j}" for i, r in enumerate(rho_vec, 1) for j in range(1, r + 1))
    gens = []
    for m in ideal.gens:
        exps: tuple[int, ...] = ()
        for e, r in zip(m.exponents, rho_vec):
            exps += (1,) * e + (0,) * (r - e)
        gens.append(Monomial._trusted(exps))
    out = MonomialIdeal._trusted(names, tuple(minimalize(gens)))
    # a minimal system stays minimal under polarization
    if len(out.gens) != len(ideal.gens):
        raise AssertionError("polarization changed the number of minimal generators")
    ideal._derived["polarized"] = polarized = PolarizedIdeal(out, rho_vec)
    return polarized


def degree_map(degree: MultiDegree, rho_vec: Sequence[int]) -> MultiDegree:
    """The Z^rho degree matched to a boxed degree a.

    Block i reads (0 repeated a_i+1, then -1s) when a_i >= 0, and all
    -1s when a_i < 0.  Requires a_i <= rho_i - 1 in every coordinate.
    """
    if not isinstance(degree, MultiDegree):
        raise ValueError(f"degree {degree!r} is not a MultiDegree")
    return _degree_map(degree, _windows(_check_rho(rho_vec, degree.n)))


Windows = tuple[tuple[int, tuple[int, ...]], ...]


def _windows(rho_vec: Sequence[int]) -> Windows:
    """Per block width r, the pair (r, (0,)*r + (-1,)*r): every block
    that degree_map writes for it is a slice of length r of the window."""
    return tuple((r, (0,) * r + (-1,) * r) for r in rho_vec)


def _degree_map(degree: MultiDegree, windows: Windows) -> MultiDegree:
    """degree_map for the windows of a rho vector already known to be
    valid and as long as the degree, such as a PolarizedIdeal's rho."""
    out: tuple[int, ...] = ()
    for a, (r, w) in zip(degree.entries, windows):
        if a < 0:
            out += w[r:]
        elif a < r:
            out += w[r - 1 - a : 2 * r - 1 - a]
        else:
            raise ValueError(f"degree entry {a} not below block width {r}")
    return MultiDegree._trusted(out)


def restrict(ideal: MonomialIdeal, keep: Iterable[int]) -> MonomialIdeal:
    """Substitute 1 for every variable outside keep and minimalize."""
    _check_ideal(ideal)
    kept = sorted(set(keep))
    for i in kept:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= ideal.n:
            raise ValueError(f"kept index {i!r} outside 1..{ideal.n}")
    return _restrict(ideal, kept)


def _restrict(ideal: MonomialIdeal, kept: Sequence[int]) -> MonomialIdeal:
    """restrict to indices already known to be ascending, distinct and
    in 1..n: the projection of each generator, minimalized."""
    names = tuple([ideal.var_names[i - 1] for i in kept])
    gens = [Monomial._trusted(tuple([m.exponents[i - 1] for i in kept])) for m in ideal.gens]
    return MonomialIdeal._trusted(names, tuple(minimalize(gens)))


def partial_polarize(ideal: MonomialIdeal, var_index: int, threshold: int) -> MonomialIdeal:
    """Polarize the exponents of one variable above a threshold.

    Exponent e of the chosen variable stays put when e <= t+1 and
    otherwise is capped at t+1 with distinct copy variables x_i_j,
    j = t+2..e, carrying the excess.  The copies j = t+2..rho_i are
    appended after the original variables.  Capping one variable is an
    order embedding on exponents, so the generators stay minimal and
    distinct and only need sorting back into canonical order; rho_i
    becomes t+1, and each copy's is 1.  The result is kept in the
    ideal's memo, so a second call returns the same ideal.
    """
    _check_ideal(ideal)
    for arg in (var_index, threshold):
        if not isinstance(arg, int) or isinstance(arg, bool):
            raise ValueError(f"variable index and threshold must be integers, got {arg!r}")
    if not 1 <= var_index <= ideal.n:
        raise ValueError(f"variable index {var_index} outside 1..{ideal.n}")
    r = rho(ideal)[var_index - 1]
    if not 0 <= threshold < r - 1:
        raise ValueError(f"threshold {threshold} outside 0..{r - 2}")
    if (known := ideal._derived.get((var_index, threshold))) is not None:
        return known
    tail = r - threshold - 1
    names = ideal.var_names + tuple(f"x_{var_index}_{j}" for j in range(threshold + 2, r + 1))
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    gens = []
    for m in ideal.gens:
        e = m.exponents[var_index - 1]
        exps = list(m.exponents) + [0] * tail
        if e > threshold + 1:
            exps[var_index - 1] = threshold + 1
            for j in range(threshold + 2, e + 1):
                exps[ideal.n + (j - threshold - 2)] = 1
        gens.append(Monomial._trusted(tuple(exps)))
    capped = MonomialIdeal._trusted(names, tuple(sorted(gens, key=_canonical_key)))
    ideal._derived[var_index, threshold] = capped
    return capped


def depolarize_check(polarized: PolarizedIdeal, ideal: MonomialIdeal) -> bool:
    """Whether collapsing every block of the polarized ideal recovers
    the minimal generators of the given ideal."""
    if not isinstance(polarized, PolarizedIdeal):
        raise ValueError(f"polarized {polarized!r} is not a PolarizedIdeal")
    _check_ideal(ideal)
    if polarized.origin_n != ideal.n:
        return False
    collapsed = minimalize(
        polarized.depolarize_monomial(m) for m in polarized.ideal.gens
    )
    return [m.exponents for m in collapsed] == [m.exponents for m in ideal.gens]
