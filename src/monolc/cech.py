"""Brute-force graded local cohomology via the degree-a Cech strand.

For each subset F of the variables, the degree-a piece of the quotient
localized at the product of the x_i, i in F, is either 0 or a single
copy of k; which one is decided by a divisibility test against the
minimal generators.  The surviving subsets form a complex of vector
spaces with the usual alternating-sign inclusion maps, and its
cohomology gives dim H^i_m(S/I)_a directly.

Survivors are found level by level, not among all 2^n subsets.  Each
contains the negative support of a, and dropping any other (free)
position keeps it a survivor (the divisibility test only gets easier),
so each survivor above the negative support is a survivor one level
down plus a free position: the work follows the survivors, not 2^n.

This path deliberately shares nothing with the simplicial route except
the ideal types and the rank kernel, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ideals import MonomialIdeal, MultiDegree
from .linalg import FieldSpec, SparseMatrix, rank


def _masks(ideal: MonomialIdeal, degree: MultiDegree) -> tuple[int, list[int]]:
    """Masks (coordinate i at bit i - 1) of the negative coordinates of a,
    and per generator of the coordinates where a is below its exponent."""
    if degree.n != ideal.n:
        raise ValueError("degree length does not match variable count")
    neg = sum(1 << i for i, e in enumerate(degree.entries) if e < 0)
    below = [
        sum(1 << i for i, (e, g) in enumerate(zip(degree.entries, m.exponents)) if e < g)
        for m in ideal.gens
    ]
    return neg, below


def _survives(F: int, neg: int, below: list[int]) -> bool:
    return not neg & ~F and all(b & ~F for b in below)


def cech_piece_nonzero(ideal: MonomialIdeal, degree: MultiDegree, subset: Iterable[int]) -> bool:
    """Whether the degree-a piece of (S/I) localized at prod_{i in F} x_i
    is nonzero.

    The piece is spanned by the image of x^{a + N e_F} for N large, so
    it is nonzero iff every negative coordinate of a sits in F and no
    generator divides x^{a + N e_F}, i.e. for every generator some
    coordinate outside F stays strictly below the generator's exponent.
    """
    F = set(subset)
    n = ideal.n
    for i in F:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside 1..{n}")
    return _survives(sum(1 << (i - 1) for i in F), *_masks(ideal, degree))


@dataclass(frozen=True)
class CechStrand:
    """The degree-a layer of the Cech complex: admissible subsets by
    size, plus the alternating-sign differentials between levels."""

    n: int
    basis: tuple[tuple[tuple[int, ...], ...], ...]
    differentials: tuple[SparseMatrix, ...]

    def level_dim(self, p: int) -> int:
        if 0 <= p <= self.n:
            return len(self.basis[p])
        return 0


def cech_strand(ideal: MonomialIdeal, degree: MultiDegree) -> CechStrand:
    n = ideal.n
    neg, below = _masks(ideal, degree)
    free = [1 << i for i in range(n) if not neg >> i & 1]  # as bits
    # Survivors are closed under dropping free positions (module docstring),
    # so extending each survivor only by free positions past the last one it
    # added reaches every survivor once, from itself minus its largest free
    # position; each level comes out in itertools.combinations order.
    # Entries are (mask, vertex tuple, index into free of the next position).
    levels: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(n + 1)]
    if _survives(neg, neg, below):
        face = tuple(i + 1 for i in range(n) if neg >> i & 1)
        levels[len(face)].append((neg, face, 0))
    for level, above in zip(levels, levels[1:]):
        for F, face, start in level:
            for t, b in enumerate(free[start:], start + 1):
                if _survives(F | b, neg, below):
                    at = (F & (b - 1)).bit_count()  # vertices of F below the new one
                    above.append((F | b, face[:at] + (b.bit_length(),) + face[at:], t))
    diffs: list[SparseMatrix] = []
    for p in range(n):
        index_above = {F: r for r, (F, _, _) in enumerate(levels[p + 1])}
        entries: dict[tuple[int, int], int] = {}
        for c, (F, _, _) in enumerate(levels[p]):
            for b in free:
                # F | b is in the level above only when b is not in F
                r = index_above.get(F | b)
                if r is not None:
                    # (-1)^(number of elements of F below the inserted one)
                    entries[(r, c)] = -1 if (F & (b - 1)).bit_count() % 2 else 1
        diffs.append(SparseMatrix(len(levels[p + 1]), len(levels[p]), entries))
    basis = tuple(tuple(face for _, face, _ in level) for level in levels)
    strand = CechStrand(n=n, basis=basis, differentials=tuple(diffs))
    _assert_complex(strand)
    return strand


def _assert_complex(strand: CechStrand) -> None:
    """Consecutive differentials must compose to zero over the integers."""
    for p in range(len(strand.differentials) - 1):
        lower = strand.differentials[p]
        upper = strand.differentials[p + 1]
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in upper.entries.items():
            by_col.setdefault(c, []).append((r, v))
        acc: dict[tuple[int, int], int] = {}
        for (mid, c), v1 in lower.entries.items():
            for r, v2 in by_col.get(mid, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + v2 * v1
        bad = {k: v for k, v in acc.items() if v != 0}
        if bad:
            raise AssertionError(f"differentials do not compose to zero: {bad}")


def cech_dims(ideal: MonomialIdeal, degree: MultiDegree, field: FieldSpec) -> dict[int, int]:
    """All nonzero cohomology dimensions of the degree-a strand."""
    strand = cech_strand(ideal, degree)
    ranks = [
        rank(d, field) if d.entries else 0 for d in strand.differentials
    ]
    dims: dict[int, int] = {}
    for p in range(strand.n + 1):
        above = ranks[p] if p < strand.n else 0
        below = ranks[p - 1] if p > 0 else 0
        h = strand.level_dim(p) - above - below
        if h:
            dims[p] = h
    return dims


def cech_cohomology_dim(
    ideal: MonomialIdeal, degree: MultiDegree, index: int, field: FieldSpec
) -> int:
    """dim_k H^i_m(S/I)_a computed without any simplicial machinery."""
    if index < 0:
        raise ValueError("cohomological index must be non-negative")
    return cech_dims(ideal, degree, field).get(index, 0)
