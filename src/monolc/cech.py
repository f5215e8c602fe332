"""Brute-force graded local cohomology via the degree-a Cech strand.

For each subset F of the variables, the degree-a piece of the quotient
localized at the product of the x_i, i in F, is either 0 or a single
copy of k; which one is decided by a divisibility test against the
minimal generators.  The surviving subsets form a complex of vector
spaces with the usual alternating-sign inclusion maps, and its
cohomology gives dim H^i_m(S/I)_a directly.

Survivors are bitmasks, grown level by level from the negative support
of a, which each contains.  Dropping any other (free) position keeps a
survivor (the divisibility test only gets easier), so each survivor
above it is a survivor one level down plus a free position, which only
generators below a at that position can block: the work follows the
survivors, not 2^n.  The strand holds only its nonempty levels, from
|neg| up to the first empty one (no subset of any other size survives),
and the coboundaries between them, which drop only free positions.
A strand pays only for what it holds: when a generator blocks the
negative support itself, it is empty and returns before any setup, and
a strand of one level (the negative support alone, H^|neg| = k) has no
coboundary to build, check or rank.

This path shares nothing with the simplicial route except the ideal
types and linalg: rank, and the coboundary assembly and cohomology count
that tests hold to the definition.  Every held coboundary is checked for
d o d = 0 over Z and then ranked, so the routes' agreement is evidence.
cech_dims ranks them from the top down, leaving out of each the rows
that the kept rows one coboundary up show to be combinations of earlier
rows (clearing, linalg docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ideals import MonomialIdeal, MultiDegree, _check_ideal
from .linalg import FieldSpec, SparseMatrix, _check_field, _coboundaries, _cohomology, rank


def _masks(ideal: MonomialIdeal, degree: MultiDegree) -> tuple[int, list[int]]:
    """Masks (coordinate i at bit i - 1) of the negative coordinates of a,
    and per generator of the coordinates where a is below its exponent."""
    if not isinstance(degree, MultiDegree):
        raise ValueError(f"degree {degree!r} is not a MultiDegree")
    if degree.n != ideal.n:
        raise ValueError("degree length does not match variable count")
    a, neg, below = degree.entries, 0, []
    for i, e in enumerate(a):
        if e < 0:
            neg |= 1 << i
    for m in ideal.gens:
        g = 0
        for i, e in enumerate(m.exponents):
            if a[i] < e:
                g |= 1 << i
        below.append(g)
    return neg, below


def _survives(F: int, neg: int, below: list[int]) -> bool:
    return not neg & ~F and all(map((~F).__and__, below))


def cech_piece_nonzero(ideal: MonomialIdeal, degree: MultiDegree, subset: Iterable[int]) -> bool:
    """Whether the degree-a piece of (S/I) localized at prod_{i in F} x_i
    is nonzero.

    The piece is spanned by the image of x^{a + N e_F} for N large, so
    it is nonzero iff every negative coordinate of a sits in F and no
    generator divides x^{a + N e_F}, i.e. for every generator some
    coordinate outside F stays strictly below the generator's exponent.
    """
    _check_ideal(ideal)
    F = set(subset)
    n = ideal.n
    for i in F:
        if type(i) is not int or not 1 <= i <= n:
            raise ValueError(f"index {i!r} is not an int in 1..{n}")
    return _survives(sum(1 << (i - 1) for i in F), *_masks(ideal, degree))


@dataclass(frozen=True)
class CechStrand:
    """The degree-a layer of the Cech complex from its first nonempty level
    to its last: levels[k] holds the admissible subsets of size low + k, as
    masks in combinations order, and coboundaries[k] the alternating-sign map
    from levels[k] to levels[k + 1].  Every other level is empty."""

    n: int
    low: int
    levels: tuple[tuple[int, ...], ...]
    coboundaries: tuple[SparseMatrix, ...]

    @property
    def basis(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The held levels' subsets as vertex tuples, decoded from the masks."""
        return tuple(tuple(tuple(i + 1 for i in range(self.n) if F >> i & 1) for F in level)
                     for level in self.levels)


def cech_strand(ideal: MonomialIdeal, degree: MultiDegree) -> CechStrand:
    _check_ideal(ideal)
    n = ideal.n
    neg, below = _masks(ideal, degree)
    low = neg.bit_count()
    if not _survives(neg, neg, below):  # a generator blocks neg: nothing survives
        _assert_complex([], low)
        return CechStrand(n=n, low=low, levels=(), coboundaries=())
    free = [1 << i for i in range(n) if not neg >> i & 1]  # as bits
    # for a survivor F, only a generator whose below-mask holds b can block F | b
    at_risk = [[g for g in below if g & b] for b in free]
    # Survivors are closed under dropping free positions (module docstring),
    # so extending each survivor only by free positions past the last one it
    # added reaches every survivor once, from itself minus its largest free
    # position; each level comes out in itertools.combinations order, and
    # the first empty level ends the strand.  Entries are (mask, index into
    # free of the next position).
    levels: list[list[tuple[int, int]]] = []
    level = [(neg, 0)]
    while level:
        levels.append(level)
        level = []
        for F, start in levels[-1]:
            for t in range(start, len(free)):
                G = F | free[t]
                for g in at_risk[t]:
                    if not g & ~G:  # g divides x^(a + N e_G)
                        break
                else:
                    level.append((G, t + 1))
    held = tuple([tuple([F for F, _ in level]) for level in levels])
    # each free b in G gives the survivor G - b (closure again); the
    # negative support is never dropped
    diffs = tuple(_coboundaries(held, sum(free))) if len(held) > 1 else ()
    _assert_complex([d.by_row for d in diffs], low)
    return CechStrand(n=n, low=low, levels=held, coboundaries=diffs)


def _assert_complex(rows: list[list[list[tuple[int, int]]]], low: int) -> None:
    """Consecutive differentials, as lists of (column, entry) rows, the first
    out of level low, must compose to zero over the integers, checked row by
    row."""
    for p, (lower, upper) in enumerate(zip(rows, rows[1:]), low):
        for r, row in enumerate(upper):
            acc: dict[int, int] = {}
            for mid, v2 in row:
                for c, v1 in lower[mid]:
                    acc[c] = acc.get(c, 0) + v2 * v1
            if any(acc.values()):
                raise AssertionError(f"d{p + 1} * d{p} is not zero in row {r}: {acc}")


def cech_dims(ideal: MonomialIdeal, degree: MultiDegree, field: FieldSpec) -> dict[int, int]:
    """All nonzero cohomology dimensions of the degree-a strand."""
    _check_ideal(ideal)
    _check_field(field)
    strand = cech_strand(ideal, degree)
    if len(strand.levels) < 2:  # no coboundary: nothing, or the negative support alone
        return {strand.low: 1} if strand.levels else {}
    # every row of a held coboundary has an entry: G minus any free bit
    # survives.  From the top down, each map skips the rows at the last
    # columns of the kept rows of the map above it (clearing).
    ranks: list[int] = []
    cleared: set[int] = set()
    for d in reversed(strand.coboundaries):
        pivots: set[int] = set()
        ranks.append(rank(d, field, skip=cleared, pivots=pivots))
        cleared = pivots
    ranks.reverse()
    return {strand.low + p: h for p, h in enumerate(_cohomology(strand.levels, ranks)) if h}

