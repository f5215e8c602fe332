"""Exact rank computation for sparse integer matrices over Q or a prime field.

No floating point anywhere, and every entry is an int.  A SparseMatrix
stores its rows, each a list of (column, value) pairs with columns
ascending, and rank reads them as they are.  Every field follows one
rule: each row in turn is reduced against the kept row with the same
last column until that column is new, then kept under it, and the rank
is the number of rows kept.  Every matrix the library ranks is a
coboundary, and the last column is the standard pivot for those
(Chen-Kerber's twist, Ripser).  Over GF(2) each row is read in one pass
into an int bitmask, one bit per odd entry, and reduction is XOR.  Over
Q and odd p one reduction serves both, on the rows as they are over Q
and on their nonzero residues mod p over GF(p): it is fraction-free
over Z, and over GF(p) each kept row is scaled so its pivot is 1, which
leaves reduction mod p as the only modular step.

Both cohomology routes (simplicial and Cech) hand _coboundaries their
consecutive nonempty levels of faces and the mask of the bits a face
may drop, each row walking only those set bits of its face, rank every
coboundary it builds, and count dimensions with _cohomology; tests hold
both to the definition, and every Cech strand is checked for d o d = 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q when p is None, else GF(p)."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if not isinstance(self.p, int) or isinstance(self.p, bool):
                raise ValueError("characteristic must be an integer")
            if not 2 <= self.p < 2**31:
                raise ValueError(f"characteristic out of range: {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        t = text.strip().lower()
        if t == "q":
            return cls(None)
        if re.fullmatch("gf:[0-9]+", t):
            try:
                p = int(t[3:])
            except ValueError:  # more digits than int() converts
                raise ValueError(f"bad field spec {text!r}") from None
            return cls(p)
        raise ValueError(f"bad field spec {text!r}")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "q" if self.p is None else f"gf:{self.p}"


@dataclass(slots=True, repr=False)
class SparseMatrix:
    """Nonzero int entries by row: by_row[r] lists row r's (column, value)
    pairs, columns ascending, the form the library assembles coboundaries
    in and ranks them from; `entries` decodes it to {(row, col): value}."""

    rows: int
    cols: int
    by_row: list[list[tuple[int, int]]]

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], object] | None = None) -> None:
        if not (type(rows) is int and type(cols) is int and rows >= 0 and cols >= 0):
            raise ValueError(f"matrix dimensions {rows!r}x{cols!r} are not non-negative ints")
        by_row: list[list] = [[] for _ in range(rows)]
        for key, v in (entries or {}).items():
            if not (type(key) is tuple and len(key) == 2 and all(type(i) is int for i in key)
                    and 0 <= key[0] < rows and 0 <= key[1] < cols):
                raise ValueError(f"entry {key!r} outside a {rows}x{cols} matrix")
            r, c = key
            if type(v) is not int:
                raise ValueError(f"entries must be ints, got {v!r}")
            if v:
                by_row[r].append((c, v))
        for row in by_row:
            row.sort()  # columns within a row are distinct, so values are never compared
        self.rows, self.cols, self.by_row = rows, cols, by_row

    @classmethod
    def _trusted(cls, rows: int, cols: int, by_row: list) -> "SparseMatrix":
        """Unchecked and uncopied: rows of (column, nonzero int), columns ascending."""
        m = object.__new__(cls)
        m.rows, m.cols, m.by_row = rows, cols, by_row
        return m

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero entries by (row, col), decoded from the rows."""
        return {(r, c): v for r, row in enumerate(self.by_row) for c, v in row}

    @classmethod
    def from_dense(cls, data: list) -> "SparseMatrix":
        if not (isinstance(data, (list, tuple))
                and all(isinstance(row, (list, tuple)) for row in data)):
            raise ValueError(f"dense matrix {data!r} is not a list of rows")
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged dense matrix")
            for c, v in enumerate(row):
                if v != 0:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={sum(map(len, self.by_row))})"


def _coboundaries(levels: list[list[int]], drop: int) -> list[SparseMatrix]:
    """The coboundary from each level of faces (bitmasks) to the next: the
    row of G holds, for each bit b of G & drop, entry (-1)^(number of bits
    of G below b) at the column of G - b, a face of the level below.  A row
    walks those bits low to high and is then reversed, so its columns ascend
    when dropping a higher bit gives an earlier face, as in increasing-mask
    and in combinations order."""
    diffs = []
    for level, above in zip(levels, levels[1:]):
        col = {F: c for c, F in enumerate(level)}
        rows = []
        for G in above:
            row, m = [], G & drop
            while m:
                b = m & -m
                m ^= b
                row.append((col[G ^ b], -1 if (G & (b - 1)).bit_count() & 1 else 1))
            row.reverse()
            rows.append(row)
        diffs.append(SparseMatrix._trusted(len(above), len(level), rows))
    return diffs


def _cohomology(levels: list[list[int]], ranks: list[int]) -> list[int]:
    """Per level p, its size minus the ranks into and out of it (ranks[p]: p -> p + 1)."""
    r = [0, *ranks, 0]
    return [len(level) - r[p] - r[p + 1] for p, level in enumerate(levels)]


def _strip_gcd(row: dict[int, int]) -> None:
    g = math.gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(rows: list[dict[int, int]], p: int | None) -> int:
    """Rank of integer rows over Q (p is None) or GF(p); consumes rows."""
    kept: dict[int, dict[int, int]] = {}  # by last column
    for row in rows:
        while row and (last := max(row)) in kept:
            prow = kept[last]
            f, pval = row[last], prow[last]
            # row := scale_row * row - scale_piv * prow clears column last
            g = math.gcd(f, pval)
            scale_row, scale_piv = abs(pval) // g, (f if pval > 0 else -f) // g
            if scale_row != 1:
                for c in row:
                    row[c] *= scale_row
            for c, v in prow.items():
                cur = row.get(c, 0) - scale_piv * v
                if p is not None:
                    cur %= p
                if cur:
                    row[c] = cur
                elif c in row:
                    del row[c]
            if scale_row != 1:
                _strip_gcd(row)
        if row:
            if p is not None and (pval := row[last]) != 1:
                # a unit pivot keeps the fraction-free steps above out of GF(p)
                inv = pow(pval, -1, p)
                row = {c: v * inv % p for c, v in row.items()}
            kept[last] = row
    return len(kept)


def rank(matrix: SparseMatrix, field: FieldSpec) -> int:
    """Rank of the int matrix over the given field."""
    p = field.p
    if p is None:
        return _eliminate([dict(row) for row in matrix.by_row], None)
    if p != 2:
        return _eliminate([{c: r for c, v in row if (r := v % p)} for row in matrix.by_row], p)
    # each row as an int mask, one bit per odd entry, reduced against the
    # kept row with the same last column
    kept: dict[int, int] = {}
    for row in matrix.by_row:
        m = 0
        for c, v in row:
            if v & 1:
                m |= 1 << c
        while (last := m.bit_length()) in kept:
            m ^= kept[last]
        if m:
            kept[last] = m
    return len(kept)
