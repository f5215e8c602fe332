"""Exact rank computation for sparse integer matrices over Q or a prime field.

No floating point anywhere, and every entry is an int.  A SparseMatrix
stores its rows, each a list of (column, value) pairs with columns
ascending, and rank reads them as they are.  Every field follows one
rule: each row in turn is reduced against the kept row with the same
last column until that column is new, then kept under it, and the rank
is the number of rows kept.  Every matrix the library ranks is a
coboundary, and the last column is the standard pivot for those
(Chen-Kerber's twist, Ripser).  A row whose last column is new is kept
as the matrix holds it, and put in the form reduction works on only when
a later row is reduced against it.  Over GF(2) that form is an int
bitmask, one bit per odd entry, and reduction is XOR.  Over Q and odd p
one reduction serves both, on the rows as they are over Q and on their
nonzero residues mod p over GF(p): it is fraction-free over Z, and over
GF(p) each kept row is scaled so its pivot is 1, which leaves reduction
mod p as the only modular step.

rank can leave out rows that the caller knows to lie in the span of the
rows before them, and report the kept rows' last columns.  The Cech
route ranks a strand from its top coboundary down and uses both for
clearing (Bauer-Kerber-Reininghaus, "Clear and compress", 2014): a
kept row of the map out of a level is a combination of that map's rows,
so d o d = 0 makes the row at its last column, in the map into the
level, a combination of earlier rows.

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
from typing import AbstractSet, Mapping


def _is_prime(p: int) -> bool:
    """For 2 <= p < 2^31, which FieldSpec checks first: Miller-Rabin on
    the bases 2, 3, 5 and 7, exact below 3,215,031,751."""
    if p in (2, 3, 5, 7):
        return True
    if p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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


def _check_field(field: object) -> None:
    if not isinstance(field, FieldSpec):
        raise ValueError(f"field {field!r} is not a FieldSpec")


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


def _form(row: list[tuple[int, int]], p: int | None) -> int | dict[int, int]:
    """A row, nonzero over the field, in the form reduction works on: over
    GF(2) an int mask, one bit per odd entry; over GF(p) its nonzero
    residues, scaled so the last is 1; over Q its entries."""
    if p == 2:
        return sum([1 << c for c, v in row if v & 1])
    if p is None:
        return dict(row)
    form = {c: r for c, v in row if (r := v % p)}
    return _monic(form, max(form), p)


def _monic(form: dict[int, int], last: int, p: int) -> dict[int, int]:
    """GF(p) residues scaled so the entry at last is 1: a unit pivot keeps
    the fraction-free steps of _keep out of GF(p)."""
    if (pval := form[last]) == 1:
        return form
    inv = pow(pval, -1, p)
    return {c: v * inv % p for c, v in form.items()}


def _keep(row: list[tuple[int, int]], last: int, kept: dict, p: int | None) -> None:
    """Reduce the row, whose last column over the field is last, against the
    kept row with that last column until it is new, and keep what is left
    under it.  A kept row still in the matrix's form is put in reduction's
    form when first reduced against."""
    work = _form(row, p)
    while last in kept:
        prow = kept[last]
        if type(prow) is list:
            prow = kept[last] = _form(prow, p)
        if p == 2:
            work ^= prow
            last = work.bit_length() - 1
            continue
        f, pval = work[last], prow[last]
        # work := scale_row * work - scale_piv * prow clears column last
        g = math.gcd(f, pval)
        scale_row, scale_piv = abs(pval) // g, (f if pval > 0 else -f) // g
        if scale_row != 1:
            for c in work:
                work[c] *= scale_row
        for c, v in prow.items():
            cur = work.get(c, 0) - scale_piv * v
            if p is not None:
                cur %= p
            if cur:
                work[c] = cur
            elif c in work:
                del work[c]
        if not work:
            return
        if scale_row != 1:
            _strip_gcd(work)
        last = max(work)
    if work:
        kept[last] = _monic(work, last, p) if p is not None and p != 2 else work


def rank(matrix: SparseMatrix, field: FieldSpec, *,
         skip: AbstractSet[int] = frozenset(), pivots: set[int] | None = None) -> int:
    """Rank of the int matrix over the given field.

    The rows whose indices are in skip are left out.  A caller may skip
    only rows that lie in the span of the rows before them, which leaves
    the rank as it is.  When pivots is a set, the last column of each
    kept row is added to it."""
    _check_field(field)
    p = field.p
    kept: dict[int, list | int | dict[int, int]] = {}  # by last column
    for r, row in enumerate(matrix.by_row):
        if r in skip:
            continue
        for last, v in reversed(row):
            if p is None or v % p:
                break
        else:
            continue  # zero over the field
        if last in kept:
            _keep(row, last, kept, p)
        else:
            kept[last] = row  # put in reduction's form only if needed
    if pivots is not None:
        pivots.update(kept)
    return len(kept)
