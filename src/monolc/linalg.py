"""Exact rank computation for sparse matrices over Q or a prime field.

No floating point anywhere.  Entries first become integers, row by
row: over Q each row's denominators are cleared, over GF(p) entries
are reduced mod p.  One sparse elimination then serves both fields.
It is fraction-free over Z, and over GF(p) it scales each pivot row
so the pivot is 1, which leaves reduction mod p as the only modular
step.  The pivot row is the shortest, taken from a heap of (length,
row id); pivoting is deterministic, so repeated runs agree exactly.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
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
            return cls(int(t[3:]))
        raise ValueError(f"bad field spec {text!r}")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "q" if self.p is None else f"gf:{self.p}"


class SparseMatrix:
    """Immutable sparse matrix with exact entries keyed by (row, col)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], object] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        cleaned: dict[tuple[int, int], object] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r}, {c}) outside a {rows}x{cols} matrix")
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise ValueError(f"entries must be int or Fraction, got {v!r}")
            if v != 0:
                cleaned[(r, c)] = v
        self.entries = cleaned

    @classmethod
    def from_dense(cls, data: list) -> "SparseMatrix":
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

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _integer_rows(matrix: SparseMatrix, p: int | None) -> list[dict[int, int]]:
    """Group the entries by row as nonzero integers.

    Over Q each row is scaled by the lcm of its denominators; over
    GF(p) each entry is reduced into [0, p).
    """
    grouped: dict[int, dict[int, object]] = {}
    for (r, c), v in matrix.entries.items():
        grouped.setdefault(r, {})[c] = v
    rows = []
    for r in sorted(grouped):
        row = grouped[r]
        if p is None:
            lcm = math.lcm(*(v.denominator for v in row.values()))
            rows.append({c: int(v * lcm) for c, v in row.items()})
            continue
        ints = {}
        for c, v in row.items():
            d = v.denominator
            if d % p == 0:
                raise ValueError(f"denominator of {v} vanishes mod {p}")
            iv = (v.numerator if d == 1 else v.numerator * pow(d, -1, p)) % p
            if iv:
                ints[c] = iv
        rows.append(ints)
    return rows


def _strip_gcd(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(rows: list[dict[int, int]], p: int | None) -> int:
    """Rank of integer rows over Q (p is None) or GF(p); consumes rows."""
    active = {i: r for i, r in enumerate(rows) if r}
    col_users: dict[int, set[int]] = {}
    for rid, row in active.items():
        for c in row:
            col_users.setdefault(c, set()).add(rid)
    # shortest row first keeps fill-in down; ties break by row id
    queue = [(len(row), rid) for rid, row in active.items()]
    heapq.heapify(queue)
    rank = 0
    while active:
        length, prid = heapq.heappop(queue)
        if len(active.get(prid, ())) != length:
            continue  # stale: the row changed (and was pushed again) or is gone
        prow = active.pop(prid)
        for c in prow:
            col_users[c].discard(prid)
        pcol = min(prow, key=lambda c: (abs(prow[c]) != 1, len(col_users[c]), c))
        pval = prow[pcol]
        if p is not None and pval != 1:
            # a unit pivot keeps the fraction-free steps below out of GF(p)
            inv = pow(pval, -1, p)
            for c in prow:
                prow[c] = prow[c] * inv % p
            pval = 1
        rank += 1
        for rid in sorted(col_users[pcol]):
            row = active[rid]
            f = row.pop(pcol)
            col_users[pcol].discard(rid)
            if pval == 1 or pval == -1:
                scale_row, scale_piv = 1, f * pval
            else:
                g = math.gcd(f, pval)
                scale_row, scale_piv = pval // g, f // g
            if scale_row != 1:
                for c in row:
                    row[c] *= scale_row
            for c, v in prow.items():
                if c == pcol:
                    continue
                cur = row.get(c, 0) - scale_piv * v
                if p is not None:
                    cur %= p
                if cur:
                    if c not in row:
                        col_users.setdefault(c, set()).add(rid)
                    row[c] = cur
                elif c in row:
                    del row[c]
                    col_users[c].discard(rid)
            if scale_row != 1:
                _strip_gcd(row)
            if row:
                heapq.heappush(queue, (len(row), rid))
            else:
                del active[rid]
    return rank


def rank(matrix: SparseMatrix, field: FieldSpec) -> int:
    """Rank of the matrix over the given field.

    Rational entries are allowed for either field; over GF(p) a
    denominator divisible by p is an error.
    """
    return _eliminate(_integer_rows(matrix, field.p), field.p)
