"""Graded local cohomology of a monomial quotient via combinatorics.

For a multidegree a the graded piece H^i_m(S/I)_a is computed as the
reduced cohomology, shifted by |{j : a_j < 0}| + 1, of a simplicial
complex determined by a and the minimal generators of I.  `lc_dims`
reads a cone (acyclic) or a sphere off the minimal non-faces of that
complex alone; only when one of them is redundant for covering the
vertices does it build the complex or the nerve of the minimal
non-faces, whichever has fewer possible faces.  `takayama_complex`
lists the faces for inspection.  Everything else reduces to exact rank
computations, so results are field-aware.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable

from .ideals import MonomialIdeal, MultiDegree, rho
from .linalg import FieldSpec
from .simplicial import SimplicialComplex, reduced_cohomology_dims


def _blockers(ideal: MonomialIdeal, degree: MultiDegree) -> tuple[int, list[int]]:
    """The mask of the non-negative positions V of a, and per minimal
    generator the positions of V where a_j is below its exponent."""
    if degree.n != ideal.n:
        raise ValueError("degree length does not match variable count")
    wmask = sum(1 << i for i, e in enumerate(degree.entries) if e >= 0)
    blockers = [
        wmask & sum(1 << i for i, (e, g) in enumerate(zip(degree.entries, m.exponents)) if e < g)
        for m in ideal.gens
    ]
    return wmask, blockers


def takayama_complex(ideal: MonomialIdeal, degree: MultiDegree) -> SimplicialComplex:
    """The degree-a complex whose faces are the sets F \\ supp_-(a).

    A subset G of the non-negative positions is a face iff for every
    minimal generator some position outside G (and outside supp_-(a))
    has a_j strictly below the generator's exponent.  If the ideal is
    zero the complex is the full simplex on those positions.
    """
    return _complex(ideal.n, *_blockers(ideal, degree))


def _complex(n: int, wmask: int, blockers: list[int]) -> SimplicialComplex:
    """The subsets of wmask that contain no blocker, by walking all of them."""
    if not all(blockers):
        # a generator with no admissible position left: no faces at all
        return SimplicialComplex.void(n)
    faces = []
    sub = wmask
    while True:
        if all(b & ~sub for b in blockers):
            faces.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & wmask
    return SimplicialComplex._from_masks(n, frozenset(faces))


def lc_dims(ideal: MonomialIdeal, degree: MultiDegree, field: FieldSpec) -> dict[int, int]:
    """All nonzero graded local cohomology dimensions at one degree,
    as a map cohomological index -> dimension.

    The complex on V has the g minimal blockers as its minimal
    non-faces.  If some vertex of V lies in none of them, the complex
    is a cone over it and acyclic.  If each has a vertex that no other
    one contains, a set of them covers V only when it holds all g, so
    the nerve below is the boundary of a (g-1)-simplex and the complex
    has H~^{|V|-1-g} = k alone.  Otherwise some blocker is redundant for
    covering V and the cohomology is computed: by Alexander duality
    and the nerve theorem, H~^i of the complex is H~_{|V|-i-3} of the
    nerve of the minimal blockers, in which a set of them is a face iff
    their union is not V.  The nerve has at most 2^g faces, the complex
    2^|V|, and the smaller one is built.
    """
    wmask, blockers = _blockers(ideal, degree)
    if not all(blockers):
        return {}  # the void complex
    size = wmask.bit_count()
    shift = ideal.n - size + 1
    # drop repeats and every blocker that properly contains another
    minimal = sorted({b for b in blockers if not any(c & b == c != b for c in blockers)})
    once = twice = 0  # the vertices in at least one, and in at least two
    for b in minimal:
        twice |= once & b
        once |= b
    if once != wmask:
        return {}  # a cone over a vertex in no minimal blocker
    if all(b & ~twice for b in minimal):
        return {size - 1 - len(minimal) + shift: 1}  # a sphere
    if len(minimal) >= size:
        cx = _complex(ideal.n, wmask, minimal)
        return {j + shift: d for j, d in reduced_cohomology_dims(cx, field).items()}
    union_of = {0: 0}  # nerve face -> union of its blockers
    for k, b in enumerate(minimal):
        for face, union in list(union_of.items()):
            if union | b != wmask:
                union_of[face | 1 << k] = union | b
    nerve = SimplicialComplex._from_masks(len(minimal), frozenset(union_of))
    top = size - 3 + shift
    return {top - j: d for j, d in reduced_cohomology_dims(nerve, field).items()}


def lc_dim(ideal: MonomialIdeal, degree: MultiDegree, index: int, field: FieldSpec) -> int:
    """dim_k of the degree-a piece of H^i_m(S/I)."""
    if index < 0:
        raise ValueError("cohomological index must be non-negative")
    return lc_dims(ideal, degree, field).get(index, 0)


def canonical_box(ideal: MonomialIdeal) -> list[MultiDegree]:
    """All degrees with -1 <= a_i <= rho_i - 1, in lexicographic order.

    Every degree with some a_i outside this window either repeats a
    boxed value (after truncating negatives to -1) or vanishes."""
    ranges = [range(-1, r) for r in rho(ideal)]
    return [MultiDegree(t) for t in itertools.product(*ranges)]


@dataclass(frozen=True)
class DepthDim:
    depth: int
    dim: int

    @property
    def is_cohen_macaulay(self) -> bool:
        return self.depth == self.dim


@dataclass(frozen=True)
class LCTable:
    """All nonzero graded local cohomology dimensions over the box."""

    ideal: MonomialIdeal
    field: FieldSpec
    entries: tuple[tuple[MultiDegree, int, int], ...]

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.entries, key=lambda e: (e[0].entries, e[1]))
        )
        object.__setattr__(self, "entries", ordered)

    def dims_at(self, degree: MultiDegree) -> dict[int, int]:
        return {i: d for deg, i, d in self.entries if deg == degree}

    def nonzero_indices(self) -> set[int]:
        return {i for _, i, _ in self.entries}

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.ideal.var_names),
            "field": str(self.field),
            "entries": [
                {"degree": list(deg.entries), "i": i, "dim": d}
                for deg, i, d in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_tsv(self) -> str:
        lines = ["degree\ti\tdim"]
        for deg, i, d in self.entries:
            lines.append(f"{','.join(map(str, deg.entries))}\t{i}\t{d}")
        return "\n".join(lines) + "\n"


def box_table(ideal: MonomialIdeal, field: FieldSpec, dims_at: Callable) -> LCTable:
    """Sweep the canonical box with dims_at(ideal, degree, field), a map
    index -> dimension of the nonzero pieces, and record every one."""
    if ideal.is_unit:
        raise ValueError("the unit ideal has a zero quotient")
    n = ideal.n
    entries = []
    for degree in canonical_box(ideal):
        for i, d in sorted(dims_at(ideal, degree, field).items()):
            if not 0 <= i <= n:
                raise AssertionError(
                    f"cohomology index {i} outside 0..{n} at degree {degree.entries}"
                )
            entries.append((degree, i, d))
    return LCTable(ideal, field, tuple(entries))


def lc_table(ideal: MonomialIdeal, field: FieldSpec) -> LCTable:
    """Sweep the canonical box and record every nonzero graded piece."""
    return box_table(ideal, field, lc_dims)


def depth_and_dim(
    ideal: MonomialIdeal, field: FieldSpec, table: LCTable | None = None
) -> DepthDim:
    """Depth and Krull dimension of S/I read off the nonzero indices.

    A given table is read only if it is the table of ideal over field;
    one built for another ideal or field is swept again."""
    if ideal.is_unit:
        raise ValueError("the unit ideal has a zero quotient")
    if table is None or (table.ideal, table.field) != (ideal, field):
        table = lc_table(ideal, field)
    indices = table.nonzero_indices()
    if not indices:
        raise AssertionError("a nonzero quotient must have nonzero local cohomology")
    return DepthDim(depth=min(indices), dim=max(indices))
