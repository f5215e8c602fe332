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

The complex depends on a_j only through whether a_j is -1 and which
generator exponents it is below, so the canonical box splits into
cells of equal complexes.  `lc_table` and `depth_and_dim` sweep it by
cells, fixing one coordinate at a time and skipping subtrees that are
void, and compute once per cell; `depth_and_dim` reads its two indices
off the cells.  Coordinates with equal exponent columns are twins:
swapping them maps I onto itself and a cell onto a cell with the same
cohomology, so `depth_and_dim` visits one cell per orbit of the swaps,
the one whose runs do not decrease along the twins, while `lc_table`
still lists every cell.  On a polarization the copies of a variable
are mostly twins, which takes the polarized sweep off 2^(rho total).
`box_table` still goes degree by degree, which keeps the Čech oracle a
per-degree check.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .ideals import MonomialIdeal, MultiDegree, _check_ideal, rho
from .linalg import FieldSpec, _check_field
from .simplicial import SimplicialComplex, reduced_cohomology_dims


def _blockers(ideal: MonomialIdeal, degree: MultiDegree) -> tuple[int, list[int]]:
    """The mask of the non-negative positions V of a, and per minimal
    generator the positions of V where a_j is below its exponent.

    One pass over a groups V by value v; a generator's blocker is the
    union over v of the positions holding v that are among its variables
    with exponent > v, a mask read off the ideal's `_steps` table.  So a
    degree costs O(n + g*k), with g generators and k distinct values
    a_j >= 0."""
    if not isinstance(degree, MultiDegree):
        raise ValueError(f"degree {degree!r} is not a MultiDegree")
    if len(degree.entries) != len(ideal.var_names):
        raise ValueError("degree length does not match variable count")
    at: dict[int, int] = {}  # value v >= 0 -> the positions where a_j = v
    bit = 1
    for v in degree.entries:
        if v >= 0:
            at[v] = at.get(v, 0) | bit
        bit <<= 1
    values = at.items()
    blockers = []
    for ds, masks in ideal._steps:
        b = 0
        for v, pos in values:
            b |= pos & masks[bisect_right(ds, v)]
        blockers.append(b)
    return sum(at.values()), blockers


def takayama_complex(ideal: MonomialIdeal, degree: MultiDegree) -> SimplicialComplex:
    """The degree-a complex whose faces are the sets F \\ supp_-(a).

    A subset G of the non-negative positions is a face iff for every
    minimal generator some position outside G (and outside supp_-(a))
    has a_j strictly below the generator's exponent.  If the ideal is
    zero the complex is the full simplex on those positions.
    """
    _check_ideal(ideal)
    return _complex(ideal.n, *_blockers(ideal, degree))


def _complex(n: int, wmask: int, blockers: list[int]) -> SimplicialComplex:
    """The subsets of wmask that contain no blocker, grown from the empty
    face: each vertex of wmask in turn joins every face found so far that
    it leaves free of blockers, so the cost follows the faces, not 2^|V|."""
    faces = [] if 0 in blockers else [0]
    for bit in (1 << v for v in range(n) if wmask >> v & 1):
        faces += [f | bit for f in faces if all(b & ~(f | bit) for b in blockers)]
    return SimplicialComplex._trusted(n, frozenset(faces))


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
    their union is not V.  Both are grown from the empty face, so each
    costs about its own number of faces; the nerve has at most 2^g, the
    complex 2^|V|, and the one with the smaller bound is built.
    """
    _check_ideal(ideal)
    _check_field(field)
    wmask, blockers = _blockers(ideal, degree)
    return _dims(ideal.n, wmask, blockers, field)


def _dims(n: int, wmask: int, blockers: list[int], field: FieldSpec) -> dict[int, int]:
    """lc_dims at the degree with non-negative positions wmask and these
    blockers, one per minimal generator of an ideal in n variables.

    The minimal blockers come from one pass over the blockers in
    ascending order.  A proper subset is a smaller int, so it comes
    first, and a dropped one contains a kept one; so a blocker is minimal
    iff it contains none of those kept before it.  A repeat contains its
    earlier copy and drops out the same way.  `minimal` stays ascending."""
    if not all(blockers):
        return {}  # the void complex
    minimal: list[int] = []
    once = twice = 0  # the vertices in at least one, and in at least two
    for b in sorted(blockers):
        for c in minimal:
            if c & b == c:
                break
        else:
            minimal.append(b)
            twice |= once & b
            once |= b
    if once != wmask:
        return {}  # a cone over a vertex in no minimal blocker
    for b in minimal:
        if not b & ~twice:
            break
    else:  # a sphere: H~^{|V|-1-g}, shifted by n - |V| + 1
        return {n - len(minimal): 1}
    size = wmask.bit_count()
    shift = n - size + 1
    if len(minimal) >= size:
        cx = _complex(n, wmask, minimal)
        return {j + shift: d for j, d in reduced_cohomology_dims(cx, field).items()}
    union_of = {0: 0}  # nerve face -> union of its blockers
    for k, b in enumerate(minimal):
        for face, union in list(union_of.items()):
            if union | b != wmask:
                union_of[face | 1 << k] = union | b
    nerve = SimplicialComplex._trusted(len(minimal), frozenset(union_of))
    top = size - 3 + shift
    return {top - j: d for j, d in reduced_cohomology_dims(nerve, field).items()}


def lc_dim(ideal: MonomialIdeal, degree: MultiDegree, index: int, field: FieldSpec) -> int:
    """dim_k of the degree-a piece of H^i_m(S/I)."""
    if type(index) is not int:
        raise ValueError(f"cohomological index {index!r} is not an int")
    if index < 0:
        raise ValueError("cohomological index must be non-negative")
    return lc_dims(ideal, degree, field).get(index, 0)


def canonical_box(ideal: MonomialIdeal) -> list[MultiDegree]:
    """All degrees with -1 <= a_i <= rho_i - 1, in lexicographic order.

    Every degree with some a_i outside this window either repeats a
    boxed value (after truncating negatives to -1) or vanishes."""
    _check_ideal(ideal)
    ranges = [range(-1, r) for r in rho(ideal)]
    return [MultiDegree._trusted(t) for t in itertools.product(*ranges)]


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
        """The bytes of json.dumps(self.to_json_dict(), indent=2) + "\\n",
        written directly: with indent set, json runs its pure-Python
        encoder.  Each string still goes through json.dumps."""
        entries = [
            f'{{\n      "degree": {_json_list(map(str, deg.entries), 6)},\n'
            f'      "i": {i},\n      "dim": {d}\n    }}'
            for deg, i, d in self.entries
        ]
        return (f'{{\n  "vars": {_json_list(map(json.dumps, self.ideal.var_names), 2)},\n'
                f'  "field": {json.dumps(str(self.field))},\n'
                f'  "entries": {_json_list(entries, 2)}\n}}\n')

    def to_tsv(self) -> str:
        lines = ["degree\ti\tdim"]
        for deg, i, d in self.entries:
            lines.append(f"{','.join(map(str, deg.entries))}\t{i}\t{d}")
        return "\n".join(lines) + "\n"


def _json_list(items: Iterable[str], indent: int) -> str:
    """A JSON array of already encoded items, laid out as
    json.dumps(..., indent=2) lays out one whose "]" is indent spaces in."""
    inner = ",\n" + " " * (indent + 2)
    body = inner.join(items)
    return f"[{inner[1:]}{body}\n{' ' * indent}]" if body else "[]"


def _check(dims: dict[int, int], n: int, degree: tuple) -> None:
    """Raise unless every index of dims lies in 0..n; degree names the
    degree or the cell for the error."""
    for i in dims:
        if not 0 <= i <= n:
            raise AssertionError(f"cohomology index {i} outside 0..{n} at degree {degree}")


def box_table(ideal: MonomialIdeal, field: FieldSpec, dims_of: Callable) -> LCTable:
    """Sweep the canonical box with dims_of(ideal, degree, field), a map
    index -> dimension of the nonzero pieces, and record every one."""
    _check_ideal(ideal)
    if ideal.is_unit:
        raise ValueError("the unit ideal has a zero quotient")
    entries = []
    for degree in canonical_box(ideal):
        if dims := dims_of(ideal, degree, field):
            _check(dims, ideal.n, degree.entries)
            entries.extend((degree, i, d) for i, d in dims.items())
    return LCTable(ideal, field, tuple(entries))


def _cells(
    ideal: MonomialIdeal, field: FieldSpec, _orbits: bool = False
) -> Iterator[tuple[tuple[range, ...], dict[int, int]]]:
    """The cells of the canonical box with nonzero cohomology, depth
    first: per cell a range of values for each coordinate, and the map
    index -> dimension that holds at every degree of the cell.

    The complex at a depends on a_j only through whether a_j is -1 and
    which generator exponents it is below, so the values of a coordinate
    split into -1 and the runs of a_j >= 0 below the same exponents.
    Fixing a coordinate adds its bit to V and to the blockers of the
    generators it is below.  Once a generator has no blocker and no
    later coordinate has a positive exponent in it, every degree below
    is void, and that subtree is skipped.

    With _orbits, only one cell per orbit of the twin swaps is kept.
    Coordinates are twins when their exponent columns over the minimal
    generators are equal; swapping two maps I onto itself, and so the
    complex at a onto the complex at the swapped degree, relabeled.  Twins
    have equal rho and runs, so a swap permutes the cells and keeps each
    one's dims.  The kept cell of an orbit is the one whose runs do not
    decrease along each set of twins: a coordinate takes no run starting
    below the run of its previous twin, the last earlier coordinate with
    an equal column.  `lc_table` lists every degree, so it keeps every
    cell.
    """
    _check_ideal(ideal)
    _check_field(field)
    if ideal.is_unit:
        raise ValueError("the unit ideal has a zero quotient")
    n, gens = ideal.n, [m.exponents for m in ideal.gens]
    # per coordinate, the generators with no positive exponent after it
    closing: list[list[int]] = [[] for _ in range(n)]
    for k, e in enumerate(gens):
        closing[max(j for j in range(n) if e[j])].append(k)
    levels = []  # per coordinate: (values, bit of V, bit added to each blocker or None)
    for j, r in enumerate(rho(ideal)):
        cuts = sorted({0, r} | {e[j] for e in gens if e[j] < r})
        level = [(range(-1, 0), 0, None)]
        for lo, hi in zip(cuts, cuts[1:]):
            level.append((range(lo, hi), 1 << j, [1 << j if lo < e[j] else 0 for e in gens]))
        levels.append(level[::-1])  # the stack pops them in increasing order
    twin: list[int | None] = [None] * n  # per coordinate, its previous twin
    if _orbits:
        last: dict[tuple[int, ...], int] = {}
        for j, column in enumerate(zip(*gens) if gens else [()] * n):
            twin[j] = last.get(column)
            last[column] = j
    stack = [(0, 0, [0] * len(gens), ())]
    while stack:
        j, wmask, blockers, runs = stack.pop()
        if j == n:
            if dims := _dims(n, wmask, blockers, field):
                _check(dims, n, runs)
                yield runs, dims
            continue
        low = -1 if (t := twin[j]) is None else runs[t].start
        for values, bit, adds in levels[j]:
            if values.start < low:
                break  # this run and the rest start below the twin's
            grown = [b | add for b, add in zip(blockers, adds)] if bit else blockers
            if all(map(grown.__getitem__, closing[j])):
                stack.append((j + 1, wmask | bit, grown, runs + (values,)))


def lc_table(ideal: MonomialIdeal, field: FieldSpec) -> LCTable:
    """Sweep the canonical box by cells and record every nonzero graded piece."""
    entries = []
    for runs, dims in _cells(ideal, field):
        for point in itertools.product(*runs):
            degree = MultiDegree._trusted(point)
            entries.extend((degree, i, d) for i, d in dims.items())
    return LCTable(ideal, field, tuple(entries))


def depth_and_dim(
    ideal: MonomialIdeal, field: FieldSpec, table: LCTable | None = None
) -> DepthDim:
    """Depth and Krull dimension of S/I: the least and greatest index i
    with H^i_m(S/I) nonzero somewhere on the canonical box, read off its
    cells.  The unit ideal raises ValueError.  table is accepted, for
    the benchmark's golden gate, and not read.

    Only one cell per orbit of the twin swaps is visited (see `_cells`):
    a swap keeps each cell's dims, so the set of indices is the same."""
    indices = {i for _, dims in _cells(ideal, field, _orbits=True) for i in dims}
    if not indices:
        raise AssertionError("a nonzero quotient must have nonzero local cohomology")
    return DepthDim(depth=min(indices), dim=max(indices))
