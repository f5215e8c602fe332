"""Simplicial complexes on vertices 1..n and their reduced cohomology.

A face is stored as an int bitmask with vertex v at bit v - 1, so the
face {1, 3} is 0b101 and the empty face is 0.  The `faces` property
decodes the masks back to vertex sets for callers that want them.

The empty family (no faces at all, the void complex) and the complex
whose only face is the empty set are distinct objects: the void complex
has no cohomology in any index, while {emptyset} has reduced H^{-1} = k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .linalg import FieldSpec, _check_field, _coboundaries, _cohomology, rank


def _mask_of(face: Iterable[int], n_vertices: int) -> int:
    mask = 0
    for v in face:
        if type(v) is not int or not 1 <= v <= n_vertices:
            raise ValueError(f"vertex {v!r} is not an int in 1..{n_vertices}")
        mask |= 1 << (v - 1)
    return mask


def _check_vertex_count(n_vertices: int) -> None:
    if type(n_vertices) is not int:
        raise ValueError(f"vertex count {n_vertices!r} is not an int")
    if n_vertices < 0:
        raise ValueError("negative vertex count")


def _vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True, slots=True, repr=False)
class SimplicialComplex:
    """Immutable complex: a downward-closed family of subsets of 1..n."""

    n_vertices: int
    masks: frozenset[int]

    def __init__(self, n_vertices: int, faces: Iterable[Iterable[int]]) -> None:
        _check_vertex_count(n_vertices)
        masks = frozenset(_mask_of(f, n_vertices) for f in faces)
        # closed under removing one vertex, hence holding the empty face
        bits = [1 << i for i in range(n_vertices)]
        if any(m & b and m ^ b not in masks for m in masks for b in bits):
            raise ValueError("family is not downward closed")
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def _trusted(cls, n_vertices: int, masks: frozenset[int]) -> "SimplicialComplex":
        """Unchecked: masks is a downward-closed family within bits 0..n-1."""
        cx = object.__new__(cls)
        object.__setattr__(cx, "n_vertices", n_vertices)
        object.__setattr__(cx, "masks", masks)
        return cx

    def __repr__(self) -> str:
        if self.is_void:
            return f"SimplicialComplex(n={self.n_vertices}, void)"
        return f"SimplicialComplex(n={self.n_vertices}, faces={len(self.masks)})"

    @classmethod
    def void(cls, n_vertices: int) -> "SimplicialComplex":
        return cls(n_vertices, ())

    @classmethod
    def irrelevant(cls, n_vertices: int) -> "SimplicialComplex":
        return cls(n_vertices, [()])

    @classmethod
    def from_facets(
        cls, n_vertices: int, facets: Iterable[Iterable[int]]
    ) -> "SimplicialComplex":
        _check_vertex_count(n_vertices)
        faces = {0}
        for facet in facets:
            top = _mask_of(facet, n_vertices)
            if top in faces:
                continue
            sub = top
            while sub:
                faces.add(sub)
                sub = (sub - 1) & top
        return SimplicialComplex._trusted(n_vertices, frozenset(faces))

    @property
    def faces(self) -> frozenset[frozenset[int]]:
        """The faces as vertex sets, decoded from the masks."""
        return frozenset(frozenset(_vertices_of(m)) for m in self.masks)

    @property
    def is_void(self) -> bool:
        return not self.masks

    def facets(self) -> list[tuple[int, ...]]:
        """Maximal faces, each sorted, ordered by (size, lex)."""
        bits = [1 << i for i in range(self.n_vertices)]
        maximal = [m for m in self.masks if all(m & b or m | b not in self.masks for b in bits)]
        return sorted(map(_vertices_of, maximal), key=lambda t: (len(t), t))


def format_complex(cx: SimplicialComplex, names: Sequence[str]) -> str:
    """Sorted facet list with original variable names; the complex with
    no faces prints as "void" and the empty-face-only one as "{∅}"."""
    if cx.is_void:
        return "void"
    rendered = []
    for facet in cx.facets():
        rendered.append(" ".join(names[v - 1] for v in facet) if facet else "∅")
    return "{" + ", ".join(rendered) + "}"


def is_cone(cx: SimplicialComplex, apex: int) -> bool:
    """Whether every face stays a face after adjoining the apex."""
    if not isinstance(cx, SimplicialComplex):
        raise ValueError(f"complex {cx!r} is not a SimplicialComplex")
    if cx.is_void:
        raise ValueError("the void complex is not a cone over anything")
    if type(apex) is not int or not 1 <= apex <= cx.n_vertices:
        raise ValueError(f"vertex {apex!r} is not an int in 1..{cx.n_vertices}")
    bit = 1 << (apex - 1)
    return all((m | bit) in cx.masks for m in cx.masks)


def euler_characteristic_reduced(cx: SimplicialComplex) -> int:
    """Alternating face count including the empty face with sign -1."""
    return sum(1 if m.bit_count() % 2 else -1 for m in cx.masks)


def reduced_cohomology_dims(cx: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """Dimensions of the nonzero reduced cohomology groups.

    Returns a map index -> dimension containing only nonzero entries;
    the void complex gives {} and {emptyset} gives {-1: 1}.
    """
    if not isinstance(cx, SimplicialComplex):
        raise ValueError(f"complex {cx!r} is not a SimplicialComplex")
    _check_field(field)  # rank checks it too, but a complex may have nothing to rank
    # faces by size up to the largest, each level in increasing mask order;
    # faces are downward closed, so none of these levels is empty
    top = max(map(int.bit_count, cx.masks), default=-1)
    levels: list[list[int]] = [[] for _ in range(top + 1)]
    for m in sorted(cx.masks):
        levels[m.bit_count()].append(m)
    ranks = [rank(d, field) for d in _coboundaries(levels, (1 << cx.n_vertices) - 1)]
    return {p - 1: h for p, h in enumerate(_cohomology(levels, ranks)) if h}
