"""Simplicial complexes on vertices 1..n and their reduced cohomology.

A face is stored as an int bitmask with vertex v at bit v - 1, so the
face {1, 3} is 0b101 and the empty face is 0.  The `faces` property
decodes the masks back to vertex sets for callers that want them.

The empty family (no faces at all, the void complex) and the complex
whose only face is the empty set are distinct objects: the void complex
has no cohomology in any index, while {emptyset} has reduced H^{-1} = k.
"""

from __future__ import annotations

from typing import Iterable

from .linalg import FieldSpec, SparseMatrix, rank


def _mask_of(face: Iterable[int], n_vertices: int) -> int:
    mask = 0
    for v in face:
        if not 1 <= v <= n_vertices:
            raise ValueError(f"vertex {v} outside 1..{n_vertices}")
        mask |= 1 << (v - 1)
    return mask


def _vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class SimplicialComplex:
    """Immutable complex: a downward-closed family of subsets of 1..n."""

    __slots__ = ("n_vertices", "masks")

    def __new__(cls, n_vertices: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        if n_vertices < 0:
            raise ValueError("negative vertex count")
        masks = frozenset(_mask_of(f, n_vertices) for f in faces)
        # closed under removing one vertex, hence holding the empty face
        bits = [1 << i for i in range(n_vertices)]
        if any(m & b and m ^ b not in masks for m in masks for b in bits):
            raise ValueError("family is not downward closed")
        return cls._from_masks(n_vertices, masks)

    @classmethod
    def _from_masks(cls, n_vertices: int, masks: frozenset[int]) -> "SimplicialComplex":
        """Trusted constructor: masks is a downward-closed family within bits 0..n-1."""
        cx = object.__new__(cls)
        object.__setattr__(cx, "n_vertices", n_vertices)
        object.__setattr__(cx, "masks", masks)
        return cx

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SimplicialComplex is immutable")

    def __reduce__(self) -> tuple:
        return (SimplicialComplex._from_masks, (self.n_vertices, self.masks))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.n_vertices == other.n_vertices and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.masks))

    def __repr__(self) -> str:
        if self.is_void:
            return f"SimplicialComplex(n={self.n_vertices}, void)"
        return f"SimplicialComplex(n={self.n_vertices}, faces={len(self.masks)})"

    @classmethod
    def void(cls, n_vertices: int) -> "SimplicialComplex":
        return cls._from_masks(n_vertices, frozenset())

    @classmethod
    def irrelevant(cls, n_vertices: int) -> "SimplicialComplex":
        return cls._from_masks(n_vertices, frozenset((0,)))

    @classmethod
    def from_facets(
        cls, n_vertices: int, facets: Iterable[Iterable[int]]
    ) -> "SimplicialComplex":
        faces = {0}
        for facet in facets:
            top = _mask_of(facet, n_vertices)
            if top in faces:
                continue
            sub = top
            while sub:
                faces.add(sub)
                sub = (sub - 1) & top
        return cls._from_masks(n_vertices, frozenset(faces))

    @property
    def faces(self) -> frozenset[frozenset[int]]:
        """The faces as vertex sets, decoded from the masks."""
        return frozenset(frozenset(_vertices_of(m)) for m in self.masks)

    @property
    def is_void(self) -> bool:
        return not self.masks

    @property
    def is_irrelevant(self) -> bool:
        return len(self.masks) == 1

    def has_face(self, face: Iterable[int]) -> bool:
        try:
            return _mask_of(face, self.n_vertices) in self.masks
        except ValueError:
            return False

    def dimension(self) -> int:
        """Max face cardinality minus one; the void complex has none."""
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(m.bit_count() for m in self.masks) - 1

    def facets(self) -> list[tuple[int, ...]]:
        """Maximal faces, each sorted, ordered by (size, lex)."""
        bits = [1 << i for i in range(self.n_vertices)]
        maximal = [m for m in self.masks if all(m & b or m | b not in self.masks for b in bits)]
        return sorted(map(_vertices_of, maximal), key=lambda t: (len(t), t))


def is_cone(cx: SimplicialComplex, apex: int) -> bool:
    """Whether every face stays a face after adjoining the apex."""
    if cx.is_void:
        raise ValueError("the void complex is not a cone over anything")
    if not 1 <= apex <= cx.n_vertices:
        raise ValueError(f"vertex {apex} outside 1..{cx.n_vertices}")
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
    # faces of dimension d, each level in increasing mask order
    levels: dict[int, list[int]] = {}
    for m in sorted(cx.masks):
        levels.setdefault(m.bit_count() - 1, []).append(m)
    bits = [1 << i for i in range(cx.n_vertices)]
    ranks: dict[int, int] = {}
    for d in sorted(levels):
        above = {m: r for r, m in enumerate(levels.get(d + 1, ()))}
        if not above:
            continue
        entries: dict[tuple[int, int], int] = {}
        for j, mask in enumerate(levels[d]):
            for b in bits:
                # mask | b is in the level above only when b is not in mask
                row = above.get(mask | b)
                if row is not None:
                    entries[(row, j)] = -1 if (mask & (b - 1)).bit_count() % 2 else 1
        ranks[d] = rank(SparseMatrix(len(above), len(levels[d]), entries), field)
    dims: dict[int, int] = {}
    for d, masks in levels.items():
        h = len(masks) - ranks.get(d, 0) - ranks.get(d - 1, 0)
        if h:
            dims[d] = h
    return dims
