import copy
import pickle
import random

import pytest

import monolc.simplicial
from monolc import (
    FieldSpec,
    SimplicialComplex,
    SparseMatrix,
    euler_characteristic_reduced,
    is_cone,
    reduced_cohomology_dims,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.gf(2)

RP2_FACETS = [
    (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
]


def hollow_triangle():
    return SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])


class TestConstruction:
    def test_void_vs_irrelevant(self):
        void = SimplicialComplex.void(3)
        irr = SimplicialComplex.irrelevant(3)
        assert void.is_void and not irr.is_void
        assert irr.faces == frozenset({frozenset()})
        assert void != irr

    def test_downward_closure_validation(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, [frozenset({1, 2})])
        with pytest.raises(ValueError):
            SimplicialComplex(2, [frozenset({1})])  # missing empty face

    def test_vertex_range_validation(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, [frozenset(), frozenset({3})])
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets(2, [(0,)])

    @pytest.mark.parametrize("v", [1.0, True, "1"], ids=["float", "bool", "str"])
    def test_rejects_a_vertex_that_is_not_an_int(self, v):
        """1.0 would otherwise fail in a shift with TypeError, True pass as vertex 1."""
        message = f"^vertex {v!r} is not an int in 1..2$"
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(2, [(), (v,)])
        with pytest.raises(ValueError, match=message):
            SimplicialComplex.from_facets(2, [(v, 2)])
        with pytest.raises(ValueError, match=message):
            is_cone(SimplicialComplex.from_facets(2, [(1, 2)]), v)

    @pytest.mark.parametrize("n, faces, message", [
        (-1, [], "^negative vertex count$"),
        (2.5, [], "^vertex count 2.5 is not an int$"),
        ("3", [], "^vertex count '3' is not an int$"),
        (True, [[1]], "^vertex count True is not an int$"),
    ], ids=["negative", "float", "str", "bool"])
    def test_negative_vertex_count(self, n, faces, message):
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(n, faces)
        # the classmethods make the constructor's check before any face
        for build in (SimplicialComplex.void, SimplicialComplex.irrelevant,
                      lambda n: SimplicialComplex.from_facets(n, [[1]])):
            with pytest.raises(ValueError, match=message):
                build(n)

    def test_from_facets_closure(self):
        cx = SimplicialComplex.from_facets(3, [(1, 2, 3)])
        assert len(cx.faces) == 8
        assert 0b101 in cx.masks
        assert 0 in cx.masks

    def test_facets_canonical(self):
        cx = SimplicialComplex.from_facets(4, [(3, 1), (2,), (1, 3)])
        assert cx.facets() == [(2,), (1, 3)]
        assert SimplicialComplex.irrelevant(2).facets() == [()]

    def test_immutable(self):
        cx = hollow_triangle()
        with pytest.raises(AttributeError):
            cx.n_vertices = 5

    def test_value_contract(self):
        for cx in (SimplicialComplex.void(3), SimplicialComplex.irrelevant(3), hollow_triangle()):
            assert hash(cx) == hash((cx.n_vertices, cx.masks))
            assert (cx == "x") is False
        assert repr(SimplicialComplex.void(3)) == "SimplicialComplex(n=3, void)"
        assert repr(hollow_triangle()) == "SimplicialComplex(n=3, faces=7)"
        with pytest.raises(AttributeError):
            hollow_triangle().masks = frozenset()

    @pytest.mark.parametrize(
        "cx",
        [SimplicialComplex.void(3), SimplicialComplex.irrelevant(2), hollow_triangle()],
        ids=["void", "irrelevant", "from_facets"],
    )
    def test_copy_and_pickle_round_trip(self, cx):
        for twin in (copy.copy(cx), copy.deepcopy(cx), pickle.loads(pickle.dumps(cx))):
            assert twin == cx
            assert twin.n_vertices == cx.n_vertices
            for field in (Q, F2):
                assert reduced_cohomology_dims(twin, field) == reduced_cohomology_dims(cx, field)


class TestCohomology:
    def test_irrelevant(self):
        assert reduced_cohomology_dims(SimplicialComplex.irrelevant(2), Q) == {-1: 1}

    def test_void(self):
        assert reduced_cohomology_dims(SimplicialComplex.void(2), Q) == {}

    def test_hollow_triangle(self):
        assert reduced_cohomology_dims(hollow_triangle(), Q) == {1: 1}
        assert reduced_cohomology_dims(hollow_triangle(), F2) == {1: 1}

    def test_two_isolated_vertices(self):
        cx = SimplicialComplex.from_facets(2, [(1,), (2,)])
        assert reduced_cohomology_dims(cx, Q) == {0: 1}

    def test_full_simplex_acyclic(self):
        cx = SimplicialComplex.from_facets(4, [(1, 2, 3, 4)])
        assert reduced_cohomology_dims(cx, Q) == {}
        assert reduced_cohomology_dims(cx, F2) == {}

    def test_sphere(self):
        cx = SimplicialComplex.from_facets(4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        assert reduced_cohomology_dims(cx, Q) == {2: 1}

    def test_rp2_field_dependence(self):
        cx = SimplicialComplex.from_facets(6, RP2_FACETS)
        assert len(cx.faces) == 1 + 6 + 15 + 10
        assert reduced_cohomology_dims(cx, Q) == {}
        assert reduced_cohomology_dims(cx, F2) == {1: 1, 2: 1}

    def test_facet_order_irrelevant(self):
        rng = random.Random(3)
        shuffled = list(RP2_FACETS)
        rng.shuffle(shuffled)
        a = SimplicialComplex.from_facets(6, RP2_FACETS)
        b = SimplicialComplex.from_facets(6, shuffled)
        assert a == b
        assert reduced_cohomology_dims(a, F2) == reduced_cohomology_dims(b, F2)

    def test_ambient_vertices_do_not_matter(self):
        small = SimplicialComplex.from_facets(2, [(1, 2)])
        padded = SimplicialComplex.from_facets(9, [(1, 2)])
        assert reduced_cohomology_dims(small, Q) == reduced_cohomology_dims(padded, Q)

    @pytest.mark.parametrize("cx, calls, dims", [
        (SimplicialComplex.void(3), 0, {}),
        (SimplicialComplex.irrelevant(3), 0, {-1: 1}),
        (hollow_triangle(), 2, {1: 1}),
        (SimplicialComplex.from_facets(3, [(1, 2, 3)]), 3, {}),
        (SimplicialComplex.from_facets(6, [(v,) for v in range(1, 7)]), 1, {0: 5}),
        (SimplicialComplex.from_facets(6, RP2_FACETS), 3, {}),
    ], ids=["void", "empty_face", "hollow_triangle", "simplex", "isolated_vertices", "rp2"])
    def test_ranks_only_maps_between_nonempty_levels(self, cx, calls, dims, monkeypatch):
        """One rank per map between consecutive levels up to the largest
        face, the levels above it empty even where it is smaller than
        the vertex count; every map ranked is nonempty."""
        ranked = []
        rank = monolc.simplicial.rank
        monkeypatch.setattr(monolc.simplicial, "rank",
                            lambda m, field: ranked.append(m) or rank(m, field))
        assert reduced_cohomology_dims(cx, Q) == dims
        assert len(ranked) == calls
        assert all(m.rows and m.cols and all(m.by_row) for m in ranked)

    def test_ranks_coboundaries_in_row_form(self, monkeypatch):
        """Each ranked matrix is the coboundary from faces of dimension d
        (columns, increasing masks) to d + 1 (rows), entry (-1)^#{u in F :
        u < v} from F to F + {v}, with its rows already in column order."""
        ranked = []
        rank = monolc.simplicial.rank
        monkeypatch.setattr(monolc.simplicial, "rank",
                            lambda m, field: ranked.append(m) or rank(m, field))
        cx = SimplicialComplex.from_facets(6, RP2_FACETS)
        assert reduced_cohomology_dims(cx, F2) == {1: 1, 2: 1}
        levels = [sorted(m for m in cx.masks if m.bit_count() == k) for k in range(4)]
        assert len(ranked) == 3
        for lower, upper, m in zip(levels, levels[1:], ranked):
            expected = {}
            for c, F in enumerate(lower):
                for v in range(6):
                    G = F | 1 << v
                    if G != F and G in upper:
                        expected[(upper.index(G), c)] = (-1) ** (F & (1 << v) - 1).bit_count()
            assert m == SparseMatrix(len(upper), len(lower), expected)


class TestCone:
    def test_full_simplex_is_cone(self):
        cx = SimplicialComplex.from_facets(2, [(1, 2)])
        assert is_cone(cx, 1) and is_cone(cx, 2)

    def test_hollow_triangle_not_cone(self):
        assert not is_cone(hollow_triangle(), 1)

    def test_single_vertex(self):
        cx = SimplicialComplex.from_facets(2, [(2,)])
        assert is_cone(cx, 2)
        assert not is_cone(cx, 1)

    def test_void_raises(self):
        with pytest.raises(ValueError):
            is_cone(SimplicialComplex.void(2), 1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            is_cone(hollow_triangle(), 4)

    def test_cone_implies_acyclic(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 5)
            facets = [
                tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
                for _ in range(rng.randint(1, 4))
            ]
            facets = [f for f in facets if f]
            if not facets:
                continue
            apex = rng.randint(1, n)
            coned = SimplicialComplex.from_facets(
                n, [tuple(set(f) | {apex}) for f in facets]
            )
            assert is_cone(coned, apex)
            for fld in (Q, F2):
                assert reduced_cohomology_dims(coned, fld) == {}


class TestEuler:
    def test_examples(self):
        assert euler_characteristic_reduced(SimplicialComplex.irrelevant(1)) == -1
        assert euler_characteristic_reduced(hollow_triangle()) == -1
        assert euler_characteristic_reduced(SimplicialComplex.void(3)) == 0

    def test_matches_alternating_cohomology_sum(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            facets = [
                tuple(v for v in range(1, n + 1) if rng.random() < 0.45)
                for _ in range(rng.randint(0, 4))
            ]
            facets = [f for f in facets if f]
            cx = (
                SimplicialComplex.from_facets(n, facets)
                if facets
                else SimplicialComplex.void(n)
            )
            chi = euler_characteristic_reduced(cx)
            for fld in (Q, F2):
                dims = reduced_cohomology_dims(cx, fld)
                total = sum((-1 if i % 2 else 1) * d for i, d in dims.items())
                assert total == chi
