"""Randomized invariants over generated ideals, matrices and complexes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from monolc import (
    FieldSpec,
    Monomial,
    MonomialIdeal,
    MultiDegree,
    SimplicialComplex,
    SparseMatrix,
    cech_dims,
    degree_map,
    depolarize_check,
    euler_characteristic_reduced,
    format_ideal,
    is_cone,
    lc_dims,
    minimalize,
    parse_ideal,
    polarize_ideal,
    rank,
    reduced_cohomology_dims,
    rho,
    takayama_complex,
    verify_main_theorem,
)
from conftest import transposed

Q = FieldSpec.rationals()
F2 = FieldSpec.gf(2)

quiet = settings(max_examples=50, deadline=None)


@st.composite
def monomial_lists(draw, max_n=3, max_exp=3, max_count=5):
    n = draw(st.integers(1, max_n))
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return n, [Monomial(e) for e in draw(st.lists(exps, max_size=max_count))]


@st.composite
def ideals(draw, max_n=3, max_exp=3, max_gens=4):
    n = draw(st.integers(1, max_n))
    exps = st.tuples(*[st.integers(0, max_exp)] * n).filter(any)
    gens = draw(st.lists(exps, max_size=max_gens))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    return MonomialIdeal(names, tuple(Monomial(e) for e in gens))


@st.composite
def ideal_and_boxed_degree(draw):
    ideal = draw(ideals())
    bounds = rho(ideal)
    entries = tuple(draw(st.integers(-1, r - 1)) for r in bounds)
    return ideal, MultiDegree(entries)


@st.composite
def int_matrices(draw, max_dim=5, bound=4):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    data = [
        [draw(st.integers(-bound, bound)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return SparseMatrix.from_dense(data)


@st.composite
def complexes(draw, max_vertices=5):
    n = draw(st.integers(1, max_vertices))
    facets = draw(
        st.lists(st.frozensets(st.integers(1, n), max_size=n), max_size=5)
    )
    return SimplicialComplex.from_facets(n, facets)


class TestIdealInvariants:
    @quiet
    @given(monomial_lists())
    def test_minimalize_idempotent_and_covers(self, data):
        _, monomials = data
        reduced = minimalize(monomials)
        assert minimalize(reduced) == reduced
        for m in monomials:
            assert any(g.divides(m) for g in reduced)
        for g in reduced:
            assert sum(1 for h in reduced if h.divides(g)) == 1

    @quiet
    @given(ideals())
    def test_parse_format_round_trip(self, ideal):
        assert parse_ideal(format_ideal(ideal)) == ideal


class TestRankInvariants:
    @quiet
    @given(int_matrices())
    def test_transpose_and_bounds(self, matrix):
        r = rank(matrix, Q)
        assert r == rank(transposed(matrix), Q)
        assert rank(matrix, F2) == rank(transposed(matrix), F2)
        assert 0 <= r <= min(matrix.rows, matrix.cols)

    @quiet
    @given(int_matrices())
    def test_modular_rank_never_exceeds_rational(self, matrix):
        r = rank(matrix, Q)
        for p in (2, 3, 32003):
            assert rank(matrix, FieldSpec.gf(p)) <= r


class TestTakayamaInvariants:
    @quiet
    @given(ideal_and_boxed_degree(), st.lists(st.integers(2, 6), max_size=3))
    def test_truncation_invariance(self, pair, depths):
        """Pushing negative coordinates further below -1 never changes
        the complex."""
        ideal, degree = pair
        entries = list(degree.entries)
        it = iter(depths)
        for k, e in enumerate(entries):
            if e < 0:
                entries[k] = -next(it, 2)
        deeper = MultiDegree(tuple(entries))
        assert takayama_complex(ideal, deeper) == takayama_complex(ideal, degree)

    @quiet
    @given(ideal_and_boxed_degree(), st.integers(1, 3), st.integers(0, 3))
    def test_cone_vanishing_above_box(self, pair, pos, excess):
        ideal, degree = pair
        k = (pos - 1) % ideal.n
        bounds = rho(ideal)
        entries = list(degree.entries)
        entries[k] = bounds[k] + excess
        shifted = MultiDegree(tuple(entries))
        assert lc_dims(ideal, shifted, Q) == {}
        cx = takayama_complex(ideal, shifted)
        assert cx.is_void or is_cone(cx, k + 1)


class TestSimplicialInvariants:
    @quiet
    @given(complexes())
    def test_euler_matches_cohomology(self, cx):
        for fld in (Q, F2):
            dims = reduced_cohomology_dims(cx, fld)
            total = sum((-1 if i % 2 else 1) * d for i, d in dims.items())
            assert total == euler_characteristic_reduced(cx)

    @quiet
    @given(complexes(), st.integers(1, 5))
    def test_cones_are_acyclic(self, cx, apex):
        v = (apex - 1) % cx.n_vertices + 1
        coned = SimplicialComplex.from_facets(
            cx.n_vertices, [set(f) | {v} for f in cx.facets()]
        )
        assert is_cone(coned, v)
        assert reduced_cohomology_dims(coned, Q) == {}
        assert reduced_cohomology_dims(coned, F2) == {}


class TestPolarizationInvariants:
    @quiet
    @given(ideals())
    def test_polarization_square_free_and_reversible(self, ideal):
        polarized = polarize_ideal(ideal)
        for g in polarized.ideal.gens:
            assert all(e <= 1 for e in g.exponents)
        assert depolarize_check(polarized, ideal)

    @quiet
    @given(ideal_and_boxed_degree())
    def test_degree_map_block_counts(self, pair):
        ideal, degree = pair
        bounds = rho(ideal)
        alpha = degree_map(degree, bounds)
        assert len(alpha.entries) == sum(bounds)
        assert all(e in (0, -1) for e in alpha.entries)
        offset = 0
        for a, r in zip(degree.entries, bounds):
            block = alpha.entries[offset : offset + r]
            assert block.count(0) == (a + 1 if a >= 0 else 0)
            offset += r

    @quiet
    @given(ideals())
    def test_top_degree_maps_to_zero(self, ideal):
        bounds = rho(ideal)
        top = MultiDegree(tuple(r - 1 for r in bounds))
        assert all(e == 0 for e in degree_map(top, bounds).entries)


class TestRouteAgreement:
    @settings(max_examples=40, deadline=None)
    @given(ideal_and_boxed_degree())
    def test_oracle_equals_primary(self, pair):
        ideal, degree = pair
        for fld in (Q, F2):
            assert cech_dims(ideal, degree, fld) == lc_dims(ideal, degree, fld)

    @settings(max_examples=25, deadline=None)
    @given(ideals())
    def test_main_theorem_holds(self, ideal):
        assert verify_main_theorem(ideal, F2).passed
