import copy
import pickle

import pytest

from monolc import (
    Monomial,
    MonomialIdeal,
    MultiDegree,
    canonical_box,
    degree_map,
    depolarize_check,
    format_ideal,
    parse_ideal,
    partial_polarize,
    polarize_ideal,
    restrict,
    rho,
)
from conftest import corpus, golden_ideal, many_generators


def m(*exps):
    return Monomial(tuple(exps))


def deg(*entries):
    return MultiDegree(tuple(entries))


class TestPolarizeIdeal:
    def test_examples(self):
        """Single generators, so the block widths are their own exponents."""
        assert polarize_ideal(parse_ideal("vars x y\ngens x^2*y")).ideal.gens == (m(1, 1, 1),)
        assert polarize_ideal(parse_ideal("vars x y\ngens 1")).ideal.gens == (m(0, 0),)
        assert polarize_ideal(parse_ideal("vars x\ngens x^3")).ideal.gens == (m(1, 1, 1),)

    def test_partial_blocks(self):
        """x^2 and y^3 widen the blocks to (2, 3) around x*y^2."""
        p = polarize_ideal(parse_ideal("vars x y\ngens x^2, x*y^2, y^3"))
        assert p.rho == (2, 3)
        assert m(1, 0, 1, 1, 0) in p.ideal.gens

    def test_golden(self):
        p = polarize_ideal(golden_ideal())
        assert p.ideal.var_names == ("x_1_1", "x_1_2", "x_2_1")
        assert p.ideal.gens == (m(1, 1, 0), m(1, 0, 1))
        assert p.rho == (2, 1)
        assert p.origin_n == 2
        assert p.rho_total == 3

    def test_square_free_fixed_point(self):
        ideal = parse_ideal("vars x y z\ngens x*y, y*z")
        p = polarize_ideal(ideal)
        assert p.rho == (1, 1, 1)
        assert [g.exponents for g in p.ideal.gens] == [
            g.exponents for g in ideal.gens
        ]

    def test_zero_ideal(self):
        p = polarize_ideal(parse_ideal("vars x y\ngens"))
        assert p.ideal.gens == ()
        assert p.ideal.n == 2

    def test_unit_ideal(self):
        p = polarize_ideal(parse_ideal("vars x\ngens 1"))
        assert p.ideal.is_unit

    def test_always_square_free(self):
        for ideal in corpus(60):
            p = polarize_ideal(ideal)
            for g in p.ideal.gens:
                assert all(e <= 1 for e in g.exponents)

    def test_var_map(self):
        p = polarize_ideal(golden_ideal())
        assert p.var_map == {(1, 1): 0, (1, 2): 1, (2, 1): 2}

    def test_depolarize_monomial(self):
        p = polarize_ideal(golden_ideal())
        assert p.depolarize_monomial(m(1, 1, 0)) == m(2, 0)
        with pytest.raises(ValueError):
            p.depolarize_monomial(m(1, 1))


class TestDegreeMap:
    def test_mixed_sign_blocks(self):
        assert degree_map(deg(1, -2), (3, 2)) == deg(0, 0, -1, -1, -1)

    def test_top_degree_maps_to_zero(self):
        assert degree_map(deg(2, 1), (3, 2)) == deg(0, 0, 0, 0, 0)

    def test_small_example(self):
        assert degree_map(deg(1, 0), (2, 1)) == deg(0, 0, 0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            degree_map(deg(3, 0), (3, 2))
        with pytest.raises(ValueError):
            degree_map(deg(0,), (3, 2))
        with pytest.raises(ValueError, match="rho entries must be positive integers"):
            degree_map(deg(0, 0), "ab")

    def test_block_sum_formula(self):
        for a, r in [((1, -2), (3, 2)), ((0, 0, -1), (2, 1, 4)), ((-1,), (5,))]:
            alpha = degree_map(deg(*a), r)
            expected = sum(
                (ai + 1 - ri) if ai >= 0 else -ri for ai, ri in zip(a, r)
            )
            assert sum(alpha.entries) == expected

    def test_negative_support_layout(self):
        alpha = degree_map(deg(1, -2, 0), (3, 2, 2))
        # block 1: copies 3..3 negative; block 2: all; block 3: copies 2..2
        assert [j for j, e in enumerate(alpha.entries, start=1) if e < 0] == [3, 4, 5, 7]


class TestRestrict:
    def test_examples(self):
        ideal = golden_ideal()
        assert restrict(ideal, {1}) == parse_ideal("vars x\ngens x")
        assert restrict(ideal, {1, 2}) == ideal
        assert restrict(parse_ideal("vars x y\ngens x*y"), {2}) == parse_ideal(
            "vars y\ngens y"
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restrict(golden_ideal(), {0})
        with pytest.raises(ValueError):
            restrict(golden_ideal(), {3})

    def test_keeps_names(self):
        ideal = parse_ideal("vars a b c\ngens a*c^2")
        assert restrict(ideal, {1, 3}).var_names == ("a", "c")

    def test_to_unit(self):
        ideal = parse_ideal("vars x y\ngens y^2")
        assert restrict(ideal, {1}).is_unit

    def test_empty_keep(self):
        restricted = restrict(parse_ideal("vars x y\ngens x*y"), set())
        assert restricted.n == 0
        assert restricted.is_unit
        zero = restrict(parse_ideal("vars x y\ngens"), set())
        assert zero.n == 0 and zero.gens == ()

    def test_drops_a_generator_the_restriction_makes_redundant(self):
        """Dropping z turns x*z into x, which divides x^3 (from x^3*y):
        the result is minimalized, and its rho follows the kept generator."""
        ideal = parse_ideal("vars x y z\ngens x^3*y, x*z")
        for keep, gens, bounds in [({1}, [m(1)], (1,)), ({1, 2}, [m(1, 0)], (1, 1))]:
            out = restrict(ideal, keep)
            assert list(out.gens) == gens and rho(out) == bounds
            assert out == MonomialIdeal(out.var_names, out.gens)


class TestPartialPolarize:
    def test_cube(self):
        out = partial_polarize(parse_ideal("vars x\ngens x^3"), 1, 0)
        assert out.var_names == ("x", "x_1_2", "x_1_3")
        assert out.gens == (m(1, 1, 1),)

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            partial_polarize(golden_ideal(), 2, 0)
        with pytest.raises(ValueError):
            partial_polarize(parse_ideal("vars x\ngens x^3"), 1, 2)
        with pytest.raises(ValueError):
            partial_polarize(parse_ideal("vars x\ngens x^3"), 1, -1)

    def test_mixed_generators(self):
        out = partial_polarize(parse_ideal("vars x y\ngens x^3, x*y"), 1, 1)
        assert out.var_names == ("x", "y", "x_1_3")
        assert set(g.exponents for g in out.gens) == {(2, 0, 1), (1, 1, 0)}

    def test_var_index_range(self):
        with pytest.raises(ValueError):
            partial_polarize(golden_ideal(), 3, 0)

    @pytest.mark.parametrize("var_index, threshold", [(True, 0), (1, 0.5), (1.0, 0), (1, False)],
                             ids=["bool-index", "float-threshold", "float-index", "bool-threshold"])
    def test_rejects_arguments_that_are_not_ints(self, var_index, threshold):
        """A bool index used to name the copies x_True_j, a float a TypeError."""
        with pytest.raises(ValueError, match="must be integers"):
            partial_polarize(parse_ideal("vars x\ngens x^3"), var_index, threshold)

    def test_preserves_generator_count(self):
        for ideal in corpus(60):
            bounds = rho(ideal)
            for j, r in enumerate(bounds, start=1):
                for t in range(r - 1):
                    out = partial_polarize(ideal, j, t)
                    assert len(out.gens) == len(ideal.gens)

    def test_name_collision_raises(self):
        """The copies of x^3 at threshold 0 are x_1_2 and x_1_3."""
        for names in [("x", "x_1_2"), ("x", "x_1_3"), ("x", "y", "x_1_3")]:
            ideal = MonomialIdeal(names, (Monomial((3,) + (0,) * (len(names) - 1)),))
            with pytest.raises(ValueError, match="^duplicate variable names$"):
                partial_polarize(ideal, 1, 0)

    def test_matches_the_validating_constructor(self):
        """partial_polarize skips minimalize and only sorts; the public
        constructor, which minimalizes, must agree on every step."""
        steps = 0
        for ideal in corpus(200) + many_generators(40):
            if ideal.is_unit:
                continue
            for j, r in enumerate(rho(ideal), start=1):
                for t in range(r - 1):
                    out = partial_polarize(ideal, j, t)
                    ref = MonomialIdeal(out.var_names, out.gens)
                    assert out.gens == ref.gens, (format_ideal(ideal), j, t)
                    assert rho(out) == rho(ref)
                    assert out == ref and hash(out) == hash(ref)
                    steps += 1
        assert steps > 100


class TestDepolarizeCheck:
    def test_round_trip(self):
        ideal = golden_ideal()
        assert depolarize_check(polarize_ideal(ideal), ideal)

    def test_detects_mismatch(self):
        p = polarize_ideal(parse_ideal("vars x\ngens x^2"))
        assert not depolarize_check(p, parse_ideal("vars x\ngens x^3"))

    def test_zero_ideal(self):
        zero = parse_ideal("vars x\ngens")
        assert depolarize_check(polarize_ideal(zero), zero)

    def test_wrong_variable_count(self):
        p = polarize_ideal(golden_ideal())
        assert not depolarize_check(p, parse_ideal("vars x\ngens x^2"))

    def test_corpus_round_trip(self):
        for ideal in corpus(60):
            assert depolarize_check(polarize_ideal(ideal), ideal)


class TestCompatibility:
    @staticmethod
    def _support_sets(polarized):
        pairs = [
            (i, c)
            for i, r in enumerate(polarized.rho, start=1)
            for c in range(1, r + 1)
        ]
        return {
            frozenset(pairs[k] for k, e in enumerate(g.exponents) if e)
            for g in polarized.ideal.gens
        }

    def test_partial_then_full_matches_full(self):
        """Polarizing after a partial polarization gives the same
        square-free ideal up to the canonical renaming of copies."""
        checked = 0
        for ideal in corpus(60):
            bounds = rho(ideal)
            for j, r in enumerate(bounds, start=1):
                for t in range(r - 1):
                    capped = partial_polarize(ideal, j, t)
                    p2 = polarize_ideal(capped)
                    pairs2 = [
                        (v, c)
                        for v, width in enumerate(p2.rho, start=1)
                        for c in range(1, width + 1)
                    ]

                    def to_original(pair):
                        v, c = pair
                        if v <= ideal.n:
                            return (v, c)
                        return (j, t + 2 + (v - ideal.n - 1))

                    got = {
                        frozenset(
                            to_original(pairs2[k])
                            for k, e in enumerate(g.exponents)
                            if e
                        )
                        for g in p2.ideal.gens
                    }
                    assert got == self._support_sets(polarize_ideal(ideal))
                    checked += 1
        assert checked > 20


class TestLibraryBuiltValues:
    """Degrees, monomials and ideals that the library builds without the
    public constructors' checks behave like constructor-built ones."""

    @staticmethod
    def built():
        ideal = parse_ideal("vars x y z\ngens x^3*y, y^2*z, x*z^2")
        capped = partial_polarize(ideal, 1, 0)
        return [
            (capped, MonomialIdeal(capped.var_names, capped.gens)),
            (capped.gens[0], Monomial(capped.gens[0].exponents)),
            (restrict(ideal, {1, 3}), parse_ideal("vars x z\ngens x^3, z")),
            (degree_map(deg(1, -1, 0), rho(ideal)), deg(0, 0, -1, -1, -1, 0, -1)),
            (canonical_box(ideal)[-1], deg(2, 1, 1)),
        ]

    def test_equal_to_constructor_built_values_through_copy_and_pickle(self):
        for value, ref in self.built():
            for twin in (value, copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert twin == ref and hash(twin) == hash(ref) and repr(twin) == repr(ref)
                if isinstance(value, MonomialIdeal):
                    assert rho(twin) == rho(ref)
