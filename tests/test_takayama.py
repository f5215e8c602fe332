import itertools
import json
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from monolc import (
    DepthDim,
    FieldSpec,
    LCTable,
    MonomialIdeal,
    MultiDegree,
    SimplicialComplex,
    canonical_box,
    cech_dims,
    cech_strand,
    degree_map,
    depth_and_dim,
    is_cone,
    lc_dim,
    lc_dims,
    lc_table,
    oracle_table,
    parse_ideal,
    polarize_ideal,
    reduced_cohomology_dims,
    rho,
    takayama_complex,
    verify_main_theorem,
    verify_reduction_chain,
    verify_reduction_to_degree_zero,
)
from monolc import takayama
from conftest import corpus, edge_ideal, golden_ideal, many_generators

Q = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
VARS16 = [f"x{i}" for i in range(1, 17)]


def deg(*entries):
    return MultiDegree(tuple(entries))


class TestTakayamaComplex:
    BOX_CAP = 64

    def test_golden_degree_1_0(self):
        cx = takayama_complex(golden_ideal(), deg(1, 0))
        assert cx == SimplicialComplex.irrelevant(2)

    def test_golden_degree_0_0_is_cone(self):
        cx = takayama_complex(golden_ideal(), deg(0, 0))
        assert cx.faces == frozenset({frozenset(), frozenset({2})})
        assert is_cone(cx, 2)

    def test_unit_ideal_void(self):
        unit = parse_ideal("vars x y\ngens 1")
        assert takayama_complex(unit, deg(0, 0)).is_void

    def test_zero_ideal_all_negative(self):
        zero = parse_ideal("vars x y\ngens")
        cx = takayama_complex(zero, deg(-1, -1))
        assert cx == SimplicialComplex.irrelevant(2)

    def test_zero_ideal_mixed(self):
        zero = parse_ideal("vars x y z\ngens")
        cx = takayama_complex(zero, deg(0, 0, -1))
        assert cx.facets() == [(1, 2)]

    def test_void_when_some_generator_unblocked(self):
        ideal = parse_ideal("vars x\ngens x")
        assert takayama_complex(ideal, deg(1)).is_void

    def test_degree_length_mismatch(self):
        with pytest.raises(ValueError):
            takayama_complex(golden_ideal(), deg(1))

    def test_validating_constructor_accepts_every_complex(self):
        for ideal in corpus(50):
            for degree in canonical_box(ideal):
                cx = takayama_complex(ideal, degree)
                assert cx == SimplicialComplex(ideal.n, cx.faces)

    def test_equals_the_definition(self):
        for seed, ideal in enumerate(corpus(200) + many_generators(40)):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                box = canonical_box(side)
                if len(box) > self.BOX_CAP:
                    box = random.Random(seed).sample(box, self.BOX_CAP)
                for degree in box:
                    masks = takayama_complex(side, degree).masks
                    assert masks == faces_by_definition(side, degree), (side, degree)

    @pytest.mark.parametrize(
        "text, degree, count",
        [
            ("vars x y\ngens x^2, x*y", (0, -1), 1),
            ("vars x y\ngens x^2, x*y", (-3, 1), 0),  # x*y blocked nowhere: void
            ("vars x y\ngens x*y", (1, 1), 0),  # blocked nowhere: void
            ("vars w x y z\ngens w*x, y*z", (0, 0, 0, -1), 3),  # {}, {w}, {x}
            ("vars w x y z\ngens w*x, y*z", (-1, 0, 0, 0), 3),  # {}, {y}, {z}
            ("vars w x y z\ngens w*x, y*z", (0, -2, 0, 1), 2),  # {}, {z}
            ("vars x y z\ngens", (0, 0, 0), 8),  # zero ideal: the simplex on V
            ("vars x y z\ngens", (0, -1, 2), 4),
            ("vars x y z\ngens", (-1, -1, -1), 1),
        ],
    )
    def test_named_degrees_equal_the_definition(self, text, degree, count):
        ideal = parse_ideal(text)
        masks = takayama_complex(ideal, deg(*degree)).masks
        assert masks == faces_by_definition(ideal, deg(*degree))
        assert len(masks) == count

    def test_truncation_invariance(self):
        ideal = parse_ideal("vars x y z\ngens x^2*y, y^3*z, x*z^2")
        a = deg(-5, 2, -1)
        b = deg(-1, 2, -9)
        assert takayama_complex(ideal, a) == takayama_complex(ideal, b)
        assert lc_dims(ideal, a, Q) == lc_dims(ideal, b, Q)

    def test_cech_strand_is_the_complex_shifted_by_the_negative_support(self):
        """The survivors of the full Cech strand at a are neg | F for the
        faces F of the complex at a, neg the negative support of a: the
        two routes start from the same complex, and a star of it can be
        split off the strand."""
        degrees = 0
        for ideal in corpus(200):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                for degree in canonical_box(side):
                    neg = sum(1 << j for j, e in enumerate(degree.entries) if e < 0)
                    survivors = {F for level in cech_strand(side, degree).levels for F in level}
                    shifted = {neg | F for F in takayama_complex(side, degree).masks}
                    assert survivors == shifted, (
                        f"{side} at {degree.entries}: differ at {sorted(survivors ^ shifted)}")
                    degrees += 1
        assert degrees == 4232


def blockers_by_definition(ideal, degree):
    """The mask of the positions j with a_j >= 0, and per minimal
    generator the mask of those with 0 <= a_j < e_j, read off the
    exponents."""
    a = degree.entries
    wmask = sum(1 << j for j, v in enumerate(a) if v >= 0)
    return wmask, [sum(1 << j for j, (v, e) in enumerate(zip(a, m.exponents)) if 0 <= v < e)
                   for m in ideal.gens]


class TestBlockers:
    """takayama._blockers reads the ideal's threshold table; these hold it
    to {j : 0 <= a_j < e_j} computed from the exponents."""

    def test_equals_the_definition_on_the_box(self):
        degrees = 0
        for ideal in corpus(200):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                for degree in canonical_box(side):
                    assert takayama._blockers(side, degree) == blockers_by_definition(
                        side, degree), (side, degree)
                    degrees += 1
        assert degrees == 4232

    def test_equals_the_definition_at_and_past_every_exponent(self):
        """Negative entries, entries one below, at and one past each
        exponent, and entries >= 10^9."""
        degrees = 0
        for seed, ideal in enumerate(corpus(200)):
            if ideal.is_unit:
                continue
            exps = {e for m in ideal.gens for e in m.exponents}
            values = sorted({-7, -1, 0, 10**9, 10**9 + 1, 10**18}
                            | {v for e in exps for v in (e - 1, e, e + 1)})
            points = list(itertools.product(values, repeat=ideal.n))
            if len(points) > 200:
                points = random.Random(seed).sample(points, 200)
            for point in points:
                degree = deg(*point)
                assert takayama._blockers(ideal, degree) == blockers_by_definition(
                    ideal, degree), (ideal, point)
                degrees += 1
        assert degrees > 10_000

    def test_table_follows_distinct_exponents(self):
        ideal = parse_ideal("vars x y z\ngens x^3*y^3*z, y^5")
        assert ideal._steps == (((5,), (0b010, 0)), ((1, 3), (0b111, 0b011, 0)))
        huge = parse_ideal("vars x y\ngens x^1000000000*y, y^2")
        assert huge._steps == (((2,), (0b10, 0)), ((1, 10**9), (0b11, 0b01, 0)))

    def test_huge_exponents_stay_cheap(self):
        """One mask per distinct exponent, not per exponent value: 10^9
        would not fit."""
        start = time.perf_counter()
        ideal = parse_ideal("vars x y\ngens x^1000000000*y, y^2")  # builds the table
        parsed = time.perf_counter()
        assert lc_dims(ideal, deg(5, 0), Q) == {}
        dims = time.perf_counter()
        assert depth_and_dim(ideal, Q) == DepthDim(depth=0, dim=1)
        end = time.perf_counter()
        assert max(parsed - start, dims - parsed, end - dims) < 1.0
        assert lc_dims(ideal, deg(10**9 - 1, 1), Q) == {0: 1}  # y*x^(10^9 - 1)

    @pytest.mark.parametrize("call", [
        lambda ideal, degree: takayama_complex(ideal, degree),
        lambda ideal, degree: lc_dims(ideal, degree, Q),
        lambda ideal, degree: verify_reduction_chain(ideal, degree, Q),
        lambda ideal, degree: verify_reduction_to_degree_zero(ideal, degree, Q),
        lambda ideal, degree: degree_map(degree, rho(ideal)),
    ], ids=["takayama_complex", "lc_dims", "verify_reduction_chain",
            "verify_reduction_to_degree_zero", "degree_map"])
    @pytest.mark.parametrize("degree", [(0, 0), [0, 0], None])
    def test_degree_must_be_a_multidegree(self, call, degree):
        with pytest.raises(ValueError, match="^degree .* is not a MultiDegree$"):
            call(golden_ideal(), degree)


def faces_by_definition(ideal, degree):
    """The face masks of the degree-a complex by testing every subset G
    of the non-negative positions V: G is a face iff for every generator
    some position of V outside G has a_j below its exponent.  The 2^|V|
    reference that the grown complex replaced."""
    a = degree.entries
    V = [j for j in range(ideal.n) if a[j] >= 0]
    faces = set()
    for size in range(len(V) + 1):
        for G in itertools.combinations(V, size):
            if all(any(j not in G and a[j] < m.exponents[j] for j in V) for m in ideal.gens):
                faces.add(sum(1 << j for j in G))
    return frozenset(faces)


def by_faces(ideal, degree, field):
    """lc_dims by enumerating the faces of the Takayama complex: the
    reference the nerve route is checked against."""
    shift = sum(e < 0 for e in degree.entries) + 1
    cx = takayama_complex(ideal, degree)
    return {j + shift: d for j, d in reduced_cohomology_dims(cx, field).items()}


class TestNerveRoute:
    BOX_CAP = 64

    def three_routes(self, ideals, monkeypatch):
        """Check lc_dims against face enumeration and the Čech oracle
        over Q and GF(2) at up to BOX_CAP box degrees of each non-unit
        ideal and its polarization; count the degrees by the route
        lc_dims took."""
        built = []

        def spy(route, fn):
            def recorded(*args):
                built.append(route)
                return fn(*args)

            return recorded

        monkeypatch.setattr(takayama, "_complex", spy("walk", takayama._complex))
        homology = spy("nerve", takayama.reduced_cohomology_dims)
        monkeypatch.setattr(takayama, "reduced_cohomology_dims", homology)
        routes = Counter()
        for seed, ideal in enumerate(ideals):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                box = canonical_box(side)
                if len(box) > self.BOX_CAP:
                    box = random.Random(seed).sample(box, self.BOX_CAP)
                for degree in box:
                    for field in (Q, F2):
                        built.clear()
                        dims = lc_dims(side, degree, field)
                        route = "walk" if "walk" in built else "nerve" if built else None
                        cx = takayama_complex(side, degree)
                        if cx.is_void:
                            assert route is None, (side, degree)
                            route = "void"
                        elif any(is_cone(cx, v) for v in range(1, side.n + 1)):
                            assert route is None, (side, degree)
                            route = "cone"
                        elif route is None:
                            assert list(dims.values()) == [1], (side, degree)
                            route = "sphere"
                        if field is Q:
                            routes[route] += 1
                        assert dims == by_faces(side, degree, field), (side, degree)
                        assert dims == cech_dims(side, degree, field), (side, degree)
        return routes

    def test_three_routes_agree_on_corpus(self, monkeypatch):
        self.three_routes(corpus(200), monkeypatch)

    def test_three_routes_agree_on_many_generators(self, monkeypatch):
        routes = self.three_routes(many_generators(40), monkeypatch)
        for route in ("void", "cone", "sphere", "walk", "nerve"):
            assert routes[route] >= 20, routes

    @pytest.mark.parametrize(
        "text, degree, expected",
        [
            ("vars x\ngens x", (1,), {}),  # zero blocker: void complex
            ("vars x y\ngens x*y", (0, 0), {1: 1}),  # the blocker is all of V
            ("vars x y\ngens", (0, 0), {}),  # zero ideal: full simplex on V
            ("vars x y\ngens", (0, -1), {}),
            ("vars x y\ngens", (-1, -1), {2: 1}),  # zero ideal, V empty
            ("vars x y\ngens x^2, x*y", (-1, -1), {}),  # V empty, every blocker zero
            ("vars x y z\ngens x*z^2, x^2*y*z, y^2*z^2", (0, 0, 0), {1: 1}),  # nested
            ("vars x y z\ngens x*z^2, x^2*y*z, y^2*z^2", (0, 1, 0), {1: 1}),  # duplicate
            ("vars x y z\ngens x*z^2, x^2*y*z, y^2*z^2", (1, -1, 1), {1: 1}),  # duplicate
            ("vars x y\ngens x^2, x*y", (0, 0), {}),  # nested, a cone
            ("vars x y z\ngens x*y, y*z", (0, 0, 0), {1: 1}),  # sphere, blockers overlap
            ("vars x y z\ngens x*y, y*z, x*z", (0, 0, 0), {1: 2}),  # no private vertex: walk
            ("vars w x y z\ngens w*x, y, z", (0, 0, 0, 0), {1: 1}),  # sphere, g = 3
            ("vars x y\ngens x*y^2, x^2*y", (0, 1), {}),  # cone, y only in a non-minimal blocker
        ],
    )
    def test_named_cases(self, text, degree, expected):
        ideal = parse_ideal(text)
        for field in (Q, F2):
            assert lc_dims(ideal, deg(*degree), field) == expected
            assert by_faces(ideal, deg(*degree), field) == expected
            assert cech_dims(ideal, deg(*degree), field) == expected

    @pytest.mark.parametrize(
        "text, degree, expected",
        [
            ("vars x y\ngens", (0, 0), {}),  # cone, no blocker
            ("vars x y\ngens x^2, x*y", (0, 0), {}),  # cone
            ("vars x y\ngens x*y^2, x^2*y", (0, 1), {}),  # cone
            ("vars x y\ngens", (-1, -1), {2: 1}),  # sphere, g = 0 and V empty
            ("vars x y\ngens x*y", (0, 0), {1: 1}),  # sphere, g = 1
            ("vars x y z\ngens x*y, y*z", (0, 0, 0), {1: 1}),  # sphere, g = 2
            ("vars w x y z\ngens w*x, y, z", (0, 0, 0, 0), {1: 1}),  # sphere, g = 3
            ("vars x y z\ngens x*y, y*z, x*z", (0, 0, 0), None),  # walk
            ("vars w x y z\ngens w*x, x*y, y*z", (0, 0, 0, 0), None),  # nerve
        ],
    )
    def test_cone_and_sphere_build_nothing(self, monkeypatch, text, degree, expected):
        """Cone and sphere degrees are read off the blockers: neither the
        complex nor any cohomology is computed."""
        ideal = parse_ideal(text)

        def refuse(*args):
            raise RuntimeError("built a complex")

        monkeypatch.setattr(takayama, "_complex", refuse)
        monkeypatch.setattr(takayama, "reduced_cohomology_dims", refuse)
        for field in (Q, F2):
            if expected is None:
                with pytest.raises(RuntimeError, match="built a complex"):
                    lc_dims(ideal, deg(*degree), field)
            else:
                assert lc_dims(ideal, deg(*degree), field) == expected

    def test_power_of_one_variable(self):
        # face enumeration on the polarized side would walk 2^40 subsets
        ideal = parse_ideal("vars x\ngens x^40")
        for field in (Q, F2):
            assert verify_main_theorem(ideal, field).passed

    def test_degree_length_mismatch(self):
        with pytest.raises(ValueError):
            lc_dims(golden_ideal(), deg(1), Q)

    @pytest.mark.parametrize("k", [20, 22])
    def test_edge_ideals_of_complete_graphs(self, monkeypatch, k):
        """Hundreds of generators in many variables.  At degree 0 lc_dims
        walks the complex, whose only faces are the empty face and the k
        singletons; with half the coordinates at -1 it is void."""
        ideal = edge_ideal(k)
        walk, walked = takayama._complex, []

        def counted(*args):
            cx = walk(*args)
            walked.append(len(cx.masks))
            return cx

        monkeypatch.setattr(takayama, "_complex", counted)
        zero = deg(*[0] * k)
        half = deg(*[-1] * (k // 2) + [0] * (k - k // 2))
        for field in (Q, F2):
            assert lc_dims(ideal, zero, field) == cech_dims(ideal, zero, field) == {1: k - 1}
            assert lc_dims(ideal, half, field) == cech_dims(ideal, half, field) == {}
        assert walked == [k + 1, k + 1]

    def test_many_generators_walk_the_complex(self, monkeypatch):
        # the edge ideal of K_7: 21 generators in 7 variables; at degree 0
        # the nerve of its blockers has 209868 faces, the complex 8
        ideal = parse_ideal(
            "vars a b c d e f g\ngens "
            + ", ".join(u + "*" + v for u, v in itertools.combinations("abcdefg", 2))
        )
        sizes = []

        def counted(cx, field):
            sizes.append(len(cx.masks))
            assert sizes[-1] <= 2**ideal.n
            return reduced_cohomology_dims(cx, field)

        monkeypatch.setattr(takayama, "reduced_cohomology_dims", counted)
        assert lc_table(ideal, F2).entries == oracle_table(ideal, F2).entries
        assert sizes


def dims_by_quadratic_minimal(n, wmask, blockers, field):
    """_dims with the minimal blockers found by their definition: drop
    repeats and every blocker that properly contains another, testing
    each against all the others, then sort.  The cone, sphere, walk and
    nerve that follow are _dims's, calling the walk and the homology
    through the module so that a spy sees both."""
    if not all(blockers):
        return {}
    size = wmask.bit_count()
    shift = n - size + 1
    minimal = sorted({b for b in blockers if not any(c & b == c != b for c in blockers)})
    once = twice = 0
    for b in minimal:
        twice |= once & b
        once |= b
    if once != wmask:
        return {}
    if all(b & ~twice for b in minimal):
        return {size - 1 - len(minimal) + shift: 1}
    if len(minimal) >= size:
        cx = takayama._complex(n, wmask, minimal)
        return {j + shift: d for j, d in takayama.reduced_cohomology_dims(cx, field).items()}
    union_of = {0: 0}
    for k, b in enumerate(minimal):
        for face, union in list(union_of.items()):
            if union | b != wmask:
                union_of[face | 1 << k] = union | b
    nerve = SimplicialComplex._trusted(len(minimal), frozenset(union_of))
    top = size - 3 + shift
    return {top - j: d for j, d in takayama.reduced_cohomology_dims(nerve, field).items()}


class TestMinimalBlockers:
    """_dims finds the minimal blockers in one ascending pass; it must
    give what the quadratic definition gives, and build the same walk
    (with the same blocker list) or the same nerve on the way."""

    def random_blockers(self, rng):
        """Up to 10 masks of 2 or 3 of n <= 8 variables, V their union and
        now and then one vertex more, each mask followed at random by a
        superset within V (often a proper one) and by a repeat; shuffled."""
        n = rng.randint(1, 8)
        bits = [1 << j for j in range(n)]
        drawn = [sum(rng.sample(bits, min(n, rng.randint(2, 3))))
                 for _ in range(rng.randint(1, 10))]
        wmask = sum(bit for bit in bits if any(b & bit for b in drawn) or rng.random() < 0.05)
        inside = [bit for bit in bits if wmask & bit]
        blockers = []
        for b in drawn:
            blockers.append(b)
            if rng.random() < 0.5:
                blockers.append(b | rng.choice(inside))
            if rng.random() < 0.3:
                blockers.append(b)
        rng.shuffle(blockers)
        return n, wmask, blockers

    def test_one_pass_equals_the_quadratic_definition(self, monkeypatch):
        calls = []

        def walk(n, wmask, minimal):
            calls.append(("walk", wmask, list(minimal)))
            return complex_of(n, wmask, minimal)

        def homology(cx, field):
            calls.append(("homology", cx))
            return homology_of(cx, field)

        complex_of, homology_of = takayama._complex, takayama.reduced_cohomology_dims
        monkeypatch.setattr(takayama, "_complex", walk)
        monkeypatch.setattr(takayama, "reduced_cohomology_dims", homology)
        rng, routes = random.Random(33), Counter()
        for _ in range(2000):
            n, wmask, blockers = self.random_blockers(rng)
            for field in (Q, F2):
                calls.clear()
                dims = takayama._dims(n, wmask, list(blockers), field)
                seen = list(calls)
                calls.clear()
                expected = dims_by_quadratic_minimal(n, wmask, blockers, field)
                assert (dims, seen) == (expected, calls), (n, bin(wmask), blockers)
            routes["walk" if seen and seen[0][0] == "walk" else "nerve" if seen
                   else "sphere" if dims else "cone"] += 1
        for route in ("cone", "sphere", "walk", "nerve"):
            assert routes[route] >= 100, routes


class TestLcDim:
    def test_golden_values(self):
        ideal = golden_ideal()
        assert lc_dim(ideal, deg(1, 0), 0, Q) == 1
        assert lc_dim(ideal, deg(0, -1), 1, Q) == 1
        assert lc_dim(ideal, deg(0, 0), 0, Q) == 0
        assert lc_dim(ideal, deg(0, 0), 1, Q) == 0
        assert lc_dim(ideal, deg(0, 0), 2, Q) == 0

    def test_polynomial_ring_top(self):
        zero = parse_ideal("vars x\ngens")
        assert lc_dim(zero, deg(-1), 1, Q) == 1
        assert lc_dim(zero, deg(0), 1, Q) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            lc_dim(golden_ideal(), deg(0, 0), -1, Q)

    def test_oracle_rejects_negative_index_alike(self):
        """The Čech oracle takes no index, so it cannot reject -1 itself; its
        dims map, like lc_dims's, holds no negative index to answer one."""
        ideal = golden_ideal()
        with pytest.raises(ValueError, match="^cohomological index must be non-negative$"):
            lc_dim(ideal, deg(0, 0), -1, Q)
        for a in canonical_box(ideal):
            dims = cech_dims(ideal, a, Q)
            assert dims == lc_dims(ideal, a, Q)
            assert all(i >= 0 for i in dims)

    @pytest.mark.parametrize("dim", [lc_dim])
    @pytest.mark.parametrize("index", [1.5, 1.0, True, False, "1"],
                             ids=["1.5", "1.0", "True", "False", "str"])
    def test_rejects_an_index_that_is_not_an_int(self, dim, index):
        """Neither 1.5 nor True may pass for an index: 1.5 would read as a
        missing index (0), True as index 1."""
        with pytest.raises(ValueError, match="^cohomological index .* is not an int$"):
            dim(golden_ideal(), deg(0, -1), index, Q)

    def test_dims_map_matches_pointwise(self):
        ideal = parse_ideal("vars x y\ngens x*y")
        for a in canonical_box(ideal):
            dims = lc_dims(ideal, a, Q)
            for i in range(3):
                assert dims.get(i, 0) == lc_dim(ideal, a, i, Q)


class TestCanonicalBox:
    def test_golden_box(self):
        box = canonical_box(golden_ideal())
        assert len(box) == 6
        assert box[0] == deg(-1, -1)
        assert box[-1] == deg(1, 0)

    def test_principal(self):
        assert len(canonical_box(parse_ideal("vars x\ngens x"))) == 2

    def test_zero_ideal(self):
        assert len(canonical_box(parse_ideal("vars x y\ngens"))) == 4

    def test_cone_vanishing_outside_box(self):
        ideal = parse_ideal("vars x y\ngens x^2, x*y")
        bounds = rho(ideal)
        for a in (deg(2, 0), deg(0, 1), deg(5, 3)):
            assert not a.leq(tuple(r - 1 for r in bounds))
            assert lc_dims(ideal, a, Q) == {}
            cx = takayama_complex(ideal, a)
            if not cx.is_void:
                witness = next(
                    i + 1 for i, e in enumerate(a.entries) if e >= bounds[i]
                )
                assert is_cone(cx, witness)


class TestLcTable:
    def test_golden_table(self):
        table = lc_table(golden_ideal(), Q)
        got = {(e[0].entries, e[1]): e[2] for e in table.entries}
        assert got == {((1, 0), 0): 1, ((0, -1), 1): 1}

    def test_zero_ideal_n1(self):
        table = lc_table(parse_ideal("vars x\ngens"), Q)
        got = {(e[0].entries, e[1]): e[2] for e in table.entries}
        assert got == {((-1,), 1): 1}

    def test_unit_ideal_raises(self):
        with pytest.raises(ValueError):
            lc_table(parse_ideal("vars x\ngens 1"), Q)

    def test_entries_sorted_and_bounded(self):
        for ideal in corpus(30):
            table = lc_table(ideal, Q)
            keys = [(e[0].entries, e[1]) for e in table.entries]
            assert keys == sorted(keys)
            bounds = rho(ideal)
            for degree, i, d in table.entries:
                assert d > 0
                assert 0 <= i <= ideal.n
                assert all(-1 <= e <= r - 1 for e, r in zip(degree.entries, bounds))

    def test_json_schema(self):
        table = lc_table(golden_ideal(), Q)
        data = json.loads(table.to_json())
        assert data == {
            "vars": ["x", "y"],
            "field": "q",
            "entries": [
                {"degree": [0, -1], "i": 1, "dim": 1},
                {"degree": [1, 0], "i": 0, "dim": 1},
            ],
        }

    @pytest.mark.parametrize("field", [Q, F2, FieldSpec.gf(32003)], ids=str)
    def test_to_json_is_the_bytes_json_dumps_writes(self, field):
        """to_json writes its text itself; it must be json.dumps's layout
        byte for byte: tables from both routes, one with one variable,
        one with none, and tables with no entries."""
        ideals = [i for i in corpus(200) + many_generators(10) if not i.is_unit]
        tables = [route(ideal, field) for ideal in ideals for route in (lc_table, oracle_table)]
        tables += [
            lc_table(parse_ideal("vars x\ngens x^3"), field),
            lc_table(MonomialIdeal((), ()), field),
            LCTable(golden_ideal(), field, ()),
            LCTable(MonomialIdeal((), ()), field, ()),
        ]
        assert any(not table.entries for table in tables)
        for table in tables:
            assert table.to_json() == json.dumps(table.to_json_dict(), indent=2) + "\n"

    def test_tsv(self):
        table = lc_table(golden_ideal(), Q)
        assert table.to_tsv() == "degree\ti\tdim\n0,-1\t1\t1\n1,0\t0\t1\n"


class TestDepthAndDim:
    def test_golden(self):
        dd = depth_and_dim(golden_ideal(), Q)
        assert (dd.depth, dd.dim) == (0, 1)
        assert not dd.is_cohen_macaulay

    def test_polynomial_ring(self):
        dd = depth_and_dim(parse_ideal("vars x y\ngens"), Q)
        assert (dd.depth, dd.dim) == (2, 2)
        assert dd.is_cohen_macaulay

    def test_hypersurface(self):
        dd = depth_and_dim(parse_ideal("vars x y\ngens x*y"), Q)
        assert (dd.depth, dd.dim) == (1, 1)

    def test_unit_raises(self):
        with pytest.raises(ValueError):
            depth_and_dim(parse_ideal("vars x\ngens 1"), Q)

    def test_reuses_precomputed_table(self):
        ideal = golden_ideal()
        table = lc_table(ideal, F2)
        assert depth_and_dim(ideal, F2, table=table) == depth_and_dim(ideal, F2)

    def test_ignores_foreign_table(self):
        """Entries of (x, y) read as those of (x^2, xy) over Q give dim 0."""
        ideal = golden_ideal()
        foreign = lc_table(parse_ideal("vars x y\ngens x, y"), Q)
        for table in (foreign, replace(foreign, ideal=ideal, field=F2)):
            assert depth_and_dim(ideal, Q, table=table) == depth_and_dim(ideal, Q)


class TestCellSweep:
    """lc_table and depth_and_dim sweep the box by cells; box_table with
    lc_dims, one degree at a time, stays the reference."""

    @pytest.mark.parametrize("field", [Q, F2, FieldSpec.gf(32003)], ids=str)
    def test_equals_the_per_degree_sweep(self, field):
        for ideal in corpus(200) + many_generators(40):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                reference = takayama.box_table(side, field, lc_dims)
                assert lc_table(side, field) == reference, side
                indices = {i for _, i, _ in reference.entries}
                dd = depth_and_dim(side, field)
                assert (dd.depth, dd.dim) == (min(indices), max(indices)), side

    @pytest.mark.parametrize(
        "text, degree, expected",
        [
            # x = 0 and x = 1 differ only in whether x*y is blocked at x
            ("vars x y\ngens x^2, x*y", (0, -1), {1: 1}),
            ("vars x y\ngens x^2, x*y", (1, -1), {}),
            ("vars x y\ngens x^2, x*y", (1, 0), {0: 1}),
            # x = 1 and x = 2 differ only in whether x^3*y is blocked at x
            ("vars x y\ngens x^3*y, x*y^2", (1, 1), {0: 1}),
            ("vars x y\ngens x^3*y, x*y^2", (2, 1), {0: 1}),
            ("vars x y\ngens x^3*y, x*y^2", (1, 0), {}),
            # z is unblocked until the last coordinate
            ("vars x y z\ngens z", (-1, -1, 0), {2: 1}),
            # x*z is unblocked at x = -1 until z is fixed
            ("vars x y z\ngens x*z, y", (-1, 0, 0), {1: 1}),
            ("vars x y z\ngens x*z, y*z", (-1, -1, 0), {2: 1}),
        ],
    )
    def test_cell_boundaries_and_pruning(self, text, degree, expected):
        ideal = parse_ideal(text)
        for field in (Q, F2):
            table = lc_table(ideal, field)
            assert table == takayama.box_table(ideal, field, lc_dims)
            assert {i: d for a, i, d in table.entries if a == deg(*degree)} == expected
            assert lc_dims(ideal, deg(*degree), field) == expected

    @pytest.mark.parametrize(
        "text, most",
        [
            # 2^16 cells, and every one but x1 = ... = x16 = -1 is void
            ("vars " + " ".join(VARS16) + "\ngens " + ", ".join(VARS16), 1),
            ("vars x y z\ngens x*z, y", 3),
            ("vars x y z\ngens x*z, y*z", 5),
            ("vars x y z\ngens z", 4),
        ],
        ids=["x1..x16", "xz,y", "xz,yz", "z"],
    )
    def test_pruning_skips_void_subtrees(self, monkeypatch, text, most):
        """Without the closing test every cell would reach _dims: 2^16
        for the first ideal, 8 for the others."""
        dims, calls = takayama._dims, []

        def counted(*args):
            calls.append(args)
            return dims(*args)

        monkeypatch.setattr(takayama, "_dims", counted)
        ideal = parse_ideal(text)
        for sweep in (lc_table, depth_and_dim):
            calls.clear()
            sweep(ideal, F2)
            assert 1 <= len(calls) <= most, sweep

    def test_index_outside_range_raises(self, monkeypatch):
        monkeypatch.setattr(takayama, "_dims", lambda n, wmask, blockers, field: {n + 1: 1})
        for sweep in (lc_table, depth_and_dim):
            with pytest.raises(AssertionError, match="cohomology index 3 outside 0..2"):
                sweep(golden_ideal(), Q)
