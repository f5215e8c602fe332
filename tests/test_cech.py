import ast
import copy
import dataclasses
import inspect
import random
from itertools import combinations
from itertools import product

import pytest

import monolc.cech
from monolc import (
    FieldSpec,
    MonomialIdeal,
    MultiDegree,
    SparseMatrix,
    canonical_box,
    cech_dims,
    cech_piece_nonzero,
    cech_strand,
    lc_dims,
    parse_ideal,
    polarize_ideal,
    rank,
    rho,
)
from monolc.linalg import _cohomology
from conftest import corpus, golden_ideal

Q = FieldSpec.rationals()
F2 = FieldSpec.gf(2)


def deg(*entries):
    return MultiDegree(tuple(entries))


class TestPieceNonzero:
    def test_golden_survivor(self):
        assert cech_piece_nonzero(golden_ideal(), deg(1, 0), set())

    def test_golden_localized_away(self):
        assert not cech_piece_nonzero(golden_ideal(), deg(1, 0), {2})

    def test_monomial_inside_ideal(self):
        assert not cech_piece_nonzero(golden_ideal(), deg(2, 0), set())

    def test_negative_support_must_be_inverted(self):
        assert not cech_piece_nonzero(golden_ideal(), deg(0, -1), {1})
        assert cech_piece_nonzero(golden_ideal(), deg(0, -1), {2})

    def test_zero_ideal(self):
        zero = parse_ideal("vars x y\ngens")
        assert cech_piece_nonzero(zero, deg(0, 0), set())
        assert cech_piece_nonzero(zero, deg(-1, -1), {1, 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            cech_piece_nonzero(golden_ideal(), deg(0, 0), {3})
        with pytest.raises(ValueError):
            cech_piece_nonzero(golden_ideal(), deg(0,), set())

    @pytest.mark.parametrize("i", [2.0, True, "1"], ids=["float", "bool", "str"])
    def test_rejects_an_index_that_is_not_an_int(self, i):
        """2.0 would otherwise fail in a shift with TypeError, True pass as index 1."""
        with pytest.raises(ValueError, match=f"^index {i!r} is not an int in 1..2$"):
            cech_piece_nonzero(golden_ideal(), deg(0, -1), {i})

    def test_matches_the_rule_written_from_exponents(self):
        """The piece at F survives iff every negative coordinate of a is in F
        and each generator has some coordinate j outside F with a_j < e_j,
        read here from the exponents and not from the masks the strand
        shares.  Every subset, at every degree with entries from -2 to rho_j,
        so past the box on both sides."""
        checked = {True: 0, False: 0}
        for ideal in corpus(200):
            n = ideal.n
            subsets = [set(F) for p in range(n + 1) for F in combinations(range(1, n + 1), p)]
            for entries in product(*[range(-2, r + 1) for r in rho(ideal)]):
                degree = MultiDegree(entries)
                for F in subsets:
                    rule = (all(j in F for j, a in enumerate(entries, 1) if a < 0)
                            and all(any(j not in F and a < e
                                        for j, (a, e) in enumerate(zip(entries, m.exponents), 1))
                                    for m in ideal.gens))
                    assert cech_piece_nonzero(ideal, degree, F) == rule, (ideal, entries, F)
                    checked[rule] += 1
        assert checked[True] > 5000 and checked[False] > 30_000, checked


class TestStrand:
    def test_golden_strand_shape(self):
        strand = cech_strand(golden_ideal(), deg(0, -1))
        assert (strand.n, strand.low, strand.levels) == (2, 1, ((0b10,),))
        assert strand.coboundaries == ()
        assert strand.basis == (((2,),),)

    def test_polynomial_ring_signs(self):
        """Full Boolean strand of k[x,y] in degree (0,0): the two
        inclusion signs into {1,2} must differ."""
        strand = cech_strand(parse_ideal("vars x y\ngens"), deg(0, 0))
        assert strand.low == 0 and [len(level) for level in strand.levels] == [1, 2, 1]
        assert len(strand.coboundaries) == 2
        assert strand.coboundaries[0].entries == {(0, 0): 1, (1, 0): 1}
        assert strand.coboundaries[1].entries == {(0, 0): -1, (0, 1): 1}

    def test_basis_in_lex_order(self):
        """Lex order of vertex tuples and numeric order of bitmasks
        first differ at n = 4: (1, 4) comes before (2, 3)."""
        strand = cech_strand(parse_ideal("vars a b c d\ngens"), deg(0, 0, 0, 0))
        assert strand.basis[2] == tuple(combinations(range(1, 5), 2))

    def test_matches_subset_reference(self):
        """Held level p is every p-subset whose localized piece survives, in
        combinations order, no p-subset survives for a p outside the held
        window, and each coboundary has entry (-1)^#{u in F : u < v} from
        F to F + {v}: the 2^n reference."""
        for seed, ideal in enumerate(corpus(200)):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                n = side.n
                box = canonical_box(side)
                if side is not ideal and len(box) > 64:
                    box = random.Random(seed).sample(box, 64)
                for degree in [*box, deg(-2, *[0] * (n - 1))]:
                    strand = cech_strand(side, degree)
                    window = range(strand.low, strand.low + len(strand.levels))
                    assert window.stop <= n + 1, (side, degree)
                    for p in range(n + 1):
                        survivors = tuple(
                            c for c in combinations(range(1, n + 1), p)
                            if cech_piece_nonzero(side, degree, c)
                        )
                        if p not in window:
                            assert survivors == (), (side, degree, p)
                            continue
                        assert strand.basis[p - strand.low] == survivors, (side, degree, p)
                        assert strand.levels[p - strand.low] == tuple(
                            sum(1 << (v - 1) for v in F) for F in survivors
                        ), (side, degree, p)
                    assert len(strand.basis) == len(strand.levels), (side, degree)
                    assert len(strand.coboundaries) == max(len(window) - 1, 0), (side, degree)
                    for k, d in enumerate(strand.coboundaries):
                        row = {F: r for r, F in enumerate(strand.basis[k + 1])}
                        expected = {}
                        for c, F in enumerate(strand.basis[k]):
                            for v in set(range(1, n + 1)) - set(F):
                                r = row.get(tuple(sorted((*F, v))))
                                if r is not None:
                                    expected[(r, c)] = (-1) ** sum(u < v for u in F)
                        assert (d.rows, d.cols) == (len(row), len(strand.basis[k]))
                        assert d.entries == expected, (side, degree, strand.low + k)

    def test_differentials_compose_to_zero(self):
        for ideal in corpus(25):
            for degree in canonical_box(ideal):
                strand = cech_strand(ideal, degree)
                for lower, upper in zip(strand.coboundaries, strand.coboundaries[1:]):
                    prod = {}
                    for (r2, c2), v2 in upper.entries.items():
                        for (r1, c1), v1 in lower.entries.items():
                            if c2 == r1:
                                prod[(r2, c1)] = prod.get((r2, c1), 0) + v2 * v1
                    assert all(v == 0 for v in prod.values())

    def test_one_flipped_sign_fails_the_check(self):
        """Every entry of every coboundary of k[a,b,c,d] in degree 0
        meets a d o d product, so flipping any one sign is caught."""
        strand = cech_strand(parse_ideal("vars a b c d\ngens"), deg(0, 0, 0, 0))
        assert strand.low == 0
        rows = [[[] for _ in range(d.rows)] for d in strand.coboundaries]
        for p, d in enumerate(strand.coboundaries):
            for (r, c), v in sorted(d.entries.items()):
                rows[p][r].append((c, v))
        monolc.cech._assert_complex(rows, strand.low)
        flips = 0
        for p, d in enumerate(rows):
            # a flip in d_p first fails d_p * d_(p-1), one in d_0 fails d_1 * d_0
            q = max(p, 1)
            for row in d:
                for k, (c, v) in enumerate(row):
                    row[k] = (c, -v)
                    with pytest.raises(AssertionError, match=rf"^d{q} \* d{q - 1} is not zero"):
                        monolc.cech._assert_complex(rows, strand.low)
                    row[k] = (c, v)
                    flips += 1
        assert flips == 4 + 12 + 12 + 4

    def test_check_names_pairs_by_absolute_level(self):
        """At (-1,0,0,0) the strand of k[a,b,c,d] starts at level 1, so
        its first held pair of coboundaries is d2 * d1."""
        strand = cech_strand(parse_ideal("vars a b c d\ngens"), deg(-1, 0, 0, 0))
        assert strand.low == 1 and [len(level) for level in strand.levels] == [1, 3, 3, 1]
        rows = [copy.deepcopy(d.by_row) for d in strand.coboundaries]
        monolc.cech._assert_complex(rows, strand.low)
        c, v = rows[0][0][0]
        rows[0][0][0] = (c, -v)
        with pytest.raises(AssertionError, match=r"^d2 \* d1 is not zero in row "):
            monolc.cech._assert_complex(rows, strand.low)

    def test_check_runs_once_per_degree(self, monkeypatch):
        """One d o d check per degree, over the very row lists of the
        coboundaries the strand holds: none for an empty or one-level
        strand, two or more where three or more levels are nonempty."""
        calls, strands = [], []
        check, build = monolc.cech._assert_complex, monolc.cech.cech_strand
        monkeypatch.setattr(monolc.cech, "_assert_complex",
                            lambda rows, low: calls.append((rows, low)) or check(rows, low))
        monkeypatch.setattr(monolc.cech, "cech_strand",
                            lambda *args: strands.append(build(*args)) or strands[-1])
        for text, lengths in [
            ("vars x y z\ngens x^2*y, y*z^2, x*z", [0] * 10 + [1, 1] + [0] * 4 + [1, 0]),
            ("vars a b c d e f\ngens a*e, a*c*d, a*c*f, b*e*f, c*d*f",
             [0] * 11 + [1, 0, 0, 1, 2] + [0] * 7 + [1, 0, 0, 1, 2, 0, 0, 2, 3, 0, 0, 0, 1, 0]
             + [1, 0, 2, 0, 1, 1, 2, 0, 2, 2, 3, 0, 1, 0, 2, 0, 2, 1, 3, 0, 2, 2, 3, 1, 3, 3, 4]),
        ]:
            calls.clear()
            strands.clear()
            ideal = parse_ideal(text)
            box = canonical_box(ideal)
            for degree in box:
                cech_dims(ideal, degree, F2)
            assert len(calls) == len(strands) == len(box)
            for (rows, low), strand in zip(calls, strands):
                assert low == strand.low
                assert len(rows) == len(strand.coboundaries)
                assert all(r is d.by_row for r, d in zip(rows, strand.coboundaries))
            assert [len(rows) for rows, _ in calls] == lengths

    def test_clearing_skips_only_rows_in_the_span_of_earlier_rows(self):
        """cech_dims ranks each coboundary without the rows at the last
        columns of the kept rows one coboundary up.  Each such row is a
        combination of the rows before it, and the dimensions are those of
        the full ranks."""
        cleared = 0
        for seed, ideal in enumerate(corpus(60)):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                box = canonical_box(side)
                if len(box) > 32:
                    box = random.Random(seed).sample(box, 32)
                for degree in box:
                    strand = cech_strand(side, degree)
                    ds = strand.coboundaries
                    for fld in (Q, F2, FieldSpec.gf(3)):
                        full = _cohomology(strand.levels, [rank(d, fld) for d in ds])
                        assert cech_dims(side, degree, fld) == {
                            strand.low + p: h for p, h in enumerate(full) if h}
                        for lower, upper in zip(ds, ds[1:]):
                            pivots = set()
                            rank(upper, fld, pivots=pivots)
                            for row in pivots:
                                later = set(range(row + 1, lower.rows))
                                assert (rank(lower, fld, skip=later)
                                        == rank(lower, fld, skip=later | {row})), (side, degree)
                            cleared += len(pivots)
        assert cleared > 1000, cleared

    def test_holds_the_nonempty_levels(self):
        """Every held level is nonempty, the first at low = |neg| and
        holding the negative support alone; no free position extends a
        survivor of the last one.  A coboundary joins each consecutive
        pair of held levels, with their sizes as its shape."""
        for seed, ideal in enumerate(corpus(200)):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                n = side.n
                box = canonical_box(side)
                if side is not ideal and len(box) > 64:
                    box = random.Random(seed).sample(box, 64)
                for degree in [*box, deg(-2, *[0] * (n - 1))]:
                    strand = cech_strand(side, degree)
                    neg = tuple(i for i, e in enumerate(degree.entries, 1) if e < 0)
                    levels = strand.levels
                    assert strand.n == n and strand.low == len(neg), (side, degree)
                    assert all(levels), (side, degree)
                    for k, level in enumerate(levels, strand.low):
                        assert {F.bit_count() for F in level} == {k}, (side, degree, k)
                    if levels:
                        assert strand.basis[0] == (neg,), (side, degree)
                        for F in strand.basis[-1]:
                            for v in set(range(1, n + 1)) - set(F):
                                assert not cech_piece_nonzero(side, degree, (*F, v)), (side, degree)
                    else:
                        assert not cech_piece_nonzero(side, degree, neg), (side, degree)
                    assert len(strand.coboundaries) == max(len(levels) - 1, 0)
                    for k, d in enumerate(strand.coboundaries):
                        assert (d.rows, d.cols) == (len(levels[k + 1]), len(levels[k]))

    def test_empty_strand(self):
        """x^2 divides x^(2,0), so not even the empty set survives."""
        strand = cech_strand(golden_ideal(), deg(2, 0))
        assert strand.levels == () and strand.coboundaries == ()
        assert strand.basis == ()
        assert cech_dims(golden_ideal(), deg(2, 0), Q) == {}

    @pytest.mark.parametrize("text, degree, low", [
        ("vars x y\ngens x^2, x*y", (1, 0), 0),
        ("vars x y\ngens x^2, x*y", (0, -1), 1),
        ("vars a b c d\ngens", (-1, -1, -1, -1), 4),
    ])
    def test_one_survivor_strand(self, text, degree, low):
        """A single survivor, the negative support, gives H^low = k."""
        ideal = parse_ideal(text)
        strand = cech_strand(ideal, deg(*degree))
        assert strand.low == low
        assert strand.levels == ((sum(1 << i for i, e in enumerate(degree) if e < 0),),)
        assert strand.coboundaries == ()
        for fld in (Q, F2):
            assert cech_dims(ideal, deg(*degree), fld) == {low: 1}

    def test_rows_come_out_in_column_order(self):
        """cech_strand hands its rows to SparseMatrix unchecked, so they
        must already be what the validating constructor builds."""
        for seed, ideal in enumerate(corpus(200)):
            if ideal.is_unit:
                continue
            for side in (ideal, polarize_ideal(ideal).ideal):
                box = canonical_box(side)
                if side is not ideal and len(box) > 64:
                    box = random.Random(seed).sample(box, 64)
                for degree in box:
                    for d in cech_strand(side, degree).coboundaries:
                        assert d == SparseMatrix(d.rows, d.cols, d.entries), (side, degree)

    def test_ranks_the_checked_rows(self, monkeypatch):
        """Each ranked differential holds the very row lists that passed the
        d o d check, unchanged since."""
        checked, ranked = [], []
        check, rank = monolc.cech._assert_complex, monolc.cech.rank

        def record_check(rows, low):
            checked.extend((d, copy.deepcopy(d)) for d in rows)
            return check(rows, low)

        monkeypatch.setattr(monolc.cech, "_assert_complex", record_check)
        monkeypatch.setattr(monolc.cech, "rank",
                            lambda d, field, **kw: ranked.append(d.by_row) or rank(d, field, **kw))
        calls = 0
        for ideal in corpus(25):
            for degree in canonical_box(ideal):
                for fld in (Q, F2):
                    checked.clear()
                    ranked.clear()
                    cech_dims(ideal, degree, fld)
                    assert len(ranked) == len(checked)
                    by_id = {id(d): snapshot for d, snapshot in checked}
                    for rows in ranked:
                        assert by_id[id(rows)] == rows, (ideal, degree)
                    calls += len(ranked)
        assert calls > 100

    def test_alternating_sums_match(self):
        for ideal in corpus(25):
            for degree in canonical_box(ideal):
                strand = cech_strand(ideal, degree)
                levels = sum(
                    (-1 if p % 2 else 1) * len(level)
                    for p, level in enumerate(strand.levels, strand.low)
                )
                dims = cech_dims(ideal, degree, Q)
                cohom = sum((-1 if i % 2 else 1) * d for i, d in dims.items())
                assert levels == cohom


class TestCohomologyDim:
    def test_golden_examples(self):
        assert cech_dims(golden_ideal(), deg(1, 0), Q).get(0, 0) == 1
        assert cech_dims(golden_ideal(), deg(0, -1), Q).get(1, 0) == 1

    def test_polynomial_ring_top(self):
        zero = parse_ideal("vars x y\ngens")
        assert cech_dims(zero, deg(-1, -1), Q).get(2, 0) == 1
        assert cech_dims(zero, deg(-1, -1), Q).get(1, 0) == 0

    def test_unit_ideal_all_zero(self):
        unit = parse_ideal("vars x y\ngens 1")
        assert cech_dims(unit, deg(0, 0), Q) == {}

    def test_matches_simplicial_route(self):
        for ideal in corpus(25):
            for degree in canonical_box(ideal):
                for fld in (Q, F2):
                    assert cech_dims(ideal, degree, fld) == lc_dims(
                        ideal, degree, fld
                    )

    def test_matches_simplicial_route_on_square_free_ideals(self):
        """Seeded square-free ideals in 6-7 variables, the shape of the
        oracle benchmark: strands with many fixed (negative) bits, ranked
        over GF(32003) and GF(2)."""
        nonzero = fixed = 0
        for seed in range(12):
            rng = random.Random(seed)
            names = [f"x{i}" for i in range(1, 7 + seed % 2)]
            gens = {"*".join(sorted(rng.sample(names, rng.randint(2, 4))))
                    for _ in range(rng.randint(3, 6))}
            ideal = parse_ideal(f"vars {' '.join(names)}\ngens {', '.join(sorted(gens))}")
            for degree in canonical_box(ideal):
                for fld in (FieldSpec.gf(32003), F2):
                    dims = cech_dims(ideal, degree, fld)
                    assert dims == lc_dims(ideal, degree, fld), (ideal, degree, fld)
                    nonzero += bool(dims)
                    fixed += bool(dims) and sum(e < 0 for e in degree.entries) >= 3
        assert nonzero > 400 and fixed > 250, (nonzero, fixed)


class TestDegreeType:
    @pytest.mark.parametrize("call", [
        lambda ideal, degree: cech_dims(ideal, degree, Q),
        lambda ideal, degree: cech_strand(ideal, degree),
        lambda ideal, degree: cech_piece_nonzero(ideal, degree, {1}),
    ], ids=["cech_dims", "cech_strand", "cech_piece_nonzero"])
    @pytest.mark.parametrize("degree", [(0, 0), [0, 0], None])
    def test_degree_must_be_a_multidegree(self, call, degree):
        with pytest.raises(ValueError, match="^degree .* is not a MultiDegree$"):
            call(golden_ideal(), degree)


class TestIndependence:
    def test_no_simplicial_machinery_imported(self):
        """The oracle must share only the ideal types and linalg (rank,
        and the coboundary kernel that test_linalg holds to the
        definition) with the primary route."""
        tree = ast.parse(inspect.getsource(monolc.cech))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module or "")
        assert modules <= {"__future__", "itertools", "dataclasses", "operator",
                           "ideals", "linalg", "typing"}, modules

    def test_never_reads_the_threshold_table(self):
        """The simplicial route reads its blockers off MonomialIdeal._steps;
        the oracle computes its own masks from the exponents and must not
        read that table, by attribute or by name.  The table is a field the
        ideal fills when it is built, outside its init, repr and equality."""
        steps = {f.name: f for f in dataclasses.fields(MonomialIdeal)}["_steps"]
        assert (steps.init, steps.repr, steps.compare) == (False, False, False)
        tree = ast.parse(inspect.getsource(monolc.cech))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert "_steps" not in names
