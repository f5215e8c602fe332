import copy
import json
import pickle
import re
from dataclasses import replace

import pytest

import monolc.verify as verify_mod
from monolc import (
    CheckResult,
    FieldSpec,
    Mismatch,
    MonomialIdeal,
    MultiDegree,
    SparseMatrix,
    SimplicialComplex,
    VerificationReport,
    canonical_box,
    cech_dims,
    cech_piece_nonzero,
    cech_strand,
    degree_map,
    depolarize_check,
    depth_and_dim,
    lc_dims,
    lc_table,
    oracle_table,
    parse_ideal,
    partial_polarize,
    polarize_ideal,
    random_ideal,
    rank,
    restrict,
    reduced_cohomology_dims,
    rho,
    verify_depth_shift,
    verify_main_theorem,
    verify_reduction_chain,
    verify_reduction_to_degree_zero,
)
from conftest import corpus, golden_ideal

Q = FieldSpec.rationals()
F2 = FieldSpec.gf(2)


def deg(*entries):
    return MultiDegree(tuple(entries))


class TestMainTheorem:
    def test_golden(self):
        report = verify_main_theorem(golden_ideal(), Q)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["main_theorem", "rhs_index_window"]
        main = report.checks[0]
        assert main.degrees_checked == 6
        assert main.indices_checked == 18
        assert main.failures == ()

    def test_square_free_is_identity(self):
        ideal = parse_ideal("vars x y z\ngens x*y, y*z")
        report = verify_main_theorem(ideal, Q)
        assert report.passed

    def test_unit_ideal(self):
        with pytest.raises(ValueError, match="unit ideal has a zero quotient"):
            verify_main_theorem(parse_ideal("vars x\ngens 1"), Q)

    def test_corpus_all_fields(self):
        for ideal in corpus(20):
            for fld in (Q, F2):
                assert verify_main_theorem(ideal, fld).passed


class TestReductionChain:
    def test_restriction_case(self):
        report = verify_reduction_chain(golden_ideal(), deg(1, -1), Q)
        assert [c.name for c in report.checks] == ["step2_restriction"]
        assert report.passed

    def test_partial_polarization_case(self):
        report = verify_reduction_chain(golden_ideal(), deg(0, 0), Q)
        assert [c.name for c in report.checks] == ["step3_partial_polarization_j1"]
        assert report.passed

    def test_capping_shifts_index_up(self):
        """For (x^3) in box degree (0) the only cohomology sits in
        index 0; after capping at exponent 1 it must reappear two
        indices higher, matching the two appended variables."""
        ideal = parse_ideal("vars x\ngens x^3")
        assert lc_dims(ideal, deg(0), Q) == {0: 1}
        report = verify_reduction_chain(ideal, deg(0), Q)
        assert [c.name for c in report.checks] == ["step3_partial_polarization_j1"]
        assert report.passed

    def test_maximal_degree_has_restriction_check(self):
        report = verify_reduction_chain(golden_ideal(), deg(1, 0), Q)
        assert "step2_restriction" in [c.name for c in report.checks]
        assert report.passed

    def test_degree_outside_box_rejected(self):
        with pytest.raises(ValueError):
            verify_reduction_chain(golden_ideal(), deg(2, 0), Q)
        with pytest.raises(ValueError):
            verify_reduction_chain(golden_ideal(), deg(0,), Q)

    def test_corpus_box_sweep(self):
        for ideal in corpus(15):
            for degree in canonical_box(ideal):
                for fld in (Q, F2):
                    assert verify_reduction_chain(ideal, degree, fld).passed

    def test_unit_ideal_rejected(self):
        unit = parse_ideal("vars x y\ngens 1")
        for degree in canonical_box(unit):
            with pytest.raises(ValueError, match="unit ideal has a zero quotient"):
                verify_reduction_chain(unit, degree, Q)


class TestReductionToDegreeZero:
    def test_polarized_terminal(self):
        report = verify_reduction_to_degree_zero(golden_ideal(), deg(0, 0), Q)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "step3_j1",
            "step2_restriction",
            "terminal_polarized_degree_zero",
        ]

    def test_cone_terminal(self):
        """Restriction can shrink rho and push the degree out of the
        new box; the chain then closes by cone vanishing, so the start
        degree carries no cohomology at all."""
        report = verify_reduction_to_degree_zero(golden_ideal(), deg(1, -1), Q)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "step2_restriction",
            "terminal_cone_vanishing",
        ]
        assert lc_dims(golden_ideal(), deg(1, -1), Q) == {}

    def test_deep_cap_chain(self):
        ideal = parse_ideal("vars x\ngens x^3")
        report = verify_reduction_to_degree_zero(ideal, deg(0), Q)
        assert report.passed
        assert report.checks[0].name == "step3_j1"
        assert report.checks[-1].name == "terminal_polarized_degree_zero"

    def test_degree_outside_box_rejected(self):
        with pytest.raises(ValueError):
            verify_reduction_to_degree_zero(golden_ideal(), deg(0, 1), Q)

    def test_corpus_chains(self):
        cone_terminals = 0
        for ideal in corpus(15):
            for degree in canonical_box(ideal):
                report = verify_reduction_to_degree_zero(ideal, degree, Q)
                assert report.passed
                if report.checks[-1].name == "terminal_cone_vanishing":
                    cone_terminals += 1
                    assert lc_dims(ideal, degree, Q) == {}
        assert cone_terminals > 0

    def test_unit_ideal_rejected(self):
        unit = parse_ideal("vars x y\ngens 1")
        for degree in canonical_box(unit):
            with pytest.raises(ValueError, match="unit ideal has a zero quotient"):
                verify_reduction_to_degree_zero(unit, degree, Q)


# Inputs whose names are the ones partial polarization gives its copies
COPY_NAMED = ["vars a x_1_2\ngens a^3, x_1_2", "vars x_1_2 y\ngens x_1_2^3, y^2"]


class TestCallerIdeal:
    """The reductions may run on a renamed copy; reports name the caller's ideal."""

    @pytest.mark.parametrize("text", COPY_NAMED)
    def test_copy_names_in_input(self, text):
        ideal = parse_ideal(text)
        for degree in canonical_box(ideal):
            for fld in (Q, F2):
                assert verify_reduction_chain(ideal, degree, fld).passed
                assert verify_reduction_to_degree_zero(ideal, degree, fld).passed

    def test_reports_carry_ideal_and_field(self):
        ideals = [golden_ideal(), *map(parse_ideal, COPY_NAMED)]
        ideals += [ideal for ideal in corpus(8) if not ideal.is_unit]
        for ideal in ideals:
            for fld in (Q, F2):
                reports = [verify_main_theorem(ideal, fld), verify_depth_shift(ideal, fld)]
                for degree in canonical_box(ideal)[::2]:
                    reports.append(verify_reduction_chain(ideal, degree, fld))
                    reports.append(verify_reduction_to_degree_zero(ideal, degree, fld))
                for report in reports:
                    assert (report.ideal, report.field) == (ideal, fld)


def memo_ideals() -> list[MonomialIdeal]:
    """Two corpus ideals with a variable of rho 3 or two capped variables,
    each with its twin named x_...; the chain renames both x1..xn."""
    out = []
    for ideal in (corpus(18)[11], corpus(18)[17]):
        twin = MonomialIdeal(tuple("x_" + v for v in ideal.var_names), ideal.gens)
        out += [ideal, twin]
    return out


MEMO_IDS = ["corpus11", "corpus11-x_", "corpus17", "corpus17-x_"]


class TestDerivedMemo:
    """Each ideal keeps the ideals partial_polarize, polarize_ideal and
    the chain's rename build from it, hands the same one out again, and
    leaves them out of pickles and copies."""

    @pytest.mark.parametrize("ideal", memo_ideals(), ids=MEMO_IDS)
    def test_chain_builds_each_step_ideal_once(self, ideal, monkeypatch):
        calls = []

        def spy(base, j, t):
            capped = partial_polarize(base, j, t)
            calls.append((base, j, t, capped))  # held, so no id is reused
            return capped

        monkeypatch.setattr(verify_mod, "partial_polarize", spy)
        for degree in canonical_box(ideal):
            assert verify_reduction_chain(ideal, degree, Q).passed
        bases = {id(base) for base, _, _, _ in calls}
        built = {(j, t): id(capped) for _, j, t, capped in calls}
        assert len(bases) == 1 and len(calls) > len(built)
        assert len(built) == len({id(capped) for _, _, _, capped in calls})
        assert set(built) == {(j, t) for j, r in enumerate(rho(ideal), 1) for t in range(r - 1)}
        base = calls[0][0]
        assert len(base._derived) <= sum(r - 1 for r in rho(ideal)) + 2
        # every ideal's steps run on its one x1..xn copy, not only an x_ named one's
        assert base.var_names == tuple(f"x{i}" for i in range(1, ideal.n + 1))
        assert list(ideal._derived) == ["x1..xn"] and ideal._derived["x1..xn"] is base

    @pytest.mark.parametrize("ideal", memo_ideals(), ids=MEMO_IDS)
    def test_a_hit_equals_a_fresh_build(self, ideal):
        for j, r in enumerate(rho(ideal), 1):
            for t in range(r - 1):
                first = partial_polarize(ideal, j, t)
                assert partial_polarize(ideal, j, t) is first
                fresh = partial_polarize(MonomialIdeal(ideal.var_names, ideal.gens), j, t)
                assert first == fresh and rho(first) == rho(fresh)

    @pytest.mark.parametrize("ideal", memo_ideals(), ids=MEMO_IDS)
    def test_polarizes_once(self, ideal, monkeypatch):
        assert polarize_ideal(ideal) is polarize_ideal(ideal)
        seen = []

        def spy(base):
            seen.append(polarize_ideal(base))
            return seen[-1]

        monkeypatch.setattr(verify_mod, "polarize_ideal", spy)
        assert verify_main_theorem(ideal, Q).passed and verify_depth_shift(ideal, Q).passed
        assert len(seen) == 2 and seen[0] is seen[1]

    @pytest.mark.parametrize("ideal", memo_ideals(), ids=MEMO_IDS)
    def test_memo_stays_out_of_identity(self, ideal):
        for degree in canonical_box(ideal):
            verify_reduction_chain(ideal, degree, Q)
        polarize_ideal(ideal)
        fresh = MonomialIdeal(ideal.var_names, ideal.gens)
        assert ideal._derived and not fresh._derived
        assert ideal == fresh and hash(ideal) == hash(fresh) and repr(ideal) == repr(fresh)
        assert "_derived" not in repr(ideal)
        assert len(pickle.dumps(ideal)) == len(pickle.dumps(fresh))
        for twin in (pickle.loads(pickle.dumps(ideal)), copy.deepcopy(ideal)):
            assert twin._derived == {}
            assert twin == ideal and hash(twin) == hash(ideal) and rho(twin) == rho(ideal)
            assert polarize_ideal(twin) == polarize_ideal(ideal)
        assert ideal._derived and copy.copy(ideal)._derived == {}


class TestDepthShift:
    def test_golden(self):
        report = verify_depth_shift(golden_ideal(), Q)
        assert report.passed
        assert report.checks[0].name == "depth_shift"
        assert report.checks[0].indices_checked == 2
        assert report.checks[0].degrees_checked == 14

    def test_square_free_shift_zero(self):
        assert verify_depth_shift(parse_ideal("vars x y\ngens x*y"), Q).passed

    def test_zero_ideal(self):
        assert verify_depth_shift(parse_ideal("vars x y z\ngens"), Q).passed

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            verify_depth_shift(parse_ideal("vars x\ngens 1"), Q)

    def test_corpus(self):
        for ideal in corpus(15):
            if not ideal.is_unit:
                assert verify_depth_shift(ideal, F2).passed


class TestRandomIdeal:
    def test_deterministic(self):
        a = random_ideal(3, 2, 4, seed=99)
        b = random_ideal(3, 2, 4, seed=99)
        assert a == b

    def test_seed_sensitivity(self):
        draws = {random_ideal(3, 3, 4, seed=s) for s in range(30)}
        assert len(draws) > 20

    def test_var_names(self):
        assert random_ideal(3, 1, 0, seed=0).var_names == ("x1", "x2", "x3")

    def test_minimal_and_bounded(self):
        for s in range(50):
            ideal = random_ideal(2, 3, 5, seed=s)
            assert len(ideal.gens) <= 5
            for g in ideal.gens:
                assert not g.is_unit
                assert all(0 <= e <= 3 for e in g.exponents)
                assert sum(1 for h in ideal.gens if h.divides(g)) == 1

    def test_zero_gens(self):
        assert random_ideal(2, 3, 0, seed=1).gens == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            random_ideal(0, 1, 1, seed=0)
        with pytest.raises(ValueError):
            random_ideal(1, 0, 1, seed=0)
        with pytest.raises(ValueError):
            random_ideal(1, 1, -1, seed=0)

    @pytest.mark.parametrize("args", [(True, 2, 2), (2.5, 2, 2), (2, 2.0, 2), (2, 2, False)],
                             ids=["bool-n", "float-n", "float-max_exp", "bool-max_gens"])
    def test_rejects_arguments_that_are_not_ints(self, args):
        """A bool n used to build a one-variable ideal, a float one a TypeError."""
        with pytest.raises(ValueError, match="must be integers"):
            random_ideal(*args, seed=0)


class TestReportShape:
    def test_json_round_trip(self):
        report = verify_main_theorem(golden_ideal(), F2)
        blob = json.dumps(report.to_json_dict())
        data = json.loads(blob)
        assert set(data) == {"ideal", "field", "checks", "pass"}
        assert data["field"] == "gf:2"
        assert data["pass"] is True
        assert data["ideal"].startswith("vars x y\n")
        for check in data["checks"]:
            assert set(check) == {
                "name",
                "degrees_checked",
                "indices_checked",
                "failures",
            }

    def test_failure_serialization(self):
        miss = Mismatch((0, -1), 1, 2, 3)
        check = CheckResult("demo", 1, 1, (miss,))
        report = VerificationReport(
            MonomialIdeal(("x",), ()), Q, (check,)
        )
        assert not check.passed
        assert not report.passed
        data = report.to_json_dict()
        assert data["pass"] is False
        assert data["checks"][0]["failures"] == [
            {"degree": [0, -1], "i": 1, "lhs": 2, "rhs": 3}
        ]


class TestFailurePaths:
    """One side of an identity is made wrong at one place; the report
    must name exactly that place and fail."""

    @staticmethod
    def skew_lc_dims(monkeypatch, target, degree, index):
        """Add 1 to lc_dims(target, degree)[index] as the verifier sees it."""

        def skewed(ideal, at, field):
            dims = lc_dims(ideal, at, field)
            if (ideal, at) == (target, degree):
                dims = {**dims, index: dims.get(index, 0) + 1}
            return dims

        monkeypatch.setattr(verify_mod, "lc_dims", skewed)

    def test_main_theorem_mismatch(self, monkeypatch):
        ideal = golden_ideal()
        true = lc_dims(ideal, deg(1, 0), Q).get(0, 0)
        self.skew_lc_dims(monkeypatch, ideal, deg(1, 0), 0)
        report = verify_main_theorem(ideal, Q)
        assert report.passed is False
        main, window = report.checks
        assert main.failures == (Mismatch((1, 0), 0, true + 1, true),)
        assert window.passed

    def test_rhs_outside_window(self, monkeypatch):
        ideal = golden_ideal()
        polarized = polarize_ideal(ideal)
        shift = polarized.rho_total - ideal.n
        alpha = degree_map(deg(0, 0), polarized.rho)
        self.skew_lc_dims(monkeypatch, polarized.ideal, alpha, shift + ideal.n + 1)
        report = verify_main_theorem(ideal, Q)
        assert report.passed is False
        main, window = report.checks
        assert main.passed
        assert window.failures == (Mismatch((0, 0), ideal.n + 1, 0, 1),)

    def test_a_side_made_nonzero_where_both_sides_are_zero(self, monkeypatch):
        """The sweep compares only where a side is nonzero, so a fault that
        turns either side of a truly zero degree nonzero must still show."""
        ideal = golden_ideal()
        polarized = polarize_ideal(ideal)
        shift = polarized.rho_total - ideal.n
        alpha = degree_map(deg(0, 0), polarized.rho)
        assert lc_dims(ideal, deg(0, 0), Q) == {} == lc_dims(polarized.ideal, alpha, Q)
        self.skew_lc_dims(monkeypatch, ideal, deg(0, 0), 1)
        main, window = verify_main_theorem(ideal, Q).checks
        assert main.failures == (Mismatch((0, 0), 1, 1, 0),)
        assert (main.indices_checked, window.passed) == (6 * (ideal.n + 1), True)
        monkeypatch.undo()
        self.skew_lc_dims(monkeypatch, polarized.ideal, alpha, shift + ideal.n + 1)
        main, window = verify_main_theorem(ideal, Q).checks
        assert main.passed
        assert window.failures == (Mismatch((0, 0), ideal.n + 1, 0, 1),)

    def test_reduction_chain_mismatch(self, monkeypatch):
        ideal = golden_ideal()
        true = lc_dims(ideal, deg(0, 0), Q).get(1, 0)
        self.skew_lc_dims(monkeypatch, ideal, deg(0, 0), 1)
        report = verify_reduction_chain(ideal, deg(0, 0), Q)
        assert report.passed is False
        (check,) = report.checks
        assert check.name == "step3_partial_polarization_j1"
        assert check.failures == (Mismatch((0, 0), 1, true + 1, true),)

    def test_cone_vanishing_without_a_cone(self, monkeypatch):
        # capping x and restricting leaves (x*y) at (0, 1), outside its
        # box and at a non-void complex, so the cone test runs
        ideal = parse_ideal("vars x y\ngens x^2*y, x*y^2")
        monkeypatch.setattr(verify_mod, "is_cone", lambda cx, apex: False)
        report = verify_reduction_to_degree_zero(ideal, deg(0, 1), Q)
        assert report.passed is False
        *steps, terminal = report.checks
        assert all(c.passed for c in steps)
        assert terminal.name == "terminal_cone_vanishing"
        assert terminal.failures == (Mismatch((0, 1), -1, 1, 0),)

    def test_depth_shift_mismatch(self, monkeypatch):
        ideal = golden_ideal()
        polarized = polarize_ideal(ideal)
        shift = polarized.rho_total - ideal.n
        before = depth_and_dim(ideal, Q)
        after = depth_and_dim(polarized.ideal, Q)

        def skewed(target, field):
            dd = depth_and_dim(target, field)
            if target != polarized.ideal:
                return dd
            return replace(dd, depth=dd.depth + 1, dim=dd.dim - 1)

        monkeypatch.setattr(verify_mod, "depth_and_dim", skewed)
        report = verify_depth_shift(ideal, Q)
        assert report.passed is False
        assert report.checks[0].failures == (
            Mismatch((), 0, before.depth + shift, after.depth + 1),
            Mismatch((), 1, before.dim + shift, after.dim - 1),
        )


class TestArgumentTypes:
    """A field given as its spec string, or an ideal as its text, is named
    in a ValueError.  On (x) neither route ranks anything, and every Cech
    strand is empty, a cone or one level, so no later use of the field
    would catch it: the table would come back with field == 'q'."""

    NOT_A_FIELD = "field 'q' is not a FieldSpec"

    @pytest.mark.parametrize("call, match", [
        (lambda x: rank(SparseMatrix(1, 1, {(0, 0): 1}), "q"), NOT_A_FIELD),
        (lambda x: lc_dims(x, deg(0), "q"), NOT_A_FIELD),
        (lambda x: cech_dims(x, deg(0), "q"), NOT_A_FIELD),
        (lambda x: lc_table(x, "q"), NOT_A_FIELD),
        (lambda x: oracle_table(x, "q"), NOT_A_FIELD),
        (lambda x: depth_and_dim(x, "q"), NOT_A_FIELD),
        (lambda x: polarize_ideal("x^2"), "ideal 'x^2' is not a MonomialIdeal"),
        (lambda x: lc_dims("x", deg(0), Q), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: cech_dims("x", deg(0), Q), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: canonical_box("x"), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: lc_table("x", Q), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: oracle_table("x", Q), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: depth_and_dim("x", Q), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: verify_main_theorem("x", Q), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: verify_depth_shift("x", Q), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: partial_polarize("x", 1, 0), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: restrict("x", {1}), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: depolarize_check("x", x), "polarized 'x' is not a PolarizedIdeal"),
        (lambda x: depolarize_check(polarize_ideal(x), "x"), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: cech_strand("x", deg(0)), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: cech_piece_nonzero("x", deg(0), ()), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: reduced_cohomology_dims(SimplicialComplex(1, [()]), "x"),
         "field 'x' is not a FieldSpec"),
        (lambda x: reduced_cohomology_dims(SimplicialComplex.void(2), "x"),
         "field 'x' is not a FieldSpec"),
        (lambda x: reduced_cohomology_dims("x", Q), "complex 'x' is not a SimplicialComplex"),
        (lambda x: verify_reduction_chain("x", deg(0), Q), "ideal 'x' is not a MonomialIdeal"),
        (lambda x: verify_reduction_to_degree_zero("x", deg(0), Q),
         "ideal 'x' is not a MonomialIdeal"),
    ], ids=["rank", "lc_dims", "cech_dims", "lc_table", "oracle_table", "depth_and_dim",
            "polarize_ideal", "lc_dims_ideal", "cech_dims_ideal", "canonical_box_ideal",
            "lc_table_ideal", "oracle_table_ideal", "depth_and_dim_ideal",
            "verify_main_theorem_ideal", "verify_depth_shift_ideal", "partial_polarize_ideal",
            "restrict_ideal", "depolarize_check_polarized", "depolarize_check_ideal",
            "cech_strand_ideal", "cech_piece_nonzero_ideal", "reduced_cohomology_dims_irrelevant",
            "reduced_cohomology_dims_void", "reduced_cohomology_dims_complex",
            "verify_reduction_chain_ideal", "verify_reduction_to_degree_zero_ideal"])
    def test_names_the_argument(self, call, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            call(parse_ideal("vars x\ngens x"))
