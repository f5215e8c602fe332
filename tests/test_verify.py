import json

import pytest

from monolc import (
    CheckResult,
    FieldSpec,
    Mismatch,
    MonomialIdeal,
    MultiDegree,
    VerificationReport,
    canonical_box,
    lc_dims,
    parse_ideal,
    random_ideal,
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
        assert random_ideal(2, 3, 0, seed=1).is_zero

    def test_validation(self):
        with pytest.raises(ValueError):
            random_ideal(0, 1, 1, seed=0)
        with pytest.raises(ValueError):
            random_ideal(1, 0, 1, seed=0)
        with pytest.raises(ValueError):
            random_ideal(1, 1, -1, seed=0)


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
