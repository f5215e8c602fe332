import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolc import (
    Monomial,
    MonomialIdeal,
    MultiDegree,
    ParseError,
    divides,
    format_ideal,
    format_monomial,
    minimalize,
    negative_support,
    parse_ideal,
    rho,
    rho_total,
)


def m(*exps):
    return Monomial(tuple(exps))


class TestMonomial:
    def test_basic_fields(self):
        mono = m(2, 0, 1)
        assert mono.n == 3
        assert mono.total_degree == 3
        assert mono.support == {1, 3}
        assert not mono.is_unit

    def test_unit(self):
        assert m(0, 0).is_unit
        assert m(0, 0).support == frozenset()

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            m(1, -1)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            m(1, True)
        with pytest.raises(ValueError):
            Monomial((1.0, 2))


class TestDivides:
    def test_examples(self):
        assert divides(m(1), m(2))
        assert not divides(m(2, 0), m(1, 1))
        assert divides(m(0, 0), m(3, 7))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            divides(m(1), m(1, 0))


class TestMinimalize:
    def test_drops_multiples(self):
        assert minimalize([m(2, 0), m(3, 0), m(1, 1)]) == [m(2, 0), m(1, 1)]

    def test_empty(self):
        assert minimalize([]) == []

    def test_dedup(self):
        assert minimalize([m(1, 1), m(1, 1)]) == [m(1, 1)]

    def test_mixed_lengths(self):
        with pytest.raises(ValueError):
            minimalize([m(1), m(1, 0)])

    def test_idempotent(self):
        gens = [m(2, 1), m(1, 3), m(2, 2), m(0, 4)]
        once = minimalize(gens)
        assert minimalize(once) == once

    def test_cover(self):
        gens = [m(2, 1), m(1, 3), m(2, 2), m(0, 4), m(5, 5)]
        kept = minimalize(gens)
        for g in gens:
            assert any(k.divides(g) for k in kept)

    def test_canonical_order(self):
        # ascending total degree, descending lex inside a degree
        assert minimalize([m(1, 1), m(2, 0)]) == [m(2, 0), m(1, 1)]
        assert minimalize([m(0, 3), m(2, 0)]) == [m(2, 0), m(0, 3)]


class TestMonomialIdeal:
    def test_normalizes_on_construction(self):
        ideal = MonomialIdeal(("x", "y"), (m(3, 0), m(2, 0), m(1, 1), m(1, 1)))
        assert ideal.gens == (m(2, 0), m(1, 1))

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            MonomialIdeal(("x", "x"), ())

    def test_bad_name(self):
        with pytest.raises(ValueError):
            MonomialIdeal(("x", "2y"), ())

    def test_gen_length_mismatch(self):
        with pytest.raises(ValueError):
            MonomialIdeal(("x", "y"), (m(1),))

    def test_zero_and_unit(self):
        zero = MonomialIdeal(("x",), ())
        unit = MonomialIdeal(("x",), (m(0),))
        assert zero.is_zero and not zero.is_unit
        assert unit.is_unit and not unit.is_zero

    def test_structural_equality(self):
        a = MonomialIdeal(("x", "y"), (m(2, 0), m(1, 1)))
        b = MonomialIdeal(("x", "y"), (m(1, 1), m(3, 0), m(2, 0)))
        assert a == b


class TestRho:
    def test_golden(self):
        ideal = parse_ideal("vars x y\ngens x^2, x*y")
        assert rho(ideal) == (2, 1)
        assert rho_total(ideal) == 3

    def test_clamp_for_absent_variable(self):
        ideal = parse_ideal("vars x y z\ngens x*y")
        assert rho(ideal) == (1, 1, 1)

    def test_single_variable(self):
        assert rho(parse_ideal("vars x\ngens x^3")) == (3,)

    def test_zero_ideal(self):
        assert rho(parse_ideal("vars x y\ngens")) == (1, 1)


class TestMultiDegree:
    def test_negative_support(self):
        assert negative_support(MultiDegree((1, 0))) == frozenset()
        assert negative_support(MultiDegree((0, -1))) == {2}
        assert negative_support(MultiDegree((-3, -1, 2))) == {1, 2}

    def test_truncated(self):
        assert MultiDegree((-3, -1, 2)).truncated() == MultiDegree((-1, -1, 2))

    def test_leq(self):
        assert MultiDegree((1, -2)).leq((2, 0))
        assert not MultiDegree((1, 1)).leq((2, 0))
        with pytest.raises(ValueError):
            MultiDegree((1,)).leq((2, 0))

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            MultiDegree((1, 0.5))


class TestParser:
    def test_golden(self):
        ideal = parse_ideal("vars x y\ngens x^2, x*y")
        assert ideal.var_names == ("x", "y")
        assert ideal.gens == (m(2, 0), m(1, 1))

    def test_zero_ideal(self):
        assert parse_ideal("vars x\ngens").is_zero

    def test_unit_via_zero_exponent(self):
        ideal = parse_ideal("vars x\ngens x^0")
        assert ideal.is_unit

    def test_comments_and_blanks(self):
        text = "# header\n\nvars x y  # names\n\ngens x^2, x*y  # gens\n"
        assert parse_ideal(text) == parse_ideal("vars x y\ngens x^2, x*y")

    def test_literal_one(self):
        assert parse_ideal("vars x\ngens 1").is_unit
        assert parse_ideal("vars x\ngens 1*x").gens == (m(1),)

    def test_repeated_factor_accumulates(self):
        assert parse_ideal("vars x\ngens x*x^2").gens == (m(3),)

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("vars x y\ngens x^2, w")
        assert exc.value.line == 2
        assert exc.value.col == 11

    def test_missing_gens_line(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("vars x y\n")
        assert "gens" in str(exc.value)

    def test_empty_vars(self):
        with pytest.raises(ParseError):
            parse_ideal("vars\ngens")

    def test_duplicate_vars(self):
        with pytest.raises(ParseError):
            parse_ideal("vars x x\ngens")

    def test_extra_line(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("vars x\ngens x\ngens x")
        assert exc.value.line == 3

    def test_trailing_comma(self):
        with pytest.raises(ParseError):
            parse_ideal("vars x\ngens x,")

    def test_bare_integer_other_than_one(self):
        with pytest.raises(ParseError):
            parse_ideal("vars x\ngens 2")

    def test_caret_without_exponent(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("vars x\ngens x^")
        assert exc.value.line == 2

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_ideal("vars x\ngens x^-1")

    def test_missing_comma(self):
        with pytest.raises(ParseError):
            parse_ideal("vars x y\ngens x y")

    def test_not_vars_first(self):
        with pytest.raises(ParseError):
            parse_ideal("gens x\nvars x")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_ideal("")
        with pytest.raises(ParseError):
            parse_ideal("# only a comment\n")

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            ("", "expected a vars line", 1, 1),
            ("# only a comment\n\n", "expected a vars line", 3, 1),
            ("gens x\nvars x", "expected a vars line", 1, 1),
            ("1 x\ngens", "expected a name", 1, 1),
            ("vars x-y\ngens", "expected a name", 1, 7),
            ("vars\ngens", "vars line declares no variables", 1, 5),
            ("vars x y x \ngens", "duplicate variable name", 1, 12),
            ("vars x\n", "expected a gens line", 2, 1),
            ("vars x\nvars x", "expected a gens line", 2, 1),
            ("vars x\ngens x\ngens x", "unexpected extra line", 3, 1),
            ("vars x\ngens 2", "only the factor 1 may be a bare integer", 2, 6),
            ("vars x y\ngens x^2, w", "unknown variable 'w'", 2, 11),
            ("vars x\ngens x*", "expected a name", 2, 8),
            ("vars x\ngens x,,x", "expected a name", 2, 8),
            ("vars x\ngens x^-1", "expected a non-negative integer", 2, 8),
            ("vars x\ngens x^", "expected a non-negative integer", 2, 8),
            ("vars x y\ngens x y", "expected ','", 2, 8),
            ("vars x\ngens x,", "trailing comma", 2, 8),
            ("vars x\ngens x, # c", "trailing comma", 2, 9),
        ],
    )
    def test_error_message_and_position(self, text, message, line, col):
        with pytest.raises(ParseError) as exc:
            parse_ideal(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert str(exc.value) == f"line {line}, col {col}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vars x\ngens x^\u0663", "expected a non-negative integer"),
            ("vars x\ngens \u0661", "expected a name"),
        ],
    )
    def test_only_ascii_digits(self, text, message):
        # Arabic-Indic digits three and one: str.isdigit() and int() accept them
        with pytest.raises(ParseError, match=message):
            parse_ideal(text)

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            parse_ideal(text)
        except ParseError:
            pass


class TestFormatting:
    def test_format_monomial(self):
        names = ("x", "y")
        assert format_monomial(m(2, 0), names) == "x^2"
        assert format_monomial(m(1, 1), names) == "x*y"
        assert format_monomial(m(0, 0), names) == "1"

    def test_round_trip(self):
        texts = [
            "vars x y\ngens x^2, x*y",
            "vars x\ngens",
            "vars a b c\ngens a^3, a*b*c^2, b^2",
            "vars x\ngens 1",
        ]
        for text in texts:
            ideal = parse_ideal(text)
            assert parse_ideal(format_ideal(ideal)) == ideal

    def test_canonical_print(self):
        ideal = parse_ideal("vars x y\ngens x*y, x^2")
        assert format_ideal(ideal) == "vars x y\ngens x^2, x*y\n"
        zero = parse_ideal("vars x\ngens")
        assert format_ideal(zero) == "vars x\ngens\n"
