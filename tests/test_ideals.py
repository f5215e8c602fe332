import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolc import (
    FieldSpec,
    Monomial,
    MonomialIdeal,
    MultiDegree,
    ParseError,
    canonical_box,
    format_ideal,
    format_monomial,
    minimalize,
    parse_ideal,
    polarize_ideal,
    rho,
)
from monolc import verify
from conftest import corpus, edge_ideal, many_generators


def m(*exps):
    return Monomial(tuple(exps))


class TestMonomial:
    def test_basic_fields(self):
        mono = m(2, 0, 1)
        assert mono.n == 3
        assert mono.exponents == (2, 0, 1)
        assert not mono.is_unit

    def test_unit(self):
        assert m(0, 0).is_unit

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
        assert m(1).divides(m(2))
        assert not m(2, 0).divides(m(1, 1))
        assert m(0, 0).divides(m(3, 7))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            m(1).divides(m(1, 0))


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


def minimal_by_definition(gens):
    """Exponents of the minimal generators by the definition: each
    distinct monomial that no other distinct one in the list divides,
    by ascending total degree, then descending lex.  The all-pairs
    reference that the one-pass minimalize replaced."""
    unique = {g.exponents for g in gens}
    kept = [
        e for e in unique
        if not any(f != e and all(a <= b for a, b in zip(f, e)) for f in unique)
    ]
    return sorted(kept, key=lambda e: (sum(e), [-a for a in e]))


def generator_draws(monkeypatch):
    """The generator lists random_ideal hands to MonomialIdeal for
    corpus(200) and many_generators(40), before minimalization."""
    draws = []
    build = verify.MonomialIdeal

    def recorded(names, gens):
        draws.append(list(gens))
        return build(names, gens)

    monkeypatch.setattr(verify, "MonomialIdeal", recorded)
    corpus(200)
    many_generators(40)
    monkeypatch.undo()
    return draws


class TestMinimalizeByDefinition:
    def agree(self, gens):
        assert [g.exponents for g in minimalize(gens)] == minimal_by_definition(gens)

    def test_recipe_draws(self, monkeypatch):
        draws = generator_draws(monkeypatch)
        assert len(draws) == 240
        assert sum(len(d) > len(minimalize(d)) for d in draws) > 50  # many drop a generator
        for gens in draws:
            self.agree(gens)

    def test_duplicates_and_equal_degrees(self):
        # a few exponents in few variables: many repeats, many ties in total degree
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 4)
            pool = [m(*(rng.randint(0, 2) for _ in range(n))) for _ in range(rng.randint(1, 8))]
            gens = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
            self.agree(gens)
            self.agree(gens[::-1])

    @pytest.mark.parametrize("k", range(2, 10))
    def test_edge_ideals_with_multiples(self, k):
        edges = edge_ideal(k).gens
        rng = random.Random(k)
        multiples = [
            m(*(a + rng.randint(0, 2) for a in g.exponents)) for g in rng.choices(edges, k=3 * k)
        ]
        gens = list(edges) + multiples
        rng.shuffle(gens)
        self.agree(gens)
        assert tuple(minimalize(gens)) == edges


def rho_by_definition(ideal):
    """Per variable, the largest exponent in a minimal generator, at least 1."""
    return tuple(max([1] + [g.exponents[i] for g in ideal.gens]) for i in range(ideal.n))


def steps_by_definition(ideal):
    """Per minimal generator, its distinct positive exponents d_1 < ... < d_r
    and the masks of the variables with exponent >= d_k, then 0."""
    table = []
    for g in ideal.gens:
        ds = sorted({e for e in g.exponents if e > 0})
        masks = [sum(1 << i for i, e in enumerate(g.exponents) if e >= d) for d in ds]
        table.append((tuple(ds), (*masks, 0)))
    return tuple(table)


class TestStoredRho:
    def reduction_ideals(self, ideal, monkeypatch):
        """Every restriction, partial polarization and x1..xn rename that
        verify_reduction_chain builds over the box of ideal."""
        built = []

        def recorded(fn, part=lambda out: out):
            def wrapper(*args):
                out = fn(*args)
                built.append(part(out))
                return out

            return wrapper

        monkeypatch.setattr(verify, "_restrict", recorded(verify._restrict))
        monkeypatch.setattr(verify, "partial_polarize", recorded(verify.partial_polarize))
        monkeypatch.setattr(verify, "_boxed", recorded(verify._boxed, lambda out: out[0]))
        for degree in canonical_box(ideal):
            verify.verify_reduction_chain(ideal, degree, FieldSpec.rationals())
        monkeypatch.undo()
        return built

    def test_matches_a_recomputation(self, monkeypatch):
        """rho and the step table, on every ideal the library builds here;
        also on a twin of each ideal whose names start with x_, which
        _boxed renames x1..xn."""
        steps = renamed = 0
        for ideal in corpus(200):
            if ideal.is_unit:
                continue
            twin = MonomialIdeal(tuple(f"x_{v}" for v in ideal.var_names), ideal.gens)
            for start in (ideal, twin):
                reduced = self.reduction_ideals(start, monkeypatch)
                steps += len(reduced)
                renamed += sum(each.var_names[:1] == ("x1",) for each in reduced)
                for each in [start, polarize_ideal(start).ideal, *reduced]:
                    assert rho(each) == rho_by_definition(each), format_ideal(each)
                    assert sum(rho(each)) == sum(rho_by_definition(each))
                    assert each._steps == steps_by_definition(each), format_ideal(each)
        assert steps > 2000 and renamed > 1000, (steps, renamed)

    def test_identity_ignores_it(self):
        ideal = parse_ideal("vars x y z\ngens x^3*y, y^2*z, x*z^2")
        for twin in (
            MonomialIdeal(("x", "y", "z"), (m(1, 0, 2), m(3, 1, 0), m(0, 2, 1), m(3, 3, 3))),
            MonomialIdeal(("x", "y", "z"), ideal.gens[::-1] + (m(2, 2, 2), m(1, 0, 2))),
        ):
            assert ideal == twin and hash(ideal) == hash(twin) and repr(ideal) == repr(twin)
            assert twin._rho == ideal._rho and twin._steps == ideal._steps
        assert hash(ideal) == hash((ideal.var_names, ideal.gens))
        assert ideal != MonomialIdeal(("x", "y", "w"), ideal.gens)
        assert repr(ideal) == (
            "MonomialIdeal(var_names=('x', 'y', 'z'), gens=(Monomial(exponents=(1, 0, 2)),"
            " Monomial(exponents=(0, 2, 1)), Monomial(exponents=(3, 1, 0))))"
        )

    def test_survives_copy_and_pickle(self):
        ideal = parse_ideal("vars x y z\ngens x^3*y, y^2*z, x*z^2")
        for twin in (copy.copy(ideal), copy.deepcopy(ideal), pickle.loads(pickle.dumps(ideal))):
            assert twin == ideal and hash(twin) == hash(ideal) and repr(twin) == repr(ideal)
            assert rho(twin) == rho(ideal) == (3, 2, 2)
            assert twin._steps == ideal._steps == (
                ((1, 2), (0b101, 0b100, 0)), ((1, 2), (0b110, 0b010, 0)), ((1, 3), (0b011, 0b001, 0))
            )


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
        assert not zero.gens and not zero.is_unit
        assert unit.is_unit and unit.gens

    def test_is_unit_agrees_with_the_generator_wise_definition(self):
        """is_unit reads the minimal generating set, which holds the unit
        monomial only as its sole generator; a unit among others counts."""
        for ideal in corpus(60):
            assert ideal.is_unit == any(g.is_unit for g in ideal.gens), ideal
        unit = MonomialIdeal(("x", "y"), (m(1, 0), m(0, 0), m(1, 1)))
        assert unit.is_unit and unit.gens == (m(0, 0),)

    def test_structural_equality(self):
        a = MonomialIdeal(("x", "y"), (m(2, 0), m(1, 1)))
        b = MonomialIdeal(("x", "y"), (m(1, 1), m(3, 0), m(2, 0)))
        assert a == b


class TestRho:
    def test_golden(self):
        ideal = parse_ideal("vars x y\ngens x^2, x*y")
        assert rho(ideal) == (2, 1)
        assert sum(rho(ideal)) == 3

    def test_clamp_for_absent_variable(self):
        ideal = parse_ideal("vars x y z\ngens x*y")
        assert rho(ideal) == (1, 1, 1)

    def test_single_variable(self):
        assert rho(parse_ideal("vars x\ngens x^3")) == (3,)

    def test_zero_ideal(self):
        assert rho(parse_ideal("vars x y\ngens")) == (1, 1)


class TestMultiDegree:
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
        assert parse_ideal("vars x\ngens").gens == ()

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
            pytest.param(
                "vars x\ngens x^" + "9" * (sys.get_int_max_str_digits() + 1),
                "integer has too many digits", 2, 8, id="over-long exponent",
            ),
            pytest.param(
                "vars x\ngens " + "1" * (sys.get_int_max_str_digits() + 1),
                "integer has too many digits", 2, 6, id="over-long bare integer",
            ),
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

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_well_formed_text_parses_to_the_checked_ideal(self, data):
        """Random spaces and tabs between tokens, comments, blank lines,
        CRLF endings, factors 1, repeated factors, ^0 and zero-padded
        exponents: the text parses to the ideal the validating constructors
        build from the same names and exponents."""
        draw = data.draw
        names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                              min_size=1, max_size=4, unique=True))
        space = st.text(" \t", max_size=2)
        sep = st.text(" \t", min_size=1, max_size=2)
        comment = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=5)
        newline = st.sampled_from(["\n", "\r\n"])

        def end_of_line():
            tail = draw(space)
            if draw(st.booleans()):
                tail += "#" + draw(comment)
            return tail + draw(newline)

        def filler():
            return "".join(draw(space) + end_of_line() for _ in range(draw(st.integers(0, 2))))

        gens, written = [], []
        for _ in range(draw(st.integers(0, 4))):
            exps, factors = [0] * len(names), []
            for _ in range(draw(st.integers(1, 4))):
                if draw(st.integers(0, 4)) == 0:
                    factors.append("1")
                    continue
                var, e = draw(st.integers(0, len(names) - 1)), draw(st.integers(0, 12))
                exps[var] += e
                if e == 1 and draw(st.booleans()):
                    factors.append(names[var])
                else:
                    zeros = "0" * draw(st.integers(0, 2))
                    factors.append(f"{names[var]}{draw(space)}^{draw(space)}{zeros}{e}")
            gens.append(Monomial(tuple(exps)))
            written.append("".join(f + draw(space) + "*" + draw(space) for f in factors[:-1])
                           + factors[-1])
        vars_line = draw(space) + "vars" + "".join(draw(sep) + nm for nm in names)
        gens_line = draw(space) + "gens" + (draw(sep) if written else "") + "".join(
            w + draw(space) + "," + draw(space) for w in written[:-1]) + "".join(written[-1:])
        text = (filler() + vars_line + end_of_line() + filler() + gens_line + end_of_line()
                + filler())
        expected = MonomialIdeal(tuple(names), tuple(gens))
        parsed = parse_ideal(text)
        assert (parsed, parsed.var_names, parsed.gens) == (
            expected, expected.var_names, expected.gens), text


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
            "vars x y z\ngens x*x*y, x^2*y, y^3*z^0, x^3*y^2*z, 1*z^2",
        ]
        for text in texts:
            ideal = parse_ideal(text)
            again = parse_ideal(format_ideal(ideal))
            assert again == ideal
            assert (again._rho, again._steps) == (ideal._rho, ideal._steps)
            built = MonomialIdeal(ideal.var_names, ideal.gens)
            assert (built._rho, built._steps) == (ideal._rho, ideal._steps)

    def test_canonical_print(self):
        ideal = parse_ideal("vars x y\ngens x*y, x^2")
        assert format_ideal(ideal) == "vars x y\ngens x^2, x*y\n"
        zero = parse_ideal("vars x\ngens")
        assert format_ideal(zero) == "vars x\ngens\n"
