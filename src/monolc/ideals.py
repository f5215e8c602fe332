"""Monomials, monomial ideals and multidegrees, with a small text format.

All exponent data is exact integer data.  Ideals normalize themselves to
their unique minimal generating set on construction, so two ideals are
equal iff they define the same quotient.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from operator import neg
from typing import Iterable, Sequence


class ParseError(ValueError):
    """Malformed ideal text.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Monomial:
    """A monomial x^e recorded as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        for e in exps:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {e!r}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def _trusted(cls, exponents: tuple[int, ...]) -> "Monomial":
        """Unchecked: exponents is a tuple of non-negative ints."""
        m = object.__new__(cls)
        object.__setattr__(m, "exponents", exponents)
        return m

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def divides(self, other: "Monomial") -> bool:
        if self.n != other.n:
            raise ValueError("monomials live in different rings")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))


def _canonical_key(m: Monomial) -> tuple:
    # ascending total degree, then descending lex, so x^2 prints before x*y
    return (sum(m.exponents), tuple(map(neg, m.exponents)))


def minimalize(gens: Iterable[Monomial]) -> list[Monomial]:
    """Drop every monomial strictly divisible by another in the list.

    Duplicates count once.  The result is the unique minimal generating
    set of the ideal the input generates, in canonical order.

    One pass in canonical order: a proper divisor has smaller total
    degree, so it comes first, and a redundant divisor has a kept
    divisor of its own; so a monomial is redundant exactly when a kept
    one of smaller total degree divides it.
    """
    unique = {m.exponents: m for m in gens}
    if len({len(exps) for exps in unique}) > 1:
        raise ValueError("mixed ambient rings")
    kept: list[Monomial] = []
    lower: list[tuple[int, ...]] = []  # exponents kept below the current degree
    level: list[tuple[int, ...]] = []  # and at it
    degree = None
    for m in sorted(unique.values(), key=_canonical_key):
        exps = m.exponents
        if (d := sum(exps)) != degree:
            degree = d
            lower += level
            level = []
        for low in lower:
            for a, b in zip(low, exps):
                if a > b:
                    break
            else:
                break  # low divides m
        else:
            kept.append(m)
            level.append(exps)
    return kept


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in k[var_names], stored by its minimal generators.

    Building it computes `_rho` (see rho()) and `_steps` in one loop over
    the generators' exponents.  `_steps` holds per generator its
    distinct positive exponents d_1 < ... < d_r and the masks (variable
    i at bit i - 1) of the variables with exponent >= d_k, for k = 1..r,
    and last 0, as none exceeds d_r.  Its size follows the distinct
    exponents, never their magnitude.  The simplicial route reads its
    blockers off it; the Cech oracle does not.

    `_derived` is a private memo of the ideals the reduction moves build
    from this one, filled on first use: partial_polarize keys its result
    by (j, t), polarize_ideal and verify's x1..xn rename by a name.  It
    dies with the ideal, and stays out of ==, hash and repr; it is not
    pickled, so a pickle or a copy starts a fresh memo."""

    var_names: tuple[str, ...]
    gens: tuple[Monomial, ...]
    _rho: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _steps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = field(
        init=False, repr=False, compare=False)
    _derived: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(self.var_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for nm in names:
            if not _NAME_RE.fullmatch(nm):
                raise ValueError(f"bad variable name {nm!r}")
        gens = tuple(minimalize(self.gens))
        if gens and gens[0].n != len(names):  # minimalize checked they share a ring
            raise ValueError("generator does not match variable count")
        vars(self).update(vars(MonomialIdeal._trusted(names, gens)))

    @classmethod
    def _trusted(cls, var_names: tuple[str, ...], gens: tuple[Monomial, ...]) -> "MonomialIdeal":
        """Unchecked: distinct valid names; gens minimal, canonical, in that ring."""
        rho = [1] * len(var_names)
        steps = []
        for m in gens:
            at: dict[int, int] = {}  # exponent d > 0 -> the variables with exponent d
            for i, e in enumerate(m.exponents):
                if e:
                    at[e] = at.get(e, 0) | 1 << i
                    if e > rho[i]:
                        rho[i] = e
            ds = sorted(at)
            masks = [0]  # from d_r down, the variables with exponent >= d
            for d in reversed(ds):
                masks.append(masks[-1] | at[d])
            steps.append((tuple(ds), tuple(reversed(masks))))
        ideal = object.__new__(cls)
        vars(ideal).update(var_names=var_names, gens=gens, _rho=tuple(rho),
                           _steps=tuple(steps), _derived={})
        return ideal

    def __getstate__(self) -> dict:
        return {**vars(self), "_derived": {}}

    @property
    def n(self) -> int:
        return len(self.var_names)

    @property
    def is_unit(self) -> bool:
        # a minimal generating set holds the unit monomial only alone
        return len(self.gens) == 1 and not any(self.gens[0].exponents)


def _check_ideal(ideal: object) -> None:
    if not isinstance(ideal, MonomialIdeal):
        raise ValueError(f"ideal {ideal!r} is not a MonomialIdeal")


def rho(ideal: MonomialIdeal) -> tuple[int, ...]:
    """Per-variable exponent bounds: max of each exponent over the
    minimal generators, clamped below by 1 so every variable owns at
    least one polarized copy.  Computed once, when the ideal is built."""
    return ideal._rho


@dataclass(frozen=True)
class MultiDegree:
    """A point of Z^n grading the quotient ring."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        ents = tuple(self.entries)
        for e in ents:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"degree entries must be integers, got {e!r}")
        object.__setattr__(self, "entries", ents)

    @classmethod
    def _trusted(cls, entries: tuple[int, ...]) -> "MultiDegree":
        """Unchecked: entries is a tuple of ints."""
        a = object.__new__(cls)
        object.__setattr__(a, "entries", entries)
        return a

    @property
    def n(self) -> int:
        return len(self.entries)

    def leq(self, bound: Sequence[int]) -> bool:
        if len(bound) != self.n:
            raise ValueError("length mismatch")
        return all(e <= b for e, b in zip(self.entries, bound))


# ---------------------------------------------------------------------------
# text format:  a "vars" line, then a "gens" line, '#' starts a comment


def format_monomial(m: Monomial, names: Sequence[str]) -> str:
    parts = []
    for nm, e in zip(names, m.exponents):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


def format_ideal(ideal: MonomialIdeal) -> str:
    vars_line = "vars " + " ".join(ideal.var_names)
    gens_line = "gens " + ", ".join(
        format_monomial(m, ideal.var_names) for m in ideal.gens
    )
    return vars_line + "\n" + gens_line.rstrip() + "\n"


# The tokenizer scans each line once, into token texts only: a name, an
# ASCII integer, or any other character but a space or tab, which only
# separate tokens.  A token's first character tells its kind, and ""
# stands for the end of the line.  Columns are found by scanning the line
# again, and only for an error.
_TOKEN_RE = re.compile(rf"{_NAME_RE.pattern}|[0-9]+|[^ \t]")
_NAME_START = frozenset(string.ascii_letters + "_")
_DIGITS = frozenset(string.digits)


def _error(message: str, lineno: int, body: str, k: int) -> ParseError:
    """The error at token k of a line, the end of the line counting as the
    token after its last."""
    cols = [m.start() + 1 for m in _TOKEN_RE.finditer(body)]
    cols.append(len(body) + 1)
    return ParseError(message, lineno, cols[k])


def _integer(lineno: int, body: str, toks: list[str], k: int) -> int:
    try:
        return int(toks[k])
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise _error("integer has too many digits", lineno, body, k) from None


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the two-line ideal format.

    Raises:
        ParseError: on any malformed input, with line and column.
    """
    raw = text.splitlines()
    lines = [
        (lineno, body)
        for lineno, line in enumerate(raw, start=1)
        if (body := line.split("#", 1)[0]).strip()
    ]

    def keyword_line(i: int, keyword: str) -> tuple[int, str, list[str]]:
        if i >= len(lines):
            raise ParseError(f"expected a {keyword} line", len(raw) + 1, 1)
        lineno, body = lines[i]
        toks = _TOKEN_RE.findall(body)
        toks.append("")
        if toks[0] != keyword:
            if toks[0][0] not in _NAME_START:
                raise _error("expected a name", lineno, body, 0)
            raise ParseError(f"expected a {keyword} line", lineno, 1)
        return lineno, body, toks

    lineno, body, toks = keyword_line(0, "vars")
    end = len(toks) - 1
    for k in range(1, end):
        if toks[k][0] not in _NAME_START:
            raise _error("expected a name", lineno, body, k)
    names = toks[1:end]
    if not names:
        raise _error("vars line declares no variables", lineno, body, end)
    if len(set(names)) != len(names):
        raise _error("duplicate variable name", lineno, body, end)

    lineno, body, toks = keyword_line(1, "gens")
    if len(lines) > 2:
        raise ParseError("unexpected extra line", lines[2][0], 1)
    index_of = {nm: i for i, nm in enumerate(names)}
    gens: list[Monomial] = []
    i = 1
    while toks[i]:
        exps = [0] * len(names)
        while True:
            word = toks[i]
            var = index_of.get(word)
            if var is not None:
                e = 1
                if toks[i + 1] == "^":
                    i += 2
                    if toks[i][:1] not in _DIGITS:
                        raise _error("expected a non-negative integer", lineno, body, i)
                    e = _integer(lineno, body, toks, i)
                exps[var] += e
            elif word[:1] in _DIGITS:
                if _integer(lineno, body, toks, i) != 1:
                    raise _error("only the factor 1 may be a bare integer", lineno, body, i)
            elif word[:1] in _NAME_START:
                raise _error(f"unknown variable {word!r}", lineno, body, i)
            else:
                raise _error("expected a name", lineno, body, i)
            i += 1
            if toks[i] != "*":
                break
            i += 1
        gens.append(Monomial._trusted(tuple(exps)))
        if word := toks[i]:
            if word != ",":
                raise _error("expected ','", lineno, body, i)
            i += 1
            if not toks[i]:
                raise _error("trailing comma", lineno, body, i)
    # the checks above are the constructors': names distinct and valid,
    # exponents from [0-9]+, every vector of length n
    return MonomialIdeal._trusted(tuple(names), tuple(minimalize(gens)))
