"""Monomials, monomial ideals and multidegrees, with a small text format.

All exponent data is exact integer data.  Ideals normalize themselves to
their unique minimal generating set on construction, so two ideals are
equal iff they define the same quotient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def support(self) -> frozenset[int]:
        """Indices (1-based) of variables that appear."""
        return frozenset(i + 1 for i, e in enumerate(self.exponents) if e > 0)

    def divides(self, other: "Monomial") -> bool:
        if self.n != other.n:
            raise ValueError("monomials live in different rings")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))


def divides(m: Monomial, other: Monomial) -> bool:
    return m.divides(other)


def _canonical_key(m: Monomial) -> tuple:
    # ascending total degree, then descending lex, so x^2 prints before x*y
    return (m.total_degree, tuple(-e for e in m.exponents))


def minimalize(gens: Iterable[Monomial]) -> list[Monomial]:
    """Drop every monomial strictly divisible by another in the list.

    Duplicates count once.  The result is the unique minimal generating
    set of the ideal the input generates, in canonical order.
    """
    unique = {m.exponents: m for m in gens}
    ms = list(unique.values())
    if ms and any(m.n != ms[0].n for m in ms):
        raise ValueError("mixed ambient rings")
    kept = [
        m
        for m in ms
        if not any(g is not m and g.divides(m) for g in ms)
    ]
    return sorted(kept, key=_canonical_key)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in k[var_names], stored by its minimal generators."""

    var_names: tuple[str, ...]
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        names = tuple(self.var_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for nm in names:
            if not _NAME_RE.fullmatch(nm):
                raise ValueError(f"bad variable name {nm!r}")
        gens = tuple(minimalize(self.gens))
        for m in gens:
            if m.n != len(names):
                raise ValueError("generator does not match variable count")
        object.__setattr__(self, "var_names", names)
        object.__setattr__(self, "gens", gens)

    @property
    def n(self) -> int:
        return len(self.var_names)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return any(m.is_unit for m in self.gens)


def rho(ideal: MonomialIdeal) -> tuple[int, ...]:
    """Per-variable exponent bounds: max of each exponent over the
    minimal generators, clamped below by 1 so every variable owns at
    least one polarized copy."""
    out = []
    for i in range(ideal.n):
        best = max((m.exponents[i] for m in ideal.gens), default=0)
        out.append(max(1, best))
    return tuple(out)


def rho_total(ideal: MonomialIdeal) -> int:
    return sum(rho(ideal))


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

    @property
    def n(self) -> int:
        return len(self.entries)

    def negative_support(self) -> frozenset[int]:
        """Indices (1-based) with a strictly negative entry."""
        return frozenset(i + 1 for i, e in enumerate(self.entries) if e < 0)

    def truncated(self) -> "MultiDegree":
        """Replace every negative entry by -1."""
        return MultiDegree(tuple(e if e >= 0 else -1 for e in self.entries))

    def leq(self, bound: Sequence[int]) -> bool:
        if len(bound) != self.n:
            raise ValueError("length mismatch")
        return all(e <= b for e, b in zip(self.entries, bound))


def negative_support(degree: MultiDegree) -> frozenset[int]:
    return degree.negative_support()


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


# one token per match: a name, an ASCII integer, any other character, or
# the end of the line; the group that matched names the token's kind
_TOKEN_RE = re.compile(
    rf"[ \t]*(?:(?P<name>{_NAME_RE.pattern})|(?P<int>[0-9]+)|(?P<other>.)|(?P<end>$))"
)


def _tokens(body: str) -> list[tuple[str, str, int]]:
    """(kind, text, 1-based column) for each token of one line, ending in "end"."""
    return [
        (m.lastgroup, m[m.lastgroup], m.start(m.lastgroup) + 1)
        for m in _TOKEN_RE.finditer(body)
    ]


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the two-line ideal format.

    Raises:
        ParseError: on any malformed input, with line and column.
    """
    raw = text.splitlines()
    lines = [
        (lineno, _tokens(body))
        for lineno, line in enumerate(raw, start=1)
        if (body := line.split("#", 1)[0]).strip()
    ]

    def keyword_line(i: int, keyword: str) -> tuple[int, list[tuple[str, str, int]]]:
        if i >= len(lines):
            raise ParseError(f"expected a {keyword} line", len(raw) + 1, 1)
        lineno, toks = lines[i]
        kind, word, col = toks[0]
        if kind != "name":
            raise ParseError("expected a name", lineno, col)
        if word != keyword:
            raise ParseError(f"expected a {keyword} line", lineno, 1)
        return lineno, toks

    lineno, toks = keyword_line(0, "vars")
    names = [word for kind, word, _ in toks[1:] if kind == "name"]
    kind, _, col = next(t for t in toks[1:] if t[0] != "name")
    if kind != "end":
        raise ParseError("expected a name", lineno, col)
    if not names:
        raise ParseError("vars line declares no variables", lineno, col)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name", lineno, col)

    lineno, toks = keyword_line(1, "gens")
    if len(lines) > 2:
        raise ParseError("unexpected extra line", lines[2][0], 1)
    index_of = {nm: i for i, nm in enumerate(names)}
    gens: list[Monomial] = []
    i = 1
    while toks[i][0] != "end":
        exps = [0] * len(names)
        while True:
            kind, word, col = toks[i]
            if kind == "int":
                if int(word) != 1:
                    raise ParseError("only the factor 1 may be a bare integer", lineno, col)
            elif kind != "name":
                raise ParseError("expected a name", lineno, col)
            elif word not in index_of:
                raise ParseError(f"unknown variable {word!r}", lineno, col)
            else:
                var, e = index_of[word], 1
                if toks[i + 1][1] == "^":
                    i += 2
                    kind, word, col = toks[i]
                    if kind != "int":
                        raise ParseError("expected a non-negative integer", lineno, col)
                    e = int(word)
                exps[var] += e
            i += 1
            if toks[i][1] != "*":
                break
            i += 1
        gens.append(Monomial(tuple(exps)))
        kind, word, col = toks[i]
        if kind != "end":
            if word != ",":
                raise ParseError("expected ','", lineno, col)
            i += 1
            if toks[i][0] == "end":
                raise ParseError("trailing comma", lineno, toks[i][2])
    return MonomialIdeal(tuple(names), tuple(gens))
