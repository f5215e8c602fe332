"""Command-line surface: parse, polarize, complex, table, oracle,
depth, verify, fuzz.  No library module takes a name from it, and
bench/ reads `_merge_checks`.

Run as `monolc` or `python -m monolc`.  Each `_cmd_*` handler returns
(exit code, JSON value, text), and `main` alone writes the JSON or the
text that `--format` asks for.  Exit codes: 0 success or
verification pass, 1 verification failure, 2 usage or input errors,
3 internal error (a broken invariant or any unexpected exception),
130 interrupted, 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Sequence

from .ideals import (
    MonomialIdeal,
    MultiDegree,
    format_ideal,
    format_monomial,
    parse_ideal,
)
from .linalg import FieldSpec
from .polarization import polarize_ideal
from .simplicial import SimplicialComplex
from .takayama import canonical_box, depth_and_dim, lc_table, takayama_complex
from .verify import (
    CheckResult,
    VerificationReport,
    oracle_table,
    random_ideal,
    verify_depth_shift,
    verify_main_theorem,
    verify_reduction_chain,
)


def _load_ideal(path: str) -> MonomialIdeal:
    if path == "-":
        return parse_ideal(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal(fh.read())


def _parse_degree(text: str, n: int) -> MultiDegree:
    parts = [p.strip() for p in text.split(",")]
    try:
        if not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
            raise ValueError
        entries = tuple(map(int, parts))  # may exceed int()'s digit limit
    except ValueError:
        raise ValueError(f"bad degree {text!r}: entries must be integers")
    if len(entries) != n:
        raise ValueError(
            f"degree has {len(entries)} entries but the ideal has {n} variables"
        )
    return MultiDegree(entries)


def format_complex(cx: SimplicialComplex, names: Sequence[str]) -> str:
    """Sorted facet list with original variable names; the complex with
    no faces prints as "void" and the empty-face-only one as "{∅}"."""
    if cx.is_void:
        return "void"
    rendered = []
    for facet in cx.facets():
        rendered.append(" ".join(names[v - 1] for v in facet) if facet else "∅")
    return "{" + ", ".join(rendered) + "}"


def _merge_checks(reports: Sequence[VerificationReport]) -> list[CheckResult]:
    merged: dict[str, CheckResult] = {}
    for rep in reports:
        for chk in rep.checks:
            if (old := merged.get(chk.name)) is not None:
                chk = CheckResult(
                    chk.name,
                    old.degrees_checked + chk.degrees_checked,
                    old.indices_checked + chk.indices_checked,
                    old.failures + chk.failures,
                )
            merged[chk.name] = chk
    return list(merged.values())


def _ideal_json(ideal: MonomialIdeal) -> dict:
    gens = [format_monomial(m, ideal.var_names) for m in ideal.gens]
    return {"vars": list(ideal.var_names), "gens": gens}


def _cmd_parse(args) -> tuple[int, object, str]:
    ideal = _load_ideal(args.input)
    return 0, _ideal_json(ideal), format_ideal(ideal)


def _cmd_polarize(args) -> tuple[int, object, str]:
    polarized = polarize_ideal(_load_ideal(args.input))
    value = {
        **_ideal_json(polarized.ideal),
        "rho": list(polarized.rho),
        "origin_vars": list(range(1, polarized.origin_n + 1)),
    }
    return 0, value, format_ideal(polarized.ideal)


def _cmd_complex(args) -> tuple[int, object, str]:
    ideal = _load_ideal(args.input)
    degree = _parse_degree(args.degree, ideal.n)
    cx = takayama_complex(ideal, degree)
    value = {
        "vars": list(ideal.var_names),
        "degree": list(degree.entries),
        "void": cx.is_void,
        "facets": [[ideal.var_names[v - 1] for v in facet] for facet in cx.facets()],
    }
    return 0, value, format_complex(cx, ideal.var_names) + "\n"


def _cmd_table(args) -> tuple[int, object, str]:
    table = args.route(_load_ideal(args.input), FieldSpec.parse(args.field))
    if args.format == "tsv":
        text = table.to_tsv()
    else:
        lines = [f"vars {' '.join(table.ideal.var_names)}", f"field {table.field}"]
        for deg, i, d in table.entries:
            lines.append(f"({','.join(map(str, deg.entries))}) i={i} dim={d}")
        text = "\n".join(lines) + "\n"
    return 0, table.to_json_dict(), text


def _cmd_depth(args) -> tuple[int, object, str]:
    dd = depth_and_dim(_load_ideal(args.input), FieldSpec.parse(args.field))
    cm = dd.is_cohen_macaulay
    value = {"depth": dd.depth, "dim": dd.dim, "cohen_macaulay": cm}
    text = f"depth {dd.depth}\ndim {dd.dim}\ncohen_macaulay {str(cm).lower()}\n"
    return 0, value, text


def _cmd_verify(args) -> tuple[int, object, str]:
    ideal = _load_ideal(args.input)
    field = FieldSpec.parse(args.field)
    reports = [verify_main_theorem(ideal, field)]
    if args.chain:
        for degree in canonical_box(ideal):
            reports.append(verify_reduction_chain(ideal, degree, field))
    if args.depth_shift:
        reports.append(verify_depth_shift(ideal, field))
    merged = VerificationReport(ideal, field, tuple(_merge_checks(reports)))
    lines = []
    for chk in merged.checks:
        if chk.passed:
            lines.append(
                f"check {chk.name}: pass"
                f" ({chk.degrees_checked} degrees, {chk.indices_checked} indices)"
            )
        else:
            lines.append(f"check {chk.name}: FAIL ({len(chk.failures)} mismatches)")
            for m in chk.failures[:10]:
                lines.append(
                    f"  degree ({','.join(map(str, m.degree))})"
                    f" i={m.index}: lhs {m.lhs} != rhs {m.rhs}"
                )
    lines.append("pass" if merged.passed else "fail")
    text = "\n".join(lines) + "\n"
    return (0 if merged.passed else 1), merged.to_json_dict(), text


def _cmd_fuzz(args) -> tuple[int, object, str]:
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    field = FieldSpec.parse(args.field)
    random_ideal(args.n, args.max_exp, min(args.gens, 0), args.seed)  # shape only, no draw
    failures = 0
    reports = []
    for t in range(args.trials):
        ideal = random_ideal(args.n, args.max_exp, args.gens, args.seed + t)
        report = verify_main_theorem(ideal, field)
        failures += not report.passed
        if args.format == "json":
            reports.append(report.to_json_dict())
        else:
            # written as each trial ends, so an interrupted run keeps its lines
            gens = ", ".join(_ideal_json(ideal)["gens"]) or "0"
            status = "pass" if report.passed else "FAIL"
            print(f"trial {t} seed {args.seed + t}: ({gens}) {status}")
    value = {"trials": args.trials, "failures": failures, "reports": reports}
    text = f"{args.trials} trials, {failures} failures\n"
    return (0 if failures == 0 else 1), value, text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monolc",
        description="Exact graded local cohomology of monomial quotient rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, needs_input=True, field=False, formats=("text", "json")):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="ideal file path, or - for stdin")
        if field:
            p.add_argument("--field", default="q", help="q or gf:p")
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(func=func)
        return p

    add("parse", _cmd_parse)
    add("polarize", _cmd_polarize)
    p = add("complex", _cmd_complex)
    p.add_argument("--degree", required=True, help="comma-separated integers")
    # let values like -1,-1 pass as arguments instead of option lookalikes
    p._negative_number_matcher = re.compile(r"^-\d+(?:,-?\d+)*$")
    for name, route in (("table", lc_table), ("oracle", oracle_table)):
        p = add(name, _cmd_table, field=True, formats=("text", "json", "tsv"))
        p.set_defaults(route=route)
    add("depth", _cmd_depth, field=True)
    p = add("verify", _cmd_verify, field=True)
    p.add_argument("--chain", action="store_true")
    p.add_argument("--depth-shift", action="store_true", dest="depth_shift")
    p = add("fuzz", _cmd_fuzz, needs_input=False, field=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--max-exp", type=int, default=3, dest="max_exp")
    p.add_argument("--gens", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, value, text = args.func(args)
        if args.format == "json":
            text = json.dumps(value, indent=2) + "\n"
        sys.stdout.write(text)
        return code
    except BrokenPipeError:
        # the reader closed stdout: say nothing, and send what is still
        # buffered to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
