"""Command-line surface: parse, polarize, complex, table, oracle,
depth, verify, fuzz.

Run as `monolc` or `python -m monolc`.  Exit codes: 0 success or
verification pass, 1 verification failure, 2 usage or input errors,
3 internal error (a broken invariant), 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from .cech import cech_dims
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
from .takayama import (
    LCTable,
    box_table,
    canonical_box,
    depth_and_dim,
    lc_table,
    takayama_complex,
)
from .verify import (
    CheckResult,
    VerificationReport,
    random_ideal,
    verify_depth_shift,
    verify_main_theorem,
    verify_reduction_chain,
)


class UsageError(ValueError):
    pass


def oracle_table(ideal: MonomialIdeal, field: FieldSpec) -> LCTable:
    """The table over the canonical box computed by the brute-force
    route; mirrors lc_table entry for entry when both are correct."""
    return box_table(ideal, field, cech_dims)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_ideal(path: str) -> MonomialIdeal:
    return parse_ideal(_read_input(path))


def _parse_degree(text: str, n: int) -> MultiDegree:
    parts = text.split(",")
    try:
        entries = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise UsageError(f"bad degree {text!r}: entries must be integers")
    if len(entries) != n:
        raise UsageError(
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


def _print_table(table: LCTable, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(table.to_json())
    elif fmt == "tsv":
        sys.stdout.write(table.to_tsv())
    else:
        print("vars " + " ".join(table.ideal.var_names))
        print(f"field {table.field}")
        for deg, i, d in table.entries:
            print(f"({','.join(map(str, deg.entries))}) i={i} dim={d}")


def _merge_checks(reports: Sequence[VerificationReport]) -> list[CheckResult]:
    order: list[str] = []
    acc: dict[str, list] = {}
    for rep in reports:
        for chk in rep.checks:
            if chk.name not in acc:
                order.append(chk.name)
                acc[chk.name] = [0, 0, []]
            slot = acc[chk.name]
            slot[0] += chk.degrees_checked
            slot[1] += chk.indices_checked
            slot[2].extend(chk.failures)
    return [
        CheckResult(name, acc[name][0], acc[name][1], tuple(acc[name][2]))
        for name in order
    ]


def _print_report(report: VerificationReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    for chk in report.checks:
        if chk.passed:
            print(
                f"check {chk.name}: pass"
                f" ({chk.degrees_checked} degrees, {chk.indices_checked} indices)"
            )
        else:
            print(f"check {chk.name}: FAIL ({len(chk.failures)} mismatches)")
            for m in chk.failures[:10]:
                print(
                    f"  degree ({','.join(map(str, m.degree))})"
                    f" i={m.index}: lhs {m.lhs} != rhs {m.rhs}"
                )
    print("pass" if report.passed else "fail")


def _cmd_parse(args) -> int:
    ideal = _load_ideal(args.input)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "vars": list(ideal.var_names),
                    "gens": [format_monomial(m, ideal.var_names) for m in ideal.gens],
                },
                indent=2,
            )
        )
    else:
        sys.stdout.write(format_ideal(ideal))
    return 0


def _cmd_polarize(args) -> int:
    polarized = polarize_ideal(_load_ideal(args.input))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "vars": list(polarized.ideal.var_names),
                    "gens": [
                        format_monomial(m, polarized.ideal.var_names)
                        for m in polarized.ideal.gens
                    ],
                    "rho": list(polarized.rho),
                    "origin_vars": list(range(1, polarized.origin_n + 1)),
                },
                indent=2,
            )
        )
    else:
        sys.stdout.write(format_ideal(polarized.ideal))
    return 0


def _cmd_complex(args) -> int:
    ideal = _load_ideal(args.input)
    degree = _parse_degree(args.degree, ideal.n)
    cx = takayama_complex(ideal, degree)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "vars": list(ideal.var_names),
                    "degree": list(degree.entries),
                    "void": cx.is_void,
                    "facets": [
                        [ideal.var_names[v - 1] for v in facet]
                        for facet in ([] if cx.is_void else cx.facets())
                    ],
                },
                indent=2,
            )
        )
    else:
        print(format_complex(cx, ideal.var_names))
    return 0


def _cmd_table(args) -> int:
    ideal = _load_ideal(args.input)
    field = FieldSpec.parse(args.field)
    _print_table(lc_table(ideal, field), args.format)
    return 0


def _cmd_oracle(args) -> int:
    ideal = _load_ideal(args.input)
    field = FieldSpec.parse(args.field)
    _print_table(oracle_table(ideal, field), args.format)
    return 0


def _cmd_depth(args) -> int:
    ideal = _load_ideal(args.input)
    field = FieldSpec.parse(args.field)
    dd = depth_and_dim(ideal, field)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "depth": dd.depth,
                    "dim": dd.dim,
                    "cohen_macaulay": dd.is_cohen_macaulay,
                },
                indent=2,
            )
        )
    else:
        print(f"depth {dd.depth}")
        print(f"dim {dd.dim}")
        print(f"cohen_macaulay {'true' if dd.is_cohen_macaulay else 'false'}")
    return 0


def _cmd_verify(args) -> int:
    ideal = _load_ideal(args.input)
    field = FieldSpec.parse(args.field)
    reports = [verify_main_theorem(ideal, field)]
    if args.chain:
        for degree in canonical_box(ideal):
            reports.append(verify_reduction_chain(ideal, degree, field))
    if args.depth_shift:
        reports.append(verify_depth_shift(ideal, field))
    merged = VerificationReport(ideal, field, tuple(_merge_checks(reports)))
    _print_report(merged, args.format)
    return 0 if merged.passed else 1


def _cmd_fuzz(args) -> int:
    if args.trials < 0:
        raise UsageError(f"--trials must be non-negative, got {args.trials}")
    field = FieldSpec.parse(args.field)
    failures = 0
    dicts = []
    for t in range(args.trials):
        ideal = random_ideal(args.n, args.max_exp, args.gens, args.seed + t)
        report = verify_main_theorem(ideal, field)
        if not report.passed:
            failures += 1
        if args.format == "json":
            dicts.append(report.to_json_dict())
        else:
            gens = (
                ", ".join(format_monomial(m, ideal.var_names) for m in ideal.gens)
                or "0"
            )
            status = "pass" if report.passed else "FAIL"
            print(f"trial {t} seed {args.seed + t}: ({gens}) {status}")
    if args.format == "json":
        print(
            json.dumps(
                {"trials": args.trials, "failures": failures, "reports": dicts},
                indent=2,
            )
        )
    else:
        print(f"{args.trials} trials, {failures} failures")
    return 0 if failures == 0 else 1


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
    add("table", _cmd_table, field=True, formats=("text", "json", "tsv"))
    add("oracle", _cmd_oracle, field=True, formats=("text", "json", "tsv"))
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
