"""One sha256 per CLI command over the test corpus, to check that two
trees print byte-identical output.

Runs `monolc.cli.main` in-process on every non-unit ideal of the
`corpus(200)` and `many_generators(40)` recipes of tests/conftest.py
and on their polarizations, fed on stdin; `complex` at up to 8 evenly
spaced degrees of each input's canonical box, `fuzz` once per fixed
shape, and `fuzz` at --trials 0 and 1 on a valid and a bad shape.  It
prints per command the sha256 of every (argv, input, stdout, stderr,
exit code) it gave:

    python3 tools/cli_digest.py > before.txt   # in one checkout
    python3 tools/cli_digest.py > after.txt    # in the other
    diff before.txt after.txt

It uses the standard library and the monolc and tests/ of its own
checkout; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import corpus, many_generators  # noqa: E402
from monolc import canonical_box, cli, format_ideal, parse_ideal, polarize_ideal  # noqa: E402

FIELDS = ("q", "gf:2", "gf:32003")
FORMATS = ([], ["--format", "json"])
COMMANDS = [["parse", "-"], ["polarize", "-"]] + [
    [name, "-", *options, "--field", field]
    for field in FIELDS
    for name, *options in (
        ["table"],
        ["table", "--format", "json"],
        ["table", "--format", "tsv"],
        ["oracle"],
        ["depth"],
        ["verify", "--chain", "--depth-shift", "--format", "json"],
    )
]
FUZZ_SHAPES = (
    ["--n", "2", "--max-exp", "2", "--gens", "3", "--seed", "0"],
    ["--n", "3", "--max-exp", "3", "--gens", "4", "--seed", "100"],
    ["--n", "4", "--max-exp", "2", "--gens", "6", "--seed", "200"],
)
# the shape check alone, on a valid and a bad shape, and the bad one at a trial
FUZZ_CHECKS = (
    ["--trials", "0", "--n", "5", "--max-exp", "4", "--gens", "7"],
    ["--trials", "0", "--n", "0"],
    ["--trials", "1", "--n", "0"],
)


def inputs() -> list[str]:
    """The ideal texts: each non-unit recipe ideal, then its polarization."""
    ideals = [ideal for ideal in corpus(200) + many_generators(40) if not ideal.is_unit]
    return [format_ideal(i) for i in ideals] + [
        format_ideal(polarize_ideal(i).ideal) for i in ideals
    ]


def degrees(text: str) -> list[str]:
    """Up to 8 evenly spaced degrees of the canonical box, as --degree values."""
    box = canonical_box(parse_ideal(text))
    return [",".join(map(str, d.entries)) for d in box[:: -(-len(box) // 8)]]


def runs(texts: list[str]) -> list[tuple[str, list[tuple[list[str], str]]]]:
    """Per digest line, its label and the (argv, stdin text) pairs it covers."""
    per_input = [(" ".join(argv), [(argv, text) for text in texts]) for argv in COMMANDS]
    at_degrees = [(text, d) for text in texts for d in degrees(text)]
    complexes = [
        (
            " ".join(["complex", "-", "--degree", "*", *fmt]),
            [(["complex", "-", "--degree", d, *fmt], text) for text, d in at_degrees],
        )
        for fmt in FORMATS
    ]
    fuzz = [
        (
            " ".join(["fuzz", "*", "--field", field, *fmt]),
            [(["fuzz", *shape, "--field", field, *fmt], "") for shape in FUZZ_SHAPES],
        )
        for field in FIELDS
        for fmt in FORMATS
    ] + [
        (
            " ".join(["fuzz", "--trials", "0|1", *fmt]),
            [(["fuzz", *argv, *fmt], "") for argv in FUZZ_CHECKS],
        )
        for fmt in FORMATS
    ]
    return per_input + complexes + fuzz


def run(argv: list[str], text: str) -> tuple[int, str, str]:
    """cli.main(argv) with text on stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    texts = inputs()
    print(f"# {len(texts)} inputs")
    for label, pairs in runs(texts):
        digest = hashlib.sha256()
        for argv, text in pairs:
            code, out, err = run(argv, text)
            digest.update(repr((argv, text, out, err, code)).encode())
        print(digest.hexdigest(), label, flush=True)


if __name__ == "__main__":
    main()
