"""One sha256 per CLI command over the test corpus, to check that two
trees print byte-identical output.

Runs `monolc.cli.main` in-process on every non-unit ideal of the
`corpus(200)` and `many_generators(40)` recipes of tests/conftest.py
and on their polarizations, fed on stdin, and prints per command the
sha256 of every (argv, input, stdout, stderr, exit code) it gave:

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
from monolc import cli, format_ideal, polarize_ideal  # noqa: E402

FIELDS = ("q", "gf:2", "gf:32003")
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


def inputs() -> list[str]:
    """The ideal texts: each non-unit recipe ideal, then its polarization."""
    ideals = [ideal for ideal in corpus(200) + many_generators(40) if not ideal.is_unit]
    return [format_ideal(i) for i in ideals] + [
        format_ideal(polarize_ideal(i).ideal) for i in ideals
    ]


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
    for argv in COMMANDS:
        digest = hashlib.sha256()
        for text in texts:
            code, out, err = run(argv, text)
            digest.update(repr((argv, text, out, err, code)).encode())
        print(digest.hexdigest(), " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
