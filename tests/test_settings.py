"""The pytest settings in pyproject.toml turn warnings into errors; a
failing property test must still be reported as a failure, and the
tests after it must still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_after():
    pass
'''


def test_failing_property_test_ends_in_a_normal_report(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
