"""The job-output, counter and rank-digest lines of tools/digests.py,
held to the file it prints, tools/digests.txt; its CLI section is left
to the diff in the tool's docstring."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_job_outputs_match_the_committed_digests():
    spec = importlib.util.spec_from_file_location("digests", TOOLS / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    lines = [line for section in digests.SECTIONS[:3] for line in section()]
    committed = (TOOLS / "digests.txt").read_text().splitlines()
    assert lines == committed[: len(lines)]
