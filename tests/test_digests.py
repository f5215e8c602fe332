"""The job outputs of the benchmark workloads, held to the digests
committed in tools/digests.txt (see tools/job_digest.py)."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_job_outputs_match_the_committed_digests():
    spec = importlib.util.spec_from_file_location("job_digest", TOOLS / "job_digest.py")
    job_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job_digest)
    committed = [line for line in (TOOLS / "digests.txt").read_text().splitlines()
                 if line.endswith(" jobs")]
    assert list(job_digest.job_digests((1, 2, 3))) == committed
