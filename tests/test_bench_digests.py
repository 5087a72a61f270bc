"""One benchmark round per workload at seed 42 reproduces its pinned digest.

Each digest is the SHA-256 of a round's exact outputs (``workloads.Round``),
so a change to any drawn digit, estimator mean or certified count moves it.
A change of stream format re-pins all three at once.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

DIGESTS = {
    "mc-zeros": "b4df1c330aba0650b9eee849e2538862283a09c7d2e38ef4f69f963be3d7eb8f",
    "mc-haar": "be8274dd3149802734c0a6656efc3a70b9c2bc366d33c5c6d56e4597c008caf9",
    "certify": "a027f0926b4b0089f15fbd150f7b74d071affb4efe68d4cdd446a4d49e6ebb6c",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_round_digest_at_seed_42(workload):
    result = workloads.run_round(workload, workloads.build_inputs(workload, 42))
    assert result.errors == []
    assert result.digest() == DIGESTS[workload]
