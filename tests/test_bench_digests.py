"""One benchmark round per workload at seed 42 reproduces its pinned digest.

Each digest is the SHA-256 of a round's exact outputs (``workloads.Round``),
so a change to any drawn digit, estimator mean or certified count moves it.
A change of stream format re-pins the two Monte Carlo digests at once;
``certify`` draws no randomness, so its digest stays.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

DIGESTS = {
    "mc-zeros": "a360e4d86e8e509fe642448cc352f99691f0749a2c3ff0662c48e6f77a403176",
    "mc-haar": "209dc49983c9f8b5cc929b0fb3e652d5dfe3f6218b99af10b92e4bb3a0aca174",
    "certify": "a027f0926b4b0089f15fbd150f7b74d071affb4efe68d4cdd446a4d49e6ebb6c",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_round_digest_at_seed_42(workload):
    result = workloads.run_round(workload, workloads.build_inputs(workload, 42))
    assert result.errors == []
    assert result.digest() == DIGESTS[workload]
