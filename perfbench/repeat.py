"""Repeatability check: two runs of one commit at one seed give identical answers.

    python3 perfbench/repeat.py --seed 42

Runs each workload twice, in two separate benchmark processes, and compares
the digests of their exact outputs: counts, intervals, verdicts, and the
12-digit Monte Carlo means and standard errors. Nothing is stored between
invocations; the two runs are compared with each other only. Exits 0 when
every workload repeats, 1 otherwise. Run it from a checkout's root.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def digest(workload: str, seed: int) -> str:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    lines = [line for line in done.stdout.splitlines() if line.startswith("digest ")]
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: benchmark exited with status {done.returncode}")
    return lines[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    same = True
    for workload in WORKLOADS:
        first, second = digest(workload, args.seed), digest(workload, args.seed)
        same &= first == second
        print(f"{'same' if first == second else 'DIFFERENT'}: {first} / {second.rsplit(' ', 1)[-1]}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
