"""Smoke runs of the scripts in scripts/: each exits 0 and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "name, args, header",
    [
        (
            "expected_zeros_sweep.py",
            ["--max-degree", "2", "--samples", "100"],
            "p = 3, region = zp, 100 samples/cell",
        ),
        ("volume_table.py", ["--primes", "3", "--max-level", "2"], "p = 3"),
    ],
)
def test_script_runs(name, args, header):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
