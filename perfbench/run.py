"""padicgeo benchmark: one workload per invocation, run from a checkout's root.

    python3 perfbench/run.py --workload mc-zeros --seed 42 --seconds 35 --trace 0

The command starts short set-up probes (each imports padicgeo from the
checkout's ``src`` and builds the workload's inputs) before and after one
worker process that repeats the workload's fixed list of operations in whole
rounds for ``--seconds`` seconds. Every answer is checked against closed
forms and constructed root sets (``checks.py``), and every round must
reproduce the first round's exact outputs. Times are reported at reference
speed (see ``OpClock``). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. A wrong answer exits with status 1, a checkout
without ``src/padicgeo`` with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("mc-zeros", "mc-haar", "certify")
SETUP_PROBES = 10  # before the worker, and as many after it
PROBE_TIMEOUT_S = 30
DEADLINE_S = 175  # the whole command, worker included
AFTER_WORKER_S = 15  # kept for the probes after the worker
# A shared machine's speed drifts by up to 1.6x in phases of seconds to
# minutes, and code timed next to fixed reference work slows down with it.
# Each time is divided by the reference's time measured just before and after
# it (the lesser of the two) and multiplied by REF_NOMINAL_S: the time the
# work takes on a machine that runs the reference in REF_NOMINAL_S.
REF_NOMINAL_S = 0.001
CHECKPOINT_S = 0.02  # operation time between two timings of the reference
GROUP_ROUNDS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("need --seed >= 0 and 1 <= --seconds <= 120")
    return args


def _import_padicgeo(src: Path):
    """Import padicgeo from the checkout, never from an installed copy."""
    sys.path.insert(0, str(src))
    import padicgeo

    if not Path(padicgeo.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"padicgeo imported from {padicgeo.__file__}, not {src}")


def _cpu_s() -> float:
    """CPU time of this process and of its children that have ended."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def reference_loop() -> tuple[float, float]:
    """Wall and CPU time of fixed work that gauges the machine's speed.

    Three parts of about equal time, each like a part of padicgeo's work:
    small-integer arithmetic, BLAKE2b digests folded into a 64-bit integer,
    and a growing ``Fraction`` sum kept in a dict. No part touches padicgeo.
    """
    c0, t0 = _cpu_s(), time.perf_counter()
    s = 0
    for i in range(6000):
        s += i * i % 7
    x = 0
    for i in range(300):
        x ^= int.from_bytes(hashlib.blake2b(i.to_bytes(4, "little"), digest_size=16).digest(), "little")
        x = (x * x + i) % 3**40
    q, seen = Fraction(0), {}
    for i in range(120):
        q += Fraction(i + 1, 2 * i + 3)
        seen[i, i % 7] = q.numerator % 97
    return time.perf_counter() - t0, _cpu_s() - c0


class OpClock:
    """Wall and CPU time of each operation of a round, in round order.

    ``walls`` and ``cpus`` are at reference speed, ``raw_walls`` as measured.
    ``reference_loop`` is timed before an operation once CHECKPOINT_S of
    operations have run since its last timing, and once more by ``close`` at
    the round's end.
    """

    def __init__(self):
        self.walls, self.cpus, self.raw_walls, self.refs = [], [], [], []
        self._pending = []  # (wall, cpu) of operations since the last reference
        self._since = 0.0

    def _checkpoint(self):
        ref = reference_loop()
        if self._pending:
            wall_ref, cpu_ref = (min(a, b) for a, b in zip(self.refs[-1], ref))
            for wall, cpu in self._pending:
                self.walls.append(wall * REF_NOMINAL_S / wall_ref)
                self.cpus.append(cpu * REF_NOMINAL_S / cpu_ref)
        self.refs.append(ref)
        self._pending, self._since = [], 0.0

    @contextmanager
    def span(self, name):
        if not self.refs or self._since >= CHECKPOINT_S:
            self._checkpoint()
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self.raw_walls.append(wall)
            self._pending.append((wall, _cpu_s() - c0))
            self._since += wall

    def close(self):
        self._checkpoint()


def _round_time(per_round) -> float:
    """Time of one round from the times of each operation in many rounds.

    Rounds are split into groups of GROUP_ROUNDS in run order (the last few
    rounds left over are dropped); a group's time is the sum over operations
    of each operation's fastest time in the group, and the result is the
    median over groups. The fastest of a fixed number of repeats does not
    drift with the number of rounds that fit in a run, as the fastest of
    all of them would.
    """
    size = min(GROUP_ROUNDS, len(per_round))
    groups = [per_round[i:i + size] for i in range(0, len(per_round) - size + 1, size)]
    return statistics.median(sum(min(times) for times in zip(*g)) for g in groups)


# -- child roles ------------------------------------------------------------------


def setup_probe(args, src: Path) -> None:
    """Print the set-up time at reference speed."""
    before = min(reference_loop()[0] for _ in range(3))
    t0 = time.perf_counter()
    _import_padicgeo(src)
    import workloads

    workloads.build_inputs(args.workload, args.seed)
    wall = time.perf_counter() - t0
    after = min(reference_loop()[0] for _ in range(3))
    print(wall * REF_NOMINAL_S / min(before, after))


def worker(args, src: Path) -> None:
    """Run whole rounds for ``--seconds`` and print the raw figures as JSON."""
    _import_padicgeo(src)
    import workloads

    t_end = time.perf_counter() + args.seconds
    inputs = workloads.build_inputs(args.workload, args.seed)
    errors, missing, layers = [], set(), {}
    if args.trace:
        import tracing  # the untraced run needs only the entry points it calls

        # A traced run reports every layer. A layer this workload does not
        # reach is read from one traced round of the first workload in
        # WORKLOADS that reaches it; the workload's own figures replace these.
        layers.update(tracing.probe_metrics(args.seed))
        for other in WORKLOADS:
            if other == args.workload:
                continue
            tracer = tracing.Tracer()
            with tracing.patched(tracer) as gone:
                done = workloads.run_round(other, workloads.build_inputs(other, args.seed), tracer.span)
            missing.update(gone)
            errors += [f"{other} {e}" for e in done.errors]
            errors += tracing.haar_round_errors(tracer.spans, 1)
            for name, value in tracing.layer_metrics(tracer.spans, 1).items():
                layers.setdefault(name, value)
        tracer = tracing.Tracer()

    clocks, traced_rounds, digests, iterations = [], 0, set(), []
    ops = failed = 0
    while True:
        t_iter = time.perf_counter()
        for traced in (False, True) if args.trace else (False,):
            if traced:
                with tracing.patched(tracer) as gone:
                    done = workloads.run_round(args.workload, inputs, tracer.span)
                missing.update(gone)
                traced_rounds += 1
            else:
                clocks.append(OpClock())
                done = workloads.run_round(args.workload, inputs, clocks[-1].span)
                clocks[-1].close()
            ops += done.ops
            failed += done.failed
            digests.add(done.digest())
            errors += done.errors
        now = time.perf_counter()
        iterations.append(now - t_iter)
        if now + statistics.median(iterations) > t_end:
            break

    if len(digests) > 1:
        errors.append(f"rounds at one seed gave {len(digests)} different outputs")
    run_s = _round_time([c.walls for c in clocks])
    if args.trace:
        errors += tracing.haar_round_errors(tracer.spans, traced_rounds)
        layers.update(tracing.layer_metrics(tracer.spans, traced_rounds))
        top = [s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.PARENT] < 0]
        n = len(top) // traced_rounds
        per_round = [top[i * n:(i + 1) * n] for i in range(traced_rounds)]
        layers["trace.overhead_s"] = (_round_time(per_round) - _round_time([c.raw_walls for c in clocks]), "s")
        refs = [wall for c in clocks for wall, _ in c.refs]
        layers["trace.reference_us"] = (statistics.median(refs) * 1e6, "us")
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "run_s": run_s, "cpu_s": _round_time([c.cpus for c in clocks]),
        "ops_per_round": ops // (len(clocks) + traced_rounds), "ops": ops, "failed": failed,
        "digests": sorted(digests), "errors": sorted(set(errors)), "missing": sorted(missing),
        "rss_kib": rss_kib, "layers": layers,
    }))


# -- main -----------------------------------------------------------------------------


def _child(args, role: str, timeout: float) -> str:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{role} process exited with status {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    src = Path.cwd() / "src"
    if not (src / "padicgeo" / "__init__.py").is_file():
        print(f"no padicgeo package under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    if args.role == "setup":
        setup_probe(args, src)
        return 0
    if args.role == "worker":
        worker(args, src)
        return 0

    def probes():
        # set-up time drifts with the machine's load, so half the probes run
        # before the worker and half after it, 35 s later by default
        return [] if args.trace else [
            float(_child(args, "setup", PROBE_TIMEOUT_S)) for _ in range(SETUP_PROBES)
        ]

    setups = probes()
    left = DEADLINE_S - AFTER_WORKER_S - (time.perf_counter() - started)
    raw = json.loads(_child(args, "worker", left))
    setups += probes()
    for name in raw["missing"]:
        print(f"missing: {name} is gone; its layer metrics are not reported", file=sys.stderr)
    for line in raw["errors"]:
        print(f"WRONG: {line}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(raw["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": raw["run_s"], "unit": "s"},
            "ops_per_s": {"value": raw["ops_per_round"] / raw["run_s"], "unit": "ops/s"},
            "cpu_s": {"value": raw["cpu_s"], "unit": "s"},
            "peak_rss_mib": {"value": raw["rss_kib"] / 1024, "unit": "MiB"},
        }
    correct = not raw["errors"]
    print(f"digest {args.workload} seed {args.seed}: {' '.join(raw['digests'])}")
    print(json.dumps({"correct": correct, "attempted": raw["ops"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
