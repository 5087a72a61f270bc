"""The traced run: spans recorded from outside the program, and layer metrics.

Spans are kept in memory as [name, start, end, parent index, info]. The
benchmark opens spans around its own calls (one per estimator cell, fixture,
root count and norm) and wraps the library functions those calls reach,
by replacing them at the module or class attribute their callers look up.
A function that no longer exists is reported missing and the run goes on.
Per-digit and per-child costs come from probe loops, because wrapping
``DigitStream.digit`` would cost more than the digit itself.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from padicgeo import countvol, igf, sample
from padicgeo.sample import Stream

import checks

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, info=None):
        """``fn`` inside a span; ``info(args, result)`` is kept on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if info is not None:
                    record[INFO] = info(args, result)
            return result

        return traced


def _haar_info(args, h):
    rounds = getattr(h, "rounds", None)
    return (args[1], args[2], rounds) if len(args) >= 3 and rounds is not None else None


def _tree_info(args, tree):
    return getattr(tree, "node_count", None)


def _targets():
    """(owner, attribute, span name, info) of every wrapped library function."""
    return [
        (igf, "sample_poly", "sample.sample_poly", None),
        (getattr(sample, "SampledPoly", None), "residues", "sample.residues", None),
        (getattr(sample, "HaarMatrix", None), "inverse_row", "sample.inverse_row", None),
        (igf, "HaarMatrix", "sample.haar", _haar_info),
        (igf, "adaptive_count", "roots.adaptive", None),
        (igf, "count_roots_p1", "roots.fixed", None),
        (igf, "count_roots_zp", "roots.fixed", None),
        (countvol, "build_tree", "countvol.build_tree", _tree_info),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Wrap every target that exists; yield the names of those that do not."""
    saved, missing = [], []
    for owner, attr, name, info in _targets():
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{name} ({attr})")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, info))
    try:
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- probe loops ------------------------------------------------------------------


def probe_metrics(seed: int) -> dict:
    """Median over 5 batches of the cost of one digit and of one Stream.child."""
    base = Stream(seed)
    digit_us, child_us = [], []
    for b in range(5):
        streams = [base.child("probe", b, i).digits(3) for i in range(200)]
        t0 = time.perf_counter()
        for ds in streams:
            for i in range(64):
                ds.digit(i)
        digit_us.append((time.perf_counter() - t0) / (200 * 64) * 1e6)
        t0 = time.perf_counter()
        for i in range(5_000):
            base.child("child", b, i)
        child_us.append((time.perf_counter() - t0) / 5_000 * 1e6)
    return {
        "sample.digit_us": (statistics.median(digit_us), "us/digit"),
        "sample.child_us": (statistics.median(child_us), "us/call"),
    }


# -- layer metrics from spans -------------------------------------------------------


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics of one workload's traced rounds: name -> (value, unit).

    A metric whose spans never occurred is left out. Times per round are
    totals divided by the number of traced rounds.
    """
    dur = [s[END] - s[START] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def total(name, self_time=False):
        return sum(dur[i] - (covered[i] if self_time else 0.0) for i in by_name[name])

    out = {}

    def per_call(metric, name, unit="us/call", self_time=False):
        if by_name[name]:
            out[metric] = (total(name, self_time) / len(by_name[name]) * 1e6, unit)

    polys = by_name["sample.sample_poly"]
    if polys:
        both = total("sample.sample_poly") + total("sample.residues")
        out["sample.poly_us"] = (both / len(polys) * 1e6, "us/call")
    per_call("sample.haar_us", "sample.haar")
    rounds_seen = [spans[i][INFO][2] for i in by_name["sample.haar"] if spans[i][INFO]]
    if rounds_seen:
        out["sample.haar_rounds"] = (statistics.fmean(rounds_seen), "count")
    per_call("sample.inverse_row_us", "sample.inverse_row")
    per_call("roots.adaptive_us", "roots.adaptive", self_time=True)
    adaptive = set(by_name["roots.adaptive"])
    if adaptive:
        attempts = sum(1 for i in by_name["sample.residues"] if spans[i][PARENT] in adaptive)
        out["roots.attempts_per_sample"] = (attempts / len(adaptive), "count")
    per_call("roots.fixed_us", "roots.fixed")
    per_call("roots.exact_us", "roots.exact", unit="us/poly")
    per_call("veronese.jacobian_us", "veronese.jacobian")
    per_call("veronese.extended_us", "veronese.extended")

    cells = [n for n in by_name if n.startswith("igf.")]
    if cells:
        out["igf.self_s"] = (sum(total(n, self_time=True) for n in cells) / rounds, "s")
    for n in cells:
        out[f"{n}_s"] = (total(n) / rounds, "s")

    builds = [i for i in by_name["countvol.build_tree"] if spans[i][PARENT] >= 0]
    for i in builds:
        fixture = spans[spans[i][PARENT]][NAME].split(".", 1)[1]
        key = f"countvol.build_s.{fixture}"
        out[key] = (out.get(key, (0.0,))[0] + dur[i] / rounds, "s")
        if spans[i][INFO] is not None:
            out[f"countvol.nodes.{fixture}"] = (spans[i][INFO], "count")
    if builds and all(spans[i][INFO] is not None for i in builds):
        nodes = sum(spans[i][INFO] for i in builds)
        out["countvol.nodes_per_s"] = (nodes / sum(dur[i] for i in builds), "nodes/s")
    fixtures = [n for n in by_name if n.startswith("countvol.") and n != "countvol.build_tree"]
    if fixtures and builds:
        out["countvol.count_s"] = (sum(total(n, self_time=True) for n in fixtures) / rounds, "s")
    return out


def haar_round_errors(spans, rounds: int) -> list:
    """Mean Haar rejection rounds per (p, size) against 1/prod(1 - p**-k).

    ``spans`` holds ``rounds`` identical traced rounds; only the first is
    read. Later rounds redraw the same matrices, and pooling them would
    shrink the standard error without adding a single independent draw.
    """
    groups = defaultdict(list)
    for s in spans[: len(spans) // rounds]:
        if s[NAME] == "sample.haar" and s[INFO]:
            p, size, r = s[INFO]
            groups[(p, size)].append(r)
    errors = []
    for (p, size), rs in sorted(groups.items()):
        if len(rs) < 2:
            continue
        stderr = statistics.stdev(rs) / len(rs) ** 0.5
        reason = checks.check_mean(statistics.fmean(rs), stderr, checks.haar_rounds_target(p, size))
        if reason is not None:
            errors.append(f"Haar rounds p={p} size={size}: {reason}")
    return errors
