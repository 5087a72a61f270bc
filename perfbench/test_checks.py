"""Each answer check accepts the right value and rejects a wrong one.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the checkout root.
"""

import contextlib
import io
import itertools
import json
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import repeat
import run
import tracing
import workloads


def _report(mean, stderr, n=1000, excluded=0):
    return SimpleNamespace(mean=mean, stderr=stderr, n_samples=n, excluded=excluded)


# -- closed forms ------------------------------------------------------------------


def test_targets_match_the_acceptance_values():
    assert checks.zeros_target("monomial", "p1", 5, 7) == 1
    assert checks.zeros_target("mahler", "zp", 3, 7) == Fraction(9, 4)
    assert checks.zeros_target("mahler", "zp", 2, 4) == Fraction(8, 3)
    assert checks.zeros_target("mahler", "annulus:1", 3, 3) == Fraction(1, 18)
    assert checks.zeros_target("mahler", "qp", 3, 7) == Fraction(5, 2)
    assert checks.ball_pair_target(3) == Fraction(1, 16)
    assert checks.curve_target("conic", 3, 2) == 1
    assert checks.curve_target("mahler", 3, 3) == Fraction(9, 4)
    assert checks.haar_rounds_target(3, 3) == Fraction(729, 416)


def test_floor_log_and_norm_by_integer_loop():
    assert [checks.floor_log(3, d) for d in (1, 2, 3, 8, 9, 26, 27)] == [0, 0, 1, 1, 2, 2, 3]
    assert checks.abs_p(12, 2) == Fraction(1, 4)


def test_true_counts_agree_with_brute_force_for_lines():
    # classes of P^2(Z/p^m) meeting {x0 x1 = 0}: some representative has
    # x0 = 0 or x1 = 0 mod p^m; canonical form scales the first unit to 1
    for p, m in ((2, 2), (3, 2), (2, 3)):
        q = p**m
        classes = set()
        for x in range(q):
            for y in range(q):
                for z in range(q):
                    v = (x, y, z)
                    lead = next((c for c in v if c % p), None)
                    if lead is None:
                        continue
                    inv = pow(lead, -1, q)
                    classes.add(tuple(c * inv % q for c in v))
        on_x2 = sum(1 for c in classes if c[2] == 0)
        on_union = sum(1 for c in classes if c[0] == 0 or c[1] == 0)
        assert on_x2 == checks.true_count("line", p, m)
        assert on_union == checks.true_count("two-lines", p, m)


# -- each check rejects a wrong value ----------------------------------------------


def test_mean_gate():
    t = Fraction(9, 4)
    assert checks.check_mean(2.25 + 3.9 * 0.01, 0.01, t) is None
    assert checks.check_mean(2.25 + 4.1 * 0.01, 0.01, t) is not None
    assert checks.check_mean(1.0, 0.0, Fraction(1), exact=True) is None
    assert checks.check_mean(0.999, 0.0, Fraction(1), exact=True) is not None
    assert checks.check_mean(1.0, 0.001, Fraction(1), exact=True) is not None


def test_haar_rounds_gate():
    assert checks.check_mean(1.0, 0.01, checks.haar_rounds_target(3, 3)) is not None
    assert checks.check_mean(1.75, 0.01, checks.haar_rounds_target(3, 3)) is None


def test_sample_total():
    assert checks.check_sample_total(998, 2, 1000) is None
    assert checks.check_sample_total(998, 1, 1000) is not None


def test_volume_check():
    p = 3
    smooth = [(m, p**m + p ** (m - 1), p**m + p ** (m - 1)) for m in (1, 2, 3)]
    assert checks.check_volume("conic", p, smooth, 1, Fraction(4, 3)) is None
    assert checks.check_volume("conic", p, smooth, 1, Fraction(5, 3)) is not None
    assert checks.check_volume("line", p, smooth, None, None) is not None
    off = [(1, 4, 4), (2, 13, 13), (3, 36, 36)]
    assert checks.check_volume("conic", p, off, 1, Fraction(4, 3)) is not None
    lines = [(1, 7, 7), (2, 23, 23), (3, 70, 72)]
    assert checks.check_volume("two-lines", p, lines, None, None) is None
    assert checks.check_volume("two-lines", p, lines[:2] + [(3, 72, 73)], None, None) is not None
    assert checks.check_volume("two-lines", p, lines, 1, Fraction(7, 3)) is not None
    nodal = [(1, 3, 3), (2, 11, 11), (3, 35, 35)]
    assert checks.check_volume("nodal", p, nodal, None, None) is None
    assert checks.check_volume("nodal", p, nodal[:2] + [(3, 36, 36)], None, None) is not None


def test_root_and_norm_checks():
    assert checks.check_root_count(3, 3) is None
    assert checks.check_root_count(4, 3) is not None
    assert checks.check_jacobian_norm(Fraction(9), 3, 9) is None
    assert checks.check_jacobian_norm(Fraction(3), 3, 9) is not None
    assert checks.check_extended_norm(Fraction(1, 3**5), 3, 3, 2) is None
    assert checks.check_extended_norm(Fraction(1, 3**4), 3, 3, 2) is not None


# -- constructed root sets -----------------------------------------------------------


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_constructed_polynomials_have_their_roots():
    import random

    rng = random.Random(1)
    for p in workloads.ROOT_PRIMES:
        for _ in range(5):
            coeffs, expected = workloads.root_poly(rng, p)
            assert expected["qp"] == expected["zp"] + expected["annulus:1"] + expected["annulus:2"]
            assert _eval(coeffs, Fraction(0)) != 0
    quad = workloads._irreducible_quadratic(random.Random(2), 5)
    assert all(_eval(quad, r) % 5 for r in range(5))


# -- a wrong answer fails the round and the command -----------------------------------


def test_wrong_mc_answer_fails_the_round():
    n = workloads.CHUNK_SAMPLES

    def cell(*reports, exact=False):
        return workloads.McCell("c", tuple(lambda r=r: r for r in reports), Fraction(1), exact)

    right = _report(1.0, 0.1, n=n)
    assert workloads.mc_round([cell(right, right)]).errors == []
    assert workloads.mc_round([cell(right, _report(0.0, 0.1, n=n))]).errors
    out = workloads.mc_round([cell(right, _report(1.0, 0.1, n=n - 10, excluded=5))])
    assert out.failed == 5 and out.errors
    whole = _report(1.0, 0.0, n=n)
    assert workloads.mc_round([cell(whole, whole, exact=True)]).errors == []
    assert workloads.mc_round([cell(whole, _report(1.0, 0.1, n=n), exact=True)]).errors


def test_pooled_chunks_equal_the_whole_sample():
    import random
    import statistics

    rng = random.Random(3)
    values = [float(rng.randrange(4)) for _ in range(300)]
    chunks = [values[i:i + 100] for i in (0, 100, 200)]
    parts = [(100, statistics.fmean(c), statistics.stdev(c) / 10) for c in chunks]
    mean, stderr = checks.pooled(parts)
    assert mean == pytest.approx(statistics.fmean(values), rel=1e-12)
    assert stderr == pytest.approx(statistics.stdev(values) / 300**0.5, rel=1e-9)
    assert checks.pooled([(100, 1.0, 0.0), (100, 1.0, 0.0)]) == (1.0, 0.0)
    # one chunk off by 2 is 1/3 off in the pool: far more than 4 pooled stderr
    mean, stderr = checks.pooled([(100, 1.0, 0.01), (100, 1.0, 0.01), (100, 3.0, 0.01)])
    assert checks.check_mean(mean, stderr, Fraction(1)) is not None


def test_wrong_certified_answers_fail_the_round(monkeypatch):
    import padicgeo.countvol as countvol

    conic = countvol.AlgebraicSet.from_strings(2, ["x0*x2 - x1^2"], dim=1)
    coeffs = [-2, 1, 0, 1]  # (t - 1)(t^2 + t + 2): one root in Q_3
    right = workloads.CertifyInputs(
        [("conic", 3, 3, conic)],
        [(3, coeffs, {"zp": 1, "qp": 1, "annulus:1": 0, "annulus:2": 0})],
        [(3, 9, 5)],
        [(3, 3, 2, Fraction(1, 9))],
    )
    assert workloads.certify_round(right).errors == []
    wrong = workloads.CertifyInputs(
        [("two-lines", 3, 3, conic)], [(3, coeffs, {"zp": 2, "qp": 1, "annulus:1": 0, "annulus:2": 0})], [], []
    )
    assert len(workloads.certify_round(wrong).errors) == 2
    monkeypatch.setattr(workloads.veronese, "mahler_jacobian_norm", lambda p, d, a: Fraction(1))
    monkeypatch.setattr(workloads.veronese, "mahler_extended_jacobian_norm", lambda p, d, t: Fraction(1))
    assert len(workloads.certify_round(right).errors) == 2


def _fake_worker(errors):
    return json.dumps({
        "run_s": 1.0, "cpu_s": 1.0, "ops_per_round": 10, "ops": 10, "failed": 0,
        "digests": ["d"], "errors": errors, "missing": [], "rss_kib": 1024, "layers": {},
    })


@pytest.mark.parametrize("errors, status", [([], 0), (["c: wrong"], 1)])
def test_command_status(monkeypatch, capsys, tmp_path, errors, status):
    (tmp_path / "src" / "padicgeo").mkdir(parents=True)
    (tmp_path / "src" / "padicgeo" / "__init__.py").write_text("")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "_child", lambda args, role, t: "0.1" if role == "setup" else _fake_worker(errors))
    assert run.main(["--workload", "certify", "--seed", "1", "--seconds", "1"]) == status
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is (status == 0)
    assert set(result["metrics"]) == {"setup_s", "run_s", "ops_per_s", "cpu_s", "peak_rss_mib"}


def test_rounds_that_differ_fail_the_command(monkeypatch, capsys):
    import padicgeo

    src = Path(padicgeo.__file__).resolve().parent.parent
    counter = itertools.count()

    def alternating_round(workload, inputs, span=workloads._no_span):
        with span("op"):
            time.sleep(0.01)
        return workloads.Round(ops=1, outputs=[next(counter) % 2])

    def child(args, role, timeout):
        if role == "setup":
            return "0.1"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.worker(args, src)
        return out.getvalue().strip().splitlines()[-1]

    monkeypatch.chdir(src.parent)
    monkeypatch.setattr(workloads, "build_inputs", lambda workload, seed: None)
    monkeypatch.setattr(workloads, "run_round", alternating_round)
    monkeypatch.setattr(run, "_child", child)
    assert run.main(["--workload", "certify", "--seed", "1", "--seconds", "1"]) == 1
    assert "rounds at one seed gave 2 different outputs" in capsys.readouterr().err


@pytest.mark.parametrize("digests, status", [(["a", "a"], 0), (["a", "b"], 1)])
def test_repeat_status(monkeypatch, capsys, digests, status):
    runs = itertools.cycle(digests)
    monkeypatch.setattr(repeat, "digest", lambda workload, seed: f"digest {workload}: {next(runs)}")
    assert repeat.main(["--seed", "1"]) == status
    assert ("DIFFERENT" in capsys.readouterr().out) is (status == 1)


def test_command_refuses_a_directory_without_the_program(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "mc-zeros", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_times_are_scaled_by_the_faster_adjacent_reference_loop(monkeypatch):
    refs = iter([(0.002, 0.002), (0.003, 0.003)])
    monkeypatch.setattr(run, "reference_loop", lambda: next(refs))
    clock = run.OpClock()
    with clock.span("op"):
        time.sleep(0.01)
    clock.close()
    assert clock.walls == [pytest.approx(clock.raw_walls[0] * run.REF_NOMINAL_S / 0.002)]


def test_round_time_is_the_median_of_group_minima():
    assert run._round_time([[3.0, 1.0], [2.0, 2.0]]) == 3.0
    group = [[5.0], [4.0], [3.0], [2.0], [1.0]]
    assert run._round_time(group) == 1.0
    assert run._round_time(group * 3 + [[0.5]] * 4) == 1.0  # leftover rounds dropped


# -- tracing --------------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    spans = [
        ["igf.cell", 0.0, 10.0, -1, None],
        ["roots.adaptive", 1.0, 5.0, 0, None],
        ["sample.residues", 1.0, 2.0, 1, None],
        ["sample.residues", 3.0, 4.0, 1, None],
        ["sample.sample_poly", 6.0, 7.0, 0, None],
    ]
    out = tracing.layer_metrics(spans, rounds=2)
    assert out["igf.self_s"][0] == pytest.approx(2.5)
    assert out["igf.cell_s"][0] == pytest.approx(5.0)
    assert out["roots.adaptive_us"][0] == pytest.approx(2e6)
    assert out["roots.attempts_per_sample"][0] == 2
    assert out["sample.poly_us"][0] == pytest.approx(3e6)


def _haar_spans(rounds):
    return [["sample.haar", 0.0, 0.0, -1, (3, 3, r)] for r in rounds]


def test_haar_gate_does_not_change_with_the_number_of_rounds():
    one = [1] * 8 + [2] * 8 + [3] * 4  # mean 1.8 against 729/416: 0.3 stderr off
    assert tracing.haar_round_errors(_haar_spans(one), 1) == []
    assert tracing.haar_round_errors(_haar_spans(one * 400), 400) == []
    # the same draws pooled as if independent would read 5.5 stderr off
    assert tracing.haar_round_errors(_haar_spans(one * 400), 1) != []
    assert tracing.haar_round_errors(_haar_spans([1] * 19 + [2]), 1) != []


def test_patching_restores_and_reports_missing(monkeypatch):
    original = tracing.igf.adaptive_count
    monkeypatch.delattr(tracing.igf, "count_roots_p1")
    tracer = tracing.Tracer()
    with tracing.patched(tracer) as missing:
        assert tracing.igf.adaptive_count is not original
    assert tracing.igf.adaptive_count is original
    assert missing == ["roots.fixed (count_roots_p1)"]
