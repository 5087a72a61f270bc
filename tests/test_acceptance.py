"""Acceptance gate: every criterion at its stated tolerance and budget.

Monte Carlo criteria run >= 2*10^4 samples (10^5 for the rare annulus
events) and accept within 4 standard errors of the exact rational target;
everything else is exact with zero tolerance. One pass/fail line prints
per criterion. The same suite backs `padicgeo reproduce-paper`.
"""

import random
from fractions import Fraction

import pytest

from padicgeo import accept, igf
from padicgeo.accept import CRITERIA
from padicgeo.roots import poly_derivative, squarefree_part
from padicgeo.zp import vp_int

SEED = 42


def _report(res):
    state = "pass" if res.passed and res.runtime_ok else "FAIL"
    print(
        f"\ncriterion {res.index:2d}  {state}  {res.runtime:7.2f}s"
        f" (budget {res.runtime_budget:.0f}s)  {res.name}"
    )


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1))
def test_criterion(index):
    res = CRITERIA[index - 1](SEED)
    _report(res)
    assert res.passed, f"criterion {index} failed: {res.details}"
    assert res.runtime_ok, (
        f"criterion {index} exceeded its runtime budget: "
        f"{res.runtime:.2f}s >= {res.runtime_budget:.0f}s"
    )


def test_wrong_target_fails_its_criterion(monkeypatch):
    """Criterion 9 checks its estimators' targets even when every mean hits them."""

    def estimator(target_of):
        def mc_igf_curve(p, curve, d, cfg):
            target = target_of(p, curve, d)
            return igf.McReport("curve", 1, float(target), 0.0, target, 0)

        return mc_igf_curve

    monkeypatch.setattr(igf, "mc_igf_curve", estimator(igf.curve_target))
    assert CRITERIA[8](SEED).passed
    monkeypatch.setattr(igf, "mc_igf_curve", estimator(lambda p, curve, d: Fraction(2)))
    assert not CRITERIA[8](SEED).passed


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_criterion_seeds_wrap_into_64_bits(monkeypatch, seed):
    """Criteria 5-10 hand their estimators seed + offset mod 2^64."""
    seeds = []

    def mc_report(cfg):
        seeds.append(cfg.seed)
        return igf.McReport("stub", 1, 0.0, 0.0, Fraction(0), 0)

    def density(model, cfg):
        seeds.append(cfg.seed)
        return igf.DensityReport([], 0.0, 1.0, 1, 0)

    monkeypatch.setattr(igf, "mc_expected_zeros", lambda model, region, cfg: mc_report(cfg))
    monkeypatch.setattr(igf, "mc_linear_lemma", lambda *args: mc_report(args[-1]))
    monkeypatch.setattr(igf, "mc_igf_curve", lambda p, curve, d, cfg: mc_report(cfg))
    monkeypatch.setattr(igf, "density_uniformity_test", density)
    for index in range(5, 11):
        CRITERIA[index - 1](seed)
    offsets = [5_002, 5_003, 5_005, 5_007, 6_003, 6_007, 6_004, 7_001, 7_002]
    offsets += [8_001, 8_002, 9_001, 9_002, 10_001, 10_002]
    assert seeds == [(seed + k) % 2**64 for k in offsets]
    assert all(0 <= s < 2**64 for s in seeds)


def _enumeration_oracle(coeffs, p, budget=400_000):
    """Criterion 12's oracle evaluating the squarefree part at all p^k residues."""
    sf = squarefree_part(coeffs)
    if len(sf) <= 1:
        return 0 if sf else None
    deriv = poly_derivative(sf)
    res = accept._resultant(sf, deriv)
    if res == 0:
        return None
    v = vp_int(res, p)
    k = 2 * v + 3
    if p**k > budget:
        return None
    labels = set()
    for r in range(p**k):
        fr = sum(c * r**i for i, c in enumerate(sf))
        if vp_int(fr, p) >= k:
            labels.add(r % p ** (k - v))
    return len(labels)


def test_prefix_oracle_matches_the_full_enumeration():
    """Criterion 12's polynomial generator, drawn from a fresh rng at the
    acceptance seed (criterion 12 draws its property suites first, so its
    polynomials differ), 3000 decided cases."""
    rng = random.Random(SEED)
    cases = 0
    while cases < 3000:
        p = (2, 3, 5)[cases % 3]
        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(1, 4) + 1)]
        if not any(coeffs):
            continue
        expected = _enumeration_oracle(coeffs, p)
        assert accept._oracle_root_count(coeffs, p) == expected
        cases += expected is not None
