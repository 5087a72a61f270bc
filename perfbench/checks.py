"""Answer checks written from closed forms, independent of padicgeo.

Nothing here imports padicgeo: every target, count and norm is derived
again from the formulas of the paper, so a wrong answer from the program
cannot also be the reference it is checked against. Each check returns
None when the answer is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction


def floor_log(p: int, d: int) -> int:
    """Largest e with p**e <= d, by integer loop."""
    e, q = 0, p
    while q <= d:
        e, q = e + 1, q * p
    return e


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def abs_p(d: int, p: int) -> Fraction:
    """|d|_p = p**(-v_p(d))."""
    return Fraction(1, p ** vp(d, p))


def _unit_volume(p: int) -> Fraction:
    """vol(P^1) = 1 + 1/p."""
    return 1 + Fraction(1, p)


# -- Monte Carlo targets ------------------------------------------------------


def zeros_target(model: str, region: str, p: int, d: int) -> Fraction:
    """Expected number of zeros of a random polynomial in a region."""
    if model == "monomial" and region == "p1":
        return Fraction(1)
    if model == "mahler":
        if region == "zp":
            return Fraction(p ** floor_log(p, d)) / _unit_volume(p)
        if region == "annulus:1":
            return abs_p(d, p) / p * (1 - Fraction(1, p)) / _unit_volume(p)
        if region == "qp":
            return (p ** floor_log(p, d) + abs_p(d, p) / p) / _unit_volume(p)
    raise ValueError(f"no closed form for {model}/{region}")


def ball_pair_target(p: int) -> Fraction:
    """Two level-1 balls on two lines of P^2: (1/(p+1))**2."""
    return Fraction(1, (p + 1) ** 2)


def curve_target(curve: str, p: int, d: int) -> Fraction:
    """Mean hyperplane-section count of the conic or the binomial curve."""
    if curve == "conic":
        return Fraction(1)
    if curve == "mahler":
        return Fraction(p ** floor_log(p, d)) / _unit_volume(p)
    raise ValueError(f"no closed form for curve {curve!r}")


def haar_rounds_target(p: int, n: int) -> Fraction:
    """Mean rejection rounds of a Haar draw on GL_n(Z_p): 1/prod(1 - p**-k)."""
    prob = Fraction(1)
    for k in range(1, n + 1):
        prob *= 1 - Fraction(1, p**k)
    return 1 / prob


def check_mean(mean: float, stderr: float, target: Fraction, exact: bool = False):
    """The mean lies within 4 standard errors of the target (exact rationals).

    ``exact`` demands mean == target with stderr 0, for estimators whose
    every sample equals the target.
    """
    m, s = Fraction(mean), Fraction(stderr)
    if exact:
        if m == target and s == 0:
            return None
        return f"mean {mean!r} stderr {stderr!r}, want exactly {target}"
    if (m - target) ** 2 <= 16 * s * s:
        return None
    return f"mean {mean!r} is more than 4 x {stderr!r} from {target}"


def pooled(parts):
    """Mean and standard error of the union of several estimators' samples.

    ``parts`` holds (n, mean, stderr) of each estimator, whose sample
    variance is stderr**2 * n. Sums are taken in exact rationals, so chunks
    whose samples all equal one value pool to that value with stderr 0.
    """
    parts = [(n, Fraction(m), Fraction(s)) for n, m, s in parts if n > 0]
    n = sum(k for k, _, _ in parts)
    if n == 0:
        return float("nan"), 0.0
    mean = sum(k * m for k, m, _ in parts) / n
    if n == 1:
        return float(mean), 0.0
    squares = sum((k - 1) * s * s * k + k * m * m for k, m, s in parts)
    variance = max(squares - n * mean * mean, Fraction(0)) / (n - 1)
    return float(mean), math.sqrt(variance / n)


def check_sample_total(n_samples: int, excluded: int, requested: int):
    if n_samples + excluded == requested:
        return None
    return f"{n_samples} samples + {excluded} excluded != {requested} requested"


# -- point counts and volumes -------------------------------------------------


def true_count(fixture: str, p: int, m: int) -> int:
    """N_m of the plane-curve fixtures, from their closed forms."""
    smooth = p**m + p ** (m - 1)
    if fixture in ("conic", "line"):
        return smooth
    if fixture == "two-lines":
        return 2 * smooth - 1
    if fixture == "nodal" and p % 2:
        return (p + 1) * p ** (m - 1) - 1
    raise ValueError(f"no closed form for {fixture} at p = {p}")


def check_volume(fixture, p, sequence, stabilization_level, value):
    """Every certified interval holds the true N_m; a claimed volume is right.

    ``sequence`` is the list of (m, n_lo, n_hi). A smooth fixture must
    reach volume 1 + 1/p at level 1. A claimed stabilization at level s
    must match the true counts: N_s / p**s and N_m = N_s p**(m - s) on every
    computed level.
    """
    if not sequence:
        return "no counts reported"
    for m, lo, hi in sequence:
        n = true_count(fixture, p, m)
        if not lo <= n <= hi:
            return f"N_{m} = {n} outside [{lo}, {hi}]"
    if fixture in ("conic", "line") and (
        stabilization_level != 1 or value != _unit_volume(p)
    ):
        return f"volume {value} at level {stabilization_level}, want {_unit_volume(p)} at 1"
    if stabilization_level is not None:
        s = stabilization_level
        ns = true_count(fixture, p, s)
        if value != Fraction(ns, p**s) or any(
            true_count(fixture, p, m) != ns * p ** (m - s) for m, _, _ in sequence if m >= s
        ):
            return f"claimed volume {value} at level {s} contradicts the true counts"
    return None


# -- root counts and derivative norms -----------------------------------------


def check_root_count(count: int, expected: int):
    if count == expected:
        return None
    return f"{count} roots, constructed {expected}"


def check_jacobian_norm(value: Fraction, p: int, d: int):
    """Affine binomial map: |J| = p**floor(log_p d)."""
    want = Fraction(p ** floor_log(p, d))
    return None if value == want else f"|J| = {value}, want {want}"


def check_extended_norm(value: Fraction, p: int, d: int, m: int):
    """Extended binomial map on |t| = p**m: |J| = |d| p**(-2m)."""
    want = abs_p(d, p) / p ** (2 * m)
    return None if value == want else f"|J| = {value}, want {want}"
