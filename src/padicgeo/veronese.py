"""Monomial and binomial-basis curve embeddings and their metric data.

The standard degree-d embedding sends [x] to all degree-d monomials of x
(lexicographically decreasing exponents, so [x0:x1] maps to
[x0^d : x0^{d-1}x1 : ... : x1^d]). The binomial-basis ("Mahler") embeddings
send t to (1, C(t,1), ..., C(t,d)) on Z_p and, rescaled by C(t,d)^{-1}, map
each annulus |t| = p^m onto the unit sphere. Their derivative norms are
constant on those domains, which turns arc length into a single p-power.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainViolation, IsometryViolation, NonConstantJacobian
from .proj import ProjPoint, proj_distance
from .sample import Stream
from .zp import sup_norm, vp_fraction, vp_int, wedge_norm

STANDARD = "standard"
MAHLER_AFFINE = "mahler-affine"
_SAMPLE_DIGITS = 8  # base-p digits of each value the isometry check samples


def floor_log(p: int, d: int) -> int:
    """Largest e with p^e <= d, by integer arithmetic."""
    if d < 1:
        raise ValueError("d must be >= 1")
    e = 0
    q = p
    while q <= d:
        e += 1
        q *= p
    return e


def monomial_exponents(n: int, d: int):
    """Degree-d exponent tuples on n+1 variables, lexicographically decreasing."""
    exps = [
        e
        for e in itertools.product(range(d + 1), repeat=n + 1)
        if sum(e) == d
    ]
    return sorted(exps, reverse=True)


@dataclass(frozen=True)
class VeroneseMap:
    kind: str
    n: int  # source projective dimension (1 for the binomial-basis kinds)
    d: int

    def __post_init__(self):
        if self.kind not in (STANDARD, MAHLER_AFFINE):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind != STANDARD and self.n != 1:
            raise ValueError("binomial-basis maps are univariate")
        if self.n < 1:
            raise ValueError("source dimension n must be >= 1")
        if self.d < 1:
            raise ValueError("degree d must be >= 1")


def binomials(t, d: int) -> list:
    """[C(t,0), ..., C(t,d)] for rational t, by C_k = C_{k-1} (t-k+1)/k."""
    t = Fraction(t)
    out = [Fraction(1)]
    for k in range(1, d + 1):
        out.append(out[-1] * (t - k + 1) / k)
    return out


def binomial_derivatives(t, d: int) -> list:
    """[d/dt C(t,k) for k = 0..d], by D_k = (D_{k-1} (t-k+1) + C_{k-1})/k."""
    t = Fraction(t)
    c = binomials(t, d)
    out = [Fraction(0)]
    for k in range(1, d + 1):
        out.append((out[-1] * (t - k + 1) + c[k - 1]) / k)
    return out


def eval_standard(vmap: VeroneseMap, point: ProjPoint) -> ProjPoint:
    """Image of a projective point under the monomial embedding."""
    if point.dim != vmap.n:
        raise ValueError(f"point lies in P^{point.dim}, the map is defined on P^{vmap.n}")
    out = [
        math.prod(x**e for x, e in zip(point.coords, exps))
        for exps in monomial_exponents(vmap.n, vmap.d)
    ]
    return ProjPoint(point.p, out)


def mahler_jacobian_norm(p: int, d: int, a) -> Fraction:
    """|J| of the affine binomial map at a in Z_p: always p^floor(log_p d).

    Computed by exact evaluation of the derivative vector and checked
    against the closed form.
    """
    a = Fraction(a)
    if vp_fraction(a, p) < 0:
        raise DomainViolation("a must lie in Z_p")
    value = sup_norm(binomial_derivatives(a, d), p)
    expected = Fraction(p) ** floor_log(p, d)
    if value != expected:
        raise NonConstantJacobian(f"|J| = {value}, closed form {expected}")
    return value


def mahler_extended_jacobian_norm(p: int, d: int, t) -> Fraction:
    """|J| of the extended map at |t| = p^m: equals |d| p^{-2m}.

    The j-th component C_j/C_d has derivative (D_j C_d - C_j D_d)/C_d^2 by
    the quotient rule, with C_k = C(t,k) and D_k = d/dt C(t,k) from one
    binomial recurrence; the last component is constant.
    """
    t = Fraction(t)
    m = -vp_fraction(t, p)
    if m < 1:
        raise DomainViolation("need |t| > 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    c, dc = binomials(t, d), binomial_derivatives(t, d)
    value = sup_norm([(dj * c[d] - cj * dc[d]) / c[d] ** 2 for cj, dj in zip(c, dc)], p)
    expected = Fraction(p) ** (-vp_int(d, p) - 2 * m)
    if value != expected:
        raise NonConstantJacobian(f"|J| = {value}, closed form {expected}")
    return value


def arc_length(jacobian_norms, vol_domain: Fraction) -> Fraction:
    """Volume of an embedded curve with constant derivative norm.

    ``jacobian_norms`` is the collection of sampled |J| values on the
    domain; they must agree, and the image volume is |J| * vol(domain).
    """
    norms = set(jacobian_norms)
    if len(norms) != 1:
        raise NonConstantJacobian(f"sampled norms disagree: {sorted(norms)}")
    return norms.pop() * vol_domain


def mahler_curve_volume(p: int, d: int) -> Fraction:
    """vol of the affine binomial image of Z_p: p^floor(log_p d)."""
    sample_points = list(range(8)) + [p**2, 3 * p + 1]
    return arc_length(
        [mahler_jacobian_norm(p, d, a) for a in sample_points], Fraction(1)
    )


def mahler_annulus_volume(p: int, d: int, m: int) -> Fraction:
    """vol of the extended-map image of |t| = p^m: (p^m - p^{m-1}) |d| p^{-2m}."""
    units = [u for u in range(1, 2 * p + 2) if u % p != 0][:3]
    norms = [
        mahler_extended_jacobian_norm(p, d, Fraction(u, p**m)) for u in units
    ]
    return arc_length(norms, Fraction(p**m - p ** (m - 1)))


def mahler_outside_volume(p: int, d: int) -> Fraction:
    """vol of the image of Q_p minus Z_p: the annulus volumes sum to |d|/p."""
    return Fraction(p) ** (-vp_int(d, p)) / p


# -- isometry verification ----------------------------------------------------


def _random_sphere_point(stream: Stream, p: int, dim: int) -> list:
    for attempt in itertools.count():
        coords = [
            stream.child("coord", attempt, i).digits(p).residue(_SAMPLE_DIGITS)
            for i in range(dim)
        ]
        if any(c % p != 0 for c in coords):
            return coords


def isometry_check(
    vmap: VeroneseMap, p: int, pairs: int, stream: Stream
) -> dict:
    """Sample point pairs and demand exact distance equality under the map.

    For the standard embedding the projective distances must match; for the
    affine binomial map the distance of sphere images equals the sup-norm
    distance of the argument vectors. Raises IsometryViolation with the
    offending pair; returns a summary dict when all pairs pass.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    checked = 0
    for i in range(pairs):
        pair_stream = stream.child("pair", i)
        if vmap.kind == STANDARD:
            xv = _random_sphere_point(pair_stream.child("x"), p, vmap.n + 1)
            yv = _random_sphere_point(pair_stream.child("y"), p, vmap.n + 1)
            x = ProjPoint(p, xv)
            y = ProjPoint(p, yv)
            lhs = proj_distance(
                eval_standard(vmap, x), eval_standard(vmap, y)
            )
            rhs = proj_distance(x, y)
        else:
            s = pair_stream.child("s").digits(p).residue(_SAMPLE_DIGITS)
            t = pair_stream.child("t").digits(p).residue(_SAMPLE_DIGITS)
            fs = binomials(s, vmap.d)
            ft = binomials(t, vmap.d)
            diff = [a - b for a, b in zip(fs, ft)]
            rhs = sup_norm(diff, p)
            lhs = wedge_norm(fs, ft, p)
        if lhs != rhs:
            raise IsometryViolation(
                f"pair {i}: image distance {lhs} != source distance {rhs}",
                witness=(i, lhs, rhs),
            )
        checked += 1
    return {"pairs": checked, "failures": 0}
