"""Exact counting of roots of univariate p-adic polynomials.

Roots in Z_p are located by the classical digit-by-digit descent: reduce
mod p, certify simple residue roots (a unique lift exists whenever the
reduced derivative is a unit), and recurse with t = a + p*s into multiple
residue roots after dividing out content. ``count_roots`` reads every
region as a tuple of disjoint balls, each on f or on its reversal
y^d f(1/y): Z_p is one ball, Q_p and P^1 add the ball p Z_p in y, and the
annulus |t| = p^m is the p - 1 balls a p^m + p^(m+1) Z_p in y. One counter
descends all of them, for exact and fixed-precision inputs alike; each
step down to t = a + p*s is an in-place Taylor shift (``substitute_digit``).
``precision_ladder`` is the one schedule of precisions that callers extend
a sampled polynomial or matrix through.

Counts are of DISTINCT roots. An exact-integer input is replaced by its
squarefree part once per count, and the reversal is taken of that part;
finite-precision inputs carry their uncertainty through the recursion and
report Undetermined rather than guess.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

from .errors import CertificationCapExceeded, ConsistencyError, IdenticallyZeroAtPrecision
from .sample import MAHLER
from .zp import vp_int

INF = math.inf

EXACT = "exact"
LOWER_BOUND = "lower-bound"
UNDETERMINED = "undetermined"

DEPTH_BUDGET_FACTOR = 4  # recursion depth budget is 4*(d+1)
PRECISION_CAP = 64  # digits; the last rung of every precision ladder
POLY_DIGITS = 8  # first rung of the precision ladder for sampled polynomials


@dataclass(frozen=True)
class Witness:
    """A ball center + p^level Z_p certified to contain exactly one root.

    ``chart`` is "zp" for affine roots t, "inf" for the chart at infinity of
    P^1 (the ball is then in the s = x_1/x_0 coordinate).
    """

    center: int
    level: int
    chart: str = "zp"


@dataclass
class RootReport:
    count: int
    status: str
    witnesses: list = field(default_factory=list)
    precision_consumed: int = 0
    unresolved_classes: int = 0


# -- integer polynomial helpers ---------------------------------------------


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs, x, mod=None):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc % mod if mod else acc


def poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _primitive(coeffs):
    """coeffs divided by their content, the gcd of the entries."""
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs] if content else list(coeffs)


def _pseudo_divmod(num, den):
    """(q, r) with lead(den)^k * num = q * den + r over Z, k = deg num - deg den + 1."""
    n = len(den) - 1
    rem = list(num)
    quot = [0] * max(0, len(num) - n)
    for i in reversed(range(len(quot))):
        f = rem[i + n]
        quot = [den[-1] * c for c in quot]
        quot[i] = f
        rem = [den[-1] * c for c in rem]
        for j, c in enumerate(den):
            rem[i + j] -= f * c
    return quot, trim(rem)


def squarefree_part(coeffs):
    """f / gcd(f, f'), primitive, with the sign of f's leading coefficient.

    gcd(f, f') is the last nonzero term of the primitive remainder sequence
    of f and f', so every step stays in Z.
    """
    coeffs = trim(coeffs)
    if len(coeffs) > 1:
        a, b = _primitive(coeffs), _primitive(poly_derivative(coeffs))
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        if len(a) > 1:
            g = a if a[-1] > 0 else [-c for c in a]
            coeffs, r = _pseudo_divmod(coeffs, g)
            if r:
                raise ConsistencyError("gcd(f, f') does not divide f")
    return _primitive(coeffs)


def substitute_digit(coeffs, a, p, shift=1, mod=None):
    """Coefficients of f(a + p^shift * s), optionally reduced mod ``mod``:
    a Taylor shift t -> t + a by synthetic division in place, coefficient k
    times p^(shift*k), then one reduction (a ring homomorphism)."""
    out = list(coeffs)
    n = len(out)
    if a:
        for i in range(n - 1):
            for k in range(n - 2, i - 1, -1):
                out[k] += a * out[k + 1]
    q = p**shift
    out = [c * q**k for k, c in enumerate(out)]
    return [c % mod for c in out] if mod else out


# -- the counting recursion --------------------------------------------------


class _Counter:
    """Roots found so far over the balls of one region; ``chart`` is the
    chart of the ball being descended."""

    def __init__(self, p):
        self.p = p
        self.chart = "zp"
        self.count = 0
        self.witnesses = []
        self.unresolved = 0
        self.consumed = 0

    def report(self) -> RootReport:
        status = EXACT
        if self.unresolved:
            status = LOWER_BOUND if self.count else UNDETERMINED
        return RootReport(self.count, status, self.witnesses, self.consumed, self.unresolved)

    def run(self, coeffs, prec, depth, center, level):
        p = self.p
        if prec is INF:
            coeffs = trim(coeffs)
        else:
            q = p ** int(prec)
            coeffs = [c % q for c in coeffs]
        # v(gcd) is the least valuation; the gcd of no entries is 0, v = INF
        content = vp_int(math.gcd(*coeffs), p)
        if content == INF or (prec is not INF and content >= prec):
            # vanishes identically as far as this precision can see
            if level == 0:
                raise IdenticallyZeroAtPrecision(
                    "polynomial is zero at its working precision"
                )
            self.unresolved += 1
            return
        content = int(content)
        if content:
            pc = p**content
            coeffs = [c // pc for c in coeffs]
            self.consumed = max(self.consumed, content + level)
            if prec is not INF:
                prec -= content
                if prec < 1:
                    self.unresolved += 1
                    return
        fbar = [c % p for c in coeffs]
        dbar = [i * c % p for i, c in enumerate(fbar)][1:]
        for a in range(p):
            if poly_eval(fbar, a, p) != 0:
                continue
            if poly_eval(dbar, a, p) != 0:
                self.count += 1
                self.witnesses.append(
                    Witness(center + p**level * a, level + 1, self.chart)
                )
            else:
                if depth <= 0:
                    self.unresolved += 1
                    continue
                child = substitute_digit(
                    coeffs, a, p, mod=None if prec is INF else p ** int(prec)
                )
                self.run(child, prec, depth - 1, center + p**level * a, level + 1)


def annulus_level(region: str) -> int:
    """The m of the region "annulus:m", |t| = p^m; ValueError unless m >= 1."""
    m = int(region[len("annulus:"):])
    if m < 1:
        raise ValueError("m must be >= 1")
    return m


def _region_balls(p, region):
    """The balls (chart, center, level) that make up a region.

    A "zp" ball is center + p^level Z_p in t; an "inf" ball is the same set
    in y = 1/t, read through the reversal of f. The balls of a region are
    disjoint, so its roots are the sum of theirs.
    """
    if region == "zp":
        return (("zp", 0, 0),)
    if region in ("qp", "p1"):
        return (("zp", 0, 0), ("inf", 0, 1))
    if region.startswith("annulus:"):
        m = annulus_level(region)
        # |t| = p^m iff y = 1/t = p^m * u with u a unit
        return tuple(("inf", a * p**m, m + 1) for a in range(1, p))
    raise ValueError(f"unknown region {region!r}")


def count_roots(p, coeffs, region, precision=None) -> RootReport:
    """Distinct roots of f = sum coeffs[i] t^i in a region.

    ``region`` is "zp", "qp", "annulus:m" (|t| = p^m) or "p1", where the
    list is read as a binary form of degree len(coeffs) - 1, so a zero
    leading coefficient puts a root at [1:0]. ``precision=None`` means
    exact integers; otherwise every coefficient is a residue mod
    p^precision.
    """
    balls = _region_balls(p, region)
    coeffs = list(coeffs)
    if not any(coeffs):
        raise IdenticallyZeroAtPrecision("the zero polynomial")
    if precision is None:
        prec, mod = INF, None
        f = squarefree_part(coeffs)
        rev = trim(f[::-1])
        if coeffs[-1] == 0 and region != "qp":
            rev = [0] + rev  # y divides the reversal: a root at [1:0]
    else:
        prec, mod = precision, p ** int(precision)
        f, rev = coeffs, coeffs[::-1]
    counter = _Counter(p)
    for chart, center, level in balls:
        poly = f if chart == "zp" else rev
        depth = DEPTH_BUDGET_FACTOR * (max(len(trim(poly)) - 1, 0) + 1)
        if level:
            poly = substitute_digit(poly, center, p, shift=level, mod=mod)
        counter.chart = chart
        counter.run(poly, prec, depth, center, level)
    if region == "qp" and mod is not None and coeffs[-1] % mod == 0:
        # the reversal's constant term vanishes at precision: a root at
        # y = 0, outside Q_p, cannot be told from a tiny nonzero one. The
        # descent of y = 0 ends in one class, a witness or unresolved, and
        # that class counts once, as unresolved, never as a root
        kept = [w for w in counter.witnesses if not (w.chart == "inf" and w.center == 0)]
        if len(kept) < len(counter.witnesses):
            counter.witnesses = kept
            counter.count -= 1
            counter.unresolved += 1
    return counter.report()


def count_roots_zp(p, coeffs, precision=None) -> RootReport:
    """Distinct roots in Z_p. ``precision=None`` means exact integers."""
    return count_roots(p, coeffs, "zp", precision)


def count_roots_p1(p, form, precision=None) -> RootReport:
    """Roots on P^1 of the binary form sum_k form[k] x0^(d-k) x1^k."""
    return count_roots(p, form[::-1], "p1", precision)


def count_roots_annulus(p, coeffs, m, precision=None) -> RootReport:
    """Distinct roots x with |x| = p^m (m >= 1)."""
    return count_roots(p, coeffs, f"annulus:{m}", precision)


def count_roots_qp(p, coeffs, precision=None) -> RootReport:
    """Distinct roots in all of Q_p: Z_p roots plus roots with |x| > 1."""
    return count_roots(p, coeffs, "qp", precision)


def precision_ladder(start):
    """Precisions start, 2*start, ..., each step min(2m, PRECISION_CAP)."""
    m = start
    yield m
    while m < PRECISION_CAP:
        m = min(2 * m, PRECISION_CAP)
        yield m


def verify_witness(p, coeffs, witness, precision=None) -> bool:
    """Check the quantitative lifting inequality at a witness center.

    The ball center + p^level Z_p was certified through the local polynomial
    h(s) = f(center + p^(level-1) s) divided by its content: the criterion
    |h(0)| < |h'(0)|^2 with |h'(0)| = 1 guarantees a unique root with
    s in p Z_p, i.e. exactly one root of f in the witness ball.
    """
    local = substitute_digit(
        coeffs,
        witness.center,
        p,
        shift=witness.level - 1,
        mod=None if precision is None else p ** int(precision),
    )
    content = vp_int(math.gcd(*local), p)
    if content == INF:
        return False
    h = [c // p ** int(content) for c in local]
    v0 = vp_int(h[0], p)
    v1 = vp_int(poly_eval(poly_derivative(h), 0), p) if len(h) > 1 else INF
    return v0 >= 1 and v1 == 0


# -- adaptive counting over sampled models -----------------------------------


def mahler_power_basis(d: int):
    """Rows k = 0..d: integer coefficients of d! * C(t, k) in powers of t."""
    rows = []
    falling = [1]  # product_{j<k} (t - j), ascending coefficients
    for k in range(d + 1):
        scale = math.factorial(d) // math.factorial(k)
        rows.append([scale * c for c in falling] + [0] * (d - len(falling) + 1))
        falling = [
            (falling[j - 1] if j else 0) - k * falling[j]
            if j < len(falling)
            else falling[j - 1]
            for j in range(len(falling) + 1)
        ]
    return rows


@functools.cache
def _mahler_columns(d: int):
    """Columns j = 0..d of ``mahler_power_basis(d)``, built once per degree."""
    return tuple(zip(*mahler_power_basis(d)))


def power_coeffs_from_mahler(zeta, d):
    """Integer power-basis coefficients of d! * sum_k zeta_k C(t,k)."""
    if len(zeta) > d + 1:
        raise ValueError(f"{len(zeta)} Mahler coefficients exceed degree {d}")
    return [sum(map(operator.mul, zeta, column)) for column in _mahler_columns(d)]


def adaptive_count(poly, region="p1") -> RootReport:
    """Count roots of a sampled polynomial, extending precision until Exact.

    Climbs the precision ladder from POLY_DIGITS to PRECISION_CAP digits;
    under the uniform models the event of never certifying has probability
    zero, and hitting the cap raises CertificationCapExceeded for the
    caller to record.
    """
    model = poly.model
    for m in precision_ladder(POLY_DIGITS):
        residues = poly.residues(m)
        if model.kind == MAHLER:
            coeffs = power_coeffs_from_mahler(residues, len(residues) - 1)
        else:  # a monomial sample is a binary form, F(t, 1) ascends reversed
            coeffs = residues[::-1]
        try:
            report = count_roots(model.prime, coeffs, region, m)
        except IdenticallyZeroAtPrecision:
            continue
        if report.status == EXACT:
            return report
    raise CertificationCapExceeded(
        f"no exact count at precision cap {PRECISION_CAP} (region {region})"
    )
