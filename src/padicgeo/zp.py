"""Exact p-adic valuations and norms of integers and rationals.

Every value is a plain ``int`` or ``Fraction``, known exactly; absolute
values are exact p-powers returned as ``Fraction``. Python integers are
arbitrary precision, so no 64-bit fast path is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def vp_int(n: int, p: int):
    """p-adic valuation of an integer; INF for 0."""
    if n == 0:
        return INF
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int):
    if q == 0:
        return INF
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def sup_norm(values, p: int) -> Fraction:
    """max |c|_p over the entries; 0 when every entry is 0."""
    vals = [vp_fraction(c, p) for c in values if c != 0]
    return Fraction(p) ** -min(vals) if vals else Fraction(0)


def wedge_norm(a, b, p: int) -> Fraction:
    """Sup norm of the 2x2 minors a_i b_j - a_j b_i of the rows (a, b).

    Equals the projective distance of [a], [b] when both lie on the unit
    sphere.
    """
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    n = len(a)
    return sup_norm(
        (a[i] * b[j] - a[j] * b[i] for i in range(n) for j in range(i + 1, n)), p
    )
