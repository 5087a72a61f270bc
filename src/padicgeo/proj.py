"""Projective points over Q_p and over Z/p^m: metric, canonical form, enumeration.

A point of P^n is held as an exact rational representative on the unit
sphere (sup norm exactly 1). A point of P^n(Z/p^m) is put in canonical form
by scaling its first unit coordinate to 1, which makes residue-point
equality a plain tuple comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, DomainViolation
from .zp import vp_fraction, wedge_norm

ENUMERATION_BUDGET = 10**7


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n held by its exact representative on the unit sphere.

    ``coords`` may be any integers or rationals, not all zero; they are
    scaled by p^-v, v their least valuation, so the stored ``Fraction``
    coordinates have sup norm exactly 1.
    """

    p: int
    coords: tuple

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        if not any(coords):
            raise ValueError("the zero vector is not a projective point")
        v = min(vp_fraction(c, self.p) for c in coords if c != 0)
        if v != 0:
            scale = Fraction(self.p) ** -v
            coords = tuple(c * scale for c in coords)
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords) - 1


def proj_distance(x: ProjPoint, y: ProjPoint) -> Fraction:
    """Quotient-metric distance: wedge norm of sphere representatives."""
    if x.p != y.p:
        raise ValueError("mixed primes")
    if x.dim != y.dim:
        raise ValueError("ambient dimensions differ")
    return wedge_norm(x.coords, y.coords, x.p)


@dataclass(frozen=True)
class ResidueProjPoint:
    """A point of P^n(Z/p^m) in canonical form (first unit coordinate = 1)."""

    p: int
    m: int
    coords: tuple

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("level m must be >= 1")
        if not any(c % self.p != 0 for c in self.coords):
            raise ValueError("no unit coordinate")

    @classmethod
    def canonical(cls, p: int, m: int, coords) -> "ResidueProjPoint":
        """Canonicalize arbitrary homogeneous residues mod p^m."""
        q = p**m
        coords = [c % q for c in coords]
        lead = next((i for i, c in enumerate(coords) if c % p != 0), None)
        if lead is None:
            raise ValueError("no unit coordinate")
        inv = pow(coords[lead], -1, q)
        return cls(p, m, tuple(c * inv % q for c in coords))


def proj_space_count(p: int, n: int, m: int) -> int:
    """#P^n(Z/p^m) = (p^{m(n+1)} - p^{(m-1)(n+1)}) / (p^m - p^{m-1})."""
    num = p ** (m * (n + 1)) - p ** ((m - 1) * (n + 1))
    den = p**m - p ** (m - 1)
    if num % den:
        raise DomainViolation(f"no integer count of P^{n}(Z/p^{m})")
    return num // den


def hopf_fiber_size(p: int, m: int) -> int:
    """Number of sphere representatives over one residue point: p^m (1 - 1/p)."""
    return p**m - p ** (m - 1)


def enumerate_proj(p: int, n: int, m: int):
    """Yield every point of P^n(Z/p^m) once, in canonical form.

    Canonical points are grouped by the index of their first unit
    coordinate: entries before it run over p*Z/p^m, the entry itself is 1,
    entries after it run over all of Z/p^m.
    """
    if p ** (m * (n + 1)) > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"p^(m(n+1)) = {p**(m*(n+1))} exceeds budget {ENUMERATION_BUDGET}")
    q = p**m
    below = range(0, q, p)  # the non-units mod p^m
    full = range(q)
    for lead in range(n + 1):
        pools = [below] * lead + [full] * (n - lead)
        for tail in itertools.product(*pools):
            coords = tail[:lead] + (1,) + tail[lead:]
            yield ResidueProjPoint(p, m, coords)


def volume_proj_space(p: int, k: int) -> Fraction:
    """vol_k(P^k) = (1 - p^-(k+1)) / (1 - p^-1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    one = Fraction(1)
    return (one - Fraction(1, p ** (k + 1))) / (one - Fraction(1, p))


def ball_volume(p: int, n: int, m: int) -> Fraction:
    """Measure of a radius-p^{-m} ball in P^n; the whole space when m = 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return volume_proj_space(p, n)
    return Fraction(1, p ** (m * n))
