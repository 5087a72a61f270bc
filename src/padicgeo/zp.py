"""Truncated p-adic arithmetic: scalars, vectors, norms.

A scalar is either exact (a rational stored as a Fraction, known to infinite
precision) or an approximation p^v * u with the unit part u known modulo p^r.
A value indistinguishable from zero at its precision is a distinct state
carrying the absolute precision at which it vanishes; it is never collapsed
to an exact 0. All values are immutable.

Residues are plain Python integers, which are arbitrary precision natively,
so no 64-bit fast path is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InsufficientPrecision, PrecisionTooLow

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


def unit_inv_mod(a: int, p: int, m: int) -> int:
    """Inverse of a unit modulo p^m."""
    return pow(a, -1, p**m)


def fraction_residue(q: Fraction, p: int, m: int) -> int:
    """q mod p^m for a p-integral rational (denominator a unit)."""
    den = q.denominator
    if den % p == 0:
        raise ValueError("rational is not p-integral")
    return q.numerator * unit_inv_mod(den, p, m) % p**m


@dataclass(frozen=True)
class PNorm:
    """An exact p-power absolute value, or an upper bound for one.

    ``exact=True`` means |x| equals ``value``; ``exact=False`` means only
    |x| <= value is known (the zero-at-precision case).
    """

    value: Fraction
    exact: bool = True

    def __repr__(self):
        rel = "=" if self.exact else "<="
        return f"|.| {rel} {self.value}"


_EXACT = 0
_APPROX = 1
_ZERO = 2


class PadicScalar:
    """An element of Q_p at finite (or infinite, exact) precision."""

    __slots__ = ("p", "_state", "_exact", "_v", "_unit", "_rel", "_zprec")

    def __init__(self, p, state, exact=None, v=None, unit=None, rel=None, zprec=None):
        self.p = p
        self._state = state
        self._exact = exact
        self._v = v
        self._unit = unit
        self._rel = rel
        self._zprec = zprec

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, p: int, value) -> "PadicScalar":
        return cls(p, _EXACT, exact=Fraction(value))

    @classmethod
    def approx(cls, p: int, v: int, unit: int, rel: int) -> "PadicScalar":
        if rel < 1:
            raise ValueError("relative precision must be >= 1")
        unit %= p**rel
        if unit % p == 0:
            raise ValueError("unit part must be coprime to p")
        return cls(p, _APPROX, v=v, unit=unit, rel=rel)

    @classmethod
    def zero_at(cls, p: int, abs_prec: int) -> "PadicScalar":
        return cls(p, _ZERO, zprec=abs_prec)

    @classmethod
    def from_residue(cls, p: int, residue: int, abs_prec: int) -> "PadicScalar":
        """Scalar known to equal ``residue`` modulo p^abs_prec."""
        if abs_prec < 1:
            raise ValueError("absolute precision must be >= 1")
        residue %= p**abs_prec
        if residue == 0:
            return cls.zero_at(p, abs_prec)
        v = vp_int(residue, p)
        unit = residue // p**v
        return cls.approx(p, v, unit, abs_prec - v)

    # -- state predicates and accessors ------------------------------------

    @property
    def is_zero_at_precision(self) -> bool:
        return self._state == _ZERO

    @property
    def valuation(self):
        """Valuation; INF for exact zero and for zero-at-precision."""
        if self._state == _EXACT:
            return vp_fraction(self._exact, self.p)
        if self._state == _APPROX:
            return self._v
        return INF

    @property
    def rel_precision(self):
        if self._state == _APPROX:
            return self._rel
        if self._state == _EXACT:
            return INF
        return 0

    @property
    def abs_precision(self):
        """Exponent a such that the value is known modulo p^a."""
        if self._state == _EXACT:
            return INF
        if self._state == _APPROX:
            return self._v + self._rel
        return self._zprec

    def exact_value(self) -> Fraction:
        if self._state != _EXACT:
            raise PrecisionTooLow("scalar is not exact")
        return self._exact

    def lift(self) -> Fraction:
        """The canonical rational lift of the known digits."""
        if self._state == _EXACT:
            return self._exact
        if self._state == _ZERO:
            return Fraction(0)
        return Fraction(self.p) ** self._v * self._unit

    def unit_residue(self, r: int) -> int:
        """Unit part modulo p^r; requires r digits of the unit to be known."""
        if self._state == _ZERO:
            raise PrecisionTooLow("no unit part: zero at precision")
        if self._state == _EXACT:
            if self._exact == 0:
                raise PrecisionTooLow("no unit part: exact zero")
            v = vp_fraction(self._exact, self.p)
            q = self._exact / Fraction(self.p) ** v
            return fraction_residue(q, self.p, r)
        if r > self._rel:
            raise PrecisionTooLow(f"unit known only mod p^{self._rel}")
        return self._unit % self.p**r

    def residue(self, m: int) -> int:
        """Value modulo p^m, for p-integral scalars known at least that far."""
        if m < 0:
            raise ValueError("m must be >= 0")
        if self.abs_precision < m:
            raise PrecisionTooLow(f"known only mod p^{self.abs_precision}")
        if self._state == _ZERO:
            return 0
        if self._state == _EXACT:
            if self._exact == 0:
                return 0
            if vp_fraction(self._exact, self.p) < 0:
                raise ValueError("negative valuation: not p-integral")
            return fraction_residue(self._exact, self.p, m)
        if self._v < 0:
            raise ValueError("negative valuation: not p-integral")
        return self.p**self._v * self._unit % self.p**m

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: "PadicScalar"):
        if not isinstance(other, PadicScalar):
            raise TypeError("expected a PadicScalar")
        if other.p != self.p:
            raise ValueError("mixed primes")

    @classmethod
    def _from_value_mod(cls, p: int, value: Fraction, abs_prec) -> "PadicScalar":
        """Scalar representing ``value`` known modulo p^abs_prec."""
        if abs_prec == INF:
            return cls.exact(p, value)
        v = vp_fraction(value, p)
        if v >= abs_prec:
            return cls.zero_at(p, abs_prec)
        unit = value / Fraction(p) ** v
        rel = abs_prec - v
        return cls.approx(p, v, fraction_residue(unit, p, rel), rel)

    def __add__(self, other):
        self._require_same(other)
        a = min(self.abs_precision, other.abs_precision)
        return self._from_value_mod(self.p, self.lift() + other.lift(), a)

    def __neg__(self):
        if self._state == _EXACT:
            return PadicScalar.exact(self.p, -self._exact)
        if self._state == _ZERO:
            return self
        return PadicScalar.approx(self.p, self._v, -self._unit, self._rel)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_same(other)
        s, o = self._state, other._state
        if s == _EXACT and o == _EXACT:
            return PadicScalar.exact(self.p, self._exact * other._exact)
        if s == _ZERO or o == _ZERO:
            z, w = (self, other) if s == _ZERO else (other, self)
            if w._state == _ZERO:
                return PadicScalar.zero_at(self.p, z._zprec + w._zprec)
            if w._state == _EXACT and w._exact == 0:
                return PadicScalar.exact(self.p, 0)
            return PadicScalar.zero_at(self.p, z._zprec + w.valuation)
        if (s == _EXACT and self._exact == 0) or (o == _EXACT and other._exact == 0):
            return PadicScalar.exact(self.p, 0)
        rel = min(self.rel_precision, other.rel_precision)
        v = self.valuation + other.valuation
        unit = self.unit_residue(rel) * other.unit_residue(rel)
        return PadicScalar.approx(self.p, v, unit, rel)

    def __truediv__(self, other):
        self._require_same(other)
        if other._state == _ZERO or (other._state == _EXACT and other._exact == 0):
            raise InsufficientPrecision("divisor is zero at its precision")
        if self._state == _EXACT and other._state == _EXACT:
            return PadicScalar.exact(self.p, self._exact / other._exact)
        if self._state == _ZERO:
            return PadicScalar.zero_at(self.p, self._zprec - other.valuation)
        rel = min(self.rel_precision, other.rel_precision)
        v = self.valuation - other.valuation
        unit = self.unit_residue(rel) * unit_inv_mod(other.unit_residue(rel), self.p, rel)
        return PadicScalar.approx(self.p, v, unit, rel)

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (
            self.p == other.p
            and self._state == other._state
            and self._exact == other._exact
            and self._v == other._v
            and self._unit == other._unit
            and self._rel == other._rel
            and self._zprec == other._zprec
        )

    def __hash__(self):
        return hash((self.p, self._state, self._exact, self._v, self._unit, self._rel, self._zprec))

    def __repr__(self):
        if self._state == _EXACT:
            return f"PadicScalar({self._exact}, p={self.p}, exact)"
        if self._state == _ZERO:
            return f"PadicScalar(O({self.p}^{self._zprec}))"
        return f"PadicScalar({self.p}^{self._v}*{self._unit} + O({self.p}^{self.abs_precision}))"

    def norm(self) -> PNorm:
        if self._state == _ZERO:
            return PNorm(Fraction(self.p) ** (-self._zprec), exact=False)
        v = self.valuation
        if v == INF:
            return PNorm(Fraction(0), exact=True)
        return PNorm(Fraction(self.p) ** (-v), exact=True)


class PadicVector:
    """A vector of p-adic scalars sharing one prime."""

    __slots__ = ("p", "entries")

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty vector")
        p = entries[0].p
        for e in entries:
            if e.p != p:
                raise ValueError("mixed primes")
        self.p = p
        self.entries = entries

    @classmethod
    def exact(cls, p: int, values) -> "PadicVector":
        return cls([PadicScalar.exact(p, v) for v in values])

    @classmethod
    def from_residues(cls, p: int, residues, abs_prec: int) -> "PadicVector":
        return cls([PadicScalar.from_residue(p, r, abs_prec) for r in residues])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, PadicVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"PadicVector({list(self.entries)})"

    def scale(self, s: PadicScalar) -> "PadicVector":
        return PadicVector([s * a for a in self.entries])

    def norm(self) -> PNorm:
        """sup-norm over entries."""
        exacts = [e.norm().value for e in self.entries if not e.is_zero_at_precision]
        bounds = [e.norm().value for e in self.entries if e.is_zero_at_precision]
        if not bounds:
            return PNorm(max(exacts), exact=True)
        if exacts and max(exacts) >= max(bounds):
            return PNorm(max(exacts), exact=True)
        return PNorm(max(bounds + exacts), exact=False)


def wedge_norm(a: PadicVector, b: PadicVector) -> Fraction:
    """Max p-adic absolute value over the 2x2 minors of the rows (a, b).

    Equals the projective distance of [a], [b] when both are
    sphere-normalized. Raises InsufficientPrecision when minors vanish at
    the working precision without being exactly zero.
    """
    if a.p != b.p:
        raise ValueError("mixed primes")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    for vec in (a, b):
        n = vec.norm()
        if not n.exact:
            raise InsufficientPrecision("a vector is zero at its precision")
        if n.value == 0:
            raise ValueError("wedge_norm of an exactly zero vector")
    exacts = []
    bounds = []
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            minor = a[i] * b[j] - a[j] * b[i]
            n = minor.norm()
            (exacts if n.exact else bounds).append(n.value)
    best = max(exacts, default=Fraction(0))
    if bounds and max(bounds) > best:
        raise InsufficientPrecision(
            "all large minors vanish at precision; distance undecidable"
        )
    return best

