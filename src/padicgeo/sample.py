"""Seeded randomness: digit streams, Haar matrices, random polynomial models.

Randomness is counter based: every drawn quantity is a pure function of
(seed, derivation path, counter), produced by a keyed BLAKE2b PRF. Digits
of any coefficient are addressable independently, so extending the
precision of a sampled object never resamples digits already emitted.
Streams are value-like; deriving a child never mutates the parent.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from . import linalg
from .zp import DEFAULT_PRECISION, PadicMatrix, PadicScalar

_BLOCK = 8  # bytes of PRF output consumed per draw


def _prf(key: bytes, counter: int, tweak: int) -> int:
    h = hashlib.blake2b(
        struct.pack("<qq", counter, tweak), key=key, digest_size=_BLOCK
    )
    return int.from_bytes(h.digest(), "little")


class Stream:
    """An immutable, splittable source of uniform randomness."""

    __slots__ = ("key",)

    def __init__(self, seed, key: bytes | None = None):
        if key is not None:
            self.key = key
        else:
            seed = int(seed) & (2**64 - 1)
            self.key = hashlib.blake2b(
                struct.pack("<Q", seed), key=b"padicgeo", digest_size=32
            ).digest()

    def child(self, *labels) -> "Stream":
        data = b"/".join(str(l).encode() for l in labels)
        return Stream(None, key=hashlib.blake2b(data, key=self.key, digest_size=32).digest())

    def below(self, n: int, counter: int = 0) -> int:
        """Exactly uniform integer in [0, n), by rejection on 64-bit blocks."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (2**64 // n) * n
        attempt = 0
        while True:
            r = _prf(self.key, counter, attempt)
            if r < limit:
                return r % n
            attempt += 1

    def digits(self, p: int) -> "DigitStream":
        return DigitStream(p, self)


class DigitStream:
    """I.i.d. uniform base-p digits, addressable by index.

    Digit i depends only on (key, i), so reading digits out of order or
    extending precision later reproduces identical values.
    """

    __slots__ = ("p", "_stream", "_cache")

    def __init__(self, p: int, stream: Stream):
        self.p = p
        self._stream = stream
        self._cache = []

    def digit(self, i: int) -> int:
        while len(self._cache) <= i:
            j = len(self._cache)
            self._cache.append(self._stream.below(self.p, counter=j))
        return self._cache[i]

    def residue(self, m: int) -> int:
        """The value of the first m digits: uniform modulo p^m."""
        acc = 0
        for i in reversed(range(m)):
            acc = acc * self.p + self.digit(i)
        return acc

    def scalar(self, m: int) -> PadicScalar:
        return PadicScalar.from_residue(self.p, self.residue(m), m)


def sample_zp(stream: Stream, p: int, m: int = DEFAULT_PRECISION) -> PadicScalar:
    """One uniform element of Z_p known mod p^m (extendable via the stream)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return stream.digits(p).scalar(m)


class HaarMatrix:
    """A Haar-distributed element of GL_size(Z_p), truncated on demand.

    Entries are uniform digit streams, rejection sampled (round by round)
    until the determinant is a unit mod p; the law of the accepted matrix
    truncated to m digits is the truncation of Haar measure.
    """

    __slots__ = ("p", "size", "entries", "rounds")

    def __init__(self, stream: Stream, p: int, size: int):
        self.p = p
        self.size = size
        r = 0
        while True:
            grid = [
                [stream.child("haar", r, i, j).digits(p) for j in range(size)]
                for i in range(size)
            ]
            if linalg.det([[d.digit(0) for d in row] for row in grid]) % p != 0:
                break
            r += 1
        self.entries = grid
        self.rounds = r + 1

    def residue_rows(self, m: int):
        return [[d.residue(m) for d in row] for row in self.entries]

    def matrix(self, m: int) -> PadicMatrix:
        return PadicMatrix.from_residues(self.p, self.residue_rows(m), m)

    def inverse_row(self, i: int, m: int):
        """Row i of the inverse matrix, modulo p^m."""
        return linalg.inverse_row(self.residue_rows(m), i, self.p, m)


def sample_haar_gl(stream: Stream, p: int, size: int, m: int = DEFAULT_PRECISION) -> PadicMatrix:
    """A matrix with the truncated Haar law on GL_size(Z_p), mod p^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return HaarMatrix(stream, p, size).matrix(m)


MONOMIAL = "monomial"
MAHLER = "mahler"


@dataclass(frozen=True)
class RandomPolyModel:
    """Coefficient model for random p-adic polynomials.

    monomial: uniform Z_p coefficients on the degree-d monomial basis of a
    binary form. mahler: uniform Z_p coefficients on the binomial-coefficient
    basis 1, C(t,1), ..., C(t,d) of an affine polynomial.
    """

    kind: str
    degree: int
    prime: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.kind not in (MONOMIAL, MAHLER):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    @property
    def n_coefficients(self) -> int:
        return self.degree + 1


@dataclass
class SampledPoly:
    """A polynomial whose coefficients are extendable digit streams."""

    model: RandomPolyModel
    coefficients: list = field(repr=False)

    def residues(self, m: int):
        return [c.residue(m) for c in self.coefficients]

    def scalars(self, m: int):
        p = self.model.prime
        return [PadicScalar.from_residue(p, r, m) for r in self.residues(m)]


def sample_poly(model: RandomPolyModel, stream: Stream) -> SampledPoly:
    """Draw one polynomial from the model; coefficients stay extendable."""
    coeffs = [
        stream.child("coeff", k).digits(model.prime)
        for k in range(model.n_coefficients)
    ]
    return SampledPoly(model, coeffs)


def gl_acceptance_probability(p: int, size: int):
    """#GL_size(F_p) / p^(size^2), the Haar rejection acceptance rate."""
    from fractions import Fraction

    count = 1
    for k in range(size):
        count *= p**size - p**k
    return Fraction(count, p ** (size * size))
