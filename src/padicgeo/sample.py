"""Seeded randomness: digit streams, Haar matrices, random polynomial models.

Randomness is counter based, in the style of Random123 (Salmon et al.,
SC'11): every drawn quantity is a pure function of (seed, derivation path,
counter). Stream format 3 (``STREAM_FORMAT``) lays the bits out as follows.

- An int seed in [0, 2^64) keys a 32-byte stream key. ``Stream.child(*labels)``
  keys a child with BLAKE2b over an injective encoding of the labels: each
  label carries a type tag, strings and tuples a length, so ``child("a/b")``,
  ``child("a", "b")``, ``child(1)`` and ``child("1")`` are four streams.
- Block b of a stream is the keyed 64-byte (512-bit) BLAKE2b digest of
  (b, attempt), read little-endian, for attempt = 0, 1, ... until the value
  falls below the largest multiple of n that fits in 2^512; the accepted
  value mod n is uniform on [0, n).
- A base-p digit stream takes n = p^k, with k the largest integer such that
  p^(k+1) <= 2^512 (k = 322 at p = 3, 511 at p = 2), so a block is rejected
  with probability below 1/p. Block b gives digits b*k ... b*k + k - 1,
  least significant first.
- A sampled object with n entries (a Haar round's size^2 entries, row by row,
  or a polynomial's d + 1 coefficients) reads all of them from the blocks of
  one stream (``LaneDigits``). Each entry's digits are cut into segments of
  s = max(1, k // n) digits, a block holds per = k // s lanes of s digits
  (lane l is digits l*s ... l*s + s - 1 of the accepted value mod p^k), and
  segment t of entry j is lane j mod per of block t*row + j // per, where
  row = ceil(n / per) blocks hold one segment of every entry. At p = 3 a
  3 x 3 round takes one block for its first 35 digits; at p = 2^61 - 1,
  where k = 7, s = 1 and a segment row spans two blocks.
- Round r of a Haar matrix drawn from ``stream`` reads
  ``stream.child("haar", r)``, so rounds share no block; a polynomial reads
  ``stream`` itself. Sample i of a Monte Carlo run reads
  ``Stream(seed).child("sample", i)``, whatever the number of workers.

Digits are addressable: digit i of entry j depends only on (key, j, i), so
reading digits in any order, or extending the precision of one entry, never
resamples a digit already drawn or changes another entry. Streams are
value-like; deriving a child never mutates the parent.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field

from . import linalg

STREAM_FORMAT = 3  # recorded in every report config
_BLOCK_BITS = 512
_pack_counter = struct.Struct("<QQ").pack
_blake2b = hashlib.blake2b


def _block(key: bytes, counter: int, n: int, limit: int) -> int:
    """Block ``counter`` of the stream keyed by ``key``, uniform on [0, n).

    ``limit`` is the largest multiple of n that fits in 2^512; a digest at
    or above it is rejected and the next attempt is hashed.
    """
    attempt = 0
    while True:
        r = int.from_bytes(
            _blake2b(_pack_counter(counter, attempt), key=key, digest_size=64).digest(),
            "little",
        )
        if r < limit:
            return r % n
        attempt += 1


@functools.cache
def _layout(p: int):
    """(k, p^k, limit) of a base-p digit stream: k digits per block."""
    if p < 2 or p * p > 2**_BLOCK_BITS:
        raise ValueError(f"digit base {p} must lie in [2, 2^256]")
    k, q = 1, p
    while q * p * p <= 2**_BLOCK_BITS:
        k, q = k + 1, q * p
    return k, q, (2**_BLOCK_BITS // q) * q


@functools.lru_cache(maxsize=1024)
def _str_code(label: str) -> bytes:
    """Code of a str label, memoised; bounded, since any string can be a label."""
    data = label.encode()
    return b"s%d:%b" % (len(data), data)


def _encode_labels(labels) -> bytes:
    """Type-tagged, length-prefixed labels: an injective, prefix-free code.

    The code of a sequence is the concatenation of the codes of its labels,
    so ``_encode_labels(a + b) == _encode_labels(a) + _encode_labels(b)``.
    """
    parts = []
    for label in labels:
        kind = type(label)
        if kind is int:
            parts.append(b"i%d;" % label)
        elif kind is str:
            parts.append(_str_code(label))
        elif kind is tuple:
            parts.append(b"t%d:%b" % (len(label), _encode_labels(label)))
        else:
            raise TypeError(f"stream label {label!r} is not a str, int or tuple")
    return b"".join(parts)


def check_seed(seed: int) -> int:
    """The seed itself; TypeError unless it is an int (not a bool or float),
    ValueError if it is outside [0, 2^64)."""
    if type(seed) is not int:
        raise TypeError(f"seed {seed!r} is not an int")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    return seed


class Stream:
    """An immutable, splittable source of uniform randomness."""

    __slots__ = ("key",)

    def __init__(self, seed: int):
        self.key = _blake2b(
            struct.pack("<Q", check_seed(seed)), key=b"padicgeo", digest_size=32
        ).digest()

    def child(self, *labels) -> "Stream":
        return self._derive(_encode_labels(labels))

    def _derive(self, code: bytes) -> "Stream":
        """The child whose labels encode to ``code``."""
        child = Stream.__new__(Stream)
        child.key = _blake2b(code, key=self.key, digest_size=32).digest()
        return child

    def digits(self, p: int) -> "DigitStream":
        return DigitStream(p, self)


class DigitStream:
    """I.i.d. uniform base-p digits, addressable by index.

    The accepted blocks are kept as one integer, block b times p^(b*k), so a
    residue is that integer mod p^m and a block is hashed only when a digit
    beyond the ``_known`` drawn ones is read.
    """

    __slots__ = ("p", "_key", "_layout", "_value", "_known")

    def __init__(self, p: int, stream: Stream):
        self.p = p
        self._key = stream.key
        self._layout = _layout(p)
        self._value = 0
        self._known = 0

    def _draw(self, m: int) -> None:
        """Draw blocks until the first m digits are known."""
        k, q, limit = self._layout
        b = self._known // k
        while self._known < m:
            self._value += _block(self._key, b, q, limit) * q**b
            b += 1
            self._known += k

    def digit(self, i: int) -> int:
        if not 0 <= i < self._known:
            if i < 0:
                raise ValueError(f"digit index {i} is negative")
            self._draw(i + 1)
        return self._value // self.p**i % self.p

    def residue(self, m: int) -> int:
        """The value of the first m digits: uniform modulo p^m."""
        if not 0 <= m <= self._known:
            if m < 0:
                raise ValueError(f"precision {m} is negative")
            self._draw(m)
        return self._value % self.p**m


@functools.cache
def _lane_shape(p: int, n: int):
    """(s, per, row, p^s) of an object with n base-p entries: s digits per
    lane, per lanes per block and row blocks per segment."""
    k = _layout(p)[0]
    s = max(1, k // n)
    per = k // s
    return s, per, -(-n // per), p**s


class LaneDigits:
    """The base-p digits of the n entries of one sampled object.

    Segment t of entry j (digits t*s ... t*s + s - 1) is lane j mod per of
    block t*row + j // per of the stream, with (s, per, row) from
    ``_lane_shape``. The entries that share a block form a group, and a block
    is drawn once, for its whole group, when one of them is read past the
    segments known. Segment 0 of every entry is cut on creation, in one pass
    over blocks 0 ... row - 1.
    """

    __slots__ = ("p", "n", "_key", "_layout", "_shape", "_values", "_segments")

    def __init__(self, stream: Stream, p: int, n: int):
        self.p = p
        self.n = n
        self._key = stream.key
        self._layout = _layout(p)
        self._shape = _, per, row, _ = _lane_shape(p, n)
        self._values = []
        for g in range(row):
            self._values += self._lanes(g, min(per, n - g * per))
        self._segments = [1] * row

    def __len__(self) -> int:
        return self.n

    def _lanes(self, b: int, count: int):
        """The first count lanes, of s digits each, of block b."""
        _, q, limit = self._layout
        ps = self._shape[3]
        v = _block(self._key, b, q, limit)
        lanes = []
        for _ in range(count):
            v, lane = divmod(v, ps)
            lanes.append(lane)
        return lanes

    def _draw(self, g: int) -> None:
        """Draw the next segment of every entry in group g."""
        _, per, row, ps = self._shape
        t = self._segments[g]
        start = g * per
        scale = ps**t
        values = self._values
        for j, lane in enumerate(self._lanes(t * row + g, min(per, self.n - start)), start):
            values[j] += lane * scale
        self._segments[g] = t + 1

    def residue(self, j: int, m: int) -> int:
        """Entry j modulo p^m: uniform modulo p^m."""
        s, per, _, _ = self._shape
        g = j // per
        while self._segments[g] * s < m:
            self._draw(g)
        if m < 0:
            raise ValueError(f"precision {m} is negative")
        return self._values[j] % self.p**m

    def residues(self, m: int):
        """Every entry modulo p^m."""
        if 0 <= m <= self._shape[0]:  # segment 0, drawn on creation, holds them
            pm = self.p**m
            return [v % pm for v in self._values]
        return [self.residue(j, m) for j in range(self.n)]


class HaarMatrix:
    """A Haar-distributed element of GL_size(Z_p), truncated on demand.

    Round r draws the size^2 entries, row by row, as the ``LaneDigits`` of
    ``stream.child("haar", r)``; rounds are rejected until the determinant
    is a unit mod p. The law of the accepted matrix truncated to m digits is
    the truncation of Haar measure.
    """

    __slots__ = ("p", "size", "entries", "rounds")

    def __init__(self, stream: Stream, p: int, size: int):
        if size < 1:
            raise ValueError(f"matrix size must be >= 1, got {size}")
        self.p = p
        self.size = size
        r = 0
        while True:
            entries = LaneDigits(stream.child("haar", r), p, size * size)
            low = [v % p for v in entries._values]
            if linalg.det([low[i : i + size] for i in range(0, len(low), size)]) % p:
                break
            r += 1
        self.entries = entries
        self.rounds = r + 1

    def residue_rows(self, m: int):
        flat = self.entries.residues(m)
        return [flat[i : i + self.size] for i in range(0, len(flat), self.size)]

    def inverse(self, m: int):
        """The inverse matrix, modulo p^m."""
        return linalg.inverse_mod(self.residue_rows(m), self.p, m)

    def inverse_row(self, i: int, m: int):
        """Row i of the inverse matrix, modulo p^m."""
        return linalg.inverse_row(self.residue_rows(m), i, self.p, m)


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
    """A polynomial whose coefficients are the extendable entries of one
    ``LaneDigits``."""

    model: RandomPolyModel
    coefficients: LaneDigits = field(repr=False)

    def residues(self, m: int):
        return self.coefficients.residues(m)


def sample_poly(model: RandomPolyModel, stream: Stream) -> SampledPoly:
    """Draw one polynomial from the model; coefficients stay extendable.

    Coefficient k is entry k of the ``LaneDigits`` of ``stream``.
    """
    return SampledPoly(model, LaneDigits(stream, model.prime, model.n_coefficients))
