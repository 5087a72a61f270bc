"""Seeded randomness: digit streams, Haar matrices, random polynomial models.

Randomness is counter based, in the style of Random123 (Salmon et al.,
SC'11): every drawn quantity is a pure function of (seed, derivation path,
counter). Stream format 2 (``STREAM_FORMAT``) lays the bits out as follows.

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
- A Haar matrix draws its entries in rounds r = 0, 1, ...; entry (i, j) of
  round r is the digit stream of ``child("haar", r, i, j)``. The label code
  is concatenative, so ``HaarMatrix`` keys each entry from the code of
  ("haar", r) joined to the code of (i, j): the same bytes, within
  format 2. Coefficient k of a random polynomial is the digit stream of
  ``child("coeff", k)``.
- Haar entries and polynomial coefficients draw block 0 when they are
  created, key and block in one pass (``_first_blocks``): the bytes a first
  read of the child stream would give. Later blocks are drawn on demand.

Digits are addressable: digit i depends only on (key, i // k), so reading
digits in any order, or extending the precision of a sampled object, never
resamples digits already drawn. Streams are value-like; deriving a child
never mutates the parent.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field

from . import linalg

STREAM_FORMAT = 2  # recorded in every report config
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


def _first_blocks(key: bytes, head: bytes, codes, p: int):
    """Digit streams of the children of ``key`` labelled ``head + code``, one
    per code, each with block 0 already drawn.

    Each holds the key and the block that ``Stream._derive(head + code)``
    and its first ``residue`` would give; later blocks are drawn on demand.
    """
    layout = k, q, limit = _layout(p)
    out = []
    for code in codes:
        d = DigitStream.__new__(DigitStream)
        d.p, d._layout, d._known = p, layout, k
        d._key = child = _blake2b(head + code, key=key, digest_size=32).digest()
        d._value = _block(child, 0, q, limit)
        out.append(d)
    return out


@functools.cache
def _cell_codes(size: int):
    """Label codes of the cells (i, j) of a size x size matrix, row by row."""
    return tuple(_encode_labels((i, j)) for i in range(size) for j in range(size))


class HaarMatrix:
    """A Haar-distributed element of GL_size(Z_p), truncated on demand.

    Entries are uniform digit streams, rejection sampled (round by round)
    until the determinant is a unit mod p; the law of the accepted matrix
    truncated to m digits is the truncation of Haar measure.
    """

    __slots__ = ("p", "size", "entries", "rounds")

    def __init__(self, stream: Stream, p: int, size: int):
        if size < 1:
            raise ValueError(f"matrix size must be >= 1, got {size}")
        self.p = p
        self.size = size
        cells = _cell_codes(size)
        r = 0
        while True:
            flat = _first_blocks(stream.key, _encode_labels(("haar", r)), cells, p)
            low = [d._value % p for d in flat]
            if linalg.det([low[i : i + size] for i in range(0, len(low), size)]) % p:
                break
            r += 1
        self.entries = [flat[i : i + size] for i in range(0, len(flat), size)]
        self.rounds = r + 1

    def residue_rows(self, m: int):
        return [[d.residue(m) for d in row] for row in self.entries]

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
    """A polynomial whose coefficients are extendable digit streams."""

    model: RandomPolyModel
    coefficients: list = field(repr=False)

    def residues(self, m: int):
        return [c.residue(m) for c in self.coefficients]


@functools.cache
def _coeff_codes(n: int):
    """Label codes of ("coeff", k) for the coefficients k < n."""
    return tuple(_encode_labels(("coeff", k)) for k in range(n))


def sample_poly(model: RandomPolyModel, stream: Stream) -> SampledPoly:
    """Draw one polynomial from the model; coefficients stay extendable.

    Coefficient k is the digit stream of ``stream.child("coeff", k)``.
    """
    codes = _coeff_codes(model.n_coefficients)
    return SampledPoly(model, _first_blocks(stream.key, b"", codes, model.prime))
