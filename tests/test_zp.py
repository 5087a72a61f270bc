"""Scalar/vector arithmetic: spec examples plus property suites."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from padicgeo.errors import InsufficientPrecision
from padicgeo.zp import PadicScalar, PadicVector, vp_int, wedge_norm

PRIMES = [2, 3, 5]
M = 8  # shared working precision for the random suites


def scalar(p, n, prec=M):
    return PadicScalar.from_residue(p, n, prec)


class TestNorm:
    def test_norm_of_six_at_three(self):
        assert PadicScalar.exact(3, 6).norm().value == Fraction(1, 3)

    def test_unit_norm(self):
        n = PadicScalar.exact(5, 1).norm()
        assert n.value == 1 and n.exact

    def test_zero_at_precision_is_a_bound(self):
        n = PadicScalar.zero_at(3, 4).norm()
        assert not n.exact
        assert n.value == Fraction(1, 81)

    def test_exact_zero(self):
        n = PadicScalar.exact(7, 0).norm()
        assert n.exact and n.value == 0


class TestWedgeNorm:
    def test_unit_minor(self):
        a = PadicVector.exact(3, [1, 0, 0])
        b = PadicVector.exact(3, [0, 1, 0])
        assert wedge_norm(a, b) == 1

    def test_single_minor(self):
        a = PadicVector.exact(3, [1, 0])
        b = PadicVector.exact(3, [1, 3])
        assert wedge_norm(a, b) == Fraction(1, 3)

    def test_proportional_vectors(self):
        a = PadicVector.exact(5, [1, 2])
        b = PadicVector.exact(5, [2, 4])
        assert wedge_norm(a, b) == 0

    def test_insufficient_precision(self):
        a = PadicVector.from_residues(3, [1, 0], 2)
        b = PadicVector.from_residues(3, [1, 9], 2)  # second entry is O(3^2)
        with pytest.raises(InsufficientPrecision):
            wedge_norm(a, b)


@st.composite
def residue_pair(draw):
    p = draw(st.sampled_from(PRIMES))
    x = draw(st.integers(min_value=0, max_value=5**M))
    y = draw(st.integers(min_value=0, max_value=5**M))
    return p, x, y


class TestScalarProperties:
    @given(residue_pair())
    @settings(max_examples=400)
    def test_ultrametric(self, pxy):
        p, x, y = pxy
        a, b = scalar(p, x), scalar(p, y)
        na, nb, ns = a.norm(), b.norm(), (a + b).norm()
        assert ns.value <= max(na.value, nb.value)
        if na.exact and nb.exact and na.value != nb.value:
            assert ns.exact and ns.value == max(na.value, nb.value)

    @given(residue_pair())
    @settings(max_examples=400)
    def test_norm_multiplicative(self, pxy):
        p, x, y = pxy
        a, b = scalar(p, x), scalar(p, y)
        na, nb = a.norm(), b.norm()
        if na.exact and nb.exact:
            npr = (a * b).norm()
            assert npr.value == na.value * nb.value

    @given(residue_pair())
    @settings(max_examples=300)
    def test_agrees_with_integer_oracle(self, pxy):
        """Ring ops agree with plain integer arithmetic mod p^a."""
        p, x, y = pxy
        a, b = scalar(p, x), scalar(p, y)
        s = a + b
        pr = a * b
        ka = int(s.abs_precision)
        km = int(min(pr.abs_precision, M))
        assert s.residue(ka) == (x + y) % p**ka
        assert pr.residue(km) == (x * y) % p**km

    def test_integer_oracle_bulk(self):
        """1000 fixed-seed random cases per prime against big-int arithmetic."""
        import random

        rng = random.Random(20260810)
        for p in PRIMES:
            for _ in range(1000):
                x = rng.randrange(p**M)
                y = rng.randrange(p**M)
                a, b = scalar(p, x), scalar(p, y)
                ks = int((a + b).abs_precision)
                assert (a + b).residue(ks) == (x + y) % p**ks
                km = int(min((a * b).abs_precision, M))
                assert (a * b).residue(km) == (x * y) % p**km
                d = a - b
                kd = int(d.abs_precision)
                assert d.residue(kd) == (x - y) % p**kd

    def test_division_by_unit(self):
        a = scalar(3, 15)
        u = scalar(3, 7)
        q = a / u
        assert q.valuation == 1
        assert (q * u).residue(M) == 15

    def test_precision_extension_semantics(self):
        # a product's unit part is only known to the shared relative precision
        a = PadicScalar.approx(3, 1, 2, 3)
        b = PadicScalar.approx(3, 0, 5, 6)
        pr = a * b
        assert pr.valuation == 1
        assert pr.rel_precision == 3


def unimodular(p):
    """A few fixed determinant-one integer matrices for invariance checks."""
    return [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [p, 1, 0], [3, 0, 1]],
        [[0, 1, 0], [-1, 0, 0], [5, 7, 1]],
    ]


class TestWedgeProperties:
    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=200)
    def test_symmetry_and_self(self, p, data):
        coords = st.lists(st.integers(-(5**6), 5**6), min_size=3, max_size=3)
        a = PadicVector.exact(p, data.draw(coords))
        b = PadicVector.exact(p, data.draw(coords))
        if is_nonzero(a) and is_nonzero(b):
            assert wedge_norm(a, b) == wedge_norm(b, a)
            assert wedge_norm(a, a) == 0

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=150)
    def test_gl_invariance(self, p, data):
        coords = st.lists(st.integers(0, 5**6), min_size=3, max_size=3)
        av = data.draw(coords)
        bv = data.draw(coords)
        a = PadicVector.exact(p, av)
        b = PadicVector.exact(p, bv)
        if not (is_nonzero(a) and is_nonzero(b)):
            return
        for g in unimodular(p):
            ga = PadicVector.exact(p, [sum(g[i][j] * av[j] for j in range(3)) for i in range(3)])
            gb = PadicVector.exact(p, [sum(g[i][j] * bv[j] for j in range(3)) for i in range(3)])
            assert wedge_norm(ga, gb) == wedge_norm(a, b)


def is_nonzero(v):
    n = v.norm()
    return n.exact and n.value != 0


def test_vp_int():
    assert vp_int(0, 3) == math.inf
    assert vp_int(18, 3) == 2
    assert vp_int(-12, 2) == 2
