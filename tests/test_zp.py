"""Exact norms and wedge norms: spec examples plus property suites."""

import math
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from padicgeo.zp import sup_norm, vp_int, wedge_norm

PRIMES = [2, 3, 5]
M = 8  # digits of the random integers in the scalar suites


class TestNorm:
    def test_norm_of_six_at_three(self):
        assert sup_norm([6], 3) == Fraction(1, 3)

    def test_unit_norm(self):
        assert sup_norm([1], 5) == 1

    def test_exact_zero(self):
        assert sup_norm([0], 7) == 0


class TestWedgeNorm:
    def test_unit_minor(self):
        assert wedge_norm([1, 0, 0], [0, 1, 0], 3) == 1

    def test_single_minor(self):
        assert wedge_norm([1, 0], [1, 3], 3) == Fraction(1, 3)

    def test_proportional_vectors(self):
        assert wedge_norm([1, 2], [2, 4], 5) == 0


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
        na, nb, ns = sup_norm([x], p), sup_norm([y], p), sup_norm([x + y], p)
        assert ns <= max(na, nb)
        if na != nb:
            assert ns == max(na, nb)

    @given(residue_pair())
    @settings(max_examples=400)
    def test_norm_multiplicative(self, pxy):
        p, x, y = pxy
        assert sup_norm([x * y], p) == sup_norm([x], p) * sup_norm([y], p)


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
        a = data.draw(coords)
        b = data.draw(coords)
        if any(a) and any(b):
            assert wedge_norm(a, b, p) == wedge_norm(b, a, p)
            assert wedge_norm(a, a, p) == 0

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=150)
    def test_gl_invariance(self, p, data):
        coords = st.lists(st.integers(0, 5**6), min_size=3, max_size=3)
        a = data.draw(coords)
        b = data.draw(coords)
        if not (any(a) and any(b)):
            return
        for g in unimodular(p):
            ga = [sum(g[i][j] * a[j] for j in range(3)) for i in range(3)]
            gb = [sum(g[i][j] * b[j] for j in range(3)) for i in range(3)]
            assert wedge_norm(ga, gb, p) == wedge_norm(a, b, p)


def test_vp_int():
    assert vp_int(0, 3) == math.inf
    assert vp_int(18, 3) == 2
    assert vp_int(-12, 2) == 2
