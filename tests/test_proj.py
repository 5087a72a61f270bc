"""Projective points, canonical residue points, enumeration, volumes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from padicgeo.errors import BudgetExceeded
from padicgeo.proj import (
    ProjPoint,
    ResidueProjPoint,
    enumerate_proj,
    hopf_fiber_size,
    proj_distance,
    proj_space_count,
    volume_proj_space,
)
from padicgeo.zp import sup_norm

PRIMES = [2, 3, 5]


def closed_form_count(p, n, m):
    """The unsimplified quotient, evaluated independently."""
    return (p ** (m * (n + 1)) - p ** ((m - 1) * (n + 1))) // (p**m - p ** (m - 1))


def brute_force_classes(p, n, m):
    """Quotient S^n(R_m) by unit scaling by raw orbit computation."""
    q = p**m
    units = [u for u in range(q) if u % p != 0]
    seen = set()
    classes = 0
    import itertools

    for vec in itertools.product(range(q), repeat=n + 1):
        if all(c % p == 0 for c in vec):
            continue
        if vec in seen:
            continue
        classes += 1
        for u in units:
            seen.add(tuple(c * u % q for c in vec))
    return classes


class TestDistance:
    def test_orthogonal_axes(self):
        x = ProjPoint(3, [1, 0])
        y = ProjPoint(3, [0, 1])
        assert proj_distance(x, y) == 1

    def test_small_minor(self):
        x = ProjPoint(3, [1, 0])
        y = ProjPoint(3, [1, 3])
        assert proj_distance(x, y) == Fraction(1, 3)

    def test_same_point(self):
        x = ProjPoint(5, [1, 2])
        y = ProjPoint(5, [2, 4])
        assert proj_distance(x, y) == 0

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=200)
    def test_unit_rescaling_invariance(self, p, data):
        coords = st.lists(st.integers(0, 5**6), min_size=3, max_size=3)
        xv = data.draw(coords)
        yv = data.draw(coords)
        if all(c % p == 0 for c in xv) or all(c % p == 0 for c in yv):
            return
        units = st.integers(1, 5**6 - 1).filter(lambda u: u % p != 0)
        ux = data.draw(units)
        uy = data.draw(units)
        x = ProjPoint(p, xv)
        y = ProjPoint(p, yv)
        xs = ProjPoint(p, [ux * c for c in xv])
        ys = ProjPoint(p, [uy * c for c in yv])
        assert proj_distance(x, y) == proj_distance(xs, ys)

    def test_rescaling_invariance_bulk(self):
        rng = random.Random(7)
        for p in PRIMES:
            for _ in range(1000):
                xv = [rng.randrange(p**6) for _ in range(3)]
                yv = [rng.randrange(p**6) for _ in range(3)]
                if all(c % p == 0 for c in xv) or all(c % p == 0 for c in yv):
                    continue
                u = rng.randrange(1, p**6)
                while u % p == 0:
                    u = rng.randrange(1, p**6)
                d1 = proj_distance(ProjPoint(p, xv), ProjPoint(p, yv))
                d2 = proj_distance(ProjPoint(p, [u * c for c in xv]), ProjPoint(p, yv))
                assert d1 == d2


class TestReduction:
    def test_digit_truncation(self):
        assert ResidueProjPoint.canonical(3, 2, [1, 3, 9]).coords == (1, 3, 0)

    def test_scale_to_first_unit(self):
        # oracle: canonicalization must pick the representative with lead 1
        r = ResidueProjPoint.canonical(3, 1, [2, 1])
        assert r.coords == (1, 2)  # scaled by 2^{-1} = 2 mod 3

    def test_rational_coordinates_normalize_to_the_sphere(self):
        # [1/3 : 1] has sup norm 3 at p = 3; its representative is [1 : 3]
        x = ProjPoint(3, [Fraction(1, 3), 1])
        assert x.coords == (1, 3)
        assert sup_norm(x.coords, 3) == 1

    def test_rejects_the_zero_vector(self):
        with pytest.raises(ValueError):
            ProjPoint(3, [0, 0])

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError, match="level"):
            ResidueProjPoint(3, 0, (1, 0))
        with pytest.raises(ValueError):
            ResidueProjPoint.canonical(3, 0, [1, 0])


class TestEnumeration:
    @pytest.mark.parametrize(
        "p,n,m,expected",
        [(3, 2, 1, 13), (2, 1, 2, 6), (5, 1, 1, 6)],
    )
    def test_frozen_counts(self, p, n, m, expected):
        assert closed_form_count(p, n, m) == expected
        pts = list(enumerate_proj(p, n, m))
        assert len(pts) == expected
        assert len(set(pts)) == expected

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_count_matches_closed_form(self, p, n, m):
        assert proj_space_count(p, n, m) == closed_form_count(p, n, m)
        assert len(list(enumerate_proj(p, n, m))) == proj_space_count(p, n, m)

    @pytest.mark.parametrize("p,n,m", [(3, 2, 1), (2, 1, 2), (3, 1, 2)])
    def test_against_orbit_brute_force(self, p, n, m):
        assert proj_space_count(p, n, m) == brute_force_classes(p, n, m)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_proj(5, 3, 3))

    @pytest.mark.parametrize("m", [1, 2])
    def test_hopf_fiber_sizes_exhaustive(self, m):
        """Every point of P^1(R_m) at p=3 has exactly p^m(1-1/p) sphere reps."""
        import itertools

        p, n = 3, 1
        q = p**m
        fibers = {}
        for vec in itertools.product(range(q), repeat=n + 1):
            if all(c % p == 0 for c in vec):
                continue
            key = ResidueProjPoint.canonical(p, m, vec)
            fibers[key] = fibers.get(key, 0) + 1
        assert set(fibers.values()) == {hopf_fiber_size(p, m)}
        assert len(fibers) == proj_space_count(p, n, m)


class TestVolume:
    def test_p3_line(self):
        assert volume_proj_space(3, 1) == Fraction(4, 3)

    def test_p2_line(self):
        assert volume_proj_space(2, 1) == Fraction(3, 2)

    @pytest.mark.parametrize("p", PRIMES)
    def test_point(self, p):
        assert volume_proj_space(p, 0) == 1

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_volume_is_count_limit(self, p, n):
        # N_m / p^{mn} equals the closed form already at every level
        for m in (1, 2):
            assert Fraction(proj_space_count(p, n, m), p ** (m * n)) == volume_proj_space(p, n)
