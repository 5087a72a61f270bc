"""Embeddings: sphere preservation, derivative norms, arc length, isometry."""

from fractions import Fraction

import math
import random

import pytest

from padicgeo.errors import DomainViolation, NonConstantJacobian
from padicgeo.roots import mahler_power_basis
from padicgeo.proj import ProjPoint
from padicgeo.sample import Stream
from padicgeo.veronese import (
    MAHLER_AFFINE,
    STANDARD,
    VeroneseMap,
    arc_length,
    binomial_derivatives,
    binomials,
    eval_standard,
    floor_log,
    isometry_check,
    mahler_annulus_volume,
    mahler_curve_volume,
    mahler_extended_jacobian_norm,
    mahler_jacobian_norm,
    mahler_outside_volume,
    monomial_exponents,
)
from padicgeo.zp import sup_norm, vp_fraction, vp_int


class TestEvaluation:
    def test_standard_on_line(self):
        v = VeroneseMap(STANDARD, 1, 2)
        img = eval_standard(v, ProjPoint(3, [1, 3]))
        assert img.coords == (1, 3, 9)

    def test_mahler_small_values(self):
        assert binomials(2, 2) == [1, 2, 1]
        assert binomials(5, 3) == [1, 5, 10, 10]

    def test_mahler_unit_sphere_membership(self):
        # first coordinate is 1 and binomials of integers are integers
        vec = binomials(123456, 4)
        assert vec[0] == 1
        assert all(v.denominator == 1 for v in vec)

    def test_standard_rejects_a_point_of_another_dimension(self):
        with pytest.raises(ValueError, match=r"lies in P\^2, the map is defined on P\^1"):
            eval_standard(VeroneseMap(STANDARD, 1, 2), ProjPoint(3, [1, 2, 3]))
        with pytest.raises(ValueError, match=r"lies in P\^1, the map is defined on P\^2"):
            eval_standard(VeroneseMap(STANDARD, 2, 2), ProjPoint(3, [1, 2]))

    @pytest.mark.parametrize(
        "kind,n,d", [(STANDARD, 1, 0), (STANDARD, 1, -1), (STANDARD, 0, 2), (MAHLER_AFFINE, 1, 0)]
    )
    def test_map_rejects_degree_or_dimension_below_one(self, kind, n, d):
        with pytest.raises(ValueError):
            VeroneseMap(kind, n, d)

    def test_monomial_order_is_lex_decreasing(self):
        assert monomial_exponents(1, 2) == [(2, 0), (1, 1), (0, 2)]
        assert monomial_exponents(2, 2)[0] == (2, 0, 0)

    def test_sphere_preservation_standard(self):
        # max-norm-1 inputs give max-norm-1 outputs (a unit coordinate's
        # d-th power shows up among the monomials)
        stream = Stream(5)
        v = VeroneseMap(STANDARD, 2, 3)
        for i in range(50):
            coords = [
                stream.child(i, j).digits(3).residue(6) for j in range(3)
            ]
            if all(c % 3 == 0 for c in coords):
                continue
            monomials = [
                math.prod(c**e for c, e in zip(coords, exps))
                for exps in monomial_exponents(2, 3)
            ]
            assert sup_norm(monomials, 3) == 1
            # already on the sphere, so the image point keeps them unscaled
            assert eval_standard(v, ProjPoint(3, coords)).coords == tuple(monomials)


class TestJacobianNorms:
    @pytest.mark.parametrize(
        "p,d,expected_exp", [(3, 5, 1), (3, 9, 2), (2, 1, 0), (5, 24, 1), (2, 8, 3)]
    )
    def test_affine_closed_form(self, p, d, expected_exp):
        assert floor_log(p, d) == expected_exp
        assert mahler_jacobian_norm(p, d, 0) == Fraction(p) ** expected_exp

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_constancy_over_100_points(self, p):
        d = 6
        stream = Stream(77)
        values = {
            mahler_jacobian_norm(p, d, stream.child(i).digits(p).residue(8))
            for i in range(100)
        }
        assert values == {Fraction(p) ** floor_log(p, d)}

    @pytest.mark.parametrize(
        "p,d,m,expected",
        [
            (3, 3, 1, Fraction(1, 27)),
            (3, 2, 2, Fraction(1, 81)),
            (2, 1, 1, Fraction(1, 4)),
        ],
    )
    def test_extended_closed_form(self, p, d, m, expected):
        for unit in (1, p + 1):
            t = Fraction(unit, p**m)
            assert mahler_extended_jacobian_norm(p, d, t) == expected

    def test_norms_reject_points_outside_their_domain(self):
        with pytest.raises(DomainViolation):
            mahler_jacobian_norm(3, 3, Fraction(1, 3))
        with pytest.raises(DomainViolation):
            mahler_extended_jacobian_norm(3, 3, Fraction(5, 1))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_binomial_monotonicity_outside_zp(self, p):
        """|C(t,k)| strictly increases in k when |t| > 1."""
        d = 10
        for mexp in (1, 2):
            for unit in [u for u in range(1, 3 * p) if u % p != 0][:4]:
                t = Fraction(unit, p**mexp)
                norms = [
                    Fraction(p) ** (-vp_fraction(binomials(t, k)[k], p))
                    for k in range(d + 1)
                ]
                assert all(a < b for a, b in zip(norms, norms[1:]))


class TestBinomialRecurrences:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_derivatives_match_the_power_basis(self, p):
        """D_k(t) equals the derivative of row k of d! C(t,k), over d!."""
        rng = random.Random(p)
        for d in range(26):
            rows = mahler_power_basis(d)
            unit = rng.choice([u for u in range(1, 5 * p) if u % p])
            for t in (rng.randrange(-(p**6), p**6), Fraction(rng.randrange(p**6), unit)):
                fact = math.factorial(d)
                assert binomial_derivatives(t, d) == [
                    Fraction(sum(j * c * t ** (j - 1) for j, c in enumerate(row) if j), fact)
                    for row in rows
                ]
                assert binomials(t, d) == [
                    Fraction(sum(c * t**j for j, c in enumerate(row)), fact) for row in rows
                ]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_extended_norm_is_d_over_p_to_2m(self, p):
        units = [u for u in range(1, 3 * p) if u % p][:3]
        for d in range(1, 13):
            for m in (1, 2, 3):
                for u in units:
                    assert mahler_extended_jacobian_norm(p, d, Fraction(u, p**m)) == (
                        Fraction(p) ** (-vp_int(d, p) - 2 * m)
                    )


class TestArcLength:
    def test_requires_constant_norm(self):
        with pytest.raises(NonConstantJacobian):
            arc_length([Fraction(3), Fraction(9)], Fraction(1))

    def test_identity_embedding(self):
        assert arc_length([Fraction(1)] * 5, Fraction(1)) == 1

    @pytest.mark.parametrize("p,d", [(3, 3), (3, 9), (2, 4), (5, 7)])
    def test_curve_volume(self, p, d):
        assert mahler_curve_volume(p, d) == Fraction(p) ** floor_log(p, d)

    @pytest.mark.parametrize("p,d,m", [(3, 3, 1), (3, 3, 2), (2, 2, 1)])
    def test_annulus_volume(self, p, d, m):
        dval = Fraction(p) ** (-vp_fraction(Fraction(d), p))
        expected = (p**m - p ** (m - 1)) * dval * Fraction(p) ** (-2 * m)
        assert mahler_annulus_volume(p, d, m) == expected

    @pytest.mark.parametrize("p,d", [(3, 3), (2, 4), (5, 5)])
    def test_annulus_series_sums_to_outside_volume(self, p, d):
        total = mahler_outside_volume(p, d)
        partial = Fraction(0)
        for m in range(1, 9):
            partial += mahler_annulus_volume(p, d, m)
            tail = total - partial
            assert 0 <= tail < Fraction(p) ** (-m)
        assert total == Fraction(p) ** (-vp_fraction(Fraction(d), p)) / p


def affine_image_count(p, d, m):
    """Independent oracle: enumerate t and count distinct images mod p^m.

    The binomial map is injective with constant expansion factor p^e, so
    t mod p^{m+e+buffer} determines the image class; counting distinct
    reduced coordinate tuples gives N_m of the image in Z_p^{d+1}.
    """
    e = floor_log(p, d)
    vfact = 0  # v_p(d!), Legendre
    q_ = p
    while q_ <= d:
        vfact += d // q_
        q_ *= p
    depth = m + e + vfact + 2
    q = p**m
    seen = set()
    for t in range(p**depth):
        vec = tuple(int(binomials(t, k)[k]) % q for k in range(d + 1))
        seen.add(vec)
    return len(seen)


class TestVolumeConsistency:
    @pytest.mark.parametrize(
        "p,d,m",
        [(2, 2, 2), (2, 2, 3), (3, 3, 1), (3, 3, 2), (2, 4, 2)],
    )
    def test_image_count_matches_arc_length(self, p, d, m):
        e = floor_log(p, d)
        count = affine_image_count(p, d, m)
        assert count == p ** (m + e)
        assert Fraction(count, p**m) == mahler_curve_volume(p, d)


class TestIsometry:
    @pytest.mark.parametrize("n,d,p", [(1, 2, 3), (1, 3, 2), (2, 2, 3)])
    def test_standard_exact(self, n, d, p):
        out = isometry_check(VeroneseMap(STANDARD, n, d), p, 300, Stream(11))
        assert out == {"pairs": 300, "failures": 0}

    def test_mahler_exact(self):
        out = isometry_check(VeroneseMap(MAHLER_AFFINE, 1, 4), 2, 300, Stream(12))
        assert out == {"pairs": 300, "failures": 0}

    @pytest.mark.parametrize("pairs", [0, -5])
    def test_pairs_below_one_is_rejected(self, pairs):
        with pytest.raises(ValueError, match="pairs"):
            isometry_check(VeroneseMap(STANDARD, 1, 2), 3, pairs, Stream(11))

    def test_coincident_points(self):
        p = 3
        x = ProjPoint(p, [1, 2])
        v = VeroneseMap(STANDARD, 1, 2)
        from padicgeo.proj import proj_distance

        assert proj_distance(eval_standard(v, x), eval_standard(v, x)) == 0
