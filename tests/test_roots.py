"""Root counting: spec examples, witness soundness, brute-force equivalence."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from padicgeo import roots
from padicgeo.errors import IdenticallyZeroAtPrecision
from padicgeo.roots import (
    EXACT,
    LOWER_BOUND,
    UNDETERMINED,
    RootReport,
    Witness,
    count_roots,
    count_roots_annulus,
    count_roots_p1,
    count_roots_qp,
    count_roots_zp,
    mahler_power_basis,
    power_coeffs_from_mahler,
    precision_ladder,
    squarefree_part,
    substitute_digit,
    verify_witness,
)
from padicgeo.zp import vp_int

# --- independent oracle ------------------------------------------------------
# Certified-residue enumeration: with V = v_p(Res(f, f')) for squarefree f and
# K = 2V + 3, a residue r mod p^K with v_p(f(r)) >= K certifies (Hensel) one
# root within distance p^-(K-V) of r, every Z_p root is certified through its
# own residue, and distinct roots differ above level V; so the number of
# distinct roots is the number of certifying residues taken mod p^(K-V).


def _ffgcd(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= f * c
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return a


def _oracle_squarefree(coeffs):
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    g = _ffgcd(coeffs, deriv)
    if len(g) <= 1:
        return list(coeffs)
    # exact long division f // g
    num = [Fraction(c) for c in coeffs]
    den = list(g)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in reversed(range(len(out))):
        f = num[i + len(den) - 1] / den[-1]
        out[i] = f
        for j, d in enumerate(den):
            num[i + j] -= f * d
    lcm = math.lcm(*[c.denominator for c in out])
    ints = [int(c * lcm) for c in out]
    gc = math.gcd(*[abs(c) for c in ints if c] or [1])
    return [c // gc for c in ints]


def _resultant(f, g):
    """Sylvester-matrix resultant of integer polynomials (ascending)."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + list(reversed(f)) + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + list(reversed(g)) + [0] * (n - 1 - i))
    # fraction-free enough: use Fractions for a clean exact determinant
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(size):
        piv = next((i for i in range(k, size) if mat[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = -det
        det *= mat[k][k]
        inv = 1 / mat[k][k]
        for i in range(k + 1, size):
            fac = mat[i][k] * inv
            if fac:
                for j in range(k, size):
                    mat[i][j] -= fac * mat[k][j]
    assert det.denominator == 1
    return int(det)


def oracle_count_zp(coeffs, p, budget=400_000):
    """Distinct roots of an exact integer polynomial in Z_p, or None if the
    required enumeration exceeds the budget."""
    sf = _oracle_squarefree([c for c in coeffs])
    while sf and sf[-1] == 0:
        sf.pop()
    gc = math.gcd(*[abs(c) for c in sf if c] or [1])
    sf = [c // gc for c in sf]
    if len(sf) <= 1:
        return 0 if sf else None
    deriv = [i * c for i, c in enumerate(sf)][1:]
    res = _resultant(sf, deriv)
    assert res != 0, "squarefree part must have nonzero discriminant"
    v = vp_int(res, p)
    k = 2 * v + 3
    if p**k > budget:
        return None
    labels = set()
    for r in range(p**k):
        fr = sum(c * r**i for i, c in enumerate(sf))
        if vp_int(fr, p) >= k:
            labels.add(r % p ** (k - v))
    return len(labels)


# --- spec examples -----------------------------------------------------------


class TestZpExamples:
    def test_two_simple_roots(self):
        r = count_roots_zp(5, [-1, 0, 1])
        assert (r.count, r.status) == (2, EXACT)
        assert sorted(w.center % 5 for w in r.witnesses) == [1, 4]

    def test_odd_valuation_obstruction(self):
        assert count_roots_zp(3, [-3, 0, 1]).count == 0

    def test_repeated_root_counts_once(self):
        r = count_roots_zp(3, [0, 0, 1])
        assert (r.count, r.status) == (1, EXACT)

    def test_three_roots_brute_forced(self):
        r = count_roots_zp(5, [0, -1, 0, 1])
        assert (r.count, r.status) == (3, EXACT)
        assert oracle_count_zp([0, -1, 0, 1], 5) == 3

    def test_zero_poly_rejected(self):
        with pytest.raises(IdenticallyZeroAtPrecision):
            count_roots_zp(3, [0, 0])

    def test_deep_double_root_split(self):
        # (t - 9)(t + 3): roots split only at the second digit
        p = 3
        coeffs = [-27, -6, 1]
        r = count_roots_zp(p, coeffs)
        assert (r.count, r.status) == (2, EXACT)
        assert all(verify_witness(p, coeffs, w) for w in r.witnesses)

    def test_witness_check_on_a_ball_zero_at_precision_is_false(self):
        # f(2s) = 8s + 24s^2 + 56s^3 vanishes mod 2^3: nothing can be checked
        assert verify_witness(2, [0, 4, 6, 7, 0], Witness(0, 2), precision=3) is False


class TestP1Examples:
    def test_coordinate_points(self):
        r = count_roots_p1(7, [0, 1, 0])
        assert r.count == 2
        assert {w.chart for w in r.witnesses} == {"zp", "inf"}

    def test_anisotropic_form(self):
        assert count_roots_p1(3, [1, 0, 1]).count == 0

    def test_plus_minus_one(self):
        assert count_roots_p1(5, [1, 0, -1]).count == 2

    def test_chart_partition(self):
        # the P^1 count always splits as Z_p roots plus small roots of F(1,s)
        p = 5
        form = [2, 1, -1, 3]
        total = count_roots_p1(p, form)
        affine = count_roots_zp(p, list(reversed(form)))
        inf_side = total.count - affine.count
        assert inf_side == sum(1 for w in total.witnesses if w.chart == "inf")
        assert total.count <= 3

    def test_oracle_cross_check_p1(self):
        # F = x0^3 + x0 x1^2 = x0 (x0^2 + x1^2): only [0:1] at p = 3
        form = [1, 0, 1, 0]
        rep = count_roots_p1(3, form)
        affine_oracle = oracle_count_zp(list(reversed(form)), 3)
        assert affine_oracle == 1
        assert rep.count == 1


class TestAnnulus:
    def test_single_pole_root(self):
        assert count_roots_annulus(5, [-1, 5], 1).count == 1

    def test_unit_root_not_in_annulus(self):
        assert count_roots_annulus(5, [-1, 1], 1).count == 0

    def test_two_roots_of_norm_p(self):
        r = count_roots_annulus(3, [-1, 0, 9], 1)
        assert (r.count, r.status) == (2, EXACT)

    def test_brute_force_annulus(self):
        # roots with |x| = p: reciprocals y with v(y) = 1 exactly, counted by
        # an inclusion-exclusion of independent oracle calls on y = p^j * u
        p, m = 3, 1
        coeffs = [-1, 0, 9]
        rev = [9, 0, -1]
        v_ge = []
        for j in (m, m + 1):
            scaled = [c * p ** (j * i) for i, c in enumerate(rev)]
            v_ge.append(oracle_count_zp(scaled, p))
        expected = v_ge[0] - v_ge[1]
        assert expected == 2
        assert count_roots_annulus(p, coeffs, m).count == expected

    def test_qp_split(self):
        p = 3
        coeffs = [-1, 0, 9]
        total = count_roots_qp(p, coeffs)
        assert total.count == 2
        inside = count_roots_zp(p, coeffs).count
        assert inside == 0


class TestWitnessSoundness:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_witnesses_disjoint_and_certified(self, p):
        rng = random.Random(100 + p)
        for _ in range(300):
            coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 5))]
            if all(c == 0 for c in coeffs):
                continue
            sf = squarefree_part(coeffs)
            for region in ("zp", "qp", "p1", "annulus:1"):
                rep = count_roots(p, coeffs, region)
                if rep.status != EXACT:
                    continue
                balls = {(w.center % p**w.level, w.level, w.chart) for w in rep.witnesses}
                assert len(balls) == rep.count
                for w1 in rep.witnesses:
                    for w2 in rep.witnesses:
                        if w1 is w2 or w1.chart != w2.chart:
                            continue
                        lo = min(w1.level, w2.level)
                        assert (w1.center - w2.center) % p**lo != 0, "overlapping balls"
                # a form of degree len(coeffs) - 1 keeps its root y = 0 at [1:0]
                form = sf + [0] if region == "p1" and coeffs[-1] == 0 else sf
                assert all(verify_witness(p, form, w) for w in rep.witnesses), (coeffs, region)

    def test_infinity_chart_witness_reads_the_reversal(self):
        # 7 t - 1 has its root 1/7 at y = 7 on the chart at infinity
        rep = count_roots_qp(7, [-1, 7])
        assert rep.witnesses == [Witness(7, 2, "inf")]
        assert verify_witness(7, [-1, 7], rep.witnesses[0]) is True
        assert verify_witness(7, [-1, 7], Witness(7, 2, "zp")) is False


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_bulk_agreement(self, p):
        rng = random.Random(555 + p)
        done = 0
        target = 1700  # ~5000 across the three primes
        while done < target:
            d = rng.randint(1, 4)
            coeffs = [rng.randint(-20, 20) for _ in range(d + 1)]
            if not any(coeffs):
                continue
            expected = oracle_count_zp(coeffs, p)
            if expected is None:
                continue  # oracle enumeration too large; resample
            rep = count_roots_zp(p, coeffs)
            assert rep.status == EXACT, (coeffs, p)
            assert rep.count == expected, (coeffs, p, rep.count, expected)
            done += 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_degree_bound_on_p1(self, p):
        rng = random.Random(99 + p)
        for _ in range(400):
            d = rng.randint(1, 5)
            form = [rng.randint(-9, 9) for _ in range(d + 1)]
            if not any(form):
                continue
            rep = count_roots_p1(p, form)
            if rep.status == EXACT:
                assert rep.count <= d


class TestFinitePrecision:
    def test_simple_roots_at_low_precision(self):
        r = count_roots_zp(5, [(-1) % 5**4, 0, 1], precision=4)
        assert (r.count, r.status) == (2, EXACT)

    def test_identically_zero_at_precision(self):
        with pytest.raises(IdenticallyZeroAtPrecision):
            count_roots_zp(3, [81, 162], precision=4)

    def test_depth_exhaustion_is_flagged(self):
        # t^2 - 3^12 needs six digits of descent; cut the precision short
        p = 3
        coeffs = [(-(3**12)) % 3**5, 0, 1]
        r = count_roots_zp(p, coeffs, precision=5)
        assert r.status != EXACT

    def test_depth_budget_comes_before_a_rootless_child(self):
        # t^2 + 3^25: twelve children t = 3 s divide out 3^2 each, and the
        # thirteenth node, s^2 + 3, has the rootless child of rule B. There
        # the depth budget 4 * (2 + 1) = 12 is spent, so the class stays
        # unresolved rather than counted as no root
        rep = count_roots_zp(3, [3**25, 0, 1])
        assert rep == RootReport(0, UNDETERMINED, [], precision_consumed=14, unresolved_classes=1)
        # with two fewer digits of content rule B decides the class
        rep = count_roots_zp(3, [3**23, 0, 1])
        assert rep == RootReport(0, EXACT, [], precision_consumed=13)

    def test_a_rootless_child_at_precision_one_is_unresolved(self):
        # t^2 + 3 mod 3 is t^2: its child at t = 0 is zero at precision 1
        assert count_roots_zp(3, [3, 0, 1], precision=1) == RootReport(
            0, UNDETERMINED, [], unresolved_classes=1
        )
        assert count_roots_zp(3, [3, 0, 1], precision=2) == RootReport(
            0, EXACT, [], precision_consumed=2
        )

    @pytest.mark.parametrize("precision", [0, -1, 2.5, 3.0, True, "3"])
    def test_precision_must_be_none_or_a_positive_int(self, precision):
        with pytest.raises(ValueError, match="precision"):
            count_roots(7, [1, 0, -2], "zp", precision)


def test_mahler_power_basis_values():
    # d! C(t, k) at small integers matches math.comb
    d = 4
    basis = mahler_power_basis(d)
    fact = math.factorial(d)
    for k in range(d + 1):
        for t in range(0, 8):
            val = sum(c * t**j for j, c in enumerate(basis[k]))
            assert val == fact * math.comb(t, k)


def _naive_substitute(coeffs, a, p, shift, mod):
    """sum_i c_i (a + p^shift s)^i expanded term by term with math.comb."""
    q = p**shift
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for k in range(i + 1):
            out[k] += c * math.comb(i, k) * a ** (i - k) * q**k
    return [x % mod for x in out] if mod else out


def test_substitute_digit_matches_the_binomial_expansion():
    rng = random.Random(2024)
    cases = [
        ([5], 0, 3, 0, None),
        ([-7], 4, 2, 3, 2**5),
        ([1, -2, 3], 0, 5, 0, None),
        ([0, 0, -1], 0, 7, 2, 7**3),
        ([-4, 9, -1, 2], 13, 3, 0, None),
        ([], 2, 3, 1, None),
    ]
    for _ in range(600):
        p = rng.choice((2, 3, 5, 7))
        coeffs = [rng.randint(-(p**6), p**6) for _ in range(rng.randint(1, 9))]
        a = rng.choice((0, rng.randrange(p**3)))
        mod = rng.choice((None, p ** rng.randint(1, 12)))
        cases.append((coeffs, a, p, rng.randint(0, 4), mod))
    for coeffs, a, p, shift, mod in cases:
        got = substitute_digit(coeffs, a, p, shift=shift, mod=mod)
        assert got == _naive_substitute(coeffs, a, p, shift, mod), (coeffs, a, p, shift, mod)


def test_power_coeffs_from_mahler_evaluates_the_binomial_sum():
    rng = random.Random(7)
    for d in range(9):
        fact = math.factorial(d)
        for _ in range(20):
            zeta = [rng.randint(-(3**8), 3**8) for _ in range(d + 1)]
            coeffs = power_coeffs_from_mahler(zeta, d)
            assert len(coeffs) == d + 1
            # d + 1 points determine a polynomial of degree d
            for t in range(d + 3):
                want = fact * sum(z * math.comb(t, k) for k, z in enumerate(zeta))
                assert sum(c * t**j for j, c in enumerate(coeffs)) == want
    with pytest.raises(ValueError):
        power_coeffs_from_mahler([1, 2, 3], 1)


def test_squarefree_part_is_primitive():
    assert squarefree_part([0, 5]) == [0, 1]
    assert squarefree_part([0, 0, 5]) == [0, 1]
    assert squarefree_part([10, 0, -20]) == [1, 0, -2]
    # p-content no longer shows in the precision a count consumes
    assert count_roots_zp(5, [0, 5]).precision_consumed == 0
    assert count_roots_zp(5, [0, 0, 5]).precision_consumed == 0


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_squarefree_part_matches_the_rational_oracle():
    """f g^2 over Z: the oracle's f / gcd(f, f') up to sign, with f g^2's sign."""
    rng = random.Random(2024)
    for i in range(2000):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice([-3, -1, 1, 2])]
        g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.choice([-2, -1, 1, 3])]
        if i % 3 == 1:
            f = [0] + f  # t divides f
        if i % 3 == 2:
            f = [rng.choice([2, 6, -10]) * c for c in f]  # content
        fg2 = _poly_mul(f, _poly_mul(g, g))
        sf = squarefree_part(fg2)
        oracle = _oracle_squarefree(fg2)
        assert sf in (oracle, [-c for c in oracle]), fg2
        assert (sf[-1] > 0) == (fg2[-1] > 0)


# --- the region entry point and the precision ladder --------------------------

ENTRY_CASES = [
    (5, [-1, 0, 1]),
    (3, [-1, 0, 9]),
    (3, [0, 0, 3, 27]),
    (2, [4, -6, 2, 8]),
    (5, [25, 0, -5, 0, 1]),
    (3, [2, 1, 0]),  # zero leading coefficient: a root at [1:0] on P^1
]


@pytest.mark.parametrize("precision", [None, 8])
@pytest.mark.parametrize("p, coeffs", ENTRY_CASES)
def test_count_roots_matches_each_region_counter(p, coeffs, precision):
    assert count_roots(p, coeffs, "zp", precision) == count_roots_zp(p, coeffs, precision)
    assert count_roots(p, coeffs, "qp", precision) == count_roots_qp(p, coeffs, precision)
    assert count_roots(p, coeffs, "p1", precision) == count_roots_p1(
        p, coeffs[::-1], precision
    )
    for m in (1, 2):
        assert count_roots(p, coeffs, f"annulus:{m}", precision) == count_roots_annulus(
            p, coeffs, m, precision
        )


@pytest.mark.parametrize("region", ["affine", "ZP", "annulus", "annulus:x", ""])
def test_count_roots_rejects_an_unknown_region(region):
    with pytest.raises(ValueError):
        count_roots(3, [-1, 0, 1], region)


def test_precision_ladder_doubles_up_to_the_cap():
    assert list(precision_ladder(8)) == [8, 16, 32, 64]
    assert list(precision_ladder(12)) == [12, 24, 48, 64]
    assert list(precision_ladder(64)) == [64]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_qp_is_zp_plus_the_annuli_out_to_the_leading_valuation(p):
    # Newton polygon: with integer coefficients no root has |x| > p^v_p(lead)
    rng = random.Random(700 + p)
    outside = 0
    for _ in range(150):
        d = rng.randint(1, 5)
        lead = rng.choice([1, -1, 2, 7]) * p ** rng.randint(0, 4)
        coeffs = [rng.randint(-30, 30) for _ in range(d)] + [lead]
        parts = [count_roots_zp(p, coeffs)] + [
            count_roots_annulus(p, coeffs, m) for m in range(1, vp_int(lead, p) + 1)
        ]
        total = count_roots_qp(p, coeffs)
        assert total.status == EXACT and all(r.status == EXACT for r in parts)
        assert total.count == sum(r.count for r in parts), (p, coeffs)
        outside += total.count - parts[0].count
    assert outside > 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fixed_precision_qp_adds_a_class_when_the_leading_coefficient_vanishes(p):
    # y = 0 is a root on P^1 but outside Q_p; at precision it cannot be told
    # from a tiny nonzero root, so Q_p counts its class once, as unresolved
    rng = random.Random(800 + p)
    prec = 4
    q = p**prec
    for _ in range(200):
        coeffs = [rng.randrange(q) for _ in range(rng.randint(1, 4))]
        coeffs.append(rng.choice([0, q, 2 * q]))  # vanishes mod p^prec
        if not any(c % q for c in coeffs):
            continue
        qp = count_roots(p, coeffs, "qp", prec)
        p1 = count_roots(p, coeffs, "p1", prec)
        at_zero = [w for w in p1.witnesses if w.chart == "inf" and w.center % p**w.level == 0]
        assert qp.witnesses == [w for w in p1.witnesses if w not in at_zero]
        assert qp.count + qp.unresolved_classes == p1.count + p1.unresolved_classes
        assert qp.status in (LOWER_BOUND, UNDETERMINED)
        for lead in (0, q):  # the lifts whose leading coefficient is 0 and q
            assert qp.count <= count_roots(p, coeffs[:-1] + [lead], "qp").count, coeffs


def _descended_balls(monkeypatch):
    """The (chart, center, level) of every node the counter descends, in order."""
    seen = []
    run = roots._Counter.run

    def spy(self, coeffs, prec, depth, center, level):
        seen.append((self.chart, center, level))
        return run(self, coeffs, prec, depth, center, level)

    monkeypatch.setattr(roots._Counter, "run", spy)
    return seen


def test_a_ball_of_unit_value_is_skipped(monkeypatch):
    # rule A: the reversal of 1 + t is 1 at y = 0, a unit, so no ball of
    # the annulus |t| = 3 can hold a root
    seen = _descended_balls(monkeypatch)
    assert count_roots_annulus(3, [1, 1], 1) == RootReport(0, EXACT, [])
    assert count_roots_annulus(3, [1, 1], 1, precision=4) == RootReport(0, EXACT, [])
    assert seen == []
    # 9 t^2 - 1: the leading coefficient 9 is not a unit, both balls descend
    rep = count_roots_annulus(3, [-1, 0, 9], 1)
    assert (rep.count, rep.status) == (2, EXACT)
    assert [ball for ball in seen if ball[2] == 2] == [("inf", 3, 2), ("inf", 6, 2)]


def test_a_leading_coefficient_zero_at_precision_keeps_the_ball_at_infinity(monkeypatch):
    # 81 t^2 + t + 1 at precision 4: the ball at infinity is descended, and
    # its class at y = 0 counts once, as unresolved, in Q_p
    seen = _descended_balls(monkeypatch)
    rep = count_roots_qp(3, [1, 1, 81], precision=4)
    assert ("inf", 0, 1) in seen
    assert rep == RootReport(
        1, LOWER_BOUND, [Witness(2, 1, "zp")], precision_consumed=2, unresolved_classes=1
    )
    assert count_roots(3, [1, 1, 81], "p1", 4) == RootReport(
        2, EXACT, [Witness(2, 1, "zp"), Witness(0, 2, "inf")], precision_consumed=2
    )


def test_fixed_precision_qp_never_counts_the_class_of_y_zero():
    # 9 t^2 - 1 listed with a zero leading coefficient has two roots in Q_p
    rep = count_roots(3, [-1, 0, 9, 0], "qp", 6)
    assert rep == RootReport(
        2,
        LOWER_BOUND,
        [Witness(3, 2, "inf"), Witness(6, 2, "inf")],
        precision_consumed=4,
        unresolved_classes=1,
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exact_p1_count_is_the_qp_count_plus_the_point_at_infinity(p):
    rng = random.Random(900 + p)
    for _ in range(1000):
        form = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.3:
            form[0] = 0  # F(t, 1) loses its leading coefficient
        if not any(form):
            continue
        p1 = count_roots_p1(p, form)
        qp = count_roots_qp(p, form[::-1])
        assert p1.status == qp.status == EXACT
        assert p1.count == qp.count + (form[0] == 0), (p, form)


# 9 t^2 - 1 listed with a zero leading coefficient: on P^1 the reversal keeps
# its factor y, a root at [1:0], and in the annulus that factor's content
# shows in the precision consumed
GOLDEN_TRAILING_ZERO = [
    (
        "p1",
        RootReport(
            3,
            EXACT,
            [Witness(0, 2, "inf"), Witness(3, 2, "inf"), Witness(6, 2, "inf")],
            precision_consumed=4,
        ),
    ),
    (
        "annulus:1",
        RootReport(2, EXACT, [Witness(3, 3, "inf"), Witness(24, 3, "inf")], precision_consumed=6),
    ),
]


@pytest.mark.parametrize("precision", [None, 6])
@pytest.mark.parametrize("region, expected", GOLDEN_TRAILING_ZERO)
def test_golden_report_for_a_trailing_zero_list(region, expected, precision):
    assert count_roots(3, [-1, 0, 9, 0], region, precision) == expected


# --- byte identity of the descent ---------------------------------------------


def _golden_polys():
    """Seeded polynomials of degree 1-8 at p = 2, 3, 5, 7, four kinds each:
    coefficients with scattered p-content, a multiple residue root
    (t - a)^2 g + p h, a leading coefficient 0 or divisible by p, and a
    polynomial with content p^e."""
    rng = random.Random(2026)
    for p in (2, 3, 5, 7):
        for d in range(1, 9):
            for kind in range(4):
                f = [rng.randint(-40, 40) * p ** rng.choice((0, 0, 1, 2)) for _ in range(d + 1)]
                if kind == 1 and d >= 2:
                    a = rng.randrange(p)
                    g = [rng.randint(-9, 9) for _ in range(d - 1)] + [rng.choice((1, -1, 2))]
                    h = [rng.randint(-3, 3) * p ** rng.choice((0, 1)) for _ in range(d + 1)]
                    f = [x + p * y for x, y in zip(_poly_mul(_poly_mul([-a, 1], [-a, 1]), g), h)]
                elif kind == 2:
                    f[-1] = rng.choice((0, p, -(p**2), p**3 * rng.randint(1, 5)))
                elif kind == 3:
                    f = [c * p ** rng.randint(1, 3) for c in f]
                if any(f):
                    yield p, f


def test_reports_match_the_golden_digest():
    """Every field of 3,200 reports (the polynomials above, every region,
    precision exact, 1, 2, 3 and 8) hashes to the digest of the descent
    that visited every residue root's child and every ball; the digest was
    taken before the rootless balls and children were skipped."""
    lines = []
    for p, f in _golden_polys():
        for region in ("zp", "qp", "p1", "annulus:1", "annulus:2"):
            for precision in (None, 1, 2, 3, 8):
                try:
                    lines.append(repr(count_roots(p, f, region, precision)))
                except IdenticallyZeroAtPrecision:
                    lines.append("zero")
    assert len(lines) == 3200
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "6bb37553812d71e670a51a706508752184eeef923c58bc8e33f8052246382fde"
