"""Exact linear algebra: Bareiss determinant and what is built on it."""

import itertools
import math
import random

import pytest

from padicgeo.igf import LinearSubspace
from padicgeo.linalg import (
    det,
    inverse_mod,
    inverse_row,
    minor_valuation,
    signed_maximal_minors,
)
from padicgeo.zp import INF, vp_int


def leibniz(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def random_matrices(rng, entry):
    """Square matrices of sizes 1-5, every third one made singular."""
    for k in range(150):
        n = rng.randint(1, 5)
        rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
        if k % 3 == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            rows[i] = [c * x for x in rows[j]]
            assert leibniz(rows) == 0
        yield rows


def test_det_matches_leibniz_on_integer_matrices():
    rng = random.Random(1)
    for rows in random_matrices(rng, lambda r: r.randint(-4, 4)):
        assert det(rows) == leibniz(rows)


def test_empty_determinant_is_one():
    assert det([]) == 1


def test_closed_form_small_determinants_match_leibniz():
    # every 1 x 1 and 2 x 2 matrix with entries in [-2, 2], as lists and tuples
    for a in range(-3, 4):
        assert det([[a]]) == det(((a,),)) == a
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        rows = [[a, b], [c, d]]
        assert det(rows) == det(((a, b), (c, d))) == leibniz(rows)
    # every 3 x 3 matrix with entries in [-1, 1]
    for entries in itertools.product(range(-1, 2), repeat=9):
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        assert det(rows) == det(tuple(rows)) == leibniz(rows)
    # minor_valuation and signed_maximal_minors hand det tuples of column tuples
    assert det(tuple(zip((3, -7), (2**70, 5)))) == 15 + 7 * 2**70
    assert det(tuple(zip((1, 0, 2**70), (0, 1, 0), (0, 0, 5)))) == 5


def test_inverse_mod_is_the_rows_of_inverse_row():
    rng = random.Random(4)
    for p, m, n in itertools.product((2, 3, 5), (1, 5), (1, 2, 3, 4)):
        q = p**m
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        while det(rows) % p == 0:
            rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        inv = inverse_mod(rows, p, m)
        assert inv == [inverse_row(rows, i, p, m) for i in range(n)]
        prod = [[sum(rows[i][k] * inv[k][j] for k in range(n)) % q for j in range(n)] for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_signed_maximal_minors_span_the_kernel():
    rng = random.Random(3)
    for r in range(1, 5):
        rows = [[rng.randint(-6, 6) for _ in range(r + 1)] for _ in range(r)]
        minors = signed_maximal_minors(rows)
        for row in rows:
            assert sum(a * b for a, b in zip(row, minors)) == 0


def test_inverse_row_of_a_unit():
    assert inverse_row([[3]], 0, 5, 2) == [pow(3, -1, 25)]


def test_minor_valuation_reads_rank_mod_p():
    # the 2 x 2 minors are 5, 0 and 0
    assert minor_valuation([(1, 2, 0), (1, 7, 0)], 2, 3) == 0
    assert minor_valuation([(1, 2, 0), (1, 7, 0)], 2, 5) == 1
    assert minor_valuation([], 0, 5) == 0


def test_minor_valuation_is_the_least_valuation_of_the_minors():
    rng = random.Random(6)
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        n_rows, n_cols = rng.randint(0, 4), rng.randint(1, 4)
        entries = (0, 1, -3, p, 2 * p, p * p)
        rows = [[rng.choice(entries) for _ in range(n_cols)] for _ in range(n_rows)]
        if rows and rng.random() < 0.3:
            rows[rng.randrange(n_rows)] = [0] * n_cols
        for r in range(min(n_rows, n_cols) + 2):
            minors = [
                leibniz([[rows[i][j] for j in cset] for i in rset])
                for rset in itertools.combinations(range(n_rows), r)
                for cset in itertools.combinations(range(n_cols), r)
            ]
            expected = min((vp_int(x, p) for x in minors), default=INF)
            assert minor_valuation(rows, r, p) == expected


def test_check_reduced_rejects_rank_drop_mod_p():
    # independent over Q, but (1, 7, 0) = (1, 2, 0) mod 5
    sub = LinearSubspace(2, [(1, 2, 0), (1, 7, 0)])
    sub.check_reduced(3)
    with pytest.raises(ValueError, match="drop rank mod 5"):
        sub.check_reduced(5)
