"""Exact linear algebra, all of it built on one integer determinant.

``det`` is fraction-free Bareiss elimination over Z, with closed forms for
matrices up to 3 x 3. Signed maximal minors (kernel vectors), inverses
modulo p^m (``inverse_mod``) and their single rows (``inverse_row``), and
the least p-adic valuation of the r x r minors (``minor_valuation``: rank
mod p, Jacobian tests, projective ball membership) are expressed through
it, so each answer is the unique exact value and does not depend on pivot
choices.
"""

from __future__ import annotations

import itertools

from .zp import INF, vp_int


def det(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n <= 3:
        if n == 3:
            (a, b, c), (d, e, f), (g, h, i) = rows
            return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if n == 2:
            (a, b), (c, d) = rows
            return a * d - b * c
        return rows[0][0] if n else 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def signed_maximal_minors(rows):
    """(-1)^j times the minor without column j, for an r x (r+1) matrix.

    The vector is orthogonal to every row (Laplace expansion), so it spans
    the kernel whenever the rows are independent. Each minor is ``det`` of
    the other columns (det A^T = det A).
    """
    columns = list(zip(*rows)) or [()]
    minors = [det(columns[:j] + columns[j + 1 :]) for j in range(len(columns))]
    minors[1::2] = [-x for x in minors[1::2]]
    return minors


def inverse_row(rows, i: int, p: int, m: int):
    """Row i of A^{-1} modulo p^m, for a square A invertible mod p.

    The signed maximal minors of A^T without row i are (-1)^i times the
    cofactors of column i, so their dot product with column i is
    s = (-1)^i det A, a unit, and the row is the minors times s^{-1}
    (Cramer's rule).
    """
    q = p**m
    others = [[row[c] for row in rows] for c in range(len(rows)) if c != i]
    minors = signed_maximal_minors(others)
    s = sum(row[i] * x for row, x in zip(rows, minors))
    inv = pow(s, -1, q)
    return [x * inv % q for x in minors]


def inverse_mod(rows, p: int, m: int):
    """A^{-1} modulo p^m, for a square A invertible mod p.

    The signed maximal minors of the columns of A without column i are
    (-1)^i times row i of the adjugate, and row 0 dotted with column 0 is
    det A, a unit; the inverse is the adjugate times (det A)^{-1}, one
    modular inverse for the whole matrix (Cramer's rule).
    """
    q = p**m
    columns = list(zip(*rows))
    adj = [signed_maximal_minors(columns[:i] + columns[i + 1 :]) for i in range(len(rows))]
    inv = pow(sum(row[0] * x for row, x in zip(rows, adj[0])), -1, q)
    return [[(-1) ** i * x * inv % q for x in minors] for i, minors in enumerate(adj)]


def minor_valuation(rows, r: int, p: int):
    """Least p-adic valuation over the r x r minors of ``rows``.

    Every r-subset of rows meets every r-subset of columns; INF when every
    minor is 0, and 0 as soon as a unit minor is found.
    """
    best = INF
    for sub in itertools.combinations(rows, r):
        for minor in itertools.combinations(list(zip(*sub)), r):
            v = vp_int(det(minor), p)
            if v < best:
                if v == 0:
                    return 0
                best = v
    return best
