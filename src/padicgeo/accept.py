"""The acceptance suite behind the reproduce-paper command.

Each criterion returns a CriterionResult with an exact or statistical
verdict and its wall time; Monte Carlo gates use |mean - target| <= 4
standard errors. Results are deterministic for a fixed seed (wall times
are reported but never serialized).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import countvol, igf, proj, roots, veronese, zp
from .errors import NotStabilized
from .linalg import det
from .sample import MAHLER, MONOMIAL, RandomPolyModel, Stream
from .zp import vp_int


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    runtime: float
    runtime_budget: float
    details: dict = field(default_factory=dict)

    @property
    def runtime_ok(self) -> bool:
        return self.runtime < self.runtime_budget

    def row(self) -> dict:
        out = {
            "index": self.index,
            "name": self.name,
            "pass": bool(self.passed),
            "runtime_ok": bool(self.runtime_ok),
        }
        out.update(self.details)
        return out


def _derived_seed(seed, offset):
    """An estimator's seed: seed + offset, wrapped into [0, 2^64)."""
    return (seed + offset) % 2**64


def _timed(budget):
    def wrap(fn):
        def inner(seed):
            t0 = time.perf_counter()
            passed, details = fn(seed)
            dt = time.perf_counter() - t0
            index = int(fn.__name__.rsplit("_", 1)[1])
            name = fn.__doc__.splitlines()[0]
            return CriterionResult(index, name, passed, dt, budget, details)

        inner.__name__ = fn.__name__
        inner.__doc__ = fn.__doc__
        return inner

    return wrap


@_timed(1.0)
def _criterion_1(seed):
    """conic point counts and exact volume"""
    conic = countvol.AlgebraicSet.from_strings(2, ["x0*x2 - x1^2"], dim=1, degree=2)
    counts = {m: countvol.count_points_mod(conic, 3, m) for m in (1, 2, 3)}
    est = countvol.estimate_volume(conic, 3, 3)
    ok = (
        all(counts[m].exact for m in counts)
        and (counts[1].n_lo, counts[2].n_lo, counts[3].n_lo) == (4, 12, 36)
        and est.stabilization_level == 1
        and est.value == Fraction(4, 3)
    )
    return ok, {
        "counts": [counts[m].n_lo for m in (1, 2, 3)],
        "volume": est.value,
        "stabilized_at": est.stabilization_level,
    }


@_timed(10.0)
def _criterion_2(seed):
    """projective-space counts match the closed form"""
    checked = []
    ok = True
    for p in (2, 3, 5):
        for n in (1, 2):
            for m in (1, 2):
                expected = (p ** (m * (n + 1)) - p ** ((m - 1) * (n + 1))) // (
                    p**m - p ** (m - 1)
                )
                got = sum(1 for _ in proj.enumerate_proj(p, n, m))
                ok &= got == expected == proj.proj_space_count(p, n, m)
                checked.append([p, n, m, got])
    return ok, {"cases": len(checked)}


@_timed(5.0)
def _criterion_3(seed):
    """standard-embedding isometry on 1000 random pairs"""
    ok = True
    cases = []
    for n, d, p in ((1, 2, 3), (1, 3, 2), (2, 2, 3)):
        out = veronese.isometry_check(
            veronese.VeroneseMap(veronese.STANDARD, n, d),
            p,
            1000,
            Stream(seed).child("isometry", n, d, p),
        )
        ok &= out["failures"] == 0 and out["pairs"] == 1000
        cases.append([n, d, p, out["failures"]])
    return ok, {"cases": cases}


@_timed(5.0)
def _criterion_4(seed):
    """binomial-basis derivative norms, affine and annulus"""
    ok = True
    rng = random.Random(seed)
    for p in (2, 3, 5):
        for d in range(1, 21):
            expected = Fraction(p) ** veronese.floor_log(p, d)
            for _ in range(20):
                a = rng.randrange(p**8)
                ok &= veronese.mahler_jacobian_norm(p, d, a) == expected
        for d in (1, 2, 3, 7):
            dnorm = Fraction(p) ** (-vp_int(d, p))
            for m in (1, 2, 3):
                t = Fraction(1 + p * rng.randrange(1, 50), p**m)
                got = veronese.mahler_extended_jacobian_norm(p, d, t)
                ok &= got == dnorm * Fraction(p) ** (-2 * m)
    return ok, {"max_degree": 20}


def _mc_rows(reports):
    """Each report's row, less the experiment name and sample count."""
    dropped = ("experiment", "n_samples")
    return [
        {k: v for k, v in r.as_report_dict("").items() if k not in dropped}
        for r in reports
    ]


@_timed(60.0)
def _criterion_5(seed):
    """monomial-model mean zero count on the projective line is 1"""
    reports = []
    for d, p in ((2, 3), (3, 3), (5, 2), (7, 5)):
        cfg = igf.McConfig(samples=20_000, seed=_derived_seed(seed, 5_000 + d))
        reports.append(
            igf.mc_expected_zeros(RandomPolyModel(MONOMIAL, d, p), "p1", cfg)
        )
    ok = all(r.passed and r.excluded_fraction < 1e-3 for r in reports)
    return ok, {"reports": _mc_rows(reports)}


@_timed(60.0)
def _criterion_6(seed):
    """binomial-model mean zero count in Z_p (Evans' value)"""
    reports = []
    ok = True
    for d, p, target in ((3, 3, Fraction(9, 4)), (7, 3, Fraction(9, 4)), (4, 2, Fraction(8, 3))):
        cfg = igf.McConfig(samples=20_000, seed=_derived_seed(seed, 6_000 + d))
        rep = igf.mc_expected_zeros(RandomPolyModel(MAHLER, d, p), "zp", cfg)
        ok &= rep.target == target
        reports.append(rep)
    ok &= all(r.passed and r.excluded_fraction < 1e-3 for r in reports)
    return ok, {"reports": _mc_rows(reports)}


@_timed(90.0)
def _criterion_7(seed):
    """annulus law and the whole-line mean zero count"""
    cfg_a = igf.McConfig(samples=100_000, seed=_derived_seed(seed, 7_001))
    annulus = igf.mc_expected_zeros(RandomPolyModel(MAHLER, 3, 3), "annulus:1", cfg_a)
    cfg_q = igf.McConfig(samples=20_000, seed=_derived_seed(seed, 7_002))
    total = igf.mc_expected_zeros(RandomPolyModel(MAHLER, 7, 3), "qp", cfg_q)
    reports = [annulus, total]
    ok = annulus.target == Fraction(1, 18) and total.target == Fraction(5, 2)
    ok &= all(r.passed and r.excluded_fraction < 1e-3 for r in reports)
    return ok, {"reports": _mc_rows(reports)}


@_timed(60.0)
def _criterion_8(seed):
    """linear intersection averages factor into ball-volume products"""
    x = igf.LinearSubspace(2, [(0, 1, 0)])
    y = igf.LinearSubspace(2, [(0, 0, 1)])
    balls = igf.mc_linear_lemma(
        3, x, y, None, 1, 1, igf.McConfig(samples=20_000, seed=_derived_seed(seed, 8_001))
    )
    full = igf.mc_linear_lemma(
        3, x, y, None, 0, 0, igf.McConfig(samples=5_000, seed=_derived_seed(seed, 8_002))
    )
    ok = (
        balls.target == Fraction(1, 16)
        and balls.passed
        and balls.excluded_fraction < 1e-3
        and full.mean == 1.0
        and full.stderr == 0.0
    )
    return ok, {"reports": _mc_rows([balls, full])}


@_timed(60.0)
def _criterion_9(seed):
    """curve-hyperplane averages match arc-length targets"""
    conic = igf.mc_igf_curve(
        3, igf.CURVE_STANDARD, 2, igf.McConfig(samples=20_000, seed=_derived_seed(seed, 9_001))
    )
    mahler = igf.mc_igf_curve(
        3, igf.CURVE_MAHLER, 3, igf.McConfig(samples=20_000, seed=_derived_seed(seed, 9_002))
    )
    ok = conic.target == 1 and mahler.target == Fraction(9, 4)
    ok &= all(r.passed and r.excluded_fraction < 1e-3 for r in (conic, mahler))
    return ok, {"reports": _mc_rows([conic, mahler])}


@_timed(60.0)
def _criterion_10(seed):
    """zero density uniform for the monomial model, skewed for the binomial one"""
    uniform = igf.density_uniformity_test(
        RandomPolyModel(MONOMIAL, 3, 3),
        igf.McConfig(samples=10_000, seed=_derived_seed(seed, 10_001)),
    )
    skewed = igf.density_uniformity_test(
        RandomPolyModel(MAHLER, 3, 3),
        igf.McConfig(samples=10_000, seed=_derived_seed(seed, 10_002)),
    )
    ok = (not uniform.rejects_uniformity()) and skewed.rejects_uniformity()
    return ok, {
        "uniform_bins": uniform.bins,
        "uniform_p_value": f"{uniform.p_value:.6g}",
        "skewed_bins": skewed.bins,
        "skewed_p_value": f"{skewed.p_value:.6g}",
    }


@_timed(5.0)
def _criterion_11(seed):
    """normalized volumes stay below the degree"""
    rows = []
    ok = True
    fixtures = [
        ("conic", ["x0*x2 - x1^2"], 1, 2),
        ("line", ["x2"], 1, 1),
        ("two-lines", ["x0*x1"], 1, 2),
    ]
    for p in (3, 5):
        for name, gens, dim, degree in fixtures:
            xset = countvol.AlgebraicSet.from_strings(2, gens, dim=dim, degree=degree)
            try:
                est = countvol.estimate_volume(xset, p, 3)
            except NotStabilized as exc:
                est = exc.estimate
            rep = countvol.check_degree_bound(xset, est)
            ok &= rep.normalized_ok
            rows.append(
                {
                    "set": name,
                    "p": p,
                    "ratio": {"num": rep.normalized_ratio.numerator, "den": rep.normalized_ratio.denominator},
                    "degree": degree,
                    "raw_ok": rep.raw_ok,
                }
            )
    return ok, {"rows": rows}


_ORACLE_BUDGET = 400_000  # largest p^k the root-count oracle enumerates


def _oracle_root_count(coeffs, p):
    """Certified-residue enumeration oracle (see the module test suite)."""
    from .roots import poly_derivative, squarefree_part

    sf = squarefree_part(coeffs)
    if len(sf) <= 1:
        return 0 if sf else None
    deriv = poly_derivative(sf)
    res = _resultant(sf, deriv)
    if res == 0:
        return None
    v = vp_int(res, p)
    k = 2 * v + 3
    if p**k > _ORACLE_BUDGET:
        return None
    # f(r) mod p^j depends only on r mod p^j, so the residues r mod p^k with
    # f(r) = 0 mod p^k are exactly the digit-by-digit extensions that vanish
    # at every prefix
    zeros = [0]
    for j in range(k):
        q = p ** (j + 1)
        zeros = [
            r
            for r0 in zeros
            for r in range(r0, q, p**j)
            if sum(c * r**i for i, c in enumerate(sf)) % q == 0
        ]
    return len({r % p ** (k - v) for r in zeros})


def _resultant(f, g):
    """Determinant of the Sylvester matrix of integer polynomials (ascending)."""
    n, m = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(reversed(f)) + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + list(reversed(g)) + [0] * (n - 1 - i) for i in range(n)]
    return det(rows)


@_timed(120.0)
def _criterion_12(seed):
    """exact property suites: ultrametric norms, root equivalence, fiber sizes"""
    rng = random.Random(seed)
    ok = True
    # ultrametric, equality case, multiplicativity and wedge symmetry of the
    # exact norms
    for p in (2, 3, 5):
        for _ in range(1000):
            xv, yv = rng.randrange(p**8), rng.randrange(p**8)
            ns, na, nb = (zp.sup_norm([c], p) for c in (xv + yv, xv, yv))
            ok &= ns <= max(na, nb)
            if na != nb:
                ok &= ns == max(na, nb)
            ok &= zp.sup_norm([xv * yv], p) == na * nb
        for _ in range(200):
            av = [rng.randrange(p**6) for _ in range(3)]
            bv = [rng.randrange(p**6) for _ in range(3)]
            if all(c % p == 0 for c in av) or all(c % p == 0 for c in bv):
                continue
            ok &= zp.wedge_norm(av, bv, p) == zp.wedge_norm(bv, av, p)
            ok &= zp.wedge_norm(av, av, p) == 0
    # root-count equivalence against the enumeration oracle
    cases = 0
    target_cases = 5000
    primes = (2, 3, 5)
    while cases < target_cases:
        p = primes[cases % 3]
        d = rng.randint(1, 4)
        coeffs = [rng.randint(-20, 20) for _ in range(d + 1)]
        if not any(coeffs):
            continue
        expected = _oracle_root_count(coeffs, p)
        if expected is None:
            continue
        rep = roots.count_roots_zp(p, coeffs)
        ok &= rep.status == roots.EXACT and rep.count == expected
        cases += 1
    # Hopf fiber sizes, exhaustive at p = 3, n = 1, m <= 2
    import itertools as it

    for m in (1, 2):
        p, n = 3, 1
        q = p**m
        fibers = {}
        for vec in it.product(range(q), repeat=n + 1):
            if all(c % p == 0 for c in vec):
                continue
            key = proj.ResidueProjPoint.canonical(p, m, vec)
            fibers[key] = fibers.get(key, 0) + 1
        ok &= set(fibers.values()) == {proj.hopf_fiber_size(p, m)}
        ok &= len(fibers) == proj.proj_space_count(p, n, m)
    return ok, {"root_cases": cases}


CRITERIA = [
    _criterion_1,
    _criterion_2,
    _criterion_3,
    _criterion_4,
    _criterion_5,
    _criterion_6,
    _criterion_7,
    _criterion_8,
    _criterion_9,
    _criterion_10,
    _criterion_11,
    _criterion_12,
]


def run_all(seed: int = 42, indices=None, progress=None):
    """Run the criteria whose 1-based index is in ``indices`` (all if empty).

    An index outside 1..len(CRITERIA) is a ValueError, raised before any
    criterion runs.
    """
    bad = sorted(i for i in indices or () if not 1 <= i <= len(CRITERIA))
    if bad:
        raise ValueError(f"no criterion {bad[0]}: indices run 1..{len(CRITERIA)}")
    results = []
    for idx, fn in enumerate(CRITERIA, 1):
        if indices and idx not in indices:
            continue
        res = fn(seed)
        results.append(res)
        if progress:
            progress(res)
    return results
