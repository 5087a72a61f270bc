"""Monte Carlo intersection estimators with exact targets.

Every estimator samples group elements or coefficients as extendable digit
streams, computes each per-sample count by exact modular arithmetic
(decisions are certified, never floating point), and compares the sample
mean against an exact rational target. Samples whose certification hits
the precision cap are excluded and tallied; their fraction is reported.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CertificationCapExceeded,
    ConsistencyError,
    IdenticallyZeroAtPrecision,
    InsufficientPrecision,
)
from .linalg import minor_valuation, signed_maximal_minors
from .proj import ball_volume, volume_proj_space
from .roots import (
    EXACT,
    adaptive_count,
    annulus_level,
    count_roots_p1,
    count_roots_zp,
    power_coeffs_from_mahler,
    precision_ladder,
)
from .sample import MAHLER, MONOMIAL, HaarMatrix, RandomPolyModel, Stream, sample_poly
from .veronese import floor_log, mahler_curve_volume
from .zp import vp_int


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subvariety of P^n given by integer equations (rows)."""

    ambient: int
    equations: tuple

    def __post_init__(self):
        eqs = []
        for row in self.equations:
            row = tuple(int(x) for x in row)
            if len(row) != self.ambient + 1:
                raise ValueError("equation length must be ambient + 1")
            g = math.gcd(*row)
            if g == 0:
                raise ValueError("zero equation row")
            eqs.append(tuple(x // g for x in row))
        object.__setattr__(self, "equations", tuple(eqs))

    @property
    def codim(self) -> int:
        return len(self.equations)

    @property
    def dim(self) -> int:
        return self.ambient - self.codim

    def check_reduced(self, p: int):
        """Equations must stay independent over F_p (unit elementary divisors)."""
        if minor_valuation(self.equations, self.codim, p) != 0:
            raise ValueError(f"equations drop rank mod {p}")

    def integer_point(self):
        """The primitive integer point on the subspace with the shortest
        support 0..f, its entry f positive; ValueError if there is none.

        On that support the kernel is one line, spanned by the signed
        maximal minors of any f equations cut to columns 0..f whose entry f
        is nonzero.
        """
        for f in range(self.ambient + 1):
            for sub in itertools.combinations(self.equations, f):
                v = signed_maximal_minors([row[: f + 1] for row in sub])
                if v[f] and all(
                    sum(a * b for a, b in zip(row, v)) == 0 for row in self.equations
                ):
                    g = math.gcd(*v) if v[f] > 0 else -math.gcd(*v)
                    return tuple(x // g for x in v) + (0,) * (self.ambient - f)
        raise ValueError("the equations have no nonzero solution")


# -- Monte Carlo machinery -----------------------------------------------------

MATRIX_DIGITS = 12  # first rung of the precision ladder for Haar samples


@dataclass
class McConfig:
    samples: int = 20_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class McReport:
    name: str
    n_samples: int
    mean: float
    stderr: float
    target: Fraction
    excluded: int
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if self.stderr == 0:
            return self.mean == float(self.target)
        return abs(self.mean - float(self.target)) <= 4 * self.stderr

    @property
    def excluded_fraction(self) -> float:
        total = self.n_samples + self.excluded
        return self.excluded / total if total else 0.0

    def as_report_dict(self, experiment: str) -> dict:
        return {
            "experiment": experiment,
            "params": {k: _plain(v) for k, v in self.params.items()},
            "n_samples": self.n_samples,
            "excluded": self.excluded,
            "mean": f"{self.mean:.12g}",
            "stderr": f"{self.stderr:.12g}",
            "target_num": self.target.numerator,
            "target_den": self.target.denominator,
            "pass": self.passed,
        }


def _plain(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    return v


def _draw(cfg: McConfig, one_sample):
    """Apply one_sample to cfg.samples sample streams: (values, excluded).

    The samples are split across cfg.workers as evenly as possible, the
    first workers taking one more; sample i of worker w reads
    Stream(seed).child("worker", w).child("sample", i). values keeps stream
    order; excluded counts the samples for which one_sample returned None.
    """
    base = Stream(cfg.seed)
    per, extra = divmod(cfg.samples, cfg.workers)
    values = []
    excluded = 0
    for w in range(cfg.workers):
        worker = base.child("worker", w)
        for i in range(per + (w < extra)):
            v = one_sample(worker.child("sample", i))
            if v is None:
                excluded += 1
            else:
                values.append(v)
    return values, excluded


def _run_estimator(name, one_sample, target, cfg, params) -> McReport:
    values, excluded = _draw(cfg, one_sample)
    n = len(values)
    target = Fraction(target)
    return McReport(
        name=name,
        n_samples=n,
        mean=statistics.fmean(values) if values else float("nan"),
        stderr=statistics.stdev(values) / math.sqrt(n) if n > 1 else 0.0,
        target=target,
        excluded=excluded,
        params={**params, "target": target, "seed": cfg.seed},
    )


# -- concrete estimators --------------------------------------------------------


def _matvec_mod(rows, vec, q):
    return [sum(r * v for r, v in zip(row, vec)) % q for row in rows]


def _normalize_mod(vec, p, digits):
    """Divide out the p-content of residues known mod p^digits."""
    vals = [vp_int(x, p) for x in vec if x]
    if not vals:
        return None
    v = int(min(vals))
    if v == 0:
        return vec, digits
    q = p ** (digits - v)
    return [x // p**v % q for x in vec], digits - v


def mc_linear_lemma(
    p: int,
    x: LinearSubspace,
    y: LinearSubspace,
    h: LinearSubspace | None,
    ball_x: int,
    ball_y: int,
    cfg: McConfig | None = None,
    center_x=None,
    center_y=None,
) -> McReport:
    """Average #(g_x U_x  ∩  g_y U_y  ∩  H) over independent Haar pairs.

    U_x is the relatively open ball of radius p^-ball_x around center_x
    inside X (the whole subspace when ball_x = 0); the exact target is the
    product of the two relative ball volumes.
    """
    cfg = cfg or McConfig()
    n = x.ambient
    h_codim = h.codim if h is not None else 0
    if x.codim + y.codim + h_codim != n:
        raise ValueError("codimensions must sum to n")
    for s in (x, y) + ((h,) if h is not None else ()):
        s.check_reduced(p)
    cx = tuple(center_x) if center_x is not None else x.integer_point()
    cy = tuple(center_y) if center_y is not None else y.integer_point()
    target = _relative_ball(p, ball_x, x.dim) * _relative_ball(p, ball_y, y.dim)

    h_rows = [list(r) for r in h.equations] if h is not None else []

    def one_sample(stream):
        gx = HaarMatrix(stream.child("gx"), p, n + 1)
        gy = HaarMatrix(stream.child("gy"), p, n + 1)
        for digits in precision_ladder(MATRIX_DIGITS):
            q = p**digits
            gx_inv = gx.inverse(digits)
            gy_inv = gy.inverse(digits)
            rows = [
                _matvec_mod(list(zip(*gx_inv)), e, q) for e in x.equations
            ]
            rows += [
                _matvec_mod(list(zip(*gy_inv)), e, q) for e in y.equations
            ]
            rows += h_rows
            minors = [m % q for m in signed_maximal_minors(rows)]
            norm = _normalize_mod(minors, p, digits)
            if norm is None:
                continue
            z, zdigits = norm
            if zdigits < max(ball_x, ball_y) + 1:
                continue
            ux = _matvec_mod(gx_inv, z, p**zdigits)
            uy = _matvec_mod(gy_inv, z, p**zdigits)
            ux = _normalize_mod(ux, p, zdigits)
            uy = _normalize_mod(uy, p, zdigits)
            if ux is None or uy is None:
                continue
            # in the ball: every 2x2 minor of (u, centre) vanishes mod p^ball
            member_x = not ball_x or minor_valuation([ux[0], cx], 2, p) >= ball_x
            member_y = not ball_y or minor_valuation([uy[0], cy], 2, p) >= ball_y
            return 1.0 if (member_x and member_y) else 0.0
        return None

    return _run_estimator(
        "linear-lemma",
        one_sample,
        target,
        cfg,
        {"p": p, "ball_x": ball_x, "ball_y": ball_y},
    )


def _relative_ball(p: int, level: int, dim: int) -> Fraction:
    return ball_volume(p, dim, level) / volume_proj_space(p, dim)


CURVE_STANDARD = "veronese"
CURVE_LINE = "line"
CURVE_MAHLER = "mahler"


def curve_target(p: int, curve: str, d: int) -> Fraction:
    """vol(curve) / vol(P^1), computed from the arc-length module."""
    if curve in (CURVE_STANDARD, CURVE_LINE):
        return Fraction(1)
    if curve == CURVE_MAHLER:
        return mahler_curve_volume(p, d) / volume_proj_space(p, 1)
    raise ValueError(f"unknown curve {curve!r}")


def mc_igf_curve(
    p: int, curve: str, d: int, cfg: McConfig | None = None
) -> McReport:
    """Average number of hyperplane-section points of an embedded curve.

    The hyperplane is g L_0 with L_0 = {y_0 = 0} and g Haar; its pullback
    through the embedding is a degree-d binary form (monomial curve) or a
    binomial-basis polynomial (Mahler curve), whose roots are counted
    exactly. Per-sample counts are capped by d for every exact sample.
    """
    cfg = cfg or McConfig()
    if curve == CURVE_LINE:
        d = 1
    target = curve_target(p, curve, d)
    size = d + 1

    def one_sample(stream):
        g = HaarMatrix(stream.child("g"), p, size)
        for digits in precision_ladder(MATRIX_DIGITS):
            coeffs = g.inverse_row(0, digits)
            try:
                if curve == CURVE_MAHLER:
                    poly = power_coeffs_from_mahler(coeffs, d)
                    rep = count_roots_zp(p, poly, precision=digits)
                else:
                    rep = count_roots_p1(p, coeffs, precision=digits)
            except IdenticallyZeroAtPrecision:
                rep = None
            if rep is not None and rep.status == EXACT:
                if rep.count > d:
                    raise ConsistencyError(f"{rep.count} roots exceed the degree bound {d}")
                return float(rep.count)
        return None

    return _run_estimator(
        "curve",
        one_sample,
        target,
        cfg,
        {"p": p, "curve": curve, "degree": d},
    )


def expected_zeros_target(kind: str, region: str, p: int, d: int) -> Fraction:
    """Closed-form expected root counts for the two coefficient models."""
    vol_p1 = volume_proj_space(p, 1)
    dnorm = Fraction(p) ** (-vp_int(d, p))
    if kind == MONOMIAL:
        # zero density is uniform on P^1 with unit total mass
        if region == "p1" or region == "qp":
            return Fraction(1)
        if region == "zp":
            return 1 / vol_p1
        if region.startswith("annulus:"):
            m = annulus_level(region)
            return Fraction(p**m - p ** (m - 1), p ** (2 * m)) / vol_p1
    elif kind == MAHLER:
        if region == "zp":
            return Fraction(p) ** floor_log(p, d) / vol_p1
        if region.startswith("annulus:"):
            m = annulus_level(region)
            return dnorm / p**m * (1 - Fraction(1, p)) / (1 + Fraction(1, p))
        if region in ("qp", "p1"):
            return (Fraction(p) ** floor_log(p, d) + dnorm / p) / vol_p1
    raise ValueError(f"no target for {kind}/{region}")


def mc_expected_zeros(
    model: RandomPolyModel, region: str, cfg: McConfig | None = None
) -> McReport:
    """Mean number of zeros of model-sampled polynomials in a region."""
    cfg = cfg or McConfig()
    target = expected_zeros_target(model.kind, region, model.prime, model.degree)

    def one_sample(stream):
        poly = sample_poly(model, stream)
        try:
            rep = adaptive_count(poly, region)
        except CertificationCapExceeded:
            return None
        return float(rep.count)

    return _run_estimator(
        "expected-zeros",
        one_sample,
        target,
        cfg,
        {"p": model.prime, "model": model.kind, "degree": model.degree, "region": region},
    )


UNIFORMITY_SIGNIFICANCE = 1e-3  # chi-square p-value below which uniformity is rejected


@dataclass
class DensityReport:
    bins: list
    chi2: float
    p_value: float
    n_samples: int
    excluded: int
    params: dict = field(default_factory=dict)

    def rejects_uniformity(self) -> bool:
        return self.p_value < UNIFORMITY_SIGNIFICANCE

    def as_report_dict(self, experiment: str) -> dict:
        return {
            "experiment": experiment,
            "params": dict(self.params),
            "n_samples": self.n_samples,
            "excluded": self.excluded,
            "chi2": f"{self.chi2:.12g}",
            "p_value": f"{self.p_value:.12g}",
            "rejects_uniformity": self.rejects_uniformity(),
            "bins": self.bins,
        }


def density_uniformity_test(
    model: RandomPolyModel, cfg: McConfig | None = None
) -> DensityReport:
    """Histogram root locations over the p+1 residue classes of P^1(F_p).

    The class of a root is its reduction mod p: [a : 1] for a chart root
    near a, [1 : 0] for roots at the infinity chart (those have |t| > 1).
    """
    cfg = cfg or McConfig()
    p = model.prime

    def one_sample(stream):
        try:
            rep = adaptive_count(sample_poly(model, stream), "p1")
        except CertificationCapExceeded:
            return None
        return [w.center % p if w.chart == "zp" else p for w in rep.witnesses]

    samples, excluded = _draw(cfg, one_sample)
    bins = [0] * (p + 1)
    for c in itertools.chain.from_iterable(samples):
        bins[c] += 1
    from scipy.stats import chisquare

    if sum(bins) == 0:
        raise InsufficientPrecision("no roots observed")
    chi2, p_value = chisquare(bins)
    return DensityReport(
        bins=bins,
        chi2=float(chi2),
        p_value=float(p_value),
        n_samples=len(samples),
        excluded=excluded,
        params={"model": model.kind, "prime": p, "degree": model.degree, "seed": cfg.seed},
    )
