"""The three workloads: inputs made from a seed, and one round of operations.

A round is the workload's fixed list of operations. It calls the library
entry points the CLI subcommands call, checks every answer with
``checks``, and returns the exact outputs so that two rounds, or two runs,
at one seed can be compared. Import this module only after the checkout's
``src`` directory is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

from padicgeo import countvol, igf, roots, veronese
from padicgeo.errors import BudgetExceeded, NotStabilized
from padicgeo.sample import RandomPolyModel

import checks

# (model, d, p, region): the cells of acceptance criteria 5-7
ZEROS_CELLS = (
    ("monomial", 2, 3, "p1"),
    ("monomial", 3, 3, "p1"),
    ("monomial", 5, 2, "p1"),
    ("monomial", 7, 5, "p1"),
    ("mahler", 3, 3, "zp"),
    ("mahler", 7, 3, "zp"),
    ("mahler", 4, 2, "zp"),
    ("mahler", 3, 3, "annulus:1"),
    ("mahler", 7, 3, "qp"),
)
ZEROS_SAMPLES = 500
ZEROS_WORKERS = 2
HAAR_PRIME = 3
HAAR_SAMPLES = 300
# A cell's samples are drawn by estimator calls of CHUNK_SAMPLES samples each,
# so that a timed operation lasts tens of milliseconds, not a second: the
# fastest repeat of a short operation misses the shared machine's bursts of
# load. The answer check pools the chunks of a cell into one mean.
CHUNK_SAMPLES = 100

# (name, generators, ((p, level), ...)) of the plane curves whose volumes are
# certified. The singular curves at p = 5 stop at level 2: at level 3 one
# build grows 187,761 nodes in 4-6 s, too long to repeat often enough in a
# run for a steady time.
VOLUME_FIXTURES = (
    ("conic", "x0*x2 - x1^2", ((2, 3), (3, 3), (5, 3))),
    ("line", "x2", ((2, 3), (3, 3), (5, 3))),
    ("two-lines", "x0*x1", ((2, 3), (3, 3), (5, 2))),
    ("nodal", "x1^2*x2 - x0^3 - x0^2*x2", ((3, 3), (5, 2))),
)
ROOT_PRIMES = (2, 3, 5)
ROOT_POLYS_PER_PRIME = 20
ROOT_REGIONS = ("zp", "qp", "annulus:1", "annulus:2")
NORM_PRIMES = (2, 3, 5)
NORM_MAX_DEGREE = 20
NORM_POINTS = 2  # affine points per (p, d)
EXTENDED_DEGREES = (1, 2, 3, 4, 6, 7, 8, 9)


def cell_seed(seed: int, name: str) -> int:
    """The seed of one cell: 63 bits of BLAKE2b over "<seed>/<cell name>"."""
    digest = hashlib.blake2b(f"{seed}/{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class Round:
    """What one round did: operations, failures, exact outputs, wrong answers."""

    ops: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def check(self, label, reason):
        if reason is not None:
            self.errors.append(f"{label}: {reason}")

    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()


def _no_span(name):
    return nullcontext()


# -- Monte Carlo workloads ------------------------------------------------------


@dataclass(frozen=True)
class McCell:
    name: str
    chunks: tuple  # callables, each returning the McReport of CHUNK_SAMPLES samples
    target: Fraction
    exact: bool = False


def _configs(seed: int, name: str, samples: int, workers: int):
    """One McConfig per chunk; chunk i is seeded from the cell "<name>/<i>"."""
    return [
        igf.McConfig(samples=CHUNK_SAMPLES, seed=cell_seed(seed, f"{name}/{i}"), workers=workers)
        for i in range(samples // CHUNK_SAMPLES)
    ]


def zeros_inputs(seed: int):
    cells = []
    for model, d, p, region in ZEROS_CELLS:
        name = f"{model}-{region.replace(':', '')}-d{d}-p{p}"
        poly_model = RandomPolyModel(model, d, p)
        chunks = tuple(
            lambda m=poly_model, r=region, c=cfg: igf.mc_expected_zeros(m, r, c)
            for cfg in _configs(seed, name, ZEROS_SAMPLES, ZEROS_WORKERS)
        )
        cells.append(McCell(name, chunks, checks.zeros_target(model, region, p, d)))
    return cells


def haar_inputs(seed: int):
    p = HAAR_PRIME
    x = igf.LinearSubspace(2, [(0, 1, 0)])
    y = igf.LinearSubspace(2, [(0, 0, 1)])

    def chunks(name, estimator):
        return tuple(
            lambda c=cfg: estimator(c) for cfg in _configs(seed, name, HAAR_SAMPLES, 1)
        )

    balls, lines = f"linear-balls-p{p}", f"linear-lines-p{p}"
    conic, mahler = f"curve-conic-p{p}", f"curve-mahler-d3-p{p}"
    return [
        McCell(
            balls,
            chunks(balls, lambda c: igf.mc_linear_lemma(p, x, y, None, 1, 1, c)),
            checks.ball_pair_target(p),
        ),
        McCell(
            lines,
            chunks(lines, lambda c: igf.mc_linear_lemma(p, x, y, None, 0, 0, c)),
            Fraction(1),
            exact=True,
        ),
        McCell(
            conic,
            chunks(conic, lambda c: igf.mc_igf_curve(p, igf.CURVE_STANDARD, 2, c)),
            checks.curve_target("conic", p, 2),
        ),
        McCell(
            mahler,
            chunks(mahler, lambda c: igf.mc_igf_curve(p, igf.CURVE_MAHLER, 3, c)),
            checks.curve_target("mahler", p, 3),
        ),
    ]


def mc_round(cells, span=_no_span) -> Round:
    out = Round()
    for cell in cells:
        parts = []
        for i, estimator in enumerate(cell.chunks):
            with span(f"igf.{cell.name}"):
                rep = estimator()
            out.ops += CHUNK_SAMPLES
            out.failed += rep.excluded
            out.check(
                f"{cell.name}/{i}",
                checks.check_sample_total(rep.n_samples, rep.excluded, CHUNK_SAMPLES),
            )
            out.outputs.append(
                [cell.name, i, rep.n_samples, rep.excluded, f"{rep.mean:.12g}", f"{rep.stderr:.12g}"]
            )
            parts.append((rep.n_samples, rep.mean, rep.stderr))
        mean, stderr = checks.pooled(parts)
        verdict = checks.check_mean(mean, stderr, cell.target, cell.exact)
        out.check(cell.name, verdict)
        out.outputs.append([cell.name, f"{mean:.12g}", f"{stderr:.12g}", verdict is None])
    return out


# -- certify ------------------------------------------------------------------


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _irreducible_quadratic(rng, p):
    """A monic t^2 + a t + b with no root mod p, hence none in Q_p."""
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if all((r * r + a * r + b) % p for r in range(p)):
            return [b, a, 1]


def root_poly(rng, p):
    """An integer polynomial with a known root set, and its roots by region.

    Factors: a cluster of integer roots agreeing modulo p**k, one of them
    repeated; a root a/b in Z_p with p not dividing b; roots a/p**k outside
    Z_p, which lie on the annulus |x| = p**k; and a monic quadratic with no
    root in Q_p. Returns (ascending coefficients, expected count by region).
    """
    zp_roots, outer = set(), {}
    factors = [_irreducible_quadratic(rng, p)]
    base, k = rng.randrange(p**4), rng.randint(1, 3)
    for j in range(rng.randint(2, 3)):
        r = base + j * p**k
        zp_roots.add(Fraction(r))
        factors += [[-r, 1]] * (2 if j == 0 else 1)
    while True:
        a, b = rng.randrange(-50, 50), rng.randrange(2, 20)
        if b % p and Fraction(a, b).denominator > 1:
            break
    zp_roots.add(Fraction(a, b))
    factors.append([-a, b])
    for _ in range(rng.randint(1, 2)):
        a, k = rng.choice([u for u in range(-9, 10) if u % p]), rng.randint(1, 2)
        outer[Fraction(a, p**k)] = k
        factors.append([-a, p**k])
    coeffs = [1]
    for f in factors:
        coeffs = _mul(coeffs, f)
    expected = {
        "zp": len(zp_roots),
        "qp": len(zp_roots) + len(outer),
        "annulus:1": sum(1 for k in outer.values() if k == 1),
        "annulus:2": sum(1 for k in outer.values() if k == 2),
    }
    return coeffs, expected


@dataclass(frozen=True)
class CertifyInputs:
    volumes: list  # (fixture, p, level, AlgebraicSet)
    polys: list  # (p, coeffs, expected counts by region)
    jacobian: list  # (p, d, a)
    extended: list  # (p, d, m, t)


def certify_inputs(seed: int) -> CertifyInputs:
    volumes = [
        (name, p, level, countvol.AlgebraicSet.from_strings(2, [gens], dim=1))
        for name, gens, cases in VOLUME_FIXTURES
        for p, level in cases
    ]
    rng = random.Random(cell_seed(seed, "roots"))
    polys = [
        (p, *root_poly(rng, p)) for p in ROOT_PRIMES for _ in range(ROOT_POLYS_PER_PRIME)
    ]
    rng = random.Random(cell_seed(seed, "norms"))
    jacobian = [
        (p, d, rng.randrange(p**8))
        for p in NORM_PRIMES
        for d in range(1, NORM_MAX_DEGREE + 1)
        for _ in range(NORM_POINTS)
    ]
    extended = []
    for p in NORM_PRIMES:
        for d in EXTENDED_DEGREES:
            for m in (1, 2, 3):
                unit = rng.choice([u for u in range(1, 10 * p) if u % p])
                extended.append((p, d, m, Fraction(unit, p**m)))
    return CertifyInputs(volumes, polys, jacobian, extended)


def _count(p, coeffs, region):
    if region == "zp":
        return roots.count_roots_zp(p, coeffs)
    if region == "qp":
        return roots.count_roots_qp(p, coeffs)
    return roots.count_roots_annulus(p, coeffs, int(region.split(":")[1]))


def certify_round(inputs: CertifyInputs, span=_no_span) -> Round:
    out = Round()
    for name, p, level, xset in inputs.volumes:
        fixture = f"{name}-p{p}"
        out.ops += 1
        with span(f"countvol.{fixture}"):
            try:
                est = countvol.estimate_volume(xset, p, level)
            except NotStabilized as exc:
                est = exc.estimate
            except BudgetExceeded:
                est = None
        if est is None:
            out.failed += 1
            out.outputs.append([fixture, "budget-exceeded"])
            continue
        out.check(
            fixture,
            checks.check_volume(name, p, est.sequence, est.stabilization_level, est.value),
        )
        out.outputs.append([fixture, est.sequence, est.stabilization_level, est.value])
    for i, (p, coeffs, expected) in enumerate(inputs.polys):
        for region in ROOT_REGIONS:
            out.ops += 1
            with span("roots.exact"):
                rep = _count(p, coeffs, region)
            out.outputs.append([i, region, rep.count, rep.status])
            if rep.status != roots.EXACT:
                out.failed += 1
                continue
            out.check(f"poly {i} p={p} {region}", checks.check_root_count(rep.count, expected[region]))
    for p, d, a in inputs.jacobian:
        out.ops += 1
        with span("veronese.jacobian"):
            value = veronese.mahler_jacobian_norm(p, d, a)
        out.check(f"|J| p={p} d={d} a={a}", checks.check_jacobian_norm(value, p, d))
        out.outputs.append(["jacobian", p, d, a, value])
    for p, d, m, t in inputs.extended:
        out.ops += 1
        with span("veronese.extended"):
            value = veronese.mahler_extended_jacobian_norm(p, d, t)
        out.check(f"|J| p={p} d={d} t={t}", checks.check_extended_norm(value, p, d, m))
        out.outputs.append(["extended", p, d, t, value])
    return out


def build_inputs(workload: str, seed: int):
    if workload == "mc-zeros":
        return zeros_inputs(seed)
    if workload == "mc-haar":
        return haar_inputs(seed)
    if workload == "certify":
        return certify_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def run_round(workload: str, inputs, span=_no_span) -> Round:
    if workload == "certify":
        return certify_round(inputs, span)
    return mc_round(inputs, span)
