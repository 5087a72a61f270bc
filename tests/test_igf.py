"""Linear subspaces and Monte Carlo estimators at module-test scale."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from padicgeo import igf
from padicgeo.errors import CertificationCapExceeded
from padicgeo.igf import (
    CURVE_LINE,
    CURVE_MAHLER,
    CURVE_STANDARD,
    LinearSubspace,
    McConfig,
    McReport,
    curve_target,
    density_uniformity_test,
    expected_zeros_target,
    mc_expected_zeros,
    mc_igf_curve,
    mc_linear_lemma,
)
from padicgeo.sample import RandomPolyModel

from binary_forms import transform_form

def rref_kernel_point(equations, cols):
    """Reference: the kernel vector of the first free column of the reduced
    row echelon form over Q, scaled to a primitive integer vector."""
    rows = [[Fraction(x) for x in r] for r in equations]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = next(c for c in range(cols) if c not in pivots)
    vec = [Fraction(0)] * cols
    vec[free] = Fraction(1)
    for i, c in enumerate(pivots):
        vec[c] = -rows[i][free]
    lcm = math.lcm(*[x.denominator for x in vec])
    ints = [int(x * lcm) for x in vec]
    g = math.gcd(*[abs(x) for x in ints if x])
    return tuple(x // g for x in ints)


X_LINE = LinearSubspace(2, [(0, 1, 0)])  # {x1 = 0}
Y_LINE = LinearSubspace(2, [(0, 0, 1)])  # {x2 = 0}


class TestIntersectLinear:
    def test_subspace_validation(self):
        with pytest.raises(ValueError):
            LinearSubspace(2, [(0, 0)])
        sub = LinearSubspace(2, [(2, 4, 6)])
        assert sub.equations == ((1, 2, 3),)
        with pytest.raises(ValueError):
            LinearSubspace(2, [(1, 1, 1), (2, 2, 2)]).check_reduced(5)

    def test_zero_equation_row_is_rejected(self):
        with pytest.raises(ValueError, match="zero equation row"):
            LinearSubspace(2, [(0, 0, 0)])
        with pytest.raises(ValueError, match="zero equation row"):
            LinearSubspace(2, [(1, 0, 0), (0, 0, 0)])

    def test_integer_point_matches_the_row_echelon_kernel_vector(self):
        rng = random.Random(18)
        checked = 0
        while checked < 5000:
            n = rng.randint(1, 4)
            rows = [[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(rng.randint(1, n))]
            for j in rng.sample(range(n + 1), rng.randint(0, n)):
                # a zero column, or a multiple of another column
                c, src = rng.randint(-2, 2), rng.randrange(n + 1)
                for row in rows:
                    row[j] = c * row[src]
            if not all(any(row) for row in rows):
                continue
            sub = LinearSubspace(n, rows)
            assert sub.integer_point() == rref_kernel_point(sub.equations, n + 1)
            checked += 1

    def test_integer_point_without_a_nonzero_solution_is_an_error(self):
        for sub in (
            LinearSubspace(1, [(1, 0), (1, 1)]),
            LinearSubspace(2, [(1, 0, 0), (0, 1, 0), (1, 1, 3)]),
        ):
            with pytest.raises(ValueError, match="no nonzero solution"):
                sub.integer_point()

    def test_integer_point_lies_on_subspace(self):
        for sub in (X_LINE, LinearSubspace(2, [(1, 2, 3)]), LinearSubspace(3, [(1, 0, 0, 0), (0, 1, 1, 0)])):
            pt = sub.integer_point()
            assert any(pt)
            for eq in sub.equations:
                assert sum(a * b for a, b in zip(eq, pt)) == 0


class TestTargets:
    def test_linear_lemma_target_value(self):
        # (vol ball / vol P^1)^2 at p = 3, radius 1/3
        rep_target = (Fraction(1, 3) / Fraction(4, 3)) ** 2
        assert rep_target == Fraction(1, 16)

    @pytest.mark.parametrize(
        "kind,region,p,d,expected",
        [
            ("monomial", "p1", 3, 5, Fraction(1)),
            ("monomial", "zp", 3, 2, Fraction(3, 4)),
            ("mahler", "zp", 3, 3, Fraction(9, 4)),
            ("mahler", "zp", 3, 7, Fraction(9, 4)),
            ("mahler", "zp", 2, 4, Fraction(8, 3)),
            ("mahler", "annulus:1", 3, 3, Fraction(1, 18)),
            ("mahler", "qp", 3, 7, Fraction(5, 2)),
        ],
    )
    def test_expected_zeros_targets(self, kind, region, p, d, expected):
        assert expected_zeros_target(kind, region, p, d) == expected

    @pytest.mark.parametrize("kind", ("monomial", "mahler"))
    @pytest.mark.parametrize("region", ("annulus:0", "annulus:-1"))
    def test_annulus_below_level_one_has_no_target(self, kind, region):
        with pytest.raises(ValueError, match="m must be >= 1"):
            expected_zeros_target(kind, region, 3, 3)

    def test_curve_targets(self):
        assert curve_target(3, CURVE_STANDARD, 2) == 1
        assert curve_target(3, CURVE_LINE, 1) == 1
        assert curve_target(3, CURVE_MAHLER, 3) == Fraction(9, 4)


class TestLinearLemma:
    def test_third_radius_balls(self):
        rep = mc_linear_lemma(
            3, X_LINE, Y_LINE, None, 1, 1, McConfig(samples=4000, seed=3)
        )
        assert rep.target == Fraction(1, 16)
        assert rep.passed
        assert rep.excluded_fraction < 1e-3

    def test_full_spaces_every_sample_is_one(self):
        rep = mc_linear_lemma(
            3, X_LINE, Y_LINE, None, 0, 0, McConfig(samples=800, seed=3)
        )
        assert rep.mean == 1.0 and rep.stderr == 0.0
        assert rep.target == 1 and rep.passed

    def test_product_law_three_ball_sizes(self):
        # target factorizes as the product of relative ball volumes
        rel = lambda m: Fraction(3) ** (-m) / Fraction(4, 3)
        for bx, by, n in ((1, 1, 4000), (2, 1, 6000), (2, 2, 12000)):
            rep = mc_linear_lemma(
                3, X_LINE, Y_LINE, None, bx, by, McConfig(samples=n, seed=14)
            )
            assert rep.target == rel(bx) * rel(by)
            assert rep.passed, (bx, by, rep.mean, float(rep.target), rep.stderr)

    def test_gl_invariance_of_estimate(self):
        h = [[1, 1, 0], [0, 1, 0], [3, 0, 1]]  # det 1, entries in Z_p

        def transform(sub):
            rows = [
                tuple(sum(e[i] * h[i][j] for i in range(3)) for j in range(3))
                for e in sub.equations
            ]
            return LinearSubspace(2, rows)

        def move_point(pt):
            import math
            from fractions import Fraction as F

            hmat = [[F(h[i][j]) for j in range(3)] for i in range(3)]
            det = (
                hmat[0][0] * (hmat[1][1] * hmat[2][2] - hmat[1][2] * hmat[2][1])
                - hmat[0][1] * (hmat[1][0] * hmat[2][2] - hmat[1][2] * hmat[2][0])
                + hmat[0][2] * (hmat[1][0] * hmat[2][1] - hmat[1][1] * hmat[2][0])
            )
            assert det == 1
            inv = [
                [
                    (hmat[(j + 1) % 3][(i + 1) % 3] * hmat[(j + 2) % 3][(i + 2) % 3]
                     - hmat[(j + 1) % 3][(i + 2) % 3] * hmat[(j + 2) % 3][(i + 1) % 3])
                    for j in range(3)
                ]
                for i in range(3)
            ]
            moved = [sum(inv[i][j] * pt[j] for j in range(3)) for i in range(3)]
            g = math.gcd(*[abs(int(x)) for x in moved if x])
            return tuple(int(x) // g for x in moved)

        base = mc_linear_lemma(
            3, X_LINE, Y_LINE, None, 1, 1, McConfig(samples=4000, seed=21)
        )
        moved = mc_linear_lemma(
            3,
            transform(X_LINE),
            transform(Y_LINE),
            None,
            1,
            1,
            McConfig(samples=4000, seed=22),
            center_x=move_point(X_LINE.integer_point()),
            center_y=move_point(Y_LINE.integer_point()),
        )
        combined = (base.stderr**2 + moved.stderr**2) ** 0.5
        assert abs(base.mean - moved.mean) < 3 * combined


class TestCurveEstimators:
    def test_conic_target_one(self):
        rep = mc_igf_curve(3, CURVE_STANDARD, 2, McConfig(samples=1500, seed=5))
        assert rep.target == 1 and rep.passed

    def test_line_case(self):
        rep = mc_igf_curve(3, CURVE_LINE, 1, McConfig(samples=600, seed=5))
        assert rep.target == 1 and rep.passed
        assert rep.mean == 1.0  # a line meets a generic hyperplane once, always

    def test_mahler_curve(self):
        rep = mc_igf_curve(3, CURVE_MAHLER, 3, McConfig(samples=1500, seed=6))
        assert rep.target == Fraction(9, 4) and rep.passed


# one call of each igf experiment, given its McConfig
WORKER_EXPERIMENTS = {
    "linear-lemma": lambda cfg: mc_linear_lemma(3, X_LINE, Y_LINE, None, 1, 1, cfg),
    "curve": lambda cfg: mc_igf_curve(3, CURVE_MAHLER, 3, cfg),
    "expected-zeros": lambda cfg: mc_expected_zeros(RandomPolyModel("mahler", 3, 3), "zp", cfg),
    "density": lambda cfg: density_uniformity_test(RandomPolyModel("monomial", 3, 3), cfg),
}


class TestExpectedZeros:
    def test_monomial_p1(self):
        rep = mc_expected_zeros(
            RandomPolyModel("monomial", 2, 3), "p1", McConfig(samples=2500, seed=7)
        )
        assert rep.target == 1 and rep.passed

    def test_evans_small(self):
        rep = mc_expected_zeros(
            RandomPolyModel("mahler", 3, 3), "zp", McConfig(samples=2500, seed=8)
        )
        assert rep.target == Fraction(9, 4) and rep.passed

    def test_monomial_zp_mass(self):
        rep = mc_expected_zeros(
            RandomPolyModel("monomial", 3, 3), "zp", McConfig(samples=2500, seed=9)
        )
        assert rep.target == Fraction(3, 4) and rep.passed

    def test_report_schema(self):
        rep = mc_expected_zeros(
            RandomPolyModel("mahler", 2, 3), "zp", McConfig(samples=300, seed=1)
        )
        d = rep.as_report_dict("expected-zeros")
        assert set(d) == {
            "experiment",
            "params",
            "n_samples",
            "excluded",
            "mean",
            "stderr",
            "target_num",
            "target_den",
            "pass",
        }
        assert d["params"]["target"] == {
            "num": rep.target.numerator,
            "den": rep.target.denominator,
        }

    def test_workers_split_is_deterministic(self):
        """Every igf experiment gives the same report for 1, 2 and 3 workers."""
        for experiment, run in WORKER_EXPERIMENTS.items():
            reports = [
                run(McConfig(samples=120, seed=77, workers=w)).as_report_dict(experiment)
                for w in (1, 2, 3)
            ]
            assert reports[0]["n_samples"] + reports[0]["excluded"] == 120
            assert reports[1] == reports[0] and reports[2] == reports[0], experiment


# The mc-zeros benchmark cells (model, d, p, region) and the two curve cells
# of mc-haar at p = 3, each with 200 samples and its own seed. The pins are
# byte-for-byte outputs of the estimators: a kernel rewrite that changes any
# digit of any report fails here.
PINNED_ZEROS_CELLS = (
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
PINNED_CURVE_CELLS = ((CURVE_STANDARD, 2), (CURVE_MAHLER, 3))
# (mean, stderr) of each cell, in the order above; every cell has 200
# samples, none excluded, and passes
PINNED_MEANS = (
    ("0.96", "0.0708313873021"),
    ("0.975", "0.0659059402848"),
    ("0.94", "0.0636573743296"),
    ("1.055", "0.0695272984239"),
    ("2.16", "0.0831055513387"),
    ("2.305", "0.102284827466"),
    ("2.73", "0.103387352822"),
    ("0.055", "0.016161092306"),
    ("2.565", "0.114868834965"),
    ("1.11", "0.0704579421218"),
    ("2.22", "0.0848172732953"),
)
# BLAKE2b-128 of the eleven report dicts, JSON with sorted keys
PINNED_DIGEST = "3d2b26b68c7590692a7511d671473629"

# (x, y, h, ball_x, ball_y) of mc_linear_lemma: two lines of P^2 with balls
# of radius 1/p, the same lines whole, and two planes of P^3 cut by a
# hyperplane H, with a ball on the first plane only
PINNED_LEMMA_CASES = {
    "balls": (X_LINE, Y_LINE, None, 1, 1),
    "lines": (X_LINE, Y_LINE, None, 0, 0),
    "h3": (
        LinearSubspace(3, [(0, 1, 0, 0)]),
        LinearSubspace(3, [(0, 0, 1, 0)]),
        LinearSubspace(3, [(1, 1, 1, 1)]),
        1,
        0,
    ),
}
PINNED_LEMMA_CELLS = tuple((p, case) for p in (2, 3) for case in ("balls", "lines", "h3"))
PINNED_LEMMA_MEANS = (
    ("0.1", "0.0212664361503"),
    ("1", "0"),
    ("0.16", "0.0259880142455"),
    ("0.085", "0.0197693992253"),
    ("1", "0"),
    ("0.075", "0.0186713173197"),
)
# BLAKE2b-128 of the six report dicts, JSON with sorted keys
PINNED_LEMMA_DIGEST = "27c0be9de30737b5a57cb5423d2b93bb"


class TestPinnedReports:
    def test_reports_are_byte_identical(self):
        reports = [
            mc_expected_zeros(
                RandomPolyModel(model, d, p),
                region,
                McConfig(samples=200, seed=100 + i, workers=2),
            ).as_report_dict("expected-zeros")
            for i, (model, d, p, region) in enumerate(PINNED_ZEROS_CELLS)
        ]
        reports += [
            mc_igf_curve(3, curve, d, McConfig(samples=200, seed=200 + i)).as_report_dict(
                "igf-curve"
            )
            for i, (curve, d) in enumerate(PINNED_CURVE_CELLS)
        ]
        got = [(r["mean"], r["stderr"]) for r in reports]
        assert got == list(PINNED_MEANS)
        assert all(
            (r["n_samples"], r["excluded"], r["pass"]) == (200, 0, True) for r in reports
        )
        blob = json.dumps(reports, sort_keys=True).encode()
        assert hashlib.blake2b(blob, digest_size=16).hexdigest() == PINNED_DIGEST

    def test_linear_lemma_reports_are_byte_identical(self):
        reports = []
        for i, (p, case) in enumerate(PINNED_LEMMA_CELLS):
            x, y, h, ball_x, ball_y = PINNED_LEMMA_CASES[case]
            rep = mc_linear_lemma(p, x, y, h, ball_x, ball_y, McConfig(samples=200, seed=300 + i))
            reports.append(rep.as_report_dict("linear-lemma"))
        got = [(r["mean"], r["stderr"]) for r in reports]
        assert got == list(PINNED_LEMMA_MEANS)
        assert all(
            (r["n_samples"], r["excluded"], r["pass"]) == (200, 0, True) for r in reports
        )
        blob = json.dumps(reports, sort_keys=True).encode()
        assert hashlib.blake2b(blob, digest_size=16).hexdigest() == PINNED_LEMMA_DIGEST


class TestDensity:
    def test_monomial_uniform(self):
        rep = density_uniformity_test(
            RandomPolyModel("monomial", 3, 3), McConfig(samples=2500, seed=11)
        )
        assert not rep.rejects_uniformity()

    def test_mahler_concentrates(self):
        rep = density_uniformity_test(
            RandomPolyModel("mahler", 3, 3), McConfig(samples=2500, seed=12)
        )
        assert rep.rejects_uniformity()
        assert rep.bins[-1] < min(rep.bins[:-1])  # infinity class is starved


def _tally(counts, target):
    """The report of an estimator whose samples count ``counts``, in order."""
    it = iter(counts)
    cfg = McConfig(samples=len(counts))
    return igf._run_estimator("stub", lambda stream: next(it), target, cfg, {})


class TestExactGate:
    """McReport.passed decides |mean - target| <= 4 stderr in exact rationals."""

    @pytest.mark.parametrize(
        "counts,target,exact",
        [
            # exactly 4 stderr off: in floats 0.8 > 4 * 0.19999999999999998
            ((1, 1, 1, 1, 0), Fraction(0), True),
            # just over 4 stderr off: float(target) rounds onto the boundary
            ((1, 0), Fraction(5, 2) + Fraction(1, 10**20), False),
            # no spread: the mean must be the target, which rounds to it in floats
            ((2, 2, 2), Fraction(2) + Fraction(1, 10**20), False),
        ],
    )
    def test_a_boundary_case_is_decided_exactly(self, counts, target, exact):
        rep = _tally(counts, target)
        assert (rep.n_samples, rep.sum_x, rep.sum_x2) == (
            len(counts),
            sum(counts),
            sum(c * c for c in counts),
        )
        assert rep.passed is exact
        floats = rep.mean == float(target) if rep.stderr == 0 else (
            abs(rep.mean - float(target)) <= 4 * rep.stderr
        )
        assert floats is not exact

    def test_one_sample_or_none(self):
        assert _tally((3,), Fraction(3)).passed
        assert not _tally((3,), Fraction(2)).passed
        assert not McReport("stub", 0, float("nan"), 0.0, Fraction(0), 4, 0, 0).passed


class TestExcludedSamples:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_capped_samples_are_excluded_and_tallied(self, monkeypatch, workers):
        """Every third certification hits the cap: both estimators that
        certify through adaptive_count exclude the same samples."""
        count = igf.adaptive_count

        def capped_every_third():
            calls = itertools.count(1)

            def adaptive_count(*args, **kwargs):
                if next(calls) % 3 == 0:
                    raise CertificationCapExceeded("precision cap")
                return count(*args, **kwargs)

            return adaptive_count

        model = RandomPolyModel("monomial", 3, 3)
        cfg = McConfig(samples=31, seed=5, workers=workers)
        monkeypatch.setattr(igf, "adaptive_count", capped_every_third())
        zeros = mc_expected_zeros(model, "p1", cfg)
        monkeypatch.setattr(igf, "adaptive_count", capped_every_third())
        density = density_uniformity_test(model, cfg)
        assert zeros.excluded == density.excluded == 10
        for rep in (zeros, density):
            assert rep.n_samples + rep.excluded == cfg.samples


class TestTransformForm:
    def test_swap_variables(self):
        form = [1, 2, 3]
        swapped = transform_form(form, [[0, 1], [1, 0]])
        assert swapped == [3, 2, 1]

    def test_root_moves_with_substitution(self):
        from padicgeo.roots import count_roots_p1

        form = [1, 0, -1]  # x0^2 - x1^2
        g = [[1, 1], [0, 1]]
        moved = transform_form(form, g)
        assert count_roots_p1(5, moved).count == count_roots_p1(5, form).count
