"""Certified point counting, volumes, stabilization, degree bounds."""

import time
from fractions import Fraction

import pytest

from padicgeo.countvol import (
    AlgebraicSet,
    CountConfig,
    HomogPoly,
    _LiftingTree,
    build_tree,
    check_degree_bound,
    count_points_mod,
    estimate_volume,
    parse_poly,
)
from padicgeo.errors import BudgetExceeded, NotStabilized
from padicgeo.proj import enumerate_proj, proj_space_count, volume_proj_space
from padicgeo.roots import count_roots_p1
from padicgeo.zp import INF

CONIC = AlgebraicSet.from_strings(2, ["x0*x2 - x1^2"], dim=1, degree=2)
LINE = AlgebraicSet.from_strings(2, ["x2"], dim=1, degree=1)
TWO_LINES = AlgebraicSet.from_strings(2, ["x0*x1"], dim=1, degree=2)
TWO_POINTS = AlgebraicSet.from_strings(2, ["x2", "x0*x1"], dim=0, degree=2)
NODAL_CUBIC = AlgebraicSet.from_strings(
    2, ["x2*x1^2 - x0^3 - x0^2*x2"], dim=1, degree=3
)
CUSP = AlgebraicSet.from_strings(2, ["x1^2*x2 - x0^3"], dim=1, degree=3)
# (generator, ascending coefficients, prime) of binary forms on P^1
BINARY_FORMS = [
    ("x0^2 - x1^2", [1, 0, -1], 5),
    ("x0*x1", [0, 1, 0], 3),
    ("x0^2 - 6*x0*x1 - 27*x1^2", [1, -6, -27], 3),
    ("x0^3 - x0*x1^2", [1, 0, -1, 0], 5),
]


def _unresolved_below(tree, m):
    """Is any class at level <= m still of unknown content?"""
    stack = list(tree.levels[1].values())
    while stack:
        node = stack.pop()
        if not node.alive or node.settled:
            continue
        if node.root_w == INF:
            return True
        if node.level < m:
            stack.extend(node.children)
    return False


def _full_build(xset, p, level, config=None):
    """Reference lifting: grow the whole tree one level at a time until no
    class at level <= ``level`` is of unknown content, at most
    ``extra_levels`` levels past ``level``."""
    cfg = config or CountConfig()
    tree = _LiftingTree(xset, p, cfg)
    while tree.depth < level:
        tree.expand()
    extra = 0
    while _unresolved_below(tree, level) and extra < cfg.extra_levels:
        tree.expand()
        extra += 1
    return tree


def _assert_state_is_current(tree):
    """Recompute, in post-order from each node's w and level and the set's
    codimension alone, the least certificate valuation in every subtree and
    whether each class is alive, and compare with the tree's own fields."""
    certifies = len(tree.x.generators) == tree.x.codim
    least_here = {}  # id(node) -> least valuation of a certificate for it

    def visit(node, path):
        path = path + [node]
        w, level = node.w, node.level
        if certifies and w != INF and 2 * w < level:
            target = id(path[max(1, level - w) - 1])
            least_here[target] = min(least_here.get(target, INF), w)
        least, live = INF, False
        for child in node.children or ():
            child_least, child_live = visit(child, path)
            least, live = min(least, child_least), live or child_live
        least = min(least, least_here.get(id(node), INF))
        live = node.children is None or level >= 2 * least or live
        assert (node.root_w, node.alive) == (least, live), (node.coords, level)
        return least, live

    for node in tree.levels[1].values():
        visit(node, [])


def enumeration_oracle(xset, p, m):
    """Count level-m classes where all generators vanish, by enumeration.

    For sets smooth mod p this equals N_m(X); it is how the small conic
    counts were derived.
    """
    count = 0
    for pt in enumerate_proj(p, xset.ambient, m):
        if all(g.eval_at(pt.coords) % p**m == 0 for g in xset.generators):
            count += 1
    return count


class TestParsing:
    def test_round_trip_terms(self):
        poly = parse_poly("x0*x2 - x1^2", 3)
        assert poly.eval_at((2, 3, 5)) == 2 * 5 - 9

    def test_coefficients_and_powers(self):
        poly = parse_poly("3*x0^2*x1 + -2*x2^3", 3)
        assert poly.eval_at((1, 1, 1)) == 1

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            parse_poly("x0 + x1^2", 2)

    def test_rejects_bad_variable(self):
        with pytest.raises(ValueError):
            parse_poly("x5", 2)

    def test_gradient(self):
        poly = parse_poly("x0*x2 - x1^2", 3)
        gx = poly.gradient()
        assert gx[0].eval_at((1, 2, 3)) == 3
        assert gx[1].eval_at((1, 2, 3)) == -4
        assert gx[2].eval_at((1, 2, 3)) == 1

    def test_rejects_a_zero_generator(self):
        with pytest.raises(ValueError, match="nonzero"):
            AlgebraicSet.from_strings(2, ["0", "x2"], dim=1)
        with pytest.raises(ValueError, match="nonzero"):
            AlgebraicSet.from_strings(2, ["x0 - x0"], dim=1)
        with pytest.raises(ValueError, match="at least one"):
            AlgebraicSet(2, (), dim=1)


class TestConicCounts:
    def test_exact_counts_with_runtime(self):
        t0 = time.time()
        expected = {1: 4, 2: 12, 3: 36}
        for m, n in expected.items():
            res = count_points_mod(CONIC, 3, m)
            assert (res.n_lo, res.n_hi) == (n, n)
            assert res.unknown_classes == 0
        est = estimate_volume(CONIC, 3, 3)
        assert est.value == Fraction(4, 3)
        assert est.stabilization_level == 1
        assert time.time() - t0 < 1.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_against_enumeration_oracle(self, m):
        assert enumeration_oracle(CONIC, 3, m) == count_points_mod(CONIC, 3, m).n_lo

    def test_certified_classes_carry_unit_jacobian(self):
        res = count_points_mod(CONIC, 3, 1)
        assert len(res.certified_classes) == 4
        assert all(w == 0 for _, w in res.certified_classes)


class TestSimpleSets:
    def test_two_coordinate_points(self):
        for m in (1, 2, 4):
            res = count_points_mod(TWO_POINTS, 5, m)
            assert (res.n_lo, res.n_hi) == (2, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_linear_subspace_volume(self, p):
        est = estimate_volume(LINE, p, 2)
        assert est.value == volume_proj_space(p, 1)
        assert est.stabilization_level == 1

    def test_point_volume(self):
        point = AlgebraicSet.from_strings(2, ["x1", "x2"], dim=0, degree=1)
        assert estimate_volume(point, 7, 2).value == 1


class TestStabilization:
    def test_three_level_tower(self):
        est = estimate_volume(CONIC, 3, 4)
        lows = [lo for _, lo, _ in est.sequence]
        assert lows == [4, 12, 36, 108]  # exactly p^k per level from m0 = 1

    def test_deep_root_pair_stabilizes_late(self):
        x = AlgebraicSet.from_strings(1, ["x0^2 - 6*x0*x1 - 27*x1^2"], dim=0, degree=2)
        est = estimate_volume(x, 3, 4)
        assert est.stabilization_level == 2
        assert est.value == 2

    def test_two_lines_do_not_stabilize(self):
        with pytest.raises(NotStabilized) as exc:
            estimate_volume(TWO_LINES, 3, 3)
        seq = exc.value.estimate.sequence
        assert seq == [(1, 7, 7), (2, 23, 23), (3, 71, 71)]
        # N_m = 2(p^m + p^{m-1}) - 1: approaches 2 vol(P^1) from below
        hi = exc.value.estimate.interval[1]
        assert abs(hi - 2 * volume_proj_space(3, 1)) < Fraction(1, 9)

    def test_certified_children_law_unpruned(self):
        # the tree does not grow settled classes; growing them by hand, every
        # certified class has p^k = 3 certified children
        tree = build_tree(CONIC, 3, 3)
        for lv in (1, 2):
            for node in tree.levels[lv].values():
                if node.settled and node.children is None:
                    tree._grow(node)
                if node.root_w != INF:
                    assert sum(1 for c in node.children if c.root_w != INF) == 3
        assert [len(tree.levels[lv]) for lv in (1, 2, 3)] == [4, 12, 36]


class TestRootsModuleAgreement:
    @pytest.mark.parametrize("gen,form,p", BINARY_FORMS)
    def test_binary_form_counts(self, gen, form, p):
        x = AlgebraicSet.from_strings(1, [gen], dim=0, degree=len(form) - 1)
        est = estimate_volume(x, p, 4)
        assert est.value == count_roots_p1(p, form).count


class TestDegreeBound:
    @pytest.mark.parametrize("p", [3, 5])
    def test_conic(self, p):
        est = estimate_volume(CONIC, p, 2)
        rep = check_degree_bound(CONIC, est)
        assert rep.normalized_ok and rep.raw_ok
        assert rep.normalized_ratio == 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_line_raw_fails_normalized_passes(self, p):
        est = estimate_volume(LINE, p, 2)
        rep = check_degree_bound(LINE, est)
        assert not rep.raw_ok  # vol(P^1) = 1 + 1/p > 1
        assert rep.normalized_ok and rep.normalized_ratio == 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_two_lines(self, p):
        with pytest.raises(NotStabilized) as exc:
            estimate_volume(TWO_LINES, p, 3)
        rep = check_degree_bound(TWO_LINES, exc.value.estimate)
        assert rep.normalized_ok
        assert rep.normalized_ratio <= 2


class TestSmoothLocus:
    def test_nodal_cubic_interval_converges(self):
        # frozen from the shell structure of the node: N_m = 6 * 5^(m-1) - 1
        with pytest.raises(NotStabilized) as exc:
            estimate_volume(NODAL_CUBIC, 5, 2, CountConfig(extra_levels=4))
        assert exc.value.estimate.sequence == [(1, 5, 5), (2, 29, 29)]
        limit = Fraction(6, 5)
        full = [Fraction(lo, 5**m) for m, lo, _ in exc.value.estimate.sequence]
        assert abs(full[1] - limit) < abs(full[0] - limit)

    @pytest.mark.slow
    def test_nodal_cubic_level_three(self):
        with pytest.raises(NotStabilized) as exc:
            estimate_volume(NODAL_CUBIC, 5, 3, CountConfig(extra_levels=5))
        assert exc.value.estimate.sequence[-1] == (3, 149, 149)


SINGULAR = {"two-lines": TWO_LINES, "nodal": NODAL_CUBIC, "cusp": CUSP}
GATE_SETS = {
    "conic": CONIC,
    "line": LINE,
    **SINGULAR,
    "two-points": TWO_POINTS,
    **{gen: AlgebraicSet.from_strings(1, [gen], dim=0) for gen, _, _ in BINARY_FORMS},
}


class TestDemandDrivenLifting:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", list(GATE_SETS))
    def test_matches_the_full_build(self, name, p):
        xset = GATE_SETS[name]
        top = 2 if name in SINGULAR and p == 5 else 3
        # the full cusp tree at p >= 3 runs into 10^5-10^6 nodes before the
        # default cap; a lower cap keeps the reference cheap and still leaves
        # classes unknown at the cap
        cfg = CountConfig(extra_levels=3) if xset is CUSP and p > 2 else CountConfig()
        for m in range(1, top + 1):
            tree, ref = build_tree(xset, p, m, cfg), _full_build(xset, p, m, cfg)
            for level in range(1, m + 1):
                assert tree.count(level) == ref.count(level)
                assert tree.stabilized_at(level) == ref.stabilized_at(level)

    @pytest.mark.parametrize(
        "name,p,built,read", [("two-lines", 3, 1, 3), ("two-lines", 3, 2, 3), ("nodal", 3, 2, 4)]
    )
    def test_levels_only_searched_cannot_be_read(self, name, p, built, read):
        # the search grew some classes to ``read``, but not every class
        tree = build_tree(GATE_SETS[name], p, built)
        assert tree.depth >= read
        with pytest.raises(ValueError):
            tree.count(read)
        with pytest.raises(ValueError):
            tree.stabilized_at(read)
        assert tree.count(built) == _full_build(GATE_SETS[name], p, built).count(built)

    def test_node_counts(self):
        assert build_tree(TWO_LINES, 5, 3).node_count < 2_000
        assert build_tree(NODAL_CUBIC, 3, 3).node_count < 1_000

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", list(GATE_SETS))
    def test_state_matches_a_recomputation(self, name, p):
        # the cases of test_matches_the_full_build
        xset = GATE_SETS[name]
        top = 2 if name in SINGULAR and p == 5 else 3
        cfg = CountConfig(extra_levels=3) if xset is CUSP and p > 2 else CountConfig()
        for m in range(1, top + 1):
            _assert_state_is_current(build_tree(xset, p, m, cfg))

    @pytest.mark.parametrize(
        "name,p,level,nodes",
        [
            ("conic", 2, 3, 3),
            ("conic", 3, 3, 4),
            ("conic", 5, 3, 6),
            ("line", 2, 3, 3),
            ("line", 3, 3, 4),
            ("line", 5, 3, 6),
            ("two-lines", 2, 3, 57),
            ("two-lines", 3, 3, 205),
            ("two-lines", 5, 2, 311),
            ("nodal", 3, 3, 471),
            ("nodal", 5, 2, 430),
        ],
    )
    def test_benchmark_fixture_node_counts(self, name, p, level, nodes):
        assert build_tree(GATE_SETS[name], p, level).node_count == nodes


def _frozen_count(name, p, m):
    """N_m where its closed form is frozen, else None."""
    if name == "two-lines":
        return 2 * (p**m + p ** (m - 1)) - 1
    if name == "nodal" and p == 3:
        return 4 * 3 ** (m - 1) - 1
    return None


class TestOesterleBound:
    @pytest.mark.parametrize(
        "name,p",
        [("two-lines", 2), ("two-lines", 3), ("two-lines", 5), ("nodal", 2), ("nodal", 3), ("cusp", 2)],
    )
    def test_counts_stay_below_degree_times_projective_count(self, name, p):
        xset = SINGULAR[name]
        tree = build_tree(xset, p, 4)
        for m in range(1, 5):
            res = tree.count(m)
            assert res.n_hi <= xset.degree * proj_space_count(p, xset.dim, m)
            n = _frozen_count(name, p, m)
            if n is not None:
                assert (res.n_lo, res.n_hi) == (n, n)


class TestBudgets:
    def test_class_budget(self):
        with pytest.raises(BudgetExceeded):
            count_points_mod(CONIC, 3, 3, CountConfig(class_budget=5))

    def test_search_fits_where_the_full_tree_does_not(self):
        tacnode = AlgebraicSet.from_strings(2, ["x1^2*x2^2 - x0^4"], dim=1)
        cfg = CountConfig(class_budget=1_000)
        with pytest.raises(BudgetExceeded):
            _full_build(tacnode, 2, 2, cfg)
        assert build_tree(tacnode, 2, 2, cfg).count(2) == _full_build(tacnode, 2, 2).count(2)

    def test_homogpoly_validation(self):
        with pytest.raises(ValueError):
            HomogPoly.from_dict(3, {(1, 0, 0): 1, (2, 0, 0): 1})
