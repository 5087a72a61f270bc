"""Certified point counts N_m(X) for projective algebraic sets and volumes.

Classes of P^n(Z/p^m) are grown level by level up to the requested level m:
a class survives only while every generator vanishes at the class modulus
(necessary to meet X). A class is CONFIRMED to contain a point of X once
some surviving descendant at level l' has a Jacobian minor of valuation w
with 2w < l' and l' >= m + w; the quantitative lifting lemma then places an
actual zero inside the level-m ball.

Below level m the tree is grown only on demand: each level-m class still of
unknown content is searched best-first for its first certifying descendant,
at most ``extra_levels`` levels deeper. A descendant's centre agrees with its
ancestor's centre mod p^level, so its Jacobian valuation is at least
min(w, level) of the ancestor; on that key the first certifying node popped
has the least valuation in the subtree, which is the root_w that growing the
whole subtree would record. A class whose subtree dies within the cap is
certified empty; one that can no longer be certified within the cap but
survives to it contributes [0, 1] to the reported interval.

Once every surviving class at a level m0 is confirmed with margin
m0 >= 2w, the count grows exactly by p^k per level and the volume
N_{m0} / p^{m0 k} is exact.

The tree keeps its state current as it grows: a certificate lowers the
least valuation recorded on its class and on every ancestor when it is
found, and a grown class left with no live child dies, with each ancestor
it leaves childless, so counts can be read at any point.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceeded, DimensionMismatch, NotStabilized
from .linalg import minor_valuation
from .proj import ResidueProjPoint, proj_space_count, volume_proj_space
from .zp import INF


@dataclass(frozen=True)
class HomogPoly:
    """A homogeneous integer polynomial, stored as sorted (exponents, coeff)."""

    nvars: int
    terms: tuple

    @classmethod
    def from_dict(cls, nvars: int, coeffs: dict) -> "HomogPoly":
        terms = tuple(
            sorted((tuple(e), int(c)) for e, c in coeffs.items() if c != 0)
        )
        poly = cls(nvars, terms)
        degs = {sum(e) for e, _ in terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        for e, _ in terms:
            if len(e) != nvars:
                raise ValueError("exponent arity mismatch")
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def eval_at(self, point) -> int:
        total = 0
        for exps, c in self.terms:
            val = c
            for x, e in zip(point, exps):
                if e:
                    val *= x**e
            total += val
        return total

    def gradient(self):
        outs = []
        for i in range(self.nvars):
            d = {}
            for exps, c in self.terms:
                if exps[i] == 0:
                    continue
                e2 = list(exps)
                e2[i] -= 1
                e2 = tuple(e2)
                d[e2] = d.get(e2, 0) + c * exps[i]
            outs.append(HomogPoly.from_dict(self.nvars, d))
        return outs

    def primitive(self) -> "HomogPoly":
        import math

        g = math.gcd(*[abs(c) for _, c in self.terms] or [1])
        if g <= 1:
            return self
        return HomogPoly(self.nvars, tuple((e, c // g) for e, c in self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self.terms:
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")


_TERM_RE = re.compile(r"^\s*([+-]?\d*)\s*\*?\s*((?:x\d+(?:\^\d+)?\s*\*?\s*)*)$")


def parse_poly(text: str, nvars: int) -> HomogPoly:
    """Parse 'x0*x2 - x1^2' style strings into a homogeneous polynomial."""
    text = "".join(text.split()).replace("**", "^").replace("-", "+-")
    coeffs = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff_text, monos = m.groups()
        coeff = int(coeff_text) if coeff_text not in ("", "+", "-") else int(coeff_text + "1")
        exps = [0] * nvars
        for var in re.findall(r"x(\d+)(?:\^(\d+))?", monos):
            idx = int(var[0])
            if idx >= nvars:
                raise ValueError(f"variable x{idx} outside ambient dimension")
            exps[idx] += int(var[1]) if var[1] else 1
        key = tuple(exps)
        coeffs[key] = coeffs.get(key, 0) + coeff
    return HomogPoly.from_dict(nvars, coeffs)


@dataclass(frozen=True)
class AlgebraicSet:
    """A projective set in P^n cut out by homogeneous integer generators."""

    ambient: int
    generators: tuple
    dim: int
    degree: int | None = None

    def __post_init__(self):
        gens = tuple(g.primitive() for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("need at least one generator")
        if any(g.is_zero for g in gens):
            raise ValueError("generators must be nonzero")
        for g in gens:
            if g.nvars != self.ambient + 1:
                raise ValueError("generator arity must be ambient + 1")
        if not 0 <= self.dim < self.ambient:
            raise ValueError("dimension must satisfy 0 <= k < n")

    @classmethod
    def from_strings(cls, ambient: int, gen_texts, dim: int, degree=None):
        gens = tuple(parse_poly(t, ambient + 1) for t in gen_texts)
        return cls(ambient, gens, dim, degree)

    @property
    def codim(self) -> int:
        return self.ambient - self.dim


@dataclass
class CountConfig:
    class_budget: int = 10**7
    extra_levels: int = 8


@dataclass
class CountResult:
    level: int
    n_lo: int
    n_hi: int
    certified_classes: list = field(default_factory=list)
    unknown_classes: int = 0

    @property
    def exact(self) -> bool:
        return self.n_lo == self.n_hi


@dataclass
class VolumeEstimate:
    value: Fraction | None
    interval: tuple
    stabilization_level: int | None
    dim: int
    prime: int
    counts: list  # the CountResult of each level 1..max

    @property
    def sequence(self) -> list:
        """(m, N_lo, N_hi) triples, one per level."""
        return [(c.level, c.n_lo, c.n_hi) for c in self.counts]


class _Node:
    """A class of the lifting tree. ``children`` is None until the class is
    grown; ``root_w`` is the least valuation of a certificate in its subtree
    (INF: no zero found yet); a class is dead once it is grown, not settled
    and has no live child."""

    __slots__ = ("coords", "level", "lead", "w", "parent", "children", "root_w", "alive")

    def __init__(self, coords, level, lead, w, parent):
        self.coords = coords
        self.level = level
        self.lead = lead
        self.w = w
        self.parent = parent
        self.children = None
        self.root_w = INF
        self.alive = True

    @property
    def settled(self) -> bool:
        """Contains a zero and sits past the stability threshold: below this
        class the count grows exactly by p^k per level."""
        return self.level >= 2 * self.root_w


class _LiftingTree:
    """Lifting of P^n(F_p) classes along the generators: level by level up
    to the requested level, on demand below it (see ``resolve``)."""

    def __init__(self, xset: AlgebraicSet, p: int, config: CountConfig):
        self.x = xset
        self.p = p
        self.cfg = config
        self.n = xset.ambient
        self.r = xset.codim
        self.gens = xset.generators
        self.grads = [g.gradient() for g in self.gens]
        self.levels = [None, {}]  # levels[m]: dict coords -> _Node
        self.expanded = 1  # every class at a level <= this one is grown whole
        self.node_count = 0
        if proj_space_count(p, self.n, 1) > config.class_budget:
            raise BudgetExceeded("level-1 enumeration exceeds the class budget")
        from .proj import enumerate_proj

        for pt in enumerate_proj(p, self.n, 1):
            if self._vanishes(pt.coords, 1):
                lead = next(i for i, c in enumerate(pt.coords) if c % p != 0)
                self._add_node(pt.coords, 1, lead, None)

    def _vanishes(self, coords, level) -> bool:
        q = self.p**level
        return all(g.eval_at(coords) % q == 0 for g in self.gens)

    def _jacobian_valuation(self, coords):
        """min valuation over r x r minors of the Jacobian at the center."""
        rows = [[gp.eval_at(coords) for gp in grad] for grad in self.grads]
        return minor_valuation(rows, self.r, self.p)

    def _root_target(self, node):
        """Level of the ancestor in which ``node`` certifies a zero, or None.

        A surviving class whose Jacobian valuation w satisfies 2w < level
        pins a zero of X within p^-(level - w) of its center."""
        w = node.w
        if w != INF and 2 * w < node.level and len(self.gens) == self.r:
            return max(1, node.level - int(w))
        return None

    def _add_node(self, coords, level, lead, parent):
        if self.node_count >= self.cfg.class_budget:
            raise BudgetExceeded("class budget exhausted during lifting")
        w = self._jacobian_valuation(coords)
        node = _Node(coords, level, lead, w, parent)
        self.levels[level][coords] = node
        self.node_count += 1
        if parent is not None:
            parent.children.append(node)
        target = self._root_target(node)
        if target is not None:
            anc = node
            while anc.level > target:
                anc = anc.parent
            # root_w is a subtree minimum: past the first ancestor already at
            # or below w, every one above is too
            while anc is not None and anc.root_w > w:
                anc.root_w = w
                anc = anc.parent
        return node

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def _grow(self, node):
        """Add the classes one level below ``node`` on which X may lie."""
        p, level = self.p, node.level
        if len(self.levels) == level + 1:
            self.levels.append({})
        node.children = []
        step = p**level
        free = [i for i in range(self.n + 1) if i != node.lead]
        for digits in itertools.product(range(p), repeat=self.n):
            coords = list(node.coords)
            for i, d in zip(free, digits):
                coords[i] += step * d
            coords = tuple(coords)
            if self._vanishes(coords, level + 1):
                self._add_node(coords, level + 1, node.lead, node)
        # nothing below a dead class is left to certify it, so it stays dead
        while node and not node.settled and not any(c.alive for c in node.children):
            node.alive = False
            node = node.parent

    def expand(self):
        """Grow the tree one level deeper; settled classes are not grown
        since their counts below are already exact (p^k children per level)."""
        level = self.depth
        self.levels.append({})
        for node in self.levels[level].values():
            if not node.settled:
                self._grow(node)
        self.expanded = level + 1

    def resolve(self, cls, cap: int):
        """Search below the class ``cls`` for its first certifying descendant.

        Best-first on (min(w, level), deeper first): min(w, level) bounds the
        Jacobian valuation of every descendant, so the first certifying node
        popped has the least valuation below ``cls``. Once the least key k
        can certify only at a level max(2k + 1, m + k) beyond ``cap``, with m
        the level of ``cls``, the class stays unknown if some descendant
        reaches ``cap`` and is empty otherwise, so the rest of the search
        only looks for such a path."""
        m = cls.level
        order = itertools.count()
        heap = [(0, 0, next(order), cls)]
        while heap:
            key, _, _, node = heapq.heappop(heap)
            if max(2 * key + 1, m + key) > cap:
                self._reach([node] + [entry[-1] for entry in heap], cap)
                return
            target = self._root_target(node)
            if target is not None and target >= m:
                return
            if node.level < cap:
                self._grow(node)
                for child in node.children:
                    entry = (min(child.w, child.level), -child.level, next(order), child)
                    heapq.heappush(heap, entry)

    def _reach(self, stack, cap: int):
        """Grow depth-first from ``stack`` until some node reaches ``cap``.

        Certificates for classes above the searched one come only from
        subtrees of one Jacobian valuation w, where a node's target level
        L - w depends on its level alone, so one path to ``cap`` hands out
        the same ones as the whole subtree."""
        while stack:
            node = stack.pop()
            if node.level >= cap:
                return
            self._grow(node)
            stack.extend(node.children)

    def _walk(self, m: int):
        """Yield ("settled", node) for maximal settled classes at level <= m
        and ("class", node) for the remaining classes at exactly level m."""
        stack = list(self.levels[1].values())
        while stack:
            node = stack.pop()
            if not node.alive:
                continue
            if node.settled:
                yield "settled", node
            elif node.level == m:
                yield "class", node
            elif node.level < m:
                stack.extend(node.children)

    def _check_level(self, m: int) -> None:
        """Levels past ``expanded`` were only searched, never grown whole."""
        if m > self.expanded:
            raise ValueError(f"tree expanded only to level {self.expanded}, not {m}")

    def count(self, m: int) -> CountResult:
        self._check_level(m)
        k = self.x.dim
        certified = []
        unknown = 0
        lo = 0
        for kind, node in self._walk(m):
            if kind == "settled":
                lo += self.p ** ((m - node.level) * k)
                if node.level == m:
                    certified.append(
                        (ResidueProjPoint(self.p, m, node.coords), node.root_w)
                    )
            elif node.root_w != INF:
                lo += 1
                certified.append(
                    (ResidueProjPoint(self.p, m, node.coords), node.root_w)
                )
            else:
                unknown += 1
        return CountResult(m, lo, lo + unknown, certified, unknown)

    def stabilized_at(self, m: int) -> bool:
        """Every surviving level-m class is certified with margin m >= 2w."""
        self._check_level(m)
        for kind, node in self._walk(m):
            if kind == "class" and m < 2 * node.root_w:
                return False
        return True


def build_tree(xset: AlgebraicSet, p: int, level: int, config: CountConfig | None = None) -> _LiftingTree:
    """Lift every class to ``level``, then search below each class of unknown
    content for a certificate, at most ``extra_levels`` levels deeper."""
    cfg = config or CountConfig()
    tree = _LiftingTree(xset, p, cfg)
    while tree.depth < level:
        tree.expand()
    unresolved = [n for kind, n in tree._walk(level) if kind == "class" and n.root_w == INF]
    for cls in unresolved:
        tree.resolve(cls, level + cfg.extra_levels)
    return tree


def count_points_mod(
    xset: AlgebraicSet, p: int, m: int, config: CountConfig | None = None
) -> CountResult:
    """Certified interval for N_m(X), with per-class certificates."""
    tree = build_tree(xset, p, m, config)
    return tree.count(m)


def estimate_volume(
    xset: AlgebraicSet, p: int, max_level: int, config: CountConfig | None = None
) -> VolumeEstimate:
    """The sequence N_m / p^{mk} and its exact stabilized value if reached."""
    cfg = config or CountConfig()
    k = xset.dim
    tree = build_tree(xset, p, max_level, cfg)
    seq = [tree.count(m) for m in range(1, max_level + 1)]
    m0 = None
    for c in seq:
        if c.exact and tree.stabilized_at(c.level):
            m0 = c.level
            break
    if m0 is None:
        last = seq[-1]
        scale = Fraction(1, p ** (max_level * k))
        interval = (last.n_lo * scale, last.n_hi * scale)
        raise NotStabilized(
            f"counts not stabilized by level {max_level}",
            estimate=VolumeEstimate(None, interval, None, k, p, seq),
        )
    base = seq[m0 - 1]
    # the tower law must hold exactly on every deeper computed level
    for c in seq[m0 - 1 :]:
        if not c.exact or c.n_lo != base.n_lo * p ** ((c.level - m0) * k):
            raise DimensionMismatch(
                f"level {c.level} count {c.n_lo} breaks the p^k tower from "
                f"level {m0}; claimed dimension {k} looks wrong"
            )
    value = Fraction(base.n_lo, p ** (m0 * k))
    return VolumeEstimate(value, (value, value), m0, k, p, seq)


@dataclass
class DegreeBoundReport:
    volume: Fraction
    degree: int
    normalized_ratio: Fraction
    raw_ok: bool
    normalized_ok: bool
    slack: Fraction


def check_degree_bound(xset: AlgebraicSet, estimate: VolumeEstimate) -> DegreeBoundReport:
    """Check vol_k(Y) <= d, in raw and in vol_k(P^k)-normalized form.

    The normalized ratio vol_k(Y) / vol_k(P^k) is the quantity bounded by the
    degree through the intersection-average identity; the raw inequality is
    reported alongside (it can fail, e.g. for a line, whose volume exceeds 1).
    """
    if xset.degree is None:
        raise ValueError("the set carries no degree")
    vol = estimate.value if estimate.value is not None else estimate.interval[1]
    ratio = vol / volume_proj_space(estimate.prime, xset.dim)
    return DegreeBoundReport(
        volume=vol,
        degree=xset.degree,
        normalized_ratio=ratio,
        raw_ok=vol <= xset.degree,
        normalized_ok=ratio <= xset.degree,
        slack=Fraction(xset.degree) - ratio,
    )
