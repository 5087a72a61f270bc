"""Randomness: determinism, digit extension, uniformity, Haar law."""

import functools
import hashlib
import itertools
import math
import struct

import pytest
from scipy.stats import chi2_contingency, chisquare

from padicgeo import linalg
from padicgeo.roots import count_roots_p1
from padicgeo.sample import (
    HaarMatrix,
    LaneDigits,
    RandomPolyModel,
    Stream,
    _encode_labels,
    check_seed,
    sample_poly,
)


# A base with k = 7 digits per block, so 40 or 64 digits span several blocks.
LARGE_P = 2**61 - 1


def oracle_block(key, counter, p):
    """Block ``counter`` of a key: the keyed BLAKE2b digest of (counter,
    attempt) for the first attempt below the largest multiple of p^k under
    2^512, taken mod p^k."""
    q = p ** digits_per_block(p)
    for attempt in itertools.count():
        block = int.from_bytes(
            hashlib.blake2b(struct.pack("<QQ", counter, attempt), key=key, digest_size=64).digest(),
            "little",
        )
        if block < 2**512 // q * q:
            return block % q


def oracle_entries(key, p, n, m):
    """Entries 0 ... n - 1, mod p^m, of an object keyed by ``key``.

    With s = max(1, k // n) digits per lane, per = k // s lanes per block and
    row = ceil(n / per) blocks per segment, segment t of entry j (its digits
    t*s ... t*s + s - 1) is lane j mod per of block t*row + j // per, and
    lane l of a block is its digits l*s ... l*s + s - 1.
    """
    k = digits_per_block(p)
    s = max(1, k // n)
    per = k // s
    row = -(-n // per)
    out = []
    for j in range(n):
        value = 0
        for t in range(-(-m // s)):
            block = oracle_block(key, t * row + j // per, p)
            value += block // p ** (j % per * s) % p**s * p ** (t * s)
        out.append(value % p**m)
    return out


def lane_digits(p, n):
    """s, the digits per lane of an object with n entries."""
    return max(1, digits_per_block(p) // n)


def reference_haar(stream, p, size, m):
    """(rows mod p^m, rounds) of a Haar draw, round r keyed by
    ``child("haar", r)``, with a Leibniz determinant mod p."""
    r = 0
    while True:
        key = stream.child("haar", r).key
        low = oracle_entries(key, p, size * size, 1)
        det = sum(
            (-1) ** sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
            * math.prod(low[i * size + perm[i]] for i in range(size))
            for perm in itertools.permutations(range(size))
        )
        if det % p:
            flat = oracle_entries(key, p, size * size, m)
            return [flat[i : i + size] for i in range(0, len(flat), size)], r + 1
        r += 1


def brute_force_gl_count(p, size):
    """#GL_size(F_p) by enumerating all matrices (size 2 only)."""
    assert size == 2
    count = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p != 0:
            count += 1
    return count


class TestStream:
    def test_golden_digits(self):
        # frozen output of a digit stream for (seed 42, child "x", p = 3),
        # the same in stream formats 2 and 3;
        # the PRF is keyed BLAKE2b so these values are platform independent
        d = Stream(42).child("x").digits(3)
        assert [d.digit(i) for i in range(10)] == [1, 1, 0, 2, 0, 2, 2, 2, 1, 0]

    def test_golden_residue_across_a_block_boundary(self):
        # 400 base-3 digits span block 0 (digits 0..321) and block 1
        golden = int(
            "122876281200781656984007751977706726034870667597302420137277"
            "818846547018554680559208852602138325945433661780833350950785"
            "408039735791409915738080789618747344958066809121680058482094"
            "20286225115"
        )
        assert Stream(42).child("x").digits(3).residue(400) == golden

    def test_determinism_and_order_independence(self):
        a = Stream(7).child("a").digits(5)
        b = Stream(7).child("a").digits(5)
        out_of_order = [b.digit(i) for i in (4, 0, 3, 1, 2)]
        in_order = [a.digit(i) for i in range(5)]
        assert sorted(zip((4, 0, 3, 1, 2), out_of_order)) == list(enumerate(in_order))

    def test_children_are_independent_streams(self):
        s = Stream(1)
        seqs = {
            tuple(s.child(label).digits(3).residue(10) for _ in (0,))
            for label in ("a", "b", "c", ("a", 1))
        }
        assert len(seqs) == 4

    def test_extension_is_refinement(self):
        d = Stream(3).child("z").digits(2)
        r3 = d.residue(3)
        assert d.residue(5) % 8 == r3
        assert d.residue(20) % 8 == r3

    def test_slash_in_a_label_is_not_a_separator(self):
        assert Stream(1).child("a/b").key != Stream(1).child("a", "b").key

    def test_int_and_str_labels_differ(self):
        assert Stream(1).child(1).key != Stream(1).child("1").key

    def test_tuple_label_differs_from_its_text(self):
        assert Stream(1).child(("a", 1)).key != Stream(1).child("('a', 1)").key

    def test_label_types_stay_strict_after_caching(self):
        class S(str):
            pass

        s = Stream(1)
        first = s.child("a").key, s.child(1).key
        for label in (True, 1.0, S("a")):
            with pytest.raises(TypeError):
                s.child(label)
        assert (s.child("a").key, s.child(1).key) == first

    def test_seed_outside_64_bits_is_rejected(self):
        Stream(0)
        Stream(2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                Stream(seed)

    def test_seed_must_be_an_int(self):
        # True == 1 and 1.0 == 1, but neither may key the stream of seed 1
        for seed in (True, False, 1.0, "1", None):
            with pytest.raises(TypeError):
                Stream(seed)
            with pytest.raises(TypeError):
                check_seed(seed)
        assert check_seed(1) == 1

    def test_label_code_is_concatenative(self):
        labels = ("haar", 0, 1, -2, "", "a/b", ("a", 1), (), (("x",), 3), 2**70)
        for cut in range(len(labels) + 1):
            a, b = labels[:cut], labels[cut:]
            assert _encode_labels(a + b) == _encode_labels(a) + _encode_labels(b)
        for r, i, j in itertools.product(range(3), range(4), range(4)):
            key = Stream(5)._derive(_encode_labels(("haar", r)) + _encode_labels((i, j))).key
            assert key == Stream(5).child("haar", r, i, j).key


@functools.cache
def digits_per_block(p):
    """k, the digits of one block: the largest k with p^(k+1) <= 2^512 (322 at p = 3)."""
    k = 1
    while p ** (k + 2) <= 2**512:
        k += 1
    return k


class TestBlocks:
    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_residue_refines_across_the_block_boundary(self, p):
        k = digits_per_block(p)
        precisions = (1, k - 1, k, k + 1, 2 * k + 3)
        d = Stream(8).child("boundary", p).digits(p)
        values = [d.residue(m) for m in precisions]
        for m, v in zip(precisions, values):
            assert 0 <= v < p**m
            assert values[-1] % p**m == v
        # reading the far side first gives the same digits
        late = Stream(8).child("boundary", p).digits(p)
        assert [late.digit(i) for i in (k, k - 1, 0)] == [d.digit(i) for i in (k, k - 1, 0)]
        assert late.residue(k + 1) == values[3]
        # block 1 is the keyed digest of (1, attempt) for the first attempt
        # below the largest multiple of p^k under 2^512, taken mod p^k
        q = p**k
        key = Stream(8).child("boundary", p).key
        for attempt in itertools.count():
            block = int.from_bytes(
                hashlib.blake2b(struct.pack("<QQ", 1, attempt), key=key, digest_size=64).digest(),
                "little",
            )
            if block < 2**512 // q * q:
                break
        assert values[-1] // q % q == block % q

    def test_digits_on_both_sides_of_the_boundary_are_uniform(self):
        p = 3
        k = digits_per_block(p)
        counts = [0] * (p * p)
        base = Stream(12)
        for i in range(2700):
            d = base.child(i).digits(p)
            counts[d.digit(k - 1) * p + d.digit(k)] += 1
        _, pval = chisquare(counts)
        assert pval > 1e-4


class TestIndexChecks:
    @pytest.mark.parametrize("drawn", (0, 1, 400))
    def test_negative_digit_and_precision_are_rejected(self, drawn):
        d = Stream(4).child("x").digits(3)
        d.residue(drawn)
        with pytest.raises(ValueError):
            d.digit(-1)
        with pytest.raises(ValueError):
            d.residue(-2)
        assert d.residue(0) == 0
        assert d.digit(0) == d.residue(1)

    def test_haar_matrix_needs_a_positive_size(self):
        for size in (0, -1):
            with pytest.raises(ValueError, match="size"):
                HaarMatrix(Stream(1), 3, size)


class TestSampleZp:
    def test_residue_range_and_precision(self):
        x = Stream(2).child("s").digits(3)
        assert x.residue(1) in (0, 1, 2)
        y = Stream(2).child("s").digits(2)
        assert 0 <= y.residue(3) < 8

    def test_uniformity_chi_square(self):
        p, m = 2, 3
        counts = [0] * p**m
        s = Stream(31)
        n = 8000
        for i in range(n):
            counts[s.child(i).digits(p).residue(m)] += 1
        _, pval = chisquare(counts)
        assert pval > 1e-4

    def test_extension_preserves_value(self):
        s = Stream(5).child("c")
        d = s.digits(2)
        x3 = d.residue(3)
        assert d.residue(5) % 2**3 == x3
        assert s.digits(2).residue(5) % 2**3 == x3


class TestHaar:
    def test_returned_matrix_is_invertible(self):
        for seed in range(20):
            g = HaarMatrix(Stream(seed), 3, 2)
            assert linalg.det(g.residue_rows(4)) % 3 != 0

    @pytest.mark.parametrize("p", (2, 3, 5, LARGE_P))
    def test_entries_and_rounds_match_the_child_labels(self, p):
        """Round r holds the lanes of ``child("haar", r)``."""
        for seed, size in itertools.product(range(100), range(1, 5)):
            stream = Stream(seed).child("oracle")
            g = HaarMatrix(stream, p, size)
            s = lane_digits(p, size * size)
            rows, rounds = reference_haar(stream, p, size, 2 * s + 3)
            assert g.rounds == rounds
            # the first digit, all of segment 0, one digit into segment 1, and deeper
            for m in (1, s, s + 1, 2 * s + 3):
                assert g.residue_rows(m) == [[x % p**m for x in row] for row in rows]

    @pytest.mark.parametrize(
        "size,p,m", list(itertools.product((1, 2, 3, 4), (2, 3, 5), (1, 6, 24)))
    )
    def test_inverse_is_the_rows_of_inverse_row(self, size, p, m):
        q = p**m
        for seed in range(10):
            g = HaarMatrix(Stream(seed), p, size)
            inv = g.inverse(m)
            assert inv == [g.inverse_row(i, m) for i in range(size)]
            rows = g.residue_rows(m)
            prod = [
                [sum(rows[i][k] * inv[k][j] for k in range(size)) % q for j in range(size)]
                for i in range(size)
            ]
            assert prod == [[int(i == j) for j in range(size)] for i in range(size)]

    def test_acceptance_frequency(self):
        # rounds needed is geometric with success probability
        # #GL_2(F_3) / 3^4 = 48/81
        assert brute_force_gl_count(3, 2) == 48
        n = 4000
        rounds = [HaarMatrix(Stream(1000 + i), 3, 2).rounds for i in range(n)]
        first_try = sum(1 for r in rounds if r == 1) / n
        assert abs(first_try - 48 / 81) < 0.03

    @pytest.mark.parametrize(
        "size,p,m", list(itertools.product((2, 3, 4, 5), (2, 3, 5), (1, 6, 24)))
    )
    def test_inverse_row_is_exact(self, size, p, m):
        g = HaarMatrix(Stream(77), p, size)
        q = p**m
        rows = g.residue_rows(m)
        for i in range(size):
            inv = g.inverse_row(i, m)
            assert all(0 <= x < q for x in inv)
            prod = [sum(inv[k] * rows[k][j] for k in range(size)) % q for j in range(size)]
            assert prod == [1 if j == i else 0 for j in range(size)]

    def test_haar_invariance_mod_p(self):
        """The laws of g mod p and hg mod p agree (both uniform on GL)."""
        p = 3
        h = [[1, 1], [0, 1]]
        cells = {}
        idx = 0
        for a, b, c, d in itertools.product(range(p), repeat=4):
            if (a * d - b * c) % p:
                cells[(a, b, c, d)] = idx
                idx += 1
        n = 100_000
        count_g = [0] * len(cells)
        count_hg = [0] * len(cells)
        base = Stream(2026)
        for i in range(n):
            g = HaarMatrix(base.child(i), p, 2)
            (a, b), (c, d) = [[x % p for x in row] for row in g.residue_rows(1)]
            count_g[cells[(a, b, c, d)]] += 1
            ha, hb = (a + c) % p, (b + d) % p
            count_hg[cells[(ha, hb, c, d)]] += 1
        for counts in (count_g, count_hg):
            _, pval = chisquare(counts)
            assert pval > 1e-3


class TestPolyModels:
    def test_monomial_shape(self):
        model = RandomPolyModel("monomial", 2, 3)
        f = sample_poly(model, Stream(4))
        assert len(f.coefficients) == 3  # C(n+d, d) = d+1 for n = 1

    def test_mahler_shape(self):
        model = RandomPolyModel("mahler", 3, 5)
        f = sample_poly(model, Stream(4))
        assert len(f.residues(4)) == 4
        assert all(0 <= r < 5**4 for r in f.residues(4))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RandomPolyModel("gauss", 2, 3)
        with pytest.raises(ValueError):
            RandomPolyModel("monomial", 0, 3)

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_coefficients_match_the_lane_layout(self, p):
        for seed, degree in itertools.product(range(100), range(1, 8)):
            stream = Stream(seed).child("oracle")
            f = sample_poly(RandomPolyModel("mahler", degree, p), stream)
            s = lane_digits(p, degree + 1)
            want = oracle_entries(stream.key, p, degree + 1, 2 * s + 3)
            # deepest first: a deeper read must not move a shallower one
            for m in (2 * s + 3, s + 1, s, 1):
                assert f.residues(m) == [x % p**m for x in want]

    def test_coefficients_extend_past_the_first_block_at_a_large_base(self):
        # k = 7, so each of the 4 coefficients has 1 digit per block
        assert digits_per_block(LARGE_P) == 7 and lane_digits(LARGE_P, 4) == 1
        for seed in range(50):
            stream = Stream(seed).child("oracle")
            f = sample_poly(RandomPolyModel("monomial", 3, LARGE_P), stream)
            for m in (1, 5, 64):
                assert f.residues(m) == oracle_entries(stream.key, LARGE_P, 4, m)

    @pytest.mark.parametrize("p", (2, 3, LARGE_P))
    @pytest.mark.parametrize("n", (1, 3, 9, 16))
    def test_reading_one_entry_deeper_leaves_the_others_unchanged(self, p, n):
        stream = Stream(6).child("deep", n)
        s = lane_digits(p, n)
        precisions = (1, s, s + 1)
        fresh = [LaneDigits(stream, p, n).residues(m) for m in precisions]
        for j in range(n):
            lanes = LaneDigits(stream, p, n)
            deep = lanes.residue(j, 3 * s + 2)
            for m, want in zip(precisions, fresh):
                assert lanes.residues(m) == want
                assert deep % p**m == want[j]

    @pytest.mark.parametrize("p", (2, 3, LARGE_P))
    @pytest.mark.parametrize("n", (1, 3, 9))
    def test_residues_of_all_entries_match_each_entry(self, p, n):
        # at and below s the values cut on creation are read directly; past s
        # every group draws its next block
        stream = Stream(7).child("all", n)
        s = lane_digits(p, n)
        for m in (0, 1, s - 1, s, s + 1, 2 * s + 3):
            lanes = LaneDigits(stream, p, n)
            whole = LaneDigits(stream, p, n).residues(m)
            assert whole == [lanes.residue(j, m) for j in range(n)], m
        with pytest.raises(ValueError):
            LaneDigits(stream, p, n).residues(-1)

    def test_identical_seed_identical_polys(self):
        model = RandomPolyModel("monomial", 4, 3)
        f = sample_poly(model, Stream(99).child("w"))
        g = sample_poly(model, Stream(99).child("w"))
        assert f.residues(8) == g.residues(8)

    def test_monomial_gl_invariance_of_root_counts(self):
        """Root-count laws of F and F o g agree for fixed g in GL_2(Z_p)."""
        from binary_forms import transform_form

        model = RandomPolyModel("monomial", 2, 3)
        g = [[1, 1], [1, 2]]  # det = 1
        n = 3000
        base = Stream(515)
        hist_f = [0] * (model.degree + 1)
        hist_fg = [0] * (model.degree + 1)
        for i in range(n):
            form = sample_poly(model, base.child(i)).residues(10)
            hist_f[count_roots_p1(3, form, precision=10).count] += 1
            moved = [c % 3**10 for c in transform_form(form, g)]
            hist_fg[count_roots_p1(3, moved, precision=10).count] += 1
        # drop all-zero columns before the contingency test
        keep = [j for j in range(len(hist_f)) if hist_f[j] + hist_fg[j] > 0]
        table = [[hist_f[j] for j in keep], [hist_fg[j] for j in keep]]
        _, pval, _, _ = chi2_contingency(table)
        assert pval > 1e-3
