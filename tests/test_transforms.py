import numpy as np
import pytest

from pcmrank import (
    PCM,
    DimensionMismatch,
    EmptyList,
    NonPositive,
    Permutation,
    RationalExponent,
    aggregate,
    opposite,
    pcm_parse,
    permute,
    power,
)
from pcmrank.core import rewrite_entry
from pcmrank.transforms import aggregate_entries, opposite_entries, permute_entries, power_entries

from harness import random_pcm


def max_rel_diff(x, y):
    return float(np.max(np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))))


class TestAggregate:
    def test_single_matrix_unchanged(self):
        a = pcm_parse("1,4\n1/4,1")
        assert aggregate([a]) is a

    def test_with_opposite_gives_ones(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = random_pcm(rng, int(rng.integers(2, 7)))
            agg = aggregate([a, opposite(a)])
            assert np.max(np.abs(agg.entries - 1.0)) <= 1e-12

    def test_two_judges_example(self):
        a1 = pcm_parse("1,4,4\n1/4,1,9\n1/4,1/9,1")
        a2 = pcm_parse("1,1/4,4\n4,1,1\n1/4,1,1")
        b = aggregate([a1, a2])
        expected = pcm_parse("1,1,4\n1,1,3\n1/4,1/3,1")
        assert max_rel_diff(b.entries, expected.entries) <= 1e-12

    def test_k_copies_is_identity(self):
        rng = np.random.default_rng(32)
        for k in (2, 3, 5):
            a = random_pcm(rng, 5)
            agg = aggregate([a] * k)
            assert max_rel_diff(agg.entries, a.entries) <= 1e-12

    def test_commutes_with_permutation(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a, b = random_pcm(rng, n), random_pcm(rng, n)
            sigma = Permutation(rng.permutation(n))
            lhs = aggregate([permute(a, sigma), permute(b, sigma)])
            rhs = permute(aggregate([a, b]), sigma)
            assert max_rel_diff(lhs.entries, rhs.entries) <= 1e-12

    def test_empty(self):
        with pytest.raises(EmptyList):
            aggregate([])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(34)
        with pytest.raises(DimensionMismatch):
            aggregate([random_pcm(rng, 3), random_pcm(rng, 4)])


class TestOpposite:
    def test_is_transpose(self):
        a = pcm_parse("1,4\n1/4,1")
        assert opposite(a).entries.tolist() == [[1.0, 0.25], [4.0, 1.0]]

    def test_involution_bitwise(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            a = random_pcm(rng, int(rng.integers(2, 8)))
            assert np.array_equal(opposite(opposite(a)).entries, a.entries)

    def test_ones_fixed(self):
        ones = PCM.ones(4)
        assert np.array_equal(opposite(ones).entries, ones.entries)


class TestPower:
    def test_exponent_one_unchanged(self):
        a = pcm_parse("1,4\n1/4,1")
        assert power(a, RationalExponent(1, 1)) is a
        assert power(a, RationalExponent(3, 3)) is a  # reduces to 1

    @pytest.mark.parametrize("entry", [1e300, 1e-308])
    def test_a_power_beyond_the_float_range_raises_without_a_warning(self, entry):
        # a RuntimeWarning fails the test
        a = PCM.from_upper([[1, entry, entry], [1, 1, 1], [1, 1, 1]])
        with pytest.raises(NonPositive, match="^entries must be finite and strictly positive$"):
            power(a, RationalExponent(5, 1))

    def test_squaring_entries(self):
        a = pcm_parse("1,2,1/2\n1/2,1,2\n2,1/2,1")
        sq = power(a, RationalExponent(2, 1))
        assert abs(sq.entries[0, 1] - 4.0) <= 1e-12
        assert abs(sq.entries[0, 2] - 0.25) <= 1e-12

    def test_inverse_exponents_round_trip(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            a = random_pcm(rng, int(rng.integers(2, 7)))
            back = power(power(a, RationalExponent(2, 1)), RationalExponent(1, 2))
            assert np.max(np.abs(back.entries - a.entries)) <= 1e-12

    def test_power_as_aggregation(self):
        # raising to p/q (p <= q) equals pooling p copies of the matrix
        # with q - p copies of the all-ones matrix
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_pcm(rng, n)
            p = int(rng.integers(1, 5))
            q = int(rng.integers(p, 6))
            kappa = RationalExponent(p, q)
            lhs = power(a, kappa)
            rhs = aggregate([a] * kappa.p + [PCM.ones(n)] * (kappa.q - kappa.p))
            assert max_rel_diff(lhs.entries, rhs.entries) <= 1e-12


class TestPermute:
    def test_identity_bitwise(self):
        rng = np.random.default_rng(38)
        a = random_pcm(rng, 5)
        assert np.array_equal(permute(a, Permutation.identity(5)).entries, a.entries)

    def test_ones_invariant(self):
        sigma = Permutation(np.array([2, 0, 3, 1]))
        assert np.array_equal(permute(PCM.ones(4), sigma).entries, PCM.ones(4).entries)

    def test_data_moves_to_new_label(self):
        a = pcm_parse("1,2,4\n1/2,1,2\n1/4,1/2,1")
        sigma = Permutation(np.array([1, 2, 0]))
        moved = permute(a, sigma)
        for i in range(3):
            for j in range(3):
                assert moved.entries[sigma.map[i], sigma.map[j]] == a.entries[i, j]

    def test_2x2_swap_equals_opposite(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            a = random_pcm(rng, 2)
            swapped = permute(a, Permutation.transposition(2, 0, 1))
            assert np.array_equal(swapped.entries, opposite(a).entries)

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a = random_pcm(rng, n)
            sigma = Permutation(rng.permutation(n))
            back = permute(permute(a, sigma), sigma.inverse())
            assert np.array_equal(back.entries, a.entries)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(41)
        with pytest.raises(DimensionMismatch):
            permute(random_pcm(rng, 3), Permutation.identity(4))


def test_all_transforms_return_valid_pcms():
    # PCM construction re-validates positivity and reciprocal pairing, so
    # surviving construction is the check
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a, b = random_pcm(rng, n), random_pcm(rng, n)
        sigma = Permutation(rng.permutation(n))
        for result in (
            aggregate([a, b]),
            opposite(a),
            power(a, RationalExponent(int(rng.integers(1, 5)), int(rng.integers(1, 5)))),
            permute(a, sigma),
        ):
            assert result.n == n


def test_stack_transforms_equal_the_pcm_functions_row_by_row():
    # each transform's arithmetic is written once, over stacks (..., n, n);
    # on a stack it must give every matrix the PCM function's entries
    # bit for bit
    rng = np.random.default_rng(43)
    for n in (2, 3, 6, 16):
        rows = [[random_pcm(rng, n) for _ in range(3)] for _ in range(5)]
        e = np.array([[m.entries for m in row] for row in rows])  # (5, 3, n, n)
        a = [row[0] for row in rows]
        sigmas = [Permutation(rng.permutation(n)) for _ in rows]
        kappas = [RationalExponent(p, q) for p, q in rng.integers(1, 6, (5, 2)) if p != q]
        cells = [tuple(int(t) for t in rng.choice(n, 2, replace=False)) for _ in rows]
        values = np.exp(rng.uniform(-2.0, 2.0, len(rows)))
        pairs = {
            "aggregate": (aggregate_entries(e), [aggregate(row) for row in rows]),
            "opposite": (opposite_entries(e[:, 0]), [opposite(m) for m in a]),
            "power": (
                power_entries(e[: len(kappas), 0], [k.value for k in kappas]),
                [power(m, k) for m, k in zip(a, kappas)],
            ),
            "permute": (
                permute_entries(e[:, 0], np.array([s.map for s in sigmas])),
                [permute(m, s) for m, s in zip(a, sigmas)],
            ),
            "with_entry": (
                rewrite_entry(e[:, 0], *np.array(cells).T, values),
                [m.with_entry(*c, v) for m, c, v in zip(a, cells, values)],
            ),
        }
        for name, (stack, singles) in pairs.items():
            assert len(stack) == len(singles)
            for got, want in zip(stack, singles):
                assert np.array_equal(got, want.entries), (name, n)
