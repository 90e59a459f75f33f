import numpy as np
import pytest

from pcmrank import (
    PCM,
    IndexOutOfRange,
    InvalidParameter,
    NonPositive,
    NonSquare,
    PairRelation,
    Permutation,
    Ranking,
    RationalExponent,
    ReciprocityViolation,
    TooSmall,
    WeightVector,
    is_consistent,
    pair_relation,
    pcm_parse,
    pcm_to_csv,
    ranking_from_weights,
    ranking_json_dict,
)
from pcmrank.core import reciprocal_fill, triu_indices

LOG9 = np.log(9.0)


def random_pcm(rng, n):
    return PCM.from_upper(np.exp(rng.uniform(-LOG9, LOG9, (n, n))))


class TestParse:
    def test_round_trip_2x2(self):
        a = pcm_parse("1,4\n1/4,1")
        assert a.entries.tolist() == [[1.0, 4.0], [0.25, 1.0]]

    def test_lower_triangle_canonicalized(self):
        a = pcm_parse("1,4\n0.2500001,1", reciprocity_tol=1e-6)
        assert a.entries[1, 0] == 0.25

    def test_reciprocity_violation(self):
        with pytest.raises(ReciprocityViolation):
            pcm_parse("1,4\n0.3,1", reciprocity_tol=1e-6)

    def test_reciprocity_violation_names_the_first_pair_in_row_major_order(self):
        rows = [["1"] * 64 for _ in range(64)]
        rows[40][50] = "2"
        rows[7][3] = "3"  # below the diagonal, but pair (4, 8) comes first
        with pytest.raises(ReciprocityViolation) as exc:
            pcm_parse("\n".join(",".join(row) for row in rows))
        assert str(exc.value) == "a[4][8] * a[8][4] = 3 is off 1 by more than 1e-06"

    def test_rational_literals(self):
        a = pcm_parse("1,1/3\n3,1")
        assert a.entries[0, 1] == 1 / 3
        b = pcm_parse("1,1/9\n9,1")
        assert b.entries[0, 1] == 1 / 9

    def test_whitespace_tolerated(self):
        a = pcm_parse(" 1 , 4 \n 1/4 , 1 \n")
        assert a.entries[0, 1] == 4.0

    def test_non_square(self):
        with pytest.raises(NonSquare):
            pcm_parse("1,4,2\n1/4,1,1")

    def test_unparseable_entry(self):
        with pytest.raises(NonPositive):
            pcm_parse("1,abc\n1,1")

    def test_negative_entry(self):
        with pytest.raises(NonPositive):
            pcm_parse("1,-4\n-0.25,1")

    def test_zero_rational(self):
        with pytest.raises(NonPositive):
            pcm_parse("1,0/3\n1,1")

    def test_too_small(self):
        with pytest.raises(TooSmall):
            pcm_parse("1")
        with pytest.raises(TooSmall):
            pcm_parse("")

    def test_diagonal_forced_to_one(self):
        a = pcm_parse("5,4\n1/4,5")
        assert np.all(np.diagonal(a.entries) == 1.0)

    def test_serialize_reparse_is_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = random_pcm(rng, int(rng.integers(2, 9)))
            again = pcm_parse(pcm_to_csv(a))
            assert np.array_equal(again.entries, a.entries)

    def test_reciprocals_exact_after_parse(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = random_pcm(rng, int(rng.integers(2, 9)))
            n = a.n
            for i in range(n):
                for j in range(i + 1, n):
                    assert a.entries[j, i] == 1.0 / a.entries[i, j]


class TestPcmType:
    def test_entries_frozen(self):
        a = pcm_parse("1,4\n1/4,1")
        with pytest.raises(ValueError):
            a.entries[0, 1] = 2.0

    def test_rejects_broken_reciprocity(self):
        with pytest.raises(ReciprocityViolation):
            PCM(np.array([[1.0, 4.0], [0.3, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ReciprocityViolation):
            PCM(np.array([[2.0, 4.0], [0.25, 1.0]]))

    def test_with_entry_sets_both_cells(self):
        a = pcm_parse("1,4\n1/4,1")
        b = a.with_entry(0, 1, 2.0)
        assert b.entries[0, 1] == 2.0 and b.entries[1, 0] == 0.5
        assert a.entries[0, 1] == 4.0  # original untouched

    def test_ones(self):
        assert np.all(PCM.ones(4).entries == 1.0)

    def test_triu_indices_cached_and_read_only(self):
        iu, ju = triu_indices(6)
        assert triu_indices(6)[0] is iu
        assert np.array_equal(iu, np.triu_indices(6, k=1)[0])
        assert np.array_equal(ju, np.triu_indices(6, k=1)[1])
        with pytest.raises(ValueError):
            iu[0] = 5

    def test_reciprocal_fill_stacks_match_from_upper(self):
        grids = np.exp(np.random.default_rng(3).uniform(-2.0, 2.0, (4, 5, 5)))
        filled = reciprocal_fill(grids)
        for g, f in zip(grids, filled):
            assert np.array_equal(f, PCM.from_upper(g).entries)


class TestConsistency:
    def test_ones_consistent(self):
        assert is_consistent(PCM.ones(5), 1e-9)

    def test_consistent_3x3(self):
        a = pcm_parse("1,2,4\n1/2,1,2\n1/4,1/2,1")
        assert is_consistent(a, 1e-9)

    def test_aggregated_counterexample_inconsistent(self):
        b = pcm_parse("1,1,4\n1,1,3\n1/4,1/3,1")
        assert not is_consistent(b, 1e-9)  # a_13 = 4 but a_12 * a_23 = 3

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_consistent(PCM.ones(3), 0.0)


class TestWeightVector:
    def test_from_scores(self):
        w = WeightVector.from_scores([2.0, 1.0, 1.0])
        assert np.allclose(w.w, [0.5, 0.25, 0.25])

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            WeightVector(np.array([0.5, 0.5, 0.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.6, 0.6]))


class TestRanking:
    def test_uniform_all_tied(self):
        r = ranking_from_weights(WeightVector.from_scores([1.0, 1.0, 1.0]), 1e-9)
        assert r.rank.tolist() == [0, 0, 0]

    def test_strict_order(self):
        r = ranking_from_weights(WeightVector(np.array([0.5, 0.3, 0.2])), 1e-9)
        assert r.rank.tolist() == [0, 1, 2]

    def test_published_6x6_weight_display(self):
        w = WeightVector.from_scores([0.2286, 0.1430, 0.2102, 0.1321, 0.1430, 0.1430])
        r = ranking_from_weights(w, 1e-9)
        assert r.rank.tolist() == [0, 2, 1, 3, 2, 2]

    def test_near_tie_chain_closes_transitively(self):
        # adjacent gaps are inside the tolerance, the outer gap is not;
        # the closure must still produce one group
        base = np.array([1.0, 1.0 + 9e-10, 1.0 + 1.8e-9])
        r = ranking_from_weights(WeightVector.from_scores(base), 1e-9)
        assert r.rank.tolist() == [0, 0, 0]

    def test_tie_tol_zero_separates(self):
        base = np.array([1.0, 1.0 + 1e-13, 2.0])
        r = ranking_from_weights(WeightVector.from_scores(base), 0.0)
        assert r.rank.tolist() == [2, 1, 0]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            w = WeightVector.from_scores(np.exp(rng.uniform(-1, 1, n)))
            sigma = rng.permutation(n)
            permuted = np.empty(n)
            permuted[sigma] = w.w
            base = ranking_from_weights(w, 1e-9)
            moved = ranking_from_weights(WeightVector(permuted), 1e-9)
            for i in range(n):
                assert moved.rank[sigma[i]] == base.rank[i]

    def test_labels_must_be_dense(self):
        with pytest.raises(ValueError):
            Ranking(np.array([0, 2]))

    def test_groups_and_json(self):
        r = Ranking(np.array([0, 2, 1, 3, 2, 2]))
        assert r.groups() == [[0], [2], [1, 4, 5], [3]]
        assert ranking_json_dict(r) == {
            "rank": [0, 2, 1, 3, 2, 2],
            "groups": [[0], [2], [1, 4, 5], [3]],
        }

    def test_dense_labels_are_transitive(self):
        # vacuously true for integer labels; kept as the sanity assertion
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            w = ranking_from_weights(WeightVector.from_scores(np.exp(rng.uniform(-1, 1, n))))
            r = w.rank
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if r[i] < r[j] and r[j] < r[k]:
                            assert r[i] < r[k]


class TestPairRelation:
    def test_tied(self):
        r = Ranking(np.array([0, 0, 1]))
        assert pair_relation(r, 0, 1) is PairRelation.TIED

    def test_published_pair(self):
        r = Ranking(np.array([0, 2, 1, 3, 2, 2]))
        assert pair_relation(r, 1, 3) is PairRelation.STRICTLY_ABOVE

    def test_strictly_below(self):
        r = Ranking(np.array([0, 1, 2]))
        assert pair_relation(r, 2, 0) is PairRelation.STRICTLY_BELOW

    def test_antisymmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            labels = rng.integers(0, n, n)
            dense = np.unique(labels, return_inverse=True)[1]
            r = Ranking(dense)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    assert pair_relation(r, i, j) is pair_relation(r, j, i).reverse()

    def test_errors(self):
        r = Ranking(np.array([0, 1]))
        with pytest.raises(IndexOutOfRange):
            pair_relation(r, 0, 0)
        with pytest.raises(IndexOutOfRange):
            pair_relation(r, 0, 5)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))

    def test_inverse(self):
        sigma = Permutation(np.array([2, 0, 1]))
        assert sigma.inverse().map.tolist() == [1, 2, 0]

    def test_transposition(self):
        assert Permutation.transposition(4, 0, 2).map.tolist() == [2, 1, 0, 3]

    def test_identity(self):
        assert Permutation.identity(3).map.tolist() == [0, 1, 2]


class TestRationalExponent:
    def test_reduces_to_lowest_terms(self):
        k = RationalExponent(4, 6)
        assert (k.p, k.q) == (2, 3)

    def test_parse_forms(self):
        assert str(RationalExponent.parse("2/4")) == "1/2"
        assert str(RationalExponent.parse("3")) == "3/1"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RationalExponent(0, 2)
        with pytest.raises(ValueError):
            RationalExponent.parse("-1/2")

    def test_value(self):
        assert RationalExponent(1, 2).value == 0.5

    def test_rejects_a_value_beyond_float_range(self):
        with pytest.raises(InvalidParameter):
            RationalExponent(10**400, 1)
        assert RationalExponent(10**400, 10**400 - 1).value == 1.0
