import json

import numpy as np
import pytest

from pcmrank import (
    PCM,
    AxiomId,
    AxiomVerdict,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidParameter,
    MethodId,
    NotAnIncrease,
    OverlappingIndices,
    PairRelation,
    Permutation,
    RationalExponent,
    SearchConfig,
    check_ai,
    check_ano,
    check_iic,
    check_implications,
    check_inv,
    check_res,
    check_rsi,
    falsify,
    method_rank,
    method_weights,
    pair_relation,
    pcm_parse,
    replay,
    witness_json_dict,
)
from pcmrank.core import DEFAULT_TIE_TOL
from pcmrank.registry import ARITH_AI_A1, ARITH_AI_A2, FAVPROD_AI_A1, FAVPROD_AI_A2, IIC4, KENDALL6

from harness import LOG9, random_pcm


class TestAno:
    def test_rgm_holds_on_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_pcm(rng, n)
            sigma = Permutation(rng.permutation(n))
            assert check_ano(MethodId.RGM, a, sigma).holds

    def test_first_column_breaks_when_column_owner_moves(self):
        # inconsistent on purpose: columns 1 and 2 order the pair (2, 3)
        # differently, and swapping alternatives 1 and 2 makes the scores
        # read from the other column
        a = pcm_parse("1,2,4\n1/2,1,1/4\n1/4,4,1")
        sigma = Permutation(np.array([1, 0, 2]))
        verdict = check_ano(MethodId.FIRST_COLUMN, a, sigma)
        assert not verdict.holds
        assert not replay(verdict.witness).holds

    def test_flat_always_holds(self):
        rng = np.random.default_rng(62)
        a = random_pcm(rng, 4)
        assert check_ano(MethodId.FLAT, a, Permutation(rng.permutation(4))).holds

    def test_index_order_breaks_on_swap(self):
        verdict = check_ano(MethodId.INDEX_ORDER, PCM.ones(3), Permutation(np.array([1, 0, 2])))
        assert not verdict.holds

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_ano(MethodId.RGM, PCM.ones(3), Permutation.identity(4))


class TestAi:
    def test_arith_counterexample(self):
        verdict = check_ai(MethodId.ROW_ARITHMETIC_MEAN, [ARITH_AI_A1, ARITH_AI_A2])
        assert not verdict.holds
        assert verdict.witness.auxiliary["pair"] == [1, 0]  # alt 2 unanimously over alt 1

    def test_favprod_counterexample(self):
        verdict = check_ai(MethodId.FAVOURABLE_PRODUCT, [FAVPROD_AI_A1, FAVPROD_AI_A2])
        assert not verdict.holds
        assert verdict.witness.auxiliary["pair"] == [0, 1]

    def test_rgm_holds_on_random_lists(self):
        rng = np.random.default_rng(63)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            assert check_ai(MethodId.RGM, [random_pcm(rng, n) for _ in range(k)]).holds

    def test_single_matrix_rejected(self):
        with pytest.raises(ValueError):
            check_ai(MethodId.RGM, [PCM.ones(3)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_ai(MethodId.RGM, [PCM.ones(3), PCM.ones(4)])


class TestInv:
    def test_rgm_holds(self):
        rng = np.random.default_rng(64)
        for _ in range(100):
            assert check_inv(MethodId.RGM, random_pcm(rng, int(rng.integers(2, 7)))).holds

    def test_arith_2x2_holds(self):
        assert check_inv(MethodId.ROW_ARITHMETIC_MEAN, pcm_parse("1,4\n1/4,1")).holds

    def test_em_violation_exists(self):
        witness = falsify(MethodId.EM, AxiomId.INV, SearchConfig(seed=42, trials=2000))
        assert witness is not None
        assert not replay(witness).holds

    def test_a_tie_tolerance_that_is_not_a_number_is_invalid(self):
        with pytest.raises(InvalidParameter, match="tie_tol must be a real number"):
            check_inv(MethodId.RGM, KENDALL6, tie_tol=None)


def exponent_one_near_ties():
    """2x2 matrices whose upper entry x differs from exp(ln x), each with
    the tie tolerance set at its RGM weight gap, |w1 - w2| / max(w): an
    exponent 1 computed through exp and ln moves some of them across it."""
    rng = np.random.default_rng(0)
    xs = np.exp(rng.uniform(-3.0, 3.0, 20_000))
    for x in xs[np.exp(np.log(xs)) != xs]:
        a = PCM.from_upper([[1.0, x], [1.0, 1.0]])
        w = method_weights(MethodId.RGM, a).w
        yield a, abs(w[0] - w[1]) / w.max()


class TestRsi:
    def test_exponent_one_holds_for_every_method(self):
        rng = np.random.default_rng(65)
        cases = [(random_pcm(rng, 5), DEFAULT_TIE_TOL), *exponent_one_near_ties()]
        assert len(cases) > 30
        for a, tie_tol in cases:
            for method in MethodId:
                assert check_rsi(method, a, RationalExponent(1, 1), tie_tol).holds

    def test_em_published_failure(self):
        verdict = check_rsi(MethodId.EM, KENDALL6, RationalExponent(2, 1))
        assert not verdict.holds
        assert verdict.witness.auxiliary["pair"] == [1, 3]

    def test_rgm_holds_on_random_exponents(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            a = random_pcm(rng, int(rng.integers(2, 7)))
            kappa = RationalExponent(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            assert check_rsi(MethodId.RGM, a, kappa).holds


class TestIic:
    def test_em_published_failure(self):
        verdict = check_iic(MethodId.EM, IIC4, (2, 3), 4.0, (0, 1))
        assert not verdict.holds

    def test_rgm_holds_on_same_instance(self):
        assert check_iic(MethodId.RGM, IIC4, (2, 3), 4.0, (0, 1)).holds

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingIndices):
            check_iic(MethodId.RGM, IIC4, (1, 3), 4.0, (0, 1))

    def test_small_matrix_rejected(self):
        with pytest.raises(DimensionTooSmall):
            check_iic(MethodId.RGM, PCM.ones(3), (1, 2), 4.0, (0, 1))

    def test_unchanged_value_rejected(self):
        with pytest.raises(ValueError):
            check_iic(MethodId.RGM, IIC4, (2, 3), float(IIC4.entries[2, 3]), (0, 1))

    def test_pair_orientation_is_irrelevant(self):
        rng = np.random.default_rng(68)
        for _ in range(50):
            a = random_pcm(rng, int(rng.integers(4, 7)))
            picks = [int(x) for x in rng.permutation(a.n)[:4]]
            value = float(np.exp(rng.uniform(-LOG9, LOG9)))
            forward = check_iic(MethodId.EM, a, (picks[2], picks[3]), value,
                                (picks[0], picks[1]))
            backward = check_iic(MethodId.EM, a, (picks[2], picks[3]), value,
                                 (picks[1], picks[0]))
            assert forward.holds == backward.holds


class TestRes:
    def test_rgm_promotes_strictly(self):
        verdict = check_res(MethodId.RGM, PCM.ones(3), (0, 1), 2.0)
        assert verdict.holds
        after = method_rank(MethodId.RGM, PCM.ones(3).with_entry(0, 1, 2.0))
        assert pair_relation(after, 0, 1) is PairRelation.STRICTLY_ABOVE

    def test_flat_fails(self):
        assert not check_res(MethodId.FLAT, PCM.ones(3), (0, 1), 2.0).holds

    def test_arith_holds_on_random_increases(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_pcm(rng, n)
            i, j = (int(x) for x in rng.permutation(n)[:2])
            raised = float(a.entries[i, j] * np.exp(rng.uniform(0.1, 2.0)))
            assert check_res(MethodId.ROW_ARITHMETIC_MEAN, a, (i, j), raised).holds

    def test_vacuous_when_strictly_below(self):
        a = pcm_parse("1,1/4\n4,1")  # alternative 1 strictly below 2
        assert check_res(MethodId.RGM, a, (0, 1), 0.5).holds

    def test_not_an_increase(self):
        with pytest.raises(NotAnIncrease):
            check_res(MethodId.RGM, PCM.ones(3), (0, 1), 1.0)


class TestArgumentTypes:
    """Each case raised numpy's or Python's own error, or none at all."""

    @pytest.mark.parametrize("check", [
        lambda: check_iic(MethodId.RGM, IIC4, (2.0, 3), 4.0, (0, 1)),
        lambda: check_iic(MethodId.RGM, IIC4, (2, 3), 4.0, (0, 1.5)),
        lambda: check_res(MethodId.RGM, PCM.ones(3), (0.0, 1.0), 2.0),
    ])
    def test_a_float_index_is_invalid(self, check):
        with pytest.raises(InvalidParameter, match="index must be an integer"):
            check()

    def test_boolean_indices_are_the_alternatives_they_count(self):
        # numpy read (True, False) as a mask, which selects no entry
        found = [check_res(MethodId.FLAT, PCM.ones(3), p, 2.0) for p in ((True, False), (1, 0))]
        assert witness_json_dict(found[0].witness) == witness_json_dict(found[1].witness)

    @pytest.mark.parametrize("value", ["4", None, np.array([4.0])])
    def test_a_value_that_is_not_a_number_is_invalid(self, value):
        with pytest.raises(InvalidParameter, match="value must be a real number"):
            check_iic(MethodId.RGM, IIC4, (2, 3), value, (0, 1))
        with pytest.raises(InvalidParameter, match="increase must be a real number"):
            check_res(MethodId.RGM, PCM.ones(3), (0, 1), value)

    @pytest.mark.parametrize("check", [
        lambda a: check_ano(MethodId.RGM, a, Permutation(np.arange(4))),
        lambda a: check_ai(MethodId.RGM, [IIC4, a]),
        lambda a: check_inv(MethodId.RGM, a),
        lambda a: check_rsi(MethodId.RGM, a, RationalExponent(2, 1)),
        lambda a: check_iic(MethodId.RGM, a, (2, 3), 4.0, (0, 1)),
        lambda a: check_res(MethodId.RGM, a, (0, 1), 4.0),
    ], ids=[a.value for a in AxiomId])
    def test_a_matrix_that_is_not_a_pcm_is_invalid(self, check):
        # each raised AttributeError: the check read a.n or a.entries
        with pytest.raises(InvalidParameter, match="matrix must be a PCM"):
            check(IIC4.entries.tolist())

    def test_a_sigma_that_is_not_a_permutation_is_invalid(self):
        with pytest.raises(InvalidParameter, match="sigma must be a Permutation"):
            check_ano(MethodId.RGM, IIC4, [1, 0, 2, 3])

    @pytest.mark.parametrize("check", [
        lambda a: check_res(MethodId.RGM, a, 5, 4.0),
        lambda a: check_iic(MethodId.RGM, a, (2, 3, 1), 4.0, (0, 1)),
        lambda a: check_iic(MethodId.RGM, a, (2, 3), 4.0, [0]),
    ])
    @pytest.mark.parametrize("n", [3, 4])
    def test_a_cell_or_pair_that_is_not_two_items_is_invalid(self, check, n):
        # a bare ValueError or TypeError from the unpack, which IIC raises
        # before it counts the alternatives
        with pytest.raises(InvalidParameter, match="must be a pair of numbers"):
            check(PCM.ones(n))

    def test_iic_counts_alternatives_before_it_converts_an_index(self):
        with pytest.raises(DimensionTooSmall):
            check_iic(MethodId.RGM, PCM.ones(3), (2.0, 3), 4.0, (0, 1))

    @pytest.mark.parametrize("kappa", ["2/1", "2000/1", 2.0])
    def test_an_exponent_that_is_not_a_rational_exponent_is_invalid(self, kappa):
        # "2000/1" raised AttributeError, where 4**2000 overflows the image
        with pytest.raises(InvalidParameter, match="kappa must be a RationalExponent"):
            check_rsi(MethodId.RGM, pcm_parse("1,2,4\n1/2,1,2\n1/4,1/2,1"), kappa)


class TestNearTieBand:
    """A tie band of relative width ``tie_tol`` is not invariant under
    powers or small increases: two RGM weights 5.3e-10 apart tie at the
    default 1e-9, and squaring the matrix doubles the gap past the band,
    while raising their comparison by a factor 1 + 1e-12 keeps the tie.
    Both checks report violations that vanish at ``tie_tol`` 0.  Pinned
    as the package decides today."""

    A = PCM.from_upper([[1, 1 + 0.8e-9, 2], [1, 1, 2], [1, 1, 1]])

    def verdicts(self, tie_tol):
        a = self.A
        rsi = check_rsi(MethodId.RGM, a, RationalExponent(2, 1), tie_tol)
        res = check_res(MethodId.RGM, a, (1, 0), a.entries[1, 0] * (1 + 1e-12), tie_tol)
        return rsi, res

    def test_default_band_reports_violations(self):
        rsi, res = self.verdicts(1e-9)
        assert not rsi.holds and not res.holds
        assert rsi.witness.narrative.endswith(
            "alternative 1 is tied with 2 before but strictly above after")
        assert "alternative 2 is tied with 1" in res.witness.narrative

    def test_zero_band_holds(self):
        rsi, res = self.verdicts(0.0)
        assert rsi.holds and res.holds


class TestFalsify:
    def test_rgm_clean_on_small_budget(self):
        for axiom in AxiomId:
            assert falsify(MethodId.RGM, axiom, SearchConfig(seed=42, trials=300)) is None

    def test_finds_arith_ai_witness(self):
        witness = falsify(
            MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI, SearchConfig(seed=42, trials=2000)
        )
        assert witness is not None
        assert witness.axiom is AxiomId.AI and len(witness.matrices) >= 2
        assert not replay(witness).holds

    def test_finds_em_iic_witness(self):
        witness = falsify(
            MethodId.EM, AxiomId.IIC, SearchConfig(seed=42, trials=2000, n_range=(4, 6))
        )
        assert witness is not None
        assert witness.matrices[0].n >= 4
        assert not replay(witness).holds

    def test_iic_floor_applies_even_with_small_n_range(self):
        # n is drawn from 2..6 but IIC trials clamp to 4+, so the search
        # still runs (and telescopes witnesses to n >= 4)
        witness = falsify(
            MethodId.EM, AxiomId.IIC, SearchConfig(seed=42, trials=2000, n_range=(2, 6))
        )
        assert witness is not None and witness.matrices[0].n >= 4

    def test_deterministic_across_runs(self):
        cfg = SearchConfig(seed=7, trials=2000)
        first = falsify(MethodId.FIRST_COLUMN, AxiomId.ANO, cfg)
        second = falsify(MethodId.FIRST_COLUMN, AxiomId.ANO, cfg)
        assert first is not None
        assert witness_json_dict(first) == witness_json_dict(second)

    def test_shrunk_witness_still_falsifies_and_is_rounder(self):
        witness = falsify(
            MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI, SearchConfig(seed=42, trials=2000)
        )
        assert not replay(witness).holds
        flattened = np.concatenate(
            [m.entries[np.triu_indices(m.n, 1)] for m in witness.matrices]
        )
        round_cells = sum(1 for x in flattened if float(f"{x:.1g}") == x)
        assert round_cells >= 1  # the greedy rounding pass kept something


class TestVerdictAndWitness:
    def test_verdict_invariant(self):
        assert AxiomVerdict(holds=True).holds
        with pytest.raises(ValueError):
            AxiomVerdict(holds=False, witness=None)
        failing = check_rsi(MethodId.EM, KENDALL6, RationalExponent(2, 1))
        with pytest.raises(ValueError):
            AxiomVerdict(holds=True, witness=failing.witness)

    def test_witness_json_field_order(self):
        verdict = check_rsi(MethodId.EM, KENDALL6, RationalExponent(2, 1))
        payload = witness_json_dict(verdict.witness)
        assert list(payload) == ["axiom", "method", "matrices", "aux", "narrative"]
        json.dumps(payload)  # serializable

    def test_narrative_uses_one_based_labels(self):
        verdict = check_rsi(MethodId.EM, KENDALL6, RationalExponent(2, 1))
        assert "alternative 2" in verdict.witness.narrative

    def test_search_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, trials=0)
        with pytest.raises(ValueError):
            SearchConfig(seed=1, n_range=(1, 6))
        with pytest.raises(ValueError):
            SearchConfig(seed=1, n_range=(2, 65))


class TestErrorPropagation:
    def test_no_convergence_reaches_the_caller(self):
        from pcmrank import EmOptions, NoConvergence

        starved = EmOptions(max_iterations=1)
        with pytest.raises(NoConvergence):
            method_rank(MethodId.EM, KENDALL6, em=starved)
        with pytest.raises(NoConvergence):
            check_rsi(MethodId.EM, KENDALL6, RationalExponent(2, 1), em=starved)


class TestImplications:
    def test_rgm_consistent(self):
        report = check_implications(MethodId.RGM, SearchConfig(seed=42, trials=300))
        assert report["premise"]["holds"]
        for entry in report["implications"].values():
            assert entry["status"] == "consistent" and not entry["vacuous"]

    def test_first_column_vacuous(self):
        report = check_implications(MethodId.FIRST_COLUMN, SearchConfig(seed=42, trials=2000))
        assert report["premise"]["ano_witness"] is not None
        for entry in report["implications"].values():
            assert entry["status"] == "consistent" and entry["vacuous"]

    def test_arith_vacuous_via_ai(self):
        report = check_implications(
            MethodId.ROW_ARITHMETIC_MEAN, SearchConfig(seed=42, trials=2000)
        )
        assert report["premise"]["ano_witness"] is None
        assert report["premise"]["ai_witness"] is not None
        for entry in report["implications"].values():
            assert entry["vacuous"]
