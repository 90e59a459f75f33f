import dataclasses
import json
import math

import numpy as np
import pytest

from pcmrank import (
    PCM,
    AxiomId,
    AxiomVerdict,
    DimensionMismatch,
    DimensionTooSmall,
    EmOptions,
    IndexOutOfRange,
    InvalidParameter,
    MethodId,
    NotAnIncrease,
    OverlappingIndices,
    PairRelation,
    Permutation,
    RationalExponent,
    SearchConfig,
    aggregate,
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
    opposite,
    pair_relation,
    pcm_parse,
    permute,
    power,
    replay,
    witness_json_dict,
)
from pcmrank.axioms import _run_check
from pcmrank.core import DEFAULT_TIE_TOL
from pcmrank.registry import ARITH_AI_A1, ARITH_AI_A2, FAVPROD_AI_A1, FAVPROD_AI_A2, IIC4, KENDALL6

from harness import LOG9, outcome, random_pcm, settle, trial_inputs

M3 = pcm_parse("1,2,4\n1/2,1,2\n1/4,1/2,1")
M4 = pcm_parse("1,2,4,8\n1/2,1,2,4\n1/4,1/2,1,2\n1/8,1/4,1/2,1")


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

    def test_not_an_increase_quotes_the_entry_as_a_python_float(self):
        # numpy 2 quoted the entry as np.float64(2.0); the argument stays as given
        for increase, quoted in ((1, "1"), (1.5, "1.5")):
            with pytest.raises(NotAnIncrease) as raised:
                check_res(MethodId.RGM, M3, (0, 1), increase)
            assert str(raised.value) == f"{quoted} does not exceed a[1][2] = 2.0"


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

    def test_an_array_is_named_by_its_type(self):
        # its repr ran to 4 lines
        with pytest.raises(InvalidParameter, match="^matrix must be a PCM, got ndarray$"):
            check_inv(MethodId.RGM, IIC4.entries)

    @pytest.mark.parametrize("matrices, shown", [
        (IIC4, "PCM"), (None, "None"), ((a for a in [IIC4, IIC4]), "<generator"),
    ], ids=["pcm", "none", "generator"])
    def test_ai_rejects_matrices_that_are_not_a_sequence(self, matrices, shown):
        # each raised a bare TypeError from len()
        with pytest.raises(InvalidParameter) as exc:
            check_ai(MethodId.RGM, matrices)
        assert str(exc.value).startswith(f"matrices must be a Sequence, got {shown}")
        assert "\n" not in str(exc.value)

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

    @pytest.mark.parametrize("check, text", [
        (lambda: check_iic(MethodId.RGM, IIC4, (0, 7), 4.0, (1, 2)), "index 7 invalid for n=4"),
        (lambda: check_iic(MethodId.RGM, IIC4, (2, 3), 4.0, (-1, 1)), "index -1 invalid for n=4"),
        (lambda: check_res(MethodId.RGM, M3, (0, 9), 4.0), "pair (0, 9) invalid for n=3"),
        (lambda: check_res(MethodId.RGM, M3, [2, 2], 4.0), "pair [2, 2] invalid for n=3"),
    ])
    def test_an_index_outside_the_matrix_is_out_of_range(self, check, text):
        with pytest.raises(IndexOutOfRange) as exc:
            check()
        assert str(exc.value) == text

    def test_iic_counts_alternatives_before_it_converts_an_index(self):
        with pytest.raises(DimensionTooSmall):
            check_iic(MethodId.RGM, PCM.ones(3), (2.0, 3), 4.0, (0, 1))

    @pytest.mark.parametrize("kappa", ["2/1", "2000/1", 2.0])
    def test_an_exponent_that_is_not_a_rational_exponent_is_invalid(self, kappa):
        # "2000/1" raised AttributeError, where 4**2000 overflows the image
        with pytest.raises(InvalidParameter, match="kappa must be a RationalExponent"):
            check_rsi(MethodId.RGM, pcm_parse("1,2,4\n1/2,1,2\n1/4,1/2,1"), kappa)

    @pytest.mark.parametrize("method, em, message", [
        ("rgm", EmOptions(), "method must be a MethodId, got 'rgm'"),
        (MethodId.EM, 5, "em must be an EmOptions, got 5"),
        (MethodId.RGM, 5, "em must be an EmOptions, got 5"),
    ], ids=["method-str", "em-int-for-em", "em-int-for-rgm"])
    def test_a_method_or_budget_of_the_wrong_type_is_invalid(self, method, em, message):
        # the first two raised AttributeError, and the last returned a verdict
        with pytest.raises(InvalidParameter, match=message):
            check_inv(method, M3, DEFAULT_TIE_TOL, em)

    def test_the_tie_tolerance_is_checked_before_the_method(self):
        with pytest.raises(InvalidParameter, match="tie_tol must be a non-negative number"):
            check_inv("rgm", M3, -1.0, 5)


class TestSearchArgumentTypes:
    """Each case raised AttributeError or KeyError, or none at all."""

    cfg = SearchConfig(seed=0, trials=5)

    @pytest.mark.parametrize("args, message", [
        (("rgm", AxiomId.INV, cfg), "method must be a MethodId, got 'rgm'"),
        ((MethodId.RGM, "INV", cfg), "axiom must be an AxiomId, got 'INV'"),
        ((MethodId.RGM, AxiomId.INV, 12), "cfg must be a SearchConfig, got 12"),
        ((MethodId.EM, AxiomId.INV, cfg, 1e-9, 5), "em must be an EmOptions, got 5"),
    ])
    def test_falsify_takes_its_own_kinds(self, args, message):
        with pytest.raises(InvalidParameter, match=message):
            falsify(*args)

    def test_falsify_converts_the_tie_tolerance_first(self):
        with pytest.raises(InvalidParameter, match="tie_tol must be a real number"):
            falsify("rgm", AxiomId.INV, 12, "0.1")

    @pytest.mark.parametrize("args, message", [
        (("rgm", cfg), "method must be a MethodId, got 'rgm'"),
        ((MethodId.RGM, 12), "cfg must be a SearchConfig, got 12"),
        ((MethodId.RGM, cfg, 1e-9, 5), "em must be an EmOptions, got 5"),
    ])
    def test_check_implications_takes_its_own_kinds(self, args, message):
        with pytest.raises(InvalidParameter, match=message):
            check_implications(*args)

    def test_replay_takes_a_witness_and_an_em_budget(self):
        with pytest.raises(InvalidParameter, match="witness must be a Witness, got None"):
            replay(None)
        witness = falsify(MethodId.INDEX_ORDER, AxiomId.INV, self.cfg)
        assert replay(witness).holds is False
        with pytest.raises(InvalidParameter, match="em must be an EmOptions, got 5"):
            replay(witness, 5)

    @pytest.mark.parametrize("change, message", [
        ({"axiom": "RSI"}, "^axiom must be an AxiomId, got 'RSI'$"),
        ({"matrices": None}, "^matrices must be a Sequence, got None$"),
        ({"auxiliary": None}, "^auxiliary must be a Mapping, got None$"),
        ({"auxiliary": {"kappa": "5/1", "pair": [1, 2]}}, "^witness auxiliary has no 'tie_tol'$"),
        ({"auxiliary": {"pair": [1, 2], "tie_tol": 1e-9}}, "^witness auxiliary has no 'kappa'$"),
        ({"auxiliary": {"kappa": 3, "pair": [1, 2], "tie_tol": 1e-9}}, "^bad exponent 3$"),
        # the witness itself now rejects these, so witness_json_dict never
        # meets them: it raised a bare AttributeError or TypeError
        ({"method": "rgm"}, "^method must be a MethodId, got 'rgm'$"),
        ({"matrices": ("x",)}, "^matrix must be a PCM, got 'x'$"),
        ({"narrative": None}, "^narrative must be a str, got None$"),
        # a spec's arguments raised a bare IndexError or TypeError
        *[({"axiom": axiom, "matrices": ()}, "^witness has no matrix$")
          for axiom in (AxiomId.RSI, AxiomId.INV, AxiomId.ANO)],
        ({"axiom": AxiomId.AI, "matrices": ()},
         "^aggregation invariance needs at least two matrices$"),
        *[({"axiom": AxiomId.IIC, "auxiliary": {"cell": [2, 3], "value": 2.0, "pair": [0, 1],
                                                "tie_tol": 1e-9, name: value}},
           f"^{name} must be a pair of numbers, got {value}$")
          for name in ("cell", "pair") for value in (None, 3)],
        *[({"axiom": AxiomId.RES, "auxiliary": {"pair": value, "increase": 2.0, "tie_tol": 1e-9}},
           f"^pair must be a pair of numbers, got {value}$") for value in (None, 2)],
    ], ids=["axiom", "matrices", "auxiliary", "tie_tol", "kappa", "kappa-int", "method",
            "matrix", "narrative", "RSI-empty", "INV-empty", "ANO-empty", "AI-empty",
            "IIC-cell-None", "IIC-cell-int", "IIC-pair-None", "IIC-pair-int",
            "RES-pair-None", "RES-pair-int"])
    @pytest.mark.filterwarnings("error")
    def test_replay_checks_its_witness_fields(self, change, message):
        # these raised a bare AttributeError, TypeError or KeyError
        witness = falsify(MethodId.ROW_ARITHMETIC_MEAN, AxiomId.RSI, SearchConfig(seed=0, trials=200))
        assert not replay(witness).holds
        with pytest.raises(InvalidParameter, match=message):
            replay(dataclasses.replace(witness, **change))


def built_image(axiom, matrices, aux):
    """How the public transform that builds a check's image ends on its
    inputs: the image, or the type and text of the error it raises."""
    a = matrices[0]
    return settle({
        AxiomId.ANO: lambda: permute(a, Permutation(aux["permutation"])),
        AxiomId.AI: lambda: aggregate(matrices),
        AxiomId.INV: lambda: opposite(a),
        AxiomId.RSI: lambda: power(a, RationalExponent.parse(aux["kappa"])),
        AxiomId.IIC: lambda: a.with_entry(*aux["cell"], aux["value"]),
        AxiomId.RES: lambda: a.with_entry(*aux["pair"], aux["increase"]),
    }[axiom])


class TestImageErrors:
    """A check or a search rejects an image exactly where the public
    transform that builds it raises, and with that transform's error:
    an RSI power that overflows or underflows, an IIC value whose
    reciprocal overflows, an RES increase of inf where the pair starts
    above.  Permuted, opposite and pooled matrices are accepted at any
    span of valid entries."""

    REJECTED = [
        (AxiomId.RSI, [M3], {"kappa": "2000/1"}),  # 4**2000 overflows
        (AxiomId.RSI, [opposite(M3)], {"kappa": "2000/1"}),  # (1/4)**2000 underflows
        (AxiomId.RSI, [PCM.from_upper([[1, 0.5], [1, 1]])], {"kappa": "1030/1"}),  # subnormal
        (AxiomId.IIC, [M4], {"cell": [2, 3], "value": 1e-320, "pair": [0, 1]}),
        (AxiomId.IIC, [M4], {"cell": [2, 3], "value": 5e-309, "pair": [0, 1]}),
        (AxiomId.RES, [M3], {"pair": [0, 1], "increase": math.inf}),
    ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the transforms overflow
    @pytest.mark.parametrize("axiom, matrices, aux", REJECTED, ids=[
        "rsi-overflow", "rsi-underflow", "rsi-subnormal", "iic-1e-320", "iic-5e-309", "res-inf",
    ])
    @pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
    def test_a_check_raises_the_error_of_the_transform(self, method, axiom, matrices, aux):
        expected = built_image(axiom, matrices, aux)
        assert isinstance(expected, tuple)
        for m in matrices:  # so the check reaches the image
            method_rank(method, m)
        inputs = {**aux, "tie_tol": DEFAULT_TIE_TOL}
        assert outcome(_run_check, method, axiom, matrices, inputs) == expected

    # (axiom, method, cfg, trial): the method holds the axiom on every
    # image that is built, and ``trial`` is the first trial of ``cfg``
    # whose check does not hold
    SEARCHES = [
        (AxiomId.RSI, MethodId.FLAT, SearchConfig(
            seed=1, trials=15, n_range=(2, 3), entry_log_range=(-400.0, 400.0)), 14),
        (AxiomId.IIC, MethodId.FLAT, SearchConfig(
            seed=4, trials=27, n_range=(4, 4), entry_log_range=(-712.0, 0.0)), 26),
        (AxiomId.RES, MethodId.INDEX_ORDER, SearchConfig(
            seed=2, trials=2, n_range=(2, 2), entry_log_range=(-800.0, 800.0)), 1),
    ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the draws overflow
    @pytest.mark.parametrize("axiom, method, cfg, trial", SEARCHES, ids=["rsi", "iic", "res"])
    def test_a_search_raises_the_error_of_the_transform(self, axiom, method, cfg, trial):
        expected = built_image(axiom, *trial_inputs(axiom, cfg, trial, DEFAULT_TIE_TOL))
        assert isinstance(expected, tuple)
        assert falsify(method, axiom, dataclasses.replace(cfg, trials=trial)) is None
        assert outcome(falsify, method, axiom, cfg) == expected

    ACCEPTED = [
        (AxiomId.RSI, MethodId.FLAT, [M3], {"kappa": "500/1"}),  # 4**500 = 2**1000
        (AxiomId.IIC, MethodId.FLAT, [M4], {"cell": [2, 3], "value": 6e-309, "pair": [0, 1]}),
        (AxiomId.RES, MethodId.INDEX_ORDER, [M3], {"pair": [0, 1], "increase": 1e308}),
    ]

    @pytest.mark.parametrize("axiom, method, matrices, aux", ACCEPTED, ids=["rsi", "iic", "res"])
    def test_an_image_at_the_float_range_that_is_built_is_accepted(
        self, axiom, method, matrices, aux
    ):
        assert isinstance(built_image(axiom, matrices, aux), PCM)
        inputs = {**aux, "tie_tol": DEFAULT_TIE_TOL}
        assert _run_check(method, axiom, matrices, inputs).holds

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the draws overflow
    @pytest.mark.parametrize("axiom", [AxiomId.ANO, AxiomId.INV, AxiomId.AI], ids=lambda a: a.value)
    def test_permuted_opposite_and_pooled_matrices_are_accepted(self, axiom):
        # FLAT ranks every valid matrix and holds these axioms wherever it ranks
        cfg = SearchConfig(seed=5, trials=300, n_range=(2, 8), entry_log_range=(-709.7, 709.7))
        for trial in range(cfg.trials):
            assert isinstance(built_image(axiom, *trial_inputs(axiom, cfg, trial, 1e-9)), PCM)
        assert falsify(MethodId.FLAT, axiom, cfg) is None


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
