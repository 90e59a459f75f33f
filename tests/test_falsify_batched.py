"""Differential tests of the batched falsifier against the scalar trial loop.

``falsify`` judges the trials of the closed-form methods as stacks and
re-runs only the first flagged trial through the scalar check; these tests
pin that its flags, witnesses and errors are the scalar loop's.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmrank import (
    PCM,
    AxiomId,
    InvalidParameter,
    MethodId,
    NonPositive,
    PairRelation,
    SearchConfig,
    falsify,
    method_rank,
    method_scores,
    opposite,
    pair_relation,
    witness_json_dict,
)
from pcmrank.axioms import _falsify_scalar, _flag_trials, _relations, _run_trial, _trial_rng
from pcmrank.weighting import EmOptions, closed_form_scores

CLOSED_FORM = [
    MethodId.RGM,
    MethodId.ROW_ARITHMETIC_MEAN,
    MethodId.FIRST_COLUMN,
    MethodId.FAVOURABLE_PRODUCT,
]
TIE_TOLS = [1e-9, 0.05, 0.3]
SIGN = {PairRelation.STRICTLY_ABOVE: 1, PairRelation.TIED: 0, PairRelation.STRICTLY_BELOW: -1}


def scalar_verdicts(method, axiom, cfg, tie_tol):
    return np.array([
        not _run_trial(method, axiom, cfg, _trial_rng(cfg.seed, t), tie_tol, EmOptions()).holds
        for t in range(cfg.trials)
    ])


def outcome(search, method, axiom, cfg, tie_tol):
    """The witness as JSON, or the type and text of the error raised."""
    try:
        witness = search(method, axiom, cfg, tie_tol, EmOptions())
    except Exception as exc:  # the two searches must fail alike
        return type(exc).__name__, str(exc)
    return None if witness is None else witness_json_dict(witness)


def random_stack(rng, count, n, span=2.2):
    grids = np.exp(rng.uniform(-span, span, size=(count, n, n)))
    return np.array([PCM.from_upper(g).entries for g in grids])


@pytest.mark.parametrize("method", CLOSED_FORM, ids=lambda m: m.value)
def test_stacked_scores_carry_the_scalar_bits(method):
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, 9, 16, 64):
        stack = random_stack(rng, 7, n)
        # C-ordered matrices and transposed views, as the INV stacks use
        for view, one in ((stack, PCM), (stack.transpose(0, 2, 1), lambda e: opposite(PCM(e)))):
            scores = closed_form_scores(method, view)
            for b in range(len(stack)):
                assert np.array_equal(scores[b], method_scores(method, one(stack[b])))


@pytest.mark.parametrize("tie_tol", TIE_TOLS + [0.0])
def test_relations_match_pair_relations(tie_tol):
    rng = np.random.default_rng(9)
    for n in (2, 4, 7, 12):
        stack = random_stack(rng, 30, n, span=0.4)
        for method in CLOSED_FORM:
            rel, ok = _relations(method, stack, tie_tol)
            assert ok.all()
            for b in range(len(stack)):
                rank = method_rank(method, PCM(stack[b]), tie_tol)
                expected = [[SIGN[pair_relation(rank, i, j)] if i != j else 0 for j in range(n)]
                            for i in range(n)]
                assert rel[b].tolist() == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", CLOSED_FORM, ids=lambda m: m.value)
def test_rejected_entries_clear_the_mask(method):
    stack = np.ones((3, 4, 4))
    stack[0, 2, 3], stack[0, 3, 2] = np.inf, 0.0  # overflow away from column 1
    stack[1, 1, 2], stack[1, 2, 1] = 5e-324, np.inf  # underflow
    for bad in stack[:2]:
        with pytest.raises(NonPositive):
            PCM(bad)
    _, ok = _relations(method, stack, 1e-9)
    assert ok.tolist() == [False, False, True]


def test_tie_chain_needs_four_squarings():
    # weights 1.2**i: neighbours tie at tie_tol 0.3, next-but-one do not,
    # so the 16 alternatives form one group only through a 15-link chain
    w = 1.2 ** np.arange(16)
    a = PCM.from_upper(w[:, None] / w[None, :])
    rel, ok = _relations(MethodId.RGM, a.entries[None], 0.3)
    assert ok.all()
    assert not rel.any()
    assert method_rank(MethodId.RGM, a, 0.3).rank.tolist() == [0] * 16


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", CLOSED_FORM, ids=lambda m: m.value)
def test_flags_equal_scalar_verdicts(method, axiom):
    cfg = SearchConfig(seed=42, trials=400)
    for tie_tol in TIE_TOLS:
        flags = _flag_trials(method, axiom, cfg, range(cfg.trials), tie_tol)
        assert np.array_equal(flags, scalar_verdicts(method, axiom, cfg, tie_tol)), tie_tol


@pytest.mark.parametrize("method, axiom", [
    (MethodId.RGM, AxiomId.INV),
    (MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI),
    (MethodId.FAVOURABLE_PRODUCT, AxiomId.RES),
])
def test_flags_equal_scalar_verdicts_up_to_sixteen_alternatives(method, axiom):
    cfg = SearchConfig(seed=42, trials=150, n_range=(2, 16))
    flags = _flag_trials(method, axiom, cfg, range(cfg.trials), 0.3)
    assert np.array_equal(flags, scalar_verdicts(method, axiom, cfg, 0.3))


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(CLOSED_FORM),
    axiom=st.sampled_from(list(AxiomId)),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 40),
    tie_tol=st.sampled_from(TIE_TOLS),
)
@example(method=MethodId.RGM, axiom=AxiomId.AI, seed=0, trials=1, tie_tol=0.3)
@example(method=MethodId.ROW_ARITHMETIC_MEAN, axiom=AxiomId.AI, seed=1, trials=2, tie_tol=1e-9)
@example(method=MethodId.FIRST_COLUMN, axiom=AxiomId.ANO, seed=2, trials=3, tie_tol=0.05)
@example(method=MethodId.FAVOURABLE_PRODUCT, axiom=AxiomId.RES, seed=3, trials=12, tie_tol=0.3)
@example(method=MethodId.RGM, axiom=AxiomId.IIC, seed=4, trials=13, tie_tol=0.3)
def test_witness_equals_scalar_loop(method, axiom, seed, trials, tie_tol):
    cfg = SearchConfig(seed=seed, trials=trials)
    assert outcome(falsify, method, axiom, cfg, tie_tol) == outcome(
        _falsify_scalar, method, axiom, cfg, tie_tol
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("log_range", [(-800.0, 800.0), (-720.0, 720.0), (-300.0, 300.0)])
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", CLOSED_FORM, ids=lambda m: m.value)
def test_rejected_inputs_raise_at_the_same_trial(method, axiom, log_range):
    # overflowing entries, scores and exponents: each budget must end the
    # same way, so the error comes from the same trial on both paths
    for trials in (1, 2, 5, 12, 40):
        cfg = SearchConfig(seed=42, trials=trials, entry_log_range=log_range)
        assert outcome(falsify, method, axiom, cfg, 1e-9) == outcome(
            _falsify_scalar, method, axiom, cfg, 1e-9
        )


@pytest.mark.parametrize("tie_tol", [-1.0, float("nan")])
@pytest.mark.parametrize("method", CLOSED_FORM, ids=lambda m: m.value)
def test_bad_tie_tolerance_raises_as_on_the_scalar_path(method, tie_tol):
    cfg = SearchConfig(seed=42, trials=20)
    batched = outcome(falsify, method, AxiomId.INV, cfg, tie_tol)
    assert batched == outcome(_falsify_scalar, method, AxiomId.INV, cfg, tie_tol)
    assert batched[0] == InvalidParameter.__name__
