"""Differential tests of the batched falsifier against a trial-by-trial loop.

``falsify`` judges the trials as stacks and re-runs only the first flagged
trial through its check; these tests pin that its flags equal the
reference pair-loop verdicts of ``oracle`` and that its witnesses and
errors are those of a loop that checks every trial in order.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcmrank import (
    PCM,
    AxiomId,
    InvalidParameter,
    MethodId,
    NoConvergence,
    NonPositive,
    PairRelation,
    PcmError,
    SearchConfig,
    falsify,
    method_rank,
    method_scores,
    opposite,
    pair_relation,
    witness_json_dict,
)
from pcmrank import axioms
from pcmrank.axioms import _draw, _flag_trials, _relations, _run_check, _shrink, _trial_rng
from pcmrank.weighting import EmOptions, closed_form_scores, em_weight_stack, em_weights

import oracle

CLOSED_FORM = [
    MethodId.RGM,
    MethodId.ROW_ARITHMETIC_MEAN,
    MethodId.FIRST_COLUMN,
    MethodId.FAVOURABLE_PRODUCT,
]
STACKED = CLOSED_FORM + [MethodId.EM]
RANK_ONLY = [MethodId.FLAT, MethodId.INDEX_ORDER]
TIE_TOLS = [1e-9, 0.05, 0.3]
SIGN = {PairRelation.STRICTLY_ABOVE: 1, PairRelation.TIED: 0, PairRelation.STRICTLY_BELOW: -1}


def trial_inputs(axiom, cfg, trial, tie_tol):
    grids, aux = _draw(axiom, cfg, _trial_rng(cfg.seed, trial))
    return [PCM.from_upper(g) for g in grids], {**aux, "tie_tol": tie_tol}


def scalar_verdicts(method, axiom, cfg, tie_tol):
    """Per trial: does the reference check fail, or abort without converging?"""

    def flagged(t):
        try:
            matrices, aux = trial_inputs(axiom, cfg, t, tie_tol)
            return not oracle.run_check(method, axiom, matrices, aux, EmOptions()).holds
        except NoConvergence:
            return True

    return np.array([flagged(t) for t in range(cfg.trials)])


def scalar_search(method, axiom, cfg, tie_tol, em=EmOptions()):
    """The search as a loop: every trial in order through its check, and
    the first violation shrunk."""
    for trial in range(cfg.trials):
        matrices, aux = trial_inputs(axiom, cfg, trial, tie_tol)
        verdict = _run_check(method, axiom, matrices, aux, em)
        if not verdict.holds:
            return _shrink(verdict.witness, em)
    return None


def outcome(search, method, axiom, cfg, tie_tol, em=EmOptions()):
    """The witness as JSON, or the type and text of the error raised."""
    try:
        witness = search(method, axiom, cfg, tie_tol, em)
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


def test_stacked_em_weights_carry_the_scalar_bits():
    rng = np.random.default_rng(6)
    for n in (2, 3, 6, 9, 16, 64):
        stack = random_stack(rng, 8, n)
        # C-ordered matrices, a stack of pairs of them, and transposed
        # views as INV's opposite images, which PCM keeps in Fortran order
        views = (
            (stack, PCM),
            (stack.reshape(4, 2, n, n), PCM),
            (stack.transpose(0, 2, 1), lambda e: opposite(PCM(e))),
        )
        for view, one in views:
            weights = em_weight_stack(view).reshape(len(stack), n)
            for b in range(len(stack)):
                assert np.array_equal(weights[b], em_weights(one(stack[b]))[0].w), (n, b)


@pytest.mark.parametrize("budget", [1, 3, 12, 40])
def test_stacked_em_leaves_unconverged_rows_nan(budget):
    rng = np.random.default_rng(8)
    stack = np.concatenate([random_stack(rng, 20, 5, span=1.0), np.ones((1, 5, 5))])
    opts = EmOptions(max_iterations=budget)
    weights = em_weight_stack(stack, opts)
    converged = 0
    for b in range(len(stack)):
        try:
            w, _ = em_weights(PCM(stack[b]), opts)
        except NoConvergence:
            assert np.isnan(weights[b]).all()
        else:
            assert np.array_equal(weights[b], w.w)
            converged += 1
    assert converged >= 1  # the all-ones matrix converges at once


@pytest.mark.parametrize("tie_tol", TIE_TOLS + [0.0])
def test_relations_match_pair_relations(tie_tol):
    rng = np.random.default_rng(9)
    for n in (2, 4, 7, 12):
        stack = random_stack(rng, 30, n, span=0.4)
        for method in MethodId:
            rel, ok = _relations(method, stack, tie_tol)
            assert ok.all()
            for b in range(len(stack)):
                rank = method_rank(method, PCM(stack[b]), tie_tol)
                expected = [[SIGN[pair_relation(rank, i, j)] if i != j else 0 for j in range(n)]
                            for i in range(n)]
                assert rel[b].tolist() == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", STACKED + RANK_ONLY, ids=lambda m: m.value)
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
@pytest.mark.parametrize("method", CLOSED_FORM + RANK_ONLY, ids=lambda m: m.value)
def test_flags_equal_scalar_verdicts(method, axiom):
    cfg = SearchConfig(seed=42, trials=400)
    for tie_tol in TIE_TOLS:
        flags = _flag_trials(method, axiom, cfg, range(cfg.trials), tie_tol)
        assert np.array_equal(flags, scalar_verdicts(method, axiom, cfg, tie_tol)), tie_tol


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_em_flags_equal_scalar_verdicts(axiom, monkeypatch):
    cfg = SearchConfig(seed=42, trials=200)
    for tie_tol in (1e-9, 0.3):
        verdicts = scalar_verdicts(MethodId.EM, axiom, cfg, tie_tol)
        capped = _flag_trials(MethodId.EM, axiom, cfg, range(cfg.trials), tie_tol)
        with monkeypatch.context() as patch:
            # iterating as long as the scalar check does, the flags are exact
            patch.setattr(axioms, "_EM_STACK_ITERATIONS", EmOptions().max_iterations)
            exact = _flag_trials(MethodId.EM, axiom, cfg, range(cfg.trials), tie_tol)
        assert np.array_equal(exact, verdicts), tie_tol
        # the iteration cap only adds flags, for matrices slower than the cap
        assert np.all(capped >= exact), tie_tol


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
    method=st.sampled_from(list(MethodId)),
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
@example(method=MethodId.EM, axiom=AxiomId.INV, seed=5, trials=9, tie_tol=1e-9)
@example(method=MethodId.EM, axiom=AxiomId.AI, seed=6, trials=40, tie_tol=0.05)
@example(method=MethodId.FLAT, axiom=AxiomId.RES, seed=7, trials=5, tie_tol=1e-9)
@example(method=MethodId.INDEX_ORDER, axiom=AxiomId.ANO, seed=8, trials=20, tie_tol=0.3)
def test_witness_equals_scalar_loop(method, axiom, seed, trials, tie_tol):
    cfg = SearchConfig(seed=seed, trials=trials)
    assert outcome(falsify, method, axiom, cfg, tie_tol) == outcome(
        scalar_search, method, axiom, cfg, tie_tol
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("log_range", [(-800.0, 800.0), (-720.0, 720.0), (-300.0, 300.0)])
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", CLOSED_FORM + RANK_ONLY, ids=lambda m: m.value)
def test_rejected_inputs_raise_at_the_same_trial(method, axiom, log_range):
    # overflowing entries, scores and exponents: each budget must end the
    # same way, so the error comes from the same trial on both paths
    for trials in (1, 2, 5, 12, 40):
        cfg = SearchConfig(seed=42, trials=trials, entry_log_range=log_range)
        assert outcome(falsify, method, axiom, cfg, 1e-9) == outcome(
            scalar_search, method, axiom, cfg, 1e-9
        )


@pytest.mark.parametrize("tie_tol", [-1.0, float("nan")])
@pytest.mark.parametrize("method", CLOSED_FORM + RANK_ONLY, ids=lambda m: m.value)
def test_bad_tie_tolerance_raises_as_on_the_scalar_path(method, tie_tol):
    cfg = SearchConfig(seed=42, trials=20)
    batched = outcome(falsify, method, AxiomId.INV, cfg, tie_tol)
    assert batched == outcome(scalar_search, method, AxiomId.INV, cfg, tie_tol)
    assert batched[0] == InvalidParameter.__name__


def test_em_no_convergence_aborts_both_paths_at_the_same_trial():
    cfg = SearchConfig(seed=2, trials=100)
    batched = outcome(falsify, MethodId.EM, AxiomId.RSI, cfg, 1e-9)
    assert batched == outcome(scalar_search, MethodId.EM, AxiomId.RSI, cfg, 1e-9)
    assert batched == ("NoConvergence", "no convergence to 1e-12 in 10000 iterations")


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_starved_em_ends_both_paths_alike(axiom):
    # a budget under the stack's cap: unconverged matrices flag their trial
    # and the scalar re-run raises, or decides, as the trial loop does
    starved = EmOptions(max_iterations=5)
    for seed in (0, 42):
        cfg = SearchConfig(seed=seed, trials=20)
        assert outcome(falsify, MethodId.EM, axiom, cfg, 1e-9, starved) == outcome(
            scalar_search, MethodId.EM, axiom, cfg, 1e-9, starved
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", [MethodId.RGM, MethodId.EM], ids=lambda m: m.value)
def test_overflowing_res_increase_raises_a_pcm_error(method):
    cfg = SearchConfig(seed=42, trials=5, entry_log_range=(-800.0, 800.0))
    for search in (falsify, scalar_search):
        with pytest.raises(PcmError):
            search(method, AxiomId.RES, cfg, 1e-9, EmOptions())


@pytest.mark.parametrize("log_range", [
    (0.5, 0.5), (1.0, -1.0), (-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0),
])
def test_search_config_rejects_degenerate_entry_log_ranges(log_range):
    with pytest.raises(InvalidParameter):
        SearchConfig(seed=0, trials=5, entry_log_range=log_range)
