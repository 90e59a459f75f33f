"""Differential tests of the batched falsifier against a trial-by-trial loop.

``falsify`` judges the trials as stacks, within the caller's EM budget,
and settles its first flagged trial from the stack row that judged it,
with that trial's witness or its check's error; these tests pin that its
flags equal the reference pair-loop verdicts of ``oracle`` and that its
witnesses and errors are those of a loop that checks every trial in
order.
"""

import dataclasses
import hashlib
import json
import math
import sys
import threading
import warnings

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
    check_implications,
    check_res,
    falsify,
    method_rank,
    method_scores,
    opposite,
    pair_relation,
)
from pcmrank import axioms
from pcmrank.axioms import _chunks, _draw, _flag_trials, _run_check, _trial_rng
from pcmrank.core import relation
from pcmrank.weighting import EmOptions, closed_form_scores, em_weight_stack, em_weights, rank_keys

import oracle
from harness import (
    LOG9,
    as_outcome,
    falsify_unshrunk,
    outcome,
    reference_search,
    scalar_search,
    scalar_verdicts,
    trial_inputs,
)

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


def _relations(method, e, tie_tol):
    """The relation arrays of ``method``'s rankings of the stack ``e``, and
    the mask of the matrices it ranks (see ``rank_keys``)."""
    keys, ok = rank_keys(method, e, tie_tol)
    return relation(keys), ok


def random_stack(rng, count, n, span=2.2):
    grids = np.exp(rng.uniform(-span, span, size=(count, n, n)))
    return np.array([PCM.from_upper(g).entries for g in grids])


@pytest.mark.parametrize("method", CLOSED_FORM, ids=lambda m: m.value)
def test_stacked_scores_carry_the_scalar_bits(method):
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, 9, 16, 64):
        stack = random_stack(rng, 7, n)
        # C-ordered matrices and their C-ordered opposites, as the INV stacks use
        opposites = np.ascontiguousarray(stack.transpose(0, 2, 1))
        for view, one in ((stack, PCM), (opposites, lambda e: opposite(PCM(e)))):
            scores = closed_form_scores(method, view)
            for b in range(len(stack)):
                assert np.array_equal(scores[b], method_scores(method, one(stack[b])))


def test_stacked_em_weights_carry_the_scalar_bits():
    rng = np.random.default_rng(6)
    for n in (2, 3, 6, 9, 16, 64):
        stack = random_stack(rng, 8, n)
        # C-ordered matrices, a stack of pairs of them, and their opposites
        # copied into C order, as the search stacks INV's images
        views = (
            (stack, PCM),
            (stack.reshape(4, 2, n, n), PCM),
            (np.ascontiguousarray(stack.transpose(0, 2, 1)), lambda e: opposite(PCM(e))),
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
                rank = oracle.method_rank(method, PCM(stack[b]), tie_tol)
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
        flags, _, _ = _flag_trials(method, axiom, cfg, range(cfg.trials), tie_tol)
        assert np.array_equal(flags, scalar_verdicts(method, axiom, cfg, tie_tol)), tie_tol


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_em_flags_equal_scalar_verdicts(axiom):
    cfg = SearchConfig(seed=42, trials=200)
    for tie_tol in (1e-9, 0.3):
        flags, _, _ = _flag_trials(MethodId.EM, axiom, cfg, range(cfg.trials), tie_tol)
        assert np.array_equal(flags, scalar_verdicts(MethodId.EM, axiom, cfg, tie_tol)), tie_tol


@pytest.mark.parametrize("method, axiom", [
    (MethodId.RGM, AxiomId.INV),
    (MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI),
    (MethodId.FAVOURABLE_PRODUCT, AxiomId.RES),
])
def test_flags_equal_scalar_verdicts_up_to_sixteen_alternatives(method, axiom):
    cfg = SearchConfig(seed=42, trials=150, n_range=(2, 16))
    flags, _, _ = _flag_trials(method, axiom, cfg, range(cfg.trials), 0.3)
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


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_falsify_equals_the_reference_loop(method, axiom):
    # the first flagged trial's stack row gives its witness, or its
    # check's error: the loop's outcome, before shrinking as well as after
    for seed, tie_tol in ((0, 1e-9), (42, 1e-9), (7, 0.3)):
        cfg = SearchConfig(seed=seed, trials=60)
        assert outcome(falsify, method, axiom, cfg, tie_tol) == reference_search(
            method, axiom, cfg, tie_tol
        ), (seed, tie_tol)
        found = outcome(falsify_unshrunk, method, axiom, cfg, tie_tol)
        assert found == reference_search(method, axiom, cfg, tie_tol, shrink=False), (seed, tie_tol)


@pytest.mark.parametrize("budget", [32, 48, 64])
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_starved_em_falsify_equals_the_reference_loop(axiom, budget):
    # rows converged within the budget give the witness; an unconverged
    # row raises NoConvergence, as the loop's check does
    starved = EmOptions(max_iterations=budget)
    for seed in (0, 1, 42):
        cfg = SearchConfig(seed=seed, trials=30)
        assert outcome(falsify, MethodId.EM, axiom, cfg, 1e-9, starved) == reference_search(
            MethodId.EM, axiom, cfg, 1e-9, starved
        ), seed


@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_ai_chunks_mixing_pool_sizes_end_as_the_reference_loop(method):
    # chunks of 8 and 16 trials pool 2, 3 and 4 matrices of one size, all
    # ranked in one stack
    cfg = SearchConfig(seed=3, trials=31, n_range=(3, 4))
    for trials in (range(7, 15), range(15, 31)):
        flags, draws, _ = _flag_trials(method, AxiomId.AI, cfg, trials, 0.3)
        pools = {(grids[0].shape[0], len(grids)) for grids, _ in draws}
        assert len(pools) > len({n for n, _ in pools})
        assert np.array_equal(flags, scalar_verdicts(method, AxiomId.AI, cfg, 0.3)[trials])
    for tie_tol in (1e-9, 0.3):
        assert outcome(falsify, method, AxiomId.AI, cfg, tie_tol) == reference_search(
            method, AxiomId.AI, cfg, tie_tol
        )


DOUBLING = [1, 2, 4, 8, 16, 32, 64, 128]


@pytest.mark.parametrize("trials, cap, sizes", [
    (1, 256, [1]), (2, 256, [2]), (3, 256, [3]), (7, 256, [7]),
    (12, 256, [12]), (13, 256, [13]), (16, 256, [16]), (17, 256, [1, 2, 14]),
    (20, 256, [1, 2, 17]), (24, 256, [1, 2, 21]),
    (60, 256, [1, 2, 4, 53]), (200, 256, DOUBLING[:5] + [169]),
    (255, 256, DOUBLING[:6] + [192]), (256, 256, DOUBLING[:6] + [193]),
    (257, 256, DOUBLING[:6] + [194]), (2000, 256, DOUBLING + [256] * 6 + [209]),
    (10_000, 256, DOUBLING + [256] * 38 + [17]),
    (1, 64, [1]), (2, 64, [2]), (3, 64, [3]), (7, 64, [7]),
    (12, 64, [12]), (13, 64, [13]), (16, 64, [16]), (17, 64, [1, 2, 14]),
    (20, 64, [1, 2, 17]), (24, 64, [1, 2, 21]),
    (60, 64, [1, 2, 4, 53]), (255, 64, DOUBLING[:-1] + [64] * 2),
    (256, 64, DOUBLING[:-1] + [64] * 2 + [1]), (257, 64, DOUBLING[:-1] + [64] * 2 + [2]),
    (2000, 64, DOUBLING[:-1] + [64] * 29 + [17]), (10_000, 64, DOUBLING[:-1] + [64] * 154 + [17]),
    # below the one-chunk bound, a budget beyond the cap still splits
    (9, 8, [1, 8]), (12, 8, [1, 2, 4, 5]), (3, 2, [1, 2]),
])
def test_chunks_double_and_the_last_takes_the_rest_within_the_cap(trials, cap, sizes):
    chunks = list(_chunks(trials, cap))
    assert [len(c) for c in chunks] == sizes
    assert [c.start for c in chunks] == [0] + [c.stop for c in chunks[:-1]]
    assert chunks[-1].stop == trials
    assert chunks[0] == range(trials if trials <= min(16, cap) else 1)
    assert max(sizes) <= cap


def test_every_budget_is_covered_by_chunks_within_the_cap():
    for cap in (1, 2, 8, 16, 17, 64, 256):
        for trials in range(1, 1100):
            chunks = list(_chunks(trials, cap))
            if trials <= min(16, cap):
                assert chunks == [range(trials)], (trials, cap)
                continue
            assert [c.start for c in chunks] == [0] + [c.stop for c in chunks[:-1]]
            assert chunks[-1].stop == trials and len(chunks[0]) == 1
            assert max(map(len, chunks)) <= cap, (trials, cap)
            for before, chunk in zip(chunks, chunks[1:-1]):
                assert len(chunk) == min(2 * len(before), cap), (trials, cap)
            for chunk in chunks[1:]:
                assert chunk.stop < 8 * (chunk.start + 1), (trials, cap)


@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_falsify_equals_the_reference_loop_where_the_last_chunk_takes_the_rest(method):
    # em's IIC witnesses at seeds 42 and 0 are trials 8 and 9, inside the
    # one chunk of 9 trials and of 12, and the last chunk of 21 ([1, 2, 18])
    # and of 45 ([1, 2, 4, 38]); AI's come from trials 2 to 51, inside
    # merged chunks at cap 256 and at AI's 64
    for trials in (9, 12, 21, 45):
        for seed in (0, 42):
            cfg = SearchConfig(seed=seed, trials=trials)
            assert outcome(falsify, method, AxiomId.IIC, cfg, 1e-9) == reference_search(
                method, AxiomId.IIC, cfg, 1e-9
            ), (trials, seed)
    for trials in (60, 100, 130):
        for seed in (0, 1, 42):
            cfg = SearchConfig(seed=seed, trials=trials)
            assert outcome(falsify, method, AxiomId.AI, cfg, 1e-9) == reference_search(
                method, AxiomId.AI, cfg, 1e-9
            ), (trials, seed)


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_chunking_never_changes_a_result(method, axiom, monkeypatch):
    # falsify ends with the same witness or error as when every chunk holds
    # one trial, at budgets of one chunk (1, 12 and 16 trials) and budgets
    # whose last chunk takes the rest (1, 2 + 14 and 1, 2, 4 + 38), and for
    # em also within a starved budget
    ems = [EmOptions()] + ([EmOptions(max_iterations=5)] if method is MethodId.EM else [])
    cases = [(SearchConfig(seed=seed, trials=trials), em)
             for em in ems for trials in (1, 12, 16, 17, 45) for seed in range(3)]
    chunked = [outcome(falsify, method, axiom, cfg, 1e-9, em) for cfg, em in cases]
    monkeypatch.setattr(axioms, "_chunks", lambda n, cap: (range(t, t + 1) for t in range(n)))
    assert [outcome(falsify, method, axiom, cfg, 1e-9, em) for cfg, em in cases] == chunked


@pytest.mark.parametrize("method", [MethodId.EM, MethodId.ROW_ARITHMETIC_MEAN,
                                    MethodId.FAVOURABLE_PRODUCT], ids=lambda m: m.value)
def test_small_chunk_caps_end_as_the_reference_loop(method, monkeypatch):
    # caps of 8 and, for AI, 2 trials: full chunks before the last, and a
    # last chunk that does not fit the cap and is not merged
    for axiom, trials in ((AxiomId.IIC, 45), (AxiomId.AI, 60)):
        for seed in (0, 1, 42):
            cfg = SearchConfig(seed=seed, trials=trials)
            with monkeypatch.context() as patch:
                patch.setattr(axioms, "_CHUNK_MATRICES", 8)
                found = outcome(falsify, method, axiom, cfg, 1e-9)
            assert found == reference_search(method, axiom, cfg, 1e-9), (axiom, seed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("config", [
    {"seed": 42, "entry_log_range": (-800.0, 800.0)},
    {"seed": 42, "entry_log_range": (-720.0, 720.0)},
    {"seed": 42, "entry_log_range": (-300.0, 300.0)},
    # a drawn IIC value beyond the float range is inf, which the check's
    # argument rule rejects before any ranking error
    {"seed": 15, "n_range": (4, 4), "entry_log_range": (-1.0, 711.0)},
])
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", STACKED + RANK_ONLY, ids=lambda m: m.value)
def test_rejected_inputs_raise_at_the_same_trial(method, axiom, config):
    # overflowing entries, scores and exponents: each budget must end the
    # same way, so the error comes from the same trial on both paths
    for trials in (1, 2, 5, 10, 12, 40):
        cfg = SearchConfig(trials=trials, **config)
        assert outcome(falsify, method, axiom, cfg, 1e-9) == outcome(
            scalar_search, method, axiom, cfg, 1e-9
        )


@pytest.mark.parametrize("tie_tol", [-1.0, float("nan"), "0.1"])
@pytest.mark.parametrize("method", CLOSED_FORM + RANK_ONLY, ids=lambda m: m.value)
def test_bad_tie_tolerance_raises_as_on_the_scalar_path(method, tie_tol):
    cfg = SearchConfig(seed=42, trials=20)
    batched = outcome(falsify, method, AxiomId.INV, cfg, tie_tol)
    assert batched == outcome(scalar_search, method, AxiomId.INV, cfg, tie_tol)
    assert batched[0] == InvalidParameter.__name__


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_a_numpy_tie_tolerance_judges_as_a_python_float(axiom):
    cfg, tols = SearchConfig(seed=0, trials=20), (np.float64(0.3), 0.3)
    for method in STACKED + RANK_ONLY:
        for t in range(cfg.trials):
            twins = [_run_check(method, axiom, *trial_inputs(axiom, cfg, t, tol)) for tol in tols]
            assert len({json.dumps(as_outcome(v.witness)) for v in twins}) == 1
        found = [falsify(method, axiom, cfg, tol) for tol in tols]
        assert len({json.dumps(as_outcome(w)) for w in found}) == 1
        assert found[0] is None or type(found[0].auxiliary["tie_tol"]) is float


def test_em_no_convergence_aborts_both_paths_at_the_same_trial():
    cfg = SearchConfig(seed=2, trials=100)
    batched = outcome(falsify, MethodId.EM, AxiomId.RSI, cfg, 1e-9)
    assert batched == outcome(scalar_search, MethodId.EM, AxiomId.RSI, cfg, 1e-9)
    assert batched == ("NoConvergence", "no convergence to 1e-12 in 10000 iterations")


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_starved_em_ends_both_paths_alike(axiom):
    # a starved budget: an unconverged matrix flags its trial, whose row
    # raises NoConvergence as the trial loop's check does
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


@pytest.mark.parametrize("method", STACKED, ids=lambda m: m.value)
def test_a_vacuous_res_trial_is_not_flagged_though_its_image_cannot_be_built(method):
    # both trials raise a[1][2] to inf: in trial 0 alternative 1 starts
    # strictly below 2 (a[1][2] = 1e-160), so RES holds; in trial 7 it
    # starts above (a[1][2] = 4e192), so the check raises: the improved
    # matrix cannot be built
    cfg = SearchConfig(seed=0, trials=8, n_range=(2, 2), entry_log_range=(-800.0, 800.0))
    with np.errstate(all="ignore"):
        flags, draws, _ = _flag_trials(method, AxiomId.RES, cfg, range(cfg.trials), 1e-9)
    assert [draws[t][1]["increase"] for t in (0, 7)] == [math.inf, math.inf]
    assert not flags[0] and flags[7]
    assert check_res(method, PCM.from_upper(draws[0][0][0]), (0, 1), math.inf).holds


def draw_digest(axiom, **config):
    """sha256 of ``_draw``'s grids and auxiliary values over 200 trials at
    each of four seeds; -1 and 2**64 - 1 name the same stream."""
    digest = hashlib.sha256()
    for seed in (0, 42, 2**64 - 1, -1):
        cfg = SearchConfig(seed=seed, trials=200, **config)
        for trial in range(cfg.trials):
            grids, aux = _draw(axiom, cfg, _trial_rng(seed, trial))
            for grid in grids:
                digest.update(repr(grid.shape).encode() + grid.tobytes())
            digest.update(json.dumps(aux).encode())
    return digest.hexdigest()


#: per axiom, at the default config and at n 2 to 64 with entries up to e**400
DRAW_DIGESTS = {
    AxiomId.ANO: (
        "92152673001d39b23adaf586049017f457e0129a6251de2bb1f2838b8ad4112b",
        "09164684a62f8172f0e60243e81f547ec26017feb41df0f1c2e2119a183909a3",
    ),
    AxiomId.AI: (
        "78d334ec465bac3719fcbb3a020450a01b618fecdcd41a7093adfea30bb9de1a",
        "b4a0d5c1baa37ff66c6dd35ba70042f5d44e0b435f592aa6987224167d9b43ae",
    ),
    AxiomId.INV: (
        "f9a21fd25a144f69a53be9c228c2f6ab995b121ea8c1c99b9821afcc64c3830d",
        "31a222811343a5b00776a2db43008900e9d83b5a5f3253244da9d02b62913992",
    ),
    AxiomId.RSI: (
        "57882e1442adfd875ff0d0e3c0f4943eb217e38cf0c5c335f3f5b1fed127d665",
        "0773d20db381fd5f327e745ff1a337eae00c1628829901399089f709b96d0427",
    ),
    AxiomId.IIC: (
        "da518f30fa25d096f1c0d854b5491f541aefaf7b152626018d88949970e21dfc",
        "af4e9a46038f5c4965c3b7709e086f8caebe3dc65db3845785efb289e68881cb",
    ),
    AxiomId.RES: (
        "d40fbd9660227dee5fabba75788d27001efe65cac63816c42c08df23a789895b",
        "44c63e1141d95a4def351041bf8221cd1b220730ba75d51ab052bed1b0b06d8c",
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # RES increases overflow at e**400
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_draws_keep_their_bits(axiom):
    wide = draw_digest(axiom, n_range=(2, 64), entry_log_range=(-400.0, 400.0))
    assert (draw_digest(axiom), wide) == DRAW_DIGESTS[axiom]


@pytest.mark.parametrize("log_range", [(-800.0, 800.0), (-720.0, 720.0), (-400.0, 400.0)])
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", STACKED + RANK_ONLY, ids=lambda m: m.value)
def test_wide_range_searches_warn_nothing_and_end_as_the_loop(method, axiom, log_range):
    for seed in (0, 42):
        cfg = SearchConfig(seed=seed, trials=40, entry_log_range=log_range)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = outcome(scalar_search, method, axiom, cfg, 1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would end the search as its error
            assert outcome(falsify, method, axiom, cfg, 1e-9) == expected, seed


@pytest.mark.parametrize("method", STACKED + RANK_ONLY, ids=lambda m: m.value)
def test_wide_range_lemmas_warn_nothing(method):
    for log_range in [(-800.0, 800.0), (-400.0, 400.0)]:
        cfg = SearchConfig(seed=0, trials=40, entry_log_range=log_range)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                check_implications(method, cfg, 1e-9)
            except PcmError:
                pass


def res_log_factor(cfg, trial):
    """The log of the increase factor a RES draw takes, read from the
    trial's stream after n, the grid and the pair."""
    rng = _trial_rng(cfg.seed, trial)
    n = rng.integers(cfg.n_range[0], cfg.n_range[1] + 1)
    rng.uniform(size=(n, n))
    rng.permutation(n)
    return rng.uniform(0.1, max(cfg.entry_log_range[1], math.log(3.0)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wide_range_draws_never_raise():
    cfg = SearchConfig(seed=42, trials=2000, entry_log_range=(-800.0, 800.0))
    draws = {a: [_draw(a, cfg, _trial_rng(cfg.seed, t)) for t in range(cfg.trials)] for a in AxiomId}
    overflowed = 0
    for trial, (grids, aux) in enumerate(draws[AxiomId.RES]):
        entry = axioms._entry(grids[0], *aux["pair"])
        try:
            factor = math.exp(res_log_factor(cfg, trial))
        except OverflowError:
            if 0.0 < entry < math.inf:  # else PCM.from_upper rejects the grid
                assert aux["increase"] == math.inf
                overflowed += 1
        else:
            assert aux["increase"] == float(entry * factor)
    assert overflowed > 100


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", [MethodId.RGM, MethodId.EM], ids=lambda m: m.value)
def test_an_overflowing_res_factor_is_judged_as_an_infinite_increase(method):
    # two alternatives at seed 0: the factors of trials 0 and 7 overflow;
    # RES holds vacuously at trial 0, trials 1 to 6 hold, and trial 7 raises
    cfg = SearchConfig(seed=0, trials=8, n_range=(2, 2), entry_log_range=(-800.0, 800.0))
    infinite = []
    for trial in (0, 7):
        [a], aux = trial_inputs(AxiomId.RES, cfg, trial, 1e-9)
        assert aux["increase"] == math.inf
        infinite.append(outcome(check_res, method, a, aux["pair"], math.inf, 1e-9))
    assert infinite == [None, ("NonPositive", "replacement entry must be finite and positive")]
    for trials, expected in ((7, infinite[0]), (8, infinite[1])):
        cfg = SearchConfig(seed=0, trials=trials, n_range=(2, 2), entry_log_range=(-800.0, 800.0))
        assert outcome(falsify, method, AxiomId.RES, cfg, 1e-9) == expected
        assert outcome(scalar_search, method, AxiomId.RES, cfg, 1e-9) == expected


@pytest.mark.parametrize("log_range", [
    (0.5, 0.5), (1.0, -1.0), (-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0),
])
def test_search_config_rejects_degenerate_entry_log_ranges(log_range):
    with pytest.raises(InvalidParameter):
        SearchConfig(seed=0, trials=5, entry_log_range=log_range)


@pytest.mark.parametrize("seed, trials", [
    (np.int64(3), np.int32(40)), (np.uint64(2**64 - 1), np.int64(40)), (-5, 40),
])
def test_search_config_takes_numpy_integers_as_python_ints(seed, trials):
    cfg = SearchConfig(seed=seed, trials=trials)
    assert (type(cfg.seed), type(cfg.trials)) == (int, int)
    twin = SearchConfig(seed=int(seed), trials=int(trials))
    for method, axiom in ((MethodId.RGM, AxiomId.INV), (MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI)):
        assert outcome(falsify, method, axiom, cfg, 1e-9) == outcome(
            falsify, method, axiom, twin, 1e-9
        )


@pytest.mark.parametrize("kwargs", [
    {"seed": 1.5}, {"seed": 3.0}, {"seed": np.float64(3.0)}, {"seed": "3"}, {"seed": None},
    {"seed": 0, "trials": 2.5}, {"seed": 0, "trials": 5.0}, {"seed": 0, "trials": "5"},
])
def test_search_config_rejects_seeds_and_trials_that_are_not_integers(kwargs):
    with pytest.raises(InvalidParameter, match="must be an integer"):
        SearchConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"n_range": (2, 6, 7)}, {"n_range": ("2", "6")}, {"n_range": (2.5, 6)}, {"n_range": 6},
    {"entry_log_range": ("a", 1)}, {"entry_log_range": (-1.0,)}, {"entry_log_range": None},
])
def test_search_config_rejects_ranges_that_are_not_pairs_of_numbers(kwargs):
    with pytest.raises(InvalidParameter, match="must be a"):
        SearchConfig(seed=0, **kwargs)


def test_search_config_stores_its_ranges_as_tuples_of_python_numbers():
    # a list once built a config that could not be hashed
    cfg = SearchConfig(seed=0, trials=40, n_range=[np.int64(3), np.int32(5)],
                       entry_log_range=np.array([-1.5, 2.0]))
    twin = SearchConfig(seed=0, trials=40, n_range=(3, 5), entry_log_range=(-1.5, 2.0))
    assert cfg == twin and hash(cfg) == hash(twin)
    assert [type(v) for v in cfg.n_range + cfg.entry_log_range] == [int, int, float, float]
    for method, axiom in ((MethodId.RGM, AxiomId.INV), (MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI)):
        assert outcome(falsify, method, axiom, cfg, 1e-9) == outcome(
            falsify, method, axiom, twin, 1e-9
        )


# --- the memo of seeded streams ----------------------------------------------


@pytest.fixture
def cleared(monkeypatch):
    """An empty memo of seeded streams and prefixes, put back as it was
    after the test."""
    monkeypatch.setattr(axioms, "_kept", axioms._Memo(-1))


def alone(method, axiom, cfg):
    """``falsify``'s outcome on an empty memo, which it leaves as it was."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axioms, "_kept", axioms._Memo(-1))
        return outcome(falsify, method, axiom, cfg, 1e-9)


def bits(draw):
    """A draw's grids as shapes and bytes, and its auxiliary values as JSON,
    where a NaN increase equals itself."""
    grids, aux = draw
    return [(g.shape, g.tobytes()) for g in grids], json.dumps(aux)


def searched_bits(axiom, cfg, trials):
    """The bits of the draws a search's ``_flag_trials`` takes for ``trials``;
    the draws do not depend on the method, and ``flat`` ranks cheapest."""
    with np.errstate(all="ignore"):
        _, draws, _ = _flag_trials(MethodId.FLAT, axiom, cfg, trials, 1e-9)
    return [bits(draw) for draw in draws]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # grids overflow at e**800
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_draws_through_the_memo_keep_the_seeded_bits(axiom, cleared):
    # the first pass on a seed seeds trials 0 to 11 and keeps them, the
    # second restores those and seeds 12 to 23, the third restores all;
    # every later config on the seed restores what the first one kept
    for seed in (0, 42, 2**32 - 1, 2**64 - 1, -5):
        for n_range in ((2, 6), (4, 4), (2, 64)):
            for log_range in ((-LOG9, LOG9), (-800.0, 800.0)):
                cfg = SearchConfig(seed, 24, n_range, log_range)
                expected = [bits(_draw(axiom, cfg, _trial_rng(seed, t))) for t in range(24)]
                for trials in (range(12), range(24), range(24)):
                    assert searched_bits(axiom, cfg, trials) == expected[:len(trials)], (
                        seed, n_range, log_range, len(trials)
                    )
        assert axioms._kept.seed == seed % 2**64 and sorted(axioms._kept.seeded) == list(range(24))


@pytest.mark.parametrize("method", [MethodId.RGM, MethodId.EM], ids=lambda m: m.value)
def test_searches_that_follow_one_another_end_as_on_an_empty_memo(method, cleared):
    cfg, other = SearchConfig(seed=42, trials=60), SearchConfig(seed=7, trials=60)
    runs = [(axiom, cfg) for axiom in AxiomId]
    orders = {
        "in order": runs,
        "reversed": runs[::-1],
        "interleaved": [run for pair in zip(runs, [(a, other) for a in AxiomId]) for run in pair],
        "IIC on 4 to 6": [(a, dataclasses.replace(c, n_range=(4, 6)) if a is AxiomId.IIC else c)
                          for a, c in runs],
    }
    for name, order in orders.items():
        expected = [alone(method, axiom, c) for axiom, c in order]
        assert [outcome(falsify, method, axiom, c, 1e-9) for axiom, c in order] == expected, name


def test_a_budget_past_the_cap_ends_as_on_an_empty_memo(cleared, monkeypatch):
    # trials from the cap on are seeded by every search and never kept
    monkeypatch.setattr(axioms, "_KEPT_TRIALS", 5)
    cfg = SearchConfig(seed=42, trials=40)
    runs = [(method, axiom) for method in (MethodId.RGM, MethodId.EM) for axiom in AxiomId]
    expected = [alone(method, axiom, cfg) for method, axiom in runs]
    for _ in range(2):
        assert [outcome(falsify, method, axiom, cfg, 1e-9) for method, axiom in runs] == expected
    assert sorted(axioms._kept.seeded) == list(range(5))
    reference = [bits(_draw(AxiomId.AI, cfg, _trial_rng(cfg.seed, t))) for t in range(12)]
    assert searched_bits(AxiomId.AI, cfg, range(12)) == reference


def test_a_search_keeps_the_memo_it_read_when_another_seed_replaces_it(cleared):
    cfg = SearchConfig(seed=1, trials=24)
    expected = searched_bits(AxiomId.RES, cfg, range(24))  # kept on the first pass
    drawn, memo = [], axioms._memo(cfg.seed)
    for t in range(24):
        drawn.append(bits(_draw(AxiomId.RES, cfg, memo.stream(t))))
        if t == 11:  # seed 2 replaces the memo, midway through the search on seed 1
            falsify(MethodId.RGM, AxiomId.RES, dataclasses.replace(cfg, seed=2))
            assert axioms._kept.seed == 2
    assert drawn == expected


def test_later_searches_on_a_seed_seed_and_draw_only_what_the_memo_lacks(cleared, monkeypatch):
    # the bits of a draw are the same read from the memo or drawn afresh,
    # so only counting the calls shows that searches share it
    cfg = SearchConfig(seed=42, trials=12)
    runs = [AxiomId.INV, AxiomId.RSI, AxiomId.IIC]
    expected = [alone(MethodId.RGM, axiom, cfg) for axiom in runs]
    calls = {"_trial_rng": 0, "_draw_prefix": 0}

    def counted(name):
        real = getattr(axioms, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(axioms, name, counted(name))
    found = []
    for axiom in runs:  # IIC's n starts at 4: its own prefixes from the same streams
        before = dict(calls)
        found.append(outcome(falsify, MethodId.RGM, axiom, cfg, 1e-9))
        found.append({name: calls[name] - before[name] for name in calls})
    assert found == [
        expected[0], {"_trial_rng": 12, "_draw_prefix": 12},
        expected[1], {"_trial_rng": 0, "_draw_prefix": 0},
        expected[2], {"_trial_rng": 0, "_draw_prefix": 12},
    ]


def flagged(axiom, cfg):
    """The flags of ``_flag_trials`` over a search's budget, under a
    method that flags trials of every axiom, and the bits of its draws."""
    with np.errstate(all="ignore"):
        flags, draws, _ = _flag_trials(
            MethodId.ROW_ARITHMETIC_MEAN, axiom, cfg, range(cfg.trials), 1e-9
        )
    return flags.tolist(), [bits(draw) for draw in draws]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # grids overflow at e**800
@pytest.mark.parametrize("log_range", [(-LOG9, LOG9), (-800.0, 800.0)], ids=["9", "e800"])
def test_searches_that_share_prefixes_draw_and_end_as_on_fresh_streams(log_range):
    # each order starts on an empty memo and runs on both n ranges in turn;
    # a search after the first on a prefix key takes its trials' prefixes,
    # and where it can their filled matrices, from the memo, and its budget
    # runs past what earlier ones kept; 2**64 - 1 and -1 name one stream,
    # so the searches on -1 find every prefix that those on 2**64 - 1 kept
    axes = list(AxiomId)
    orders = {"in order": axes, "reversed": axes[::-1], "IIC on 4 to 6": axes}
    budgets = (12, 40, 5, 60, 24, 80)
    method = MethodId.ROW_ARITHMETIC_MEAN
    for name, order in orders.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(axioms, "_kept", axioms._Memo(-1))
            for seed in (0, 42, -5, 2**64 - 1, -1):
                for n_range in ((2, 6), (2, 64)):
                    for axiom, trials in zip(order, budgets):
                        cfg = SearchConfig(seed, trials, n_range, log_range)
                        if name == "IIC on 4 to 6" and axiom is AxiomId.IIC:
                            cfg = dataclasses.replace(cfg, n_range=(4, 6))
                        draws = [bits(_draw(axiom, cfg, _trial_rng(seed, t)))
                                 for t in range(trials)]
                        with pytest.MonkeyPatch.context() as empty:
                            empty.setattr(axioms, "_kept", axioms._Memo(-1))
                            flags = flagged(axiom, cfg)[0]
                        where = name, seed, n_range, axiom, trials
                        assert flagged(axiom, cfg) == (flags, draws), where
                        assert outcome(falsify, method, axiom, cfg, 1e-9) == alone(
                            method, axiom, cfg
                        ), where


def test_the_memo_keeps_no_more_than_its_caps(cleared, monkeypatch):
    # trials from 30 on keep nothing, and prefixes of up to 64
    # alternatives stop being kept once 20 000 entries are charged
    monkeypatch.setattr(axioms, "_KEPT_TRIALS", 30)
    monkeypatch.setattr(axioms, "_KEPT_ENTRIES", 20_000)
    cfg = SearchConfig(seed=42, trials=60, n_range=(2, 64))
    runs = [(method, axiom) for method in (MethodId.RGM, MethodId.ROW_ARITHMETIC_MEAN)
            for axiom in AxiomId]
    expected = [alone(method, axiom, cfg) for method, axiom in runs]
    for _ in range(2):
        assert [outcome(falsify, method, axiom, cfg, 1e-9) for method, axiom in runs] == expected
    for axiom in AxiomId:
        assert flagged(axiom, cfg)[1] == [
            bits(_draw(axiom, cfg, _trial_rng(cfg.seed, t))) for t in range(cfg.trials)
        ]
    memo = axioms._kept
    charged = 0
    for drawn in memo.prefixes.values():
        assert max(drawn, default=0) < 30
        for n, grid, _ in drawn.values():
            assert grid.shape == (n, n)
            charged += n * n + 128
    assert memo.room == 20_000 - charged >= 0
    assert 0 < len(memo.prefixes[(2, 64, cfg.entry_log_range)]) < 30


@pytest.mark.parametrize("seeds", [(1, 2, 1, 2), (3, 3, 3)], ids=["two seeds", "one seed"])
def test_threads_searching_at_once_end_as_one_after_another(seeds, cleared):
    # more threads than a 2-core machine has cores: on two seeds each
    # search replaces the memo another thread reads, and a thread keeps
    # drawing from the memo it read; on one seed all restore the streams
    # any one kept into a Generator of their own
    runs = [(MethodId.EM, axiom) for axiom in AxiomId] * 2
    expected = {}
    for seed in set(seeds):
        cfg = SearchConfig(seed=seed, trials=60)
        expected[seed] = (
            [alone(method, axiom, cfg) for method, axiom in runs],
            [bits(_draw(a, cfg, _trial_rng(seed, t))) for a in AxiomId for t in range(60)],
        )
    found, start = [None] * len(seeds), threading.Barrier(len(seeds))

    def search(k, seed):
        cfg = SearchConfig(seed=seed, trials=60)
        start.wait()
        outcomes = [outcome(falsify, method, axiom, cfg, 1e-9) for method, axiom in runs]
        found[k] = outcomes, [b for a in AxiomId for b in searched_bits(a, cfg, range(60))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads take turns within a search
    try:
        threads = [threading.Thread(target=search, args=pair) for pair in enumerate(seeds)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == [expected[seed] for seed in seeds]


# per axiom, a method and tie tolerance that break it within 40 trials on
# most seeds
EARLY_STOP = {
    AxiomId.ANO: (MethodId.FIRST_COLUMN, 1e-9),
    AxiomId.AI: (MethodId.ROW_ARITHMETIC_MEAN, 1e-9),
    AxiomId.INV: (MethodId.ROW_ARITHMETIC_MEAN, 1e-9),
    AxiomId.RSI: (MethodId.ROW_ARITHMETIC_MEAN, 1e-9),
    AxiomId.IIC: (MethodId.EM, 1e-9),
    AxiomId.RES: (MethodId.RGM, 0.3),
}


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_a_search_judges_no_size_group_that_starts_after_its_first_flag(axiom, monkeypatch):
    # one chunk of 40 trials: _flag_trials judges every size group, one
    # _stack_verdicts call each in the order of their first trials, and
    # falsify stops before the first group that starts after the first
    # flagged trial, which may come after a group that flags a later one;
    # an aggregation-invariance group stacks several pool sizes, the first
    # of which holds its first trial
    sizes, pools = [], []
    stack_verdicts = axioms._stack_verdicts

    def counted(method, axiom, stacks, *rest):
        sizes.append(stacks[0].shape[-1])
        pools.append(len(stacks))
        return stack_verdicts(method, axiom, stacks, *rest)

    monkeypatch.setattr(axioms, "_stack_verdicts", counted)
    monkeypatch.setattr(axioms, "_chunks", lambda trials, cap: iter([range(trials)]))
    method, tie_tol = EARLY_STOP[axiom]
    skipped = past_a_flagging_group = 0
    for seed in range(30):
        cfg = SearchConfig(seed=seed, trials=40)
        with np.errstate(all="ignore"):
            flags, draws, _ = _flag_trials(method, axiom, cfg, range(cfg.trials), tie_tol)
        first = {}  # each size's first trial, in trial order
        for trial, (grids, _) in enumerate(draws):
            first.setdefault(grids[0].shape[0], trial)
        assert sizes == list(first)
        t = int(flags.argmax()) if flags.any() else cfg.trials
        expected = None
        if flags.any():
            expected = outcome(_run_check, method, axiom, *trial_inputs(axiom, cfg, t, tie_tol))
        sizes.clear()
        assert outcome(falsify_unshrunk, method, axiom, cfg, tie_tol) == expected
        assert sizes == [n for n in first if first[n] <= t]
        skipped += len(first) - len(sizes)
        flagging = [n for n in sizes if any(flags[i] for i, (g, _) in enumerate(draws)
                                            if g[0].shape[0] == n)]
        past_a_flagging_group += bool(flagging) and sizes[-1] != flagging[0]
        sizes.clear()
    assert skipped and past_a_flagging_group
    assert (max(pools) > 1) == (axiom is AxiomId.AI)
