"""Witness shrinking against the greedy loop of ``oracle.shrink``, which
judges every step with one check: the same witness, as JSON, or the same
error, for searches over all 42 method/axiom pairs, for EM at starved
budgets, for rounding that spans several stacks and for hand-built
witnesses whose rounding would break a check's own argument rule or
leave the float range."""

import math

import numpy as np
import pytest

from pcmrank import (
    PCM,
    AxiomId,
    InvalidParameter,
    MethodId,
    NotAnIncrease,
    SearchConfig,
    falsify,
)
from pcmrank import axioms
from pcmrank.axioms import (
    _CHUNK_MATRICES,
    _input_arrays,
    _run_check,
    _shrink,
    _stack_verdicts,
)
from pcmrank.weighting import EmOptions

import oracle
from harness import assert_shrinks_alike, outcome, raw_witness


def one_digit(x: float) -> float:
    """The rounding ``_shrink`` applies to an entry or an auxiliary value."""
    return float(f"{x:.0e}")


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_shrink_equals_the_greedy_loop(method, axiom):
    configs = [SearchConfig(seed=seed, trials=400) for seed in (0, 1, 2, 42)]
    configs += [SearchConfig(seed=seed, trials=100, n_range=(2, 12), entry_log_range=(-5.0, 5.0))
                for seed in (0, 7)]
    for cfg in configs:
        for tie_tol in (1e-9, 0.3):
            witness = raw_witness(method, axiom, cfg, tie_tol)
            if witness is not None:
                assert_shrinks_alike(witness)


@pytest.mark.parametrize("budget", [32, 48, 64, None], ids=lambda k: f"em{k or 'default'}")
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_em_shrink_at_starved_budgets(axiom, budget):
    # a step whose EM iteration runs out of the budget is no step, in the
    # deletion, rounding and auxiliary stacks alike
    em = EmOptions() if budget is None else EmOptions(max_iterations=budget)
    for seed in (0, 1, 42):
        witness = raw_witness(MethodId.EM, axiom, SearchConfig(seed=seed, trials=400), em=em)
        if witness is not None:
            assert_shrinks_alike(witness, em)


def iic_witness(cell, value):
    """An arith IIC witness whose cell entry, 2.04, rounds to 2: rounding it
    would leave the check a value equal to the current entry."""
    up = [1.45, 0.38, 3.89, 1.04, 1.04, 2.04]
    grid = np.ones((4, 4))
    grid[np.triu_indices(4, 1)] = up
    aux = {"cell": cell, "value": value, "pair": [0, 1], "tie_tol": 0.43}
    verdict = _run_check(MethodId.ROW_ARITHMETIC_MEAN, AxiomId.IIC, [PCM.from_upper(grid)], aux)
    assert not verdict.holds
    return verdict.witness


@pytest.mark.parametrize("cell, value", [([2, 3], 2.0), ([3, 2], 0.5)])
def test_an_iic_cell_that_would_round_to_the_value_stays(cell, value):
    witness = iic_witness(cell, value)
    assert_shrinks_alike(witness)
    assert _shrink(witness).matrices[0].entries[2, 3] == 2.04


@pytest.mark.parametrize("pair, entry, increase", [([0, 1], 2.7, 2.8), ([1, 0], 3.3, 0.32)])
def test_a_res_pair_that_would_round_past_the_increase_stays(pair, entry, increase):
    # flat ties every pair, so every step falsifies unless it leaves the
    # increase no increase: rounding a_12 to 3 would
    a = PCM.from_upper(np.array([[1.0, entry], [1.0, 1.0]]))
    aux = {"pair": pair, "increase": increase, "tie_tol": 1e-9}
    witness = _run_check(MethodId.FLAT, AxiomId.RES, [a], aux).witness
    assert_shrinks_alike(witness)
    assert _shrink(witness).matrices[0].entries[0, 1] == entry


@pytest.mark.parametrize("method, axiom, upper, aux, error", [
    (MethodId.ROW_ARITHMETIC_MEAN, AxiomId.IIC, 2.0,
     {"cell": [2, 3], "value": 2.0, "pair": [0, 1]}, InvalidParameter),
    (MethodId.ROW_ARITHMETIC_MEAN, AxiomId.IIC, 2.0,
     {"cell": [3, 2], "value": 0.5, "pair": [0, 1]}, InvalidParameter),
    (MethodId.EM, AxiomId.IIC, 2.0, {"cell": [3, 2], "value": 0.5, "pair": [1, 0]}, InvalidParameter),
    (MethodId.FLAT, AxiomId.RES, 2.0, {"pair": [2, 3], "increase": 2.0}, NotAnIncrease),
    (MethodId.FLAT, AxiomId.RES, 2.0, {"pair": [2, 3], "increase": 1.5}, NotAnIncrease),
    (MethodId.RGM, AxiomId.RES, 2.0, {"pair": [3, 2], "increase": 0.5}, NotAnIncrease),
])
def test_the_stacked_judge_rejects_what_the_check_rejects(method, axiom, upper, aux, error):
    # a rounded entry can leave IIC's value equal to its cell, or RES's
    # value no increase; the check then raises, so the step cannot falsify
    grid = np.ones((4, 4))
    grid[np.triu_indices(4, 1)] = [1.45, 0.38, 3.89, 1.04, 1.04, upper]
    a, aux = PCM.from_upper(grid), {**aux, "tie_tol": 0.43}
    with pytest.raises(error):
        _run_check(method, axiom, [a], aux)
    _, _, ok = _stack_verdicts(
        method, axiom, a.entries[None, None], _input_arrays([aux]), aux["tie_tol"], EmOptions()
    )
    assert ok.all(axis=1).tolist() == [False]


def test_a_wide_witness_fills_several_rounding_stacks():
    # anonymity pins every label the permutation moves, so nearly all of
    # the 60-64 alternatives survive deletion and their entries are rounded
    # in more stacks than one
    cfg = SearchConfig(seed=0, trials=5, n_range=(60, 64))
    witness = raw_witness(MethodId.FIRST_COLUMN, AxiomId.ANO, cfg)
    assert_shrinks_alike(witness)
    n = _shrink(witness).matrices[0].n
    assert n * (n - 1) // 2 > 2 * (_CHUNK_MATRICES // 2)


@pytest.mark.parametrize("method", [MethodId.EM, MethodId.ROW_ARITHMETIC_MEAN,
                                    MethodId.FAVOURABLE_PRODUCT], ids=lambda m: m.value)
def test_a_deletion_round_outgrows_a_small_chunk(method, monkeypatch):
    # a deletion round judges all its candidates in one stack, whatever the
    # chunk size: with chunks of 6 matrices, AI witnesses at n 2-6 have
    # rounds with more candidates than a chunk would hold, and they shrink
    # as the greedy loop shrinks them
    judged = []
    delete = axioms._delete_index
    monkeypatch.setattr(axioms, "_delete_index",
                        lambda e, aux, idx: judged.append(e.shape[-1]) or delete(e, aux, idx))
    monkeypatch.setattr(axioms, "_CHUNK_MATRICES", 6)
    spans = 0
    for seed in (0, 1, 2, 42):
        witness = raw_witness(method, AxiomId.AI, SearchConfig(seed=seed, trials=400))
        judged.clear()
        assert_shrinks_alike(witness)
        size = 6 // (len(witness.matrices) + 1)
        spans += any(judged.count(n) > size for n in judged)
    assert spans


@pytest.mark.parametrize("entry, rounded", [
    (3.3e-300, 3e-300), (9.9e307, 1e308), (6e-309, 6e-309), (1.6e308, math.inf)])
def test_an_entry_rounds_exactly_to_one_digit(entry, rounded):
    # numpy's own rounding of a float64 gives 2.9999999999999996e-300,
    # 9.999999999999998e+307 and NaN for the first three
    assert one_digit(np.float64(entry)) == rounded
    assert oracle.round_to_one_significant(np.float64(entry)) == rounded


def test_formatting_rounds_as_the_reference_does():
    # a million random positive finite bit patterns, subnormals included,
    # and each power of ten times 1, 1.5, 2.5, 5, 9.5, 0.95 and the largest
    # double below 10, with both neighbours: halves, carries into the next
    # decade and the overflow to inf past 1e308
    rng = np.random.default_rng(0)
    bits = rng.integers(1, np.float64(np.inf).view(np.uint64), size=10**6, dtype=np.uint64)
    with np.errstate(over="ignore", under="ignore"):
        grid = np.outer([1.0, 1.5, 2.5, 5.0, 9.5, 0.95, 9.999999999999999],
                        [float(f"1e{k}") for k in range(-323, 309)]).ravel()
        grid = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, np.inf)])
    values = np.concatenate([grid[(grid > 0.0) & (grid < np.inf)], bits.view(np.float64)])
    # Python floats, then numpy's float64 scalars, which ``_round_entries`` rounds
    for xs in (values.tolist(), list(values[:200_000])):
        got = [one_digit(x) for x in xs]
        want = [oracle.round_to_one_significant(x) for x in xs]
        assert got == want, next((x, g, w) for x, g, w in zip(xs, got, want) if g != w)


@pytest.mark.parametrize("entry, increase", [(1.6e308, 1.7e308), (6e-309, 1e-300)])
def test_an_entry_that_rounds_out_of_range_is_no_step(entry, increase):
    # one-digit rounding takes 1.6e308 and 1.7e308 past the float range,
    # and leaves 6e-309 as it is: none is a step
    a = PCM.from_upper(np.array([[1.0, entry], [1.0, 1.0]]))
    aux = {"pair": [0, 1], "increase": increase, "tie_tol": 1e-9}
    witness = _run_check(MethodId.FLAT, AxiomId.RES, [a], aux).witness
    assert_shrinks_alike(witness)
    with np.errstate(all="ignore"):
        assert not axioms.replay(_shrink(witness)).holds


@pytest.mark.parametrize("method, axiom, upper, aux", [
    (MethodId.INDEX_ORDER, AxiomId.INV, 2.0, {}),  # no step to try
    (MethodId.RGM, AxiomId.RSI, 1.0 + 0.8e-9, {"kappa": "2/1"}),  # its one step holds
])
def test_a_witness_shrinking_cannot_reduce_comes_back_unchanged(method, axiom, upper, aux):
    a = PCM.from_upper(np.array([[1.0, upper], [1.0, 1.0]]))
    witness = _run_check(method, axiom, [a], {**aux, "tie_tol": 1e-9}).witness
    assert _shrink(witness) is witness
    assert_shrinks_alike(witness)


SHORT = axioms._SHORT_EM_STEPS


@pytest.mark.parametrize("budget", [100, SHORT - 1, SHORT, SHORT + 1, 300, 10_000],
                         ids=lambda k: f"em{k}")
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_em_ends_as_without_the_short_pass_and_the_group_skipping(axiom, budget, monkeypatch):
    # shrinking's first pass within SHORT steps and the search's stop after
    # the size group of its first flagged trial change no witness and no
    # error: the same code with both switched off ends alike
    em, tie_tol = EmOptions(max_iterations=budget), 1e-9
    configs = [SearchConfig(seed=seed, trials=40) for seed in range(20)]
    with np.errstate(all="ignore"):
        witnesses = [raw_witness(MethodId.EM, axiom, cfg, tie_tol, em) for cfg in configs]
        witnesses = [w for w in witnesses if w is not None]

        def ends():
            return ([outcome(falsify, MethodId.EM, axiom, cfg, tie_tol, em) for cfg in configs],
                    [outcome(_shrink, w, em) for w in witnesses])

        fast = ends()
        flag_trials = axioms._flag_trials
        monkeypatch.setattr(axioms, "_SHORT_EM_STEPS", math.inf)
        monkeypatch.setattr(axioms, "_flag_trials", lambda *args, stop=False: flag_trials(*args))
        assert fast == ends()
