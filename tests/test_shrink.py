"""Witness shrinking against the greedy loop of ``oracle.shrink``, which
judges every step with one check: the same witness, as JSON, or the same
error, for searches over all 42 method/axiom pairs and for hand-built
witnesses whose rounding would break a check's own argument rule."""

import numpy as np
import pytest

from pcmrank import (
    PCM,
    AxiomId,
    InvalidParameter,
    MethodId,
    NotAnIncrease,
    PcmError,
    SearchConfig,
    falsify,
    witness_json_dict,
)
from pcmrank import axioms
from pcmrank.axioms import _CHUNK_MATRICES, _input_arrays, _run_check, _shrink, _stack_verdicts
from pcmrank.weighting import EmOptions

import oracle


def raw_witness(method, axiom, cfg, tie_tol=1e-9, em=EmOptions()):
    """The first witness of a search, before shrinking, or None when the
    search finds none or fails."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axioms, "_shrink", lambda witness, em: witness)
        try:
            return falsify(method, axiom, cfg, tie_tol, em)
        except PcmError:
            return None


def shrunk(shrink, witness, em=EmOptions()):
    """The shrunk witness as JSON, or the type and text of the error raised;
    floating-point errors are ignored, as ``falsify`` ignores them."""
    try:
        with np.errstate(all="ignore"):
            return witness_json_dict(shrink(witness, em))
    except Exception as exc:  # both must fail alike
        return type(exc).__name__, str(exc)


def assert_shrinks_alike(witness, em=EmOptions()):
    assert shrunk(_shrink, witness, em) == shrunk(oracle.shrink, witness, em), (
        witness_json_dict(witness)
    )


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


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_em_shrink_with_a_two_step_stack_cap(axiom, monkeypatch):
    # nearly every EM row of a rounding stack is cut by the cap, so the
    # shrink re-judges it through its check, in the greedy order
    monkeypatch.setattr(axioms, "_EM_STACK_ITERATIONS", 2)
    for seed in (0, 1, 42):
        witness = raw_witness(MethodId.EM, axiom, SearchConfig(seed=seed, trials=400))
        if witness is not None:
            assert_shrinks_alike(witness)


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
    _, ok = _stack_verdicts(
        method, axiom, a.entries[None, None], _input_arrays([aux]), aux["tie_tol"], EmOptions()
    )
    assert ok.tolist() == [False]


def test_a_wide_witness_fills_several_rounding_stacks():
    # anonymity pins every label the permutation moves, so nearly all of
    # the 60-64 alternatives survive deletion and their entries are rounded
    # in more stacks than one
    cfg = SearchConfig(seed=0, trials=5, n_range=(60, 64))
    witness = raw_witness(MethodId.FIRST_COLUMN, AxiomId.ANO, cfg)
    assert_shrinks_alike(witness)
    n = _shrink(witness).matrices[0].n
    assert n * (n - 1) // 2 > 2 * (_CHUNK_MATRICES // 2)


@pytest.mark.parametrize("entry, increase", [(1.6e308, 1.7e308), (6e-309, 1e-300)])
def test_an_entry_that_rounds_out_of_range_raises_as_the_loop(entry, increase):
    # numpy's one-digit rounding takes 1.6e308 to inf and 6e-309 to NaN,
    # and the matrix of that step is rejected before any check is made
    a = PCM.from_upper(np.array([[1.0, entry], [1.0, 1.0]]))
    aux = {"pair": [0, 1], "increase": increase, "tie_tol": 1e-9}
    witness = _run_check(MethodId.FLAT, AxiomId.RES, [a], aux).witness
    assert shrunk(_shrink, witness) == shrunk(oracle.shrink, witness)
    assert shrunk(_shrink, witness)[0] == "NonPositive"
