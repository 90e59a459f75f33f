"""The axiom engine against the pair-loop reference of ``oracle``: for
every method and axiom, the same verdict, witness (pair, auxiliary values,
narrative) or error; and the tie closure of ``ranking_from_weights``
against union-find."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmrank import (
    PCM,
    AxiomId,
    MethodId,
    SearchConfig,
    WeightVector,
    ranking_from_weights,
    witness_json_dict,
)
from pcmrank.axioms import _draw, _run_check, _trial_rng
from pcmrank.weighting import EmOptions

import oracle

TIE_TOLS = [0.0, 1e-9, 0.05, 0.3]
# default entries; near-ties at the scale of the default tolerance; and
# entries on a coarse grid, whose rows often tie exactly
CONFIGS = {
    "wide": SearchConfig(seed=0, n_range=(2, 8)),
    "near": SearchConfig(seed=0, n_range=(2, 8), entry_log_range=(-3e-9, 3e-9)),
    "grid": SearchConfig(seed=0, n_range=(2, 8)),
}


def outcome(check, method, axiom, matrices, aux):
    try:
        verdict = check(method, axiom, matrices, aux, EmOptions())
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None if verdict.holds else witness_json_dict(verdict.witness)


def cases(axiom, kind, count):
    cfg = CONFIGS[kind]
    for trial in range(count):
        seed = 10 * sorted(CONFIGS).index(kind) + list(AxiomId).index(axiom)
        grids, aux = _draw(axiom, cfg, _trial_rng(seed, trial))
        if kind == "grid":
            grids = [np.exp(np.round(2.0 * np.log(g)) / 2.0) for g in grids]
            if axiom is AxiomId.IIC and aux["value"] == grids[0][tuple(aux["cell"])]:
                continue
            if axiom is AxiomId.RES:
                i, j = aux["pair"]
                aux["increase"] = 2.0 * (grids[0][i, j] if i < j else 1.0 / grids[0][j, i])
        yield [PCM.from_upper(g) for g in grids], aux


@pytest.mark.parametrize("kind", sorted(CONFIGS))
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_checks_equal_the_pair_loops(method, axiom, kind):
    for matrices, aux in cases(axiom, kind, 8):
        for tie_tol in TIE_TOLS:
            inputs = {**aux, "tie_tol": tie_tol}
            assert outcome(_run_check, method, axiom, matrices, inputs) == outcome(
                oracle.run_check, method, axiom, matrices, inputs
            ), (inputs, [m.entries.tolist() for m in matrices])


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_bad_tie_tolerance_raises_for_every_method(axiom):
    matrices, aux = next(cases(axiom, "wide", 1))
    for method in MethodId:
        for tie_tol in (-1.0, math.nan):
            engine = outcome(_run_check, method, axiom, matrices, {**aux, "tie_tol": tie_tol})
            assert engine[0] == "InvalidParameter"


@st.composite
def near_tie_chains(draw):
    """Weights whose neighbours sit about ``tie_tol`` apart, in a random order."""
    tie_tol = draw(st.sampled_from(TIE_TOLS))
    n = draw(st.integers(1, 64))
    steps = draw(st.lists(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 50.0]),
                          min_size=n - 1, max_size=n - 1))
    w = [1.0]
    for step in steps:
        w.append(w[-1] * (1.0 - min(step * (tie_tol or 1e-3), 0.9)))
    order = draw(st.permutations(range(n)))
    return np.array(w)[order], tie_tol


@settings(max_examples=200, deadline=None)
@given(near_tie_chains())
def test_tie_closure_equals_union_find(case):
    w, tie_tol = case
    weights = WeightVector.from_scores(w)
    expected = oracle.ranking_union_find(weights.w, tie_tol).rank
    assert ranking_from_weights(weights, tie_tol).rank.tolist() == expected.tolist()
