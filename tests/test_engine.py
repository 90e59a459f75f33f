"""The axiom engine against the pair-loop reference of ``oracle``: for
every method and axiom, the same verdict, witness (pair, auxiliary values,
narrative) or error; and the tie closure of ``ranking_from_weights``
against union-find."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmrank import (
    PCM,
    AxiomId,
    MethodId,
    NoConvergence,
    NonPositive,
    SearchConfig,
    WeightVector,
    method_rank,
    opposite,
    pcm_to_csv,
    ranking_from_weights,
    witness_json_dict,
)
from pcmrank.axioms import _draw, _run_check, _trial_rng
from pcmrank.cli import main
from pcmrank.core import relation
from pcmrank.weighting import EmOptions, em_weights

import oracle

TIE_TOLS = [0.0, 1e-9, 0.05, 0.3]
# default entries; near-ties at the scale of the default tolerance;
# entries on a coarse grid, whose rows often tie exactly; entries within a
# percent of 1, whose EM converges in two to six steps, so that starved
# budgets fail on the matrix, on its image or on both; and entries up to
# e**400, whose powers and favourable-product scores overflow.  Each
# kind's seed plus the axiom's index seeds its draws.
CONFIGS = {
    "wide": SearchConfig(seed=20, n_range=(2, 8)),
    "near": SearchConfig(seed=10, n_range=(2, 8), entry_log_range=(-3e-9, 3e-9)),
    "grid": SearchConfig(seed=0, n_range=(2, 8)),
    "close": SearchConfig(seed=30, n_range=(2, 8), entry_log_range=(-0.01, 0.01)),
    "huge": SearchConfig(seed=40, n_range=(2, 8), entry_log_range=(-400.0, 400.0)),
}


def budgets(method, kind):
    """The default EM budget, and for EM starved ones too.  On "huge"
    entries EM mostly runs out of steps, so 100 stand in for the default."""
    if method is not MethodId.EM:
        return [EmOptions()]
    full = EmOptions(max_iterations=100) if kind == "huge" else EmOptions()
    return [full] + [EmOptions(max_iterations=b) for b in range(1, 6)]


def outcome(check, method, axiom, matrices, aux, em=EmOptions()):
    try:
        verdict = check(method, axiom, matrices, aux, em)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None if verdict.holds else witness_json_dict(verdict.witness)


def cases(axiom, kind, count):
    """Drawn inputs; RES also with each increase made infinite, and on the
    reversed pair, which starts strictly below where the pair was above."""
    cfg = CONFIGS[kind]
    for trial in range(count):
        seed = cfg.seed + list(AxiomId).index(axiom)
        grids, aux = _draw(axiom, cfg, _trial_rng(seed, trial))
        if kind == "grid":
            grids = [np.exp(np.round(2.0 * np.log(g)) / 2.0) for g in grids]
            if axiom is AxiomId.IIC and aux["value"] == grids[0][tuple(aux["cell"])]:
                continue
            if axiom is AxiomId.RES:
                i, j = aux["pair"]
                aux["increase"] = 2.0 * (grids[0][i, j] if i < j else 1.0 / grids[0][j, i])
        matrices = [PCM.from_upper(g) for g in grids]
        yield matrices, aux
        if axiom is AxiomId.RES:
            i, j = aux["pair"]
            yield matrices, {**aux, "increase": math.inf}
            yield matrices, {"pair": [j, i], "increase": 2.0 * matrices[0].entries[j, i]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows of "huge"
@pytest.mark.parametrize("kind", sorted(CONFIGS))
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_checks_equal_the_pair_loops(method, axiom, kind):
    for matrices, aux in cases(axiom, kind, 8):
        for tie_tol in TIE_TOLS:
            inputs = {**aux, "tie_tol": tie_tol}
            for em in budgets(method, kind):
                assert outcome(_run_check, method, axiom, matrices, inputs, em) == outcome(
                    oracle.run_check, method, axiom, matrices, inputs, em
                ), (inputs, em, [m.entries.tolist() for m in matrices])


@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_bad_tie_tolerance_raises_for_every_method(axiom):
    matrices, aux = next(cases(axiom, "wide", 1))
    for method in MethodId:
        for tie_tol in (-1.0, math.nan):
            for em in budgets(method, "wide"):  # before any EM error, too
                inputs = {**aux, "tie_tol": tie_tol}
                assert outcome(_run_check, method, axiom, matrices, inputs, em)[0] == (
                    "InvalidParameter"
                )


def layout_sensitive_inv_cases(rng, count):
    """Matrices whose INV verdict or witness pair would change if their
    opposite, the transposed view ``opposite`` gives, were ranked as a
    C-ordered copy, at a tie tolerance set on one of its EM weight gaps:
    the layout picks the order of EM's sums."""
    found = []
    while len(found) < count:
        a = PCM.from_upper(np.exp(rng.uniform(-2.2, 2.2, (6, 6))))
        image, copy = opposite(a), PCM(np.ascontiguousarray(opposite(a).entries))
        w = em_weights(image)[0].w
        for i, j in np.argwhere(w[:, None] > w):
            tie_tol = (w[i] - w[j]) / w[i]
            while tie_tol * w[i] < w[i] - w[j]:
                tie_tol = np.nextafter(tie_tol, 1.0)
            base = relation(method_rank(MethodId.EM, a, tie_tol).rank)
            breaks = [np.flatnonzero(relation(method_rank(MethodId.EM, m, tie_tol).rank) != -base)
                      for m in (image, copy)]
            if breaks[0][:1].tolist() != breaks[1][:1].tolist():
                found.append((a, float(tie_tol)))
                break
    return found


def test_inv_ranks_the_opposite_matrix_in_its_own_layout():
    for a, tie_tol in layout_sensitive_inv_cases(np.random.default_rng(3), 3):
        aux = {"tie_tol": tie_tol}
        assert outcome(_run_check, MethodId.EM, AxiomId.INV, [a], aux) == outcome(
            oracle.run_check, MethodId.EM, AxiomId.INV, [a], aux
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def underflow_draws(axiom):
    """Trials with entries up to e**700: EM may converge with a weight that
    underflows to zero, which is rejected as a weight, not as NoConvergence."""
    cfg = SearchConfig(seed=50, n_range=(4, 6), entry_log_range=(-700.0, 700.0))
    for trial in range(40):
        grids, aux = _draw(axiom, cfg, _trial_rng(cfg.seed, trial))
        yield [PCM.from_upper(g) for g in grids], {**aux, "tie_tol": 1e-9}


UNDERFLOW_EM = EmOptions(max_iterations=200)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_em_weights_that_underflow_raise_as_in_the_pair_loops(axiom):
    em = UNDERFLOW_EM
    errors = []
    for matrices, inputs in underflow_draws(axiom):
        engine = outcome(_run_check, MethodId.EM, axiom, matrices, inputs, em)
        assert engine == outcome(oracle.run_check, MethodId.EM, axiom, matrices, inputs, em)
        errors.append(engine[0] if isinstance(engine, tuple) else None)
    assert "NonPositive" in errors


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # RES increases overflow in the draws
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
def test_em_weights_that_underflow_raise_before_they_warn(axiom):
    underflowing = []
    for matrices, _ in underflow_draws(axiom):
        for m in matrices:
            try:
                em_weights(m, UNDERFLOW_EM)
            except NonPositive:
                underflowing.append(m)
            except NoConvergence:
                pass
    assert underflowing
    for m in underflowing:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositive):
                em_weights(m, UNDERFLOW_EM)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the draws overflow
def test_em_lambda_max_stays_finite_where_the_ratios_overflow(tmp_path, capsys):
    # weights down to 1e-283 push a ratio (Aw)_i / w_i past the float
    # range; sum(Aw), with w summing to one, stays finite there
    overflowing = []
    for matrices, _ in underflow_draws(AxiomId.AI):
        for m in matrices:
            try:
                w, lam = em_weights(m)
            except (NonPositive, NoConvergence):
                continue
            rayleigh = np.mean((m.entries @ w.w) / w.w)
            if math.isfinite(rayleigh):
                assert lam == rayleigh
            else:
                assert lam == np.add.reduce(m.entries @ w.w)
                overflowing.append(m)
    assert len(overflowing) == 3
    for k, m in enumerate(overflowing):
        path = tmp_path / f"m{k}.csv"
        path.write_text(pcm_to_csv(m))
        assert main(["weights", "--method", "em", "--input", str(path), "--format", "json"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        lam = json.loads(capsys.readouterr().out, parse_constant=reject)["lambda_max"]
        assert 1e90 < lam < 1e153


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the draws overflow
@pytest.mark.parametrize("axiom", list(AxiomId), ids=lambda a: a.value)
@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_checks_on_huge_entries_warn_nothing(method, axiom):
    for matrices, aux in cases(axiom, "huge", 8):
        inputs = {**aux, "tie_tol": 1e-9}
        for em in budgets(method, "huge"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = outcome(_run_check, method, axiom, matrices, inputs, em)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning would be the outcome
                assert outcome(_run_check, method, axiom, matrices, inputs, em) == expected


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
