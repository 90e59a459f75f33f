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
    Permutation,
    RationalExponent,
    SearchConfig,
    WeightVector,
    aggregate,
    equalize_pair,
    method_rank,
    method_scores,
    opposite,
    pcm_parse,
    pcm_to_csv,
    permute,
    power,
    ranking_from_weights,
    witness_json_dict,
)
from pcmrank import weighting
from pcmrank.axioms import _draw, _run_check, _trial_rng, check_inv
from pcmrank.cli import main
from pcmrank.weighting import EmOptions, em_weight_stack, em_weights

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


WEIGHTED = [m for m in MethodId if m not in (MethodId.FLAT, MethodId.INDEX_ORDER)]


@pytest.mark.parametrize("method", WEIGHTED, ids=lambda m: m.value)
def test_weights_depend_on_the_entries_alone(method):
    """A matrix built from a transposed or Fortran-ordered array is held in
    C order, so it gets the weights or scores of a C-ordered copy of its
    entries, bit for bit."""
    rng = np.random.default_rng(4)
    for n in (2, 3, 6, 9, 16, 64):
        for _ in range(5):
            x = PCM.from_upper(np.exp(rng.uniform(-2.2, 2.2, (n, n)))).entries
            for built, entries in ((opposite(PCM(x)), x.T), (PCM(np.asfortranarray(x)), x)):
                assert built.entries.flags.c_contiguous
                want = method_scores(method, PCM(np.ascontiguousarray(entries)))
                assert np.array_equal(method_scores(method, built), want), n


def test_every_constructor_and_transform_holds_c_order():
    x = PCM.from_upper(np.exp(np.random.default_rng(2).uniform(-2.0, 2.0, (5, 5)))).entries
    f = np.asfortranarray(x)
    a, b = PCM(x), PCM(f)
    built = [
        a, b, PCM(x.T), PCM(x[::-1, ::-1]), PCM.from_upper(f), PCM.ones(4),
        pcm_parse(pcm_to_csv(b)), b.with_entry(0, 1, 3.0), opposite(a), opposite(b),
        power(b, RationalExponent.parse("3/2")), permute(b, Permutation.transposition(5, 0, 3)),
        aggregate([a, opposite(b)]), equalize_pair(b, 0, 1),
    ]
    for m in built:
        assert m.entries.flags.c_contiguous


def first_broken_pair(a, tie_tol):
    verdict = _run_check(MethodId.EM, AxiomId.INV, [a], {"tie_tol": tie_tol})
    return None if verdict.holds else verdict.witness.auxiliary["pair"]


def last_bit_inv_cases(rng, count, tries=100):
    """Matrices whose EM INV check reports another pair, or holds, once a
    tie tolerance set on an EM weight gap of the opposite matrix, the
    smallest that ties the pair, drops by its last bit."""
    found = []
    for _ in range(tries):
        a = PCM.from_upper(np.exp(rng.uniform(-2.2, 2.2, (6, 6))))
        w = em_weights(opposite(a))[0].w
        for i, j in np.argwhere(w[:, None] > w):
            tie_tol = (w[i] - w[j]) / w[i]
            while tie_tol * w[i] < w[i] - w[j]:
                tie_tol = np.nextafter(tie_tol, 1.0)
            tols = [float(tie_tol), float(np.nextafter(tie_tol, 0.0))]
            if first_broken_pair(a, tols[0]) != first_broken_pair(a, tols[1]):
                found.append((a, tols))
                break
        if len(found) == count:
            return found
    raise AssertionError(f"{len(found)} of {count} cases in {tries} matrices")


def test_inv_decides_last_bit_tie_tolerances_as_the_pair_loop():
    for a, tols in last_bit_inv_cases(np.random.default_rng(3), 3):
        for tie_tol in tols:
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
def test_em_weights_that_underflow_raise_from_the_stack_already_run(monkeypatch):
    # a rejected EM row whose weights converged tells the weights' error
    # apart from NoConvergence, so neither a check nor a ranking iterates
    # that matrix again just to raise
    def first_underflowing():
        for matrices, _ in underflow_draws(AxiomId.INV):
            try:
                em_weights(matrices[0], UNDERFLOW_EM)
            except NonPositive as exc:
                return matrices[0], exc
            except NoConvergence:
                pass

    m, error = first_underflowing()
    stacks = []

    def counted(e, opts=EmOptions()):
        stacks.append(len(e))
        return em_weight_stack(e, opts)

    monkeypatch.setattr(weighting, "em_weight_stack", counted)
    for rank in (
        lambda: check_inv(MethodId.EM, m, 1e-9, UNDERFLOW_EM),
        lambda: method_rank(MethodId.EM, m, 1e-9, UNDERFLOW_EM),
    ):
        stacks.clear()
        with pytest.raises(NonPositive) as raised:
            rank()
        assert str(raised.value) == str(error)
        assert len(stacks) == 1


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


def rank_outcome(rank, method, a, tie_tol, em):
    try:
        return rank(method, a, tie_tol, em).rank.tolist()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def ranked_matrices():
    """Each distinct matrix of the "close" and "huge" draws and of the
    underflow draws of every axiom, with the EM budgets it is ranked at:
    the default (200 steps stand in for it on the underflow draws, 100 on
    "huge") and starved ones."""
    seen = set()
    for axiom in AxiomId:
        drawn = [("close", m) for ms, _ in cases(axiom, "close", 8) for m in ms]
        drawn += [("huge", m) for ms, _ in cases(axiom, "huge", 8) for m in ms]
        drawn += [("underflow", m) for ms, _ in underflow_draws(axiom) for m in ms]
        for kind, m in drawn:
            if m.entries.tobytes() not in seen:
                seen.add(m.entries.tobytes())
                full = budgets(MethodId.EM, "huge" if kind == "huge" else "close")
                yield m, ([UNDERFLOW_EM] + full[1:]) if kind == "underflow" else full


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the draws overflow
def test_method_rank_equals_the_composed_ranking():
    """``method_rank`` ranks through the stacked ``rank_keys``; it must give
    the ranking of the weight vector, or the error type and text, for
    every method, in the order a bad tie tolerance, then the weights."""
    outcomes = set()
    for m, em_budgets in ranked_matrices():
        for method in MethodId:
            for tie_tol in TIE_TOLS + [-1.0, math.nan]:
                for em in em_budgets if method is MethodId.EM else [EmOptions()]:
                    got = rank_outcome(method_rank, method, m, tie_tol, em)
                    assert got == rank_outcome(oracle.method_rank, method, m, tie_tol, em), (
                        method, tie_tol, em, m.entries.tolist()
                    )
                    outcomes.add(got if isinstance(got, tuple) else "ranked")
    kinds = {got if got == "ranked" else got[0] for got in outcomes}
    assert kinds == {"ranked", "InvalidParameter", "NoConvergence", "NonPositive"}
    assert {  # an overflowed score, and a weight of 0
        ("NonPositive", "scores must be finite and strictly positive"),
        ("NonPositive", "weights must be finite and strictly positive"),
    } <= outcomes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the product overflows
def test_a_rejected_matrix_is_ranked_once(monkeypatch):
    # the error is read from the row already ranked: no second ranking
    a = np.ones((3, 3))
    a[0, 1:] = 1e300  # the favourable product of row 1 overflows
    a = PCM.from_upper(a)
    calls, scores = [], weighting.closed_form_scores

    def counted(*args):
        calls.append(args)
        return scores(*args)

    monkeypatch.setattr(weighting, "closed_form_scores", counted)
    method = MethodId.FAVOURABLE_PRODUCT
    for rank in (method_rank, check_inv):
        calls.clear()
        with pytest.raises(NonPositive, match="scores must be finite"):
            rank(method, a)
        assert len(calls) == 1, rank.__name__


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
