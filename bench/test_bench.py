"""Tests of the benchmark itself: a seed fixes the op list, the outputs and
the trace counts; the tracing shim sees every call; a wrong output is
counted as a failure.

    python3 -m pytest -q bench
"""

import env  # noqa: F401  (must precede numpy and pcmrank)

from pathlib import Path

import numpy as np
import pytest

import pcmrank
from pcmrank import PCM, AxiomId, MethodId, NoConvergence, Permutation, SearchConfig
from pcmrank import axioms, cli, core, falsify
from pcmrank.axioms import Witness
from run import _call, judge, load_golden
from tracing import COUNT_SUFFIXES, MODULES, TARGETS, Tracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

# a prefix of each op list keeps the tests short
PREFIX = {"audit_rgm": 3, "hunt_witness": 13, "cli_session": None}


def _a6():
    rng = np.random.default_rng(7)
    return PCM.from_upper(np.exp(rng.uniform(-2.0, 2.0, size=(6, 6))))


def _traced(call):
    """Run ``call()`` under the shim; return its result, layer metrics and
    spans.  ``call`` must look pcmrank's functions up when it runs, as the
    benchmark's ops do, since the shim rebinds module attributes."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op, tracer.recording = 0, True
        result = call()
    finally:
        tracer.recording = False
        tracer.uninstall()
    return result, layer_metrics(tracer.spans, np.asarray), tracer.spans


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_outputs_and_counts(name, tmp_path):
    wl = WORKLOADS[name]
    first = wl.build(3, tmp_path / "a")[: PREFIX[name]]
    second = wl.build(3, tmp_path / "a")[: PREFIX[name]]
    assert [(op.index, op.label) for op in first] == [(op.index, op.label) for op in second]

    def run_all():
        tracer = Tracer()
        tracer.install()
        digests = []
        try:
            for k, op in enumerate(first):
                tracer.op, tracer.recording = k, True
                result = _call(wl, op)
                tracer.recording = False
                digests.append(wl.check(op, result).digest)
        finally:
            tracer.recording = False
            tracer.uninstall()
        counts = {k: v for k, v in layer_metrics(tracer.spans, np.asarray).items()
                  if k.endswith(COUNT_SUFFIXES)}
        return digests, counts

    assert run_all() == run_all()


def test_rgm_inv_check_counts():
    a = _a6()
    verdict, m, spans = _traced(lambda: pcmrank.check_inv(MethodId.RGM, a))
    assert verdict.holds
    assert m["weighting.method_rank.calls"] == 2
    assert [s[0] for s in spans].count("transforms.opposite") == 1
    assert m["transforms.calls"] == 1
    assert m["weighting.method_weights.us_n6"] > 0
    assert m["core.ranking_from_weights.calls"] == 2
    assert m["core.pair_relation.calls"] == 2 * 15
    assert m["core.pcm_new.calls"] == 1  # the opposite matrix


def test_ano_check_counts():
    a = _a6()
    sigma = Permutation([1, 0, 2, 3, 5, 4])
    _, m, spans = _traced(lambda: pcmrank.check_ano(MethodId.RGM, a, sigma))
    assert m["weighting.method_rank.calls"] == 2
    assert [s[0] for s in spans].count("transforms.permute") == 1


def test_falsify_counts_trials_and_pcm_constructions():
    cfg = SearchConfig(seed=11, trials=5)
    witness, m, _ = _traced(lambda: pcmrank.falsify(MethodId.RGM, AxiomId.INV, cfg))
    assert witness is None
    assert m["axioms.falsify.calls"] == 1
    assert m["axioms.trials"] == 5
    assert m["axioms.shrink.attempts"] == 0
    assert m["weighting.method_rank.calls"] == 10
    assert m["core.pcm_new.calls"] == 10  # per trial: the draw and its opposite


def test_shrink_attempts_follow_the_first_violation():
    cfg = SearchConfig(seed=42, trials=1000)
    witness, m, _ = _traced(lambda: pcmrank.falsify(MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI, cfg))
    assert witness is not None
    assert m["axioms.shrink.attempts"] > 0
    assert 0 < m["axioms.shrink.accepted"] <= m["axioms.shrink.attempts"]


def test_cli_calls_are_traced_through_every_binding(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text(core.pcm_to_csv(_a6()))
    code, m, _ = _traced(lambda: cli.main(["rank", "--method", "em", "--input", str(path)]))
    assert code == 0
    assert m["cli.main.calls"] == 1
    assert m["core.pcm_parse.calls"] == 1
    assert m["weighting.method_rank.calls"] == 1
    assert m["weighting.em_weights.calls"] == 1


def test_install_replaces_every_binding_and_uninstall_restores():
    originals = {name: getattr(module, attr) for name, (module, attr) in TARGETS.items()}
    post_init = PCM.__post_init__
    tracer = Tracer()
    tracer.install()
    try:
        for module in MODULES:
            for value in vars(module).values():
                assert all(value is not fn for fn in originals.values())
        assert PCM.__post_init__ is not post_init
    finally:
        tracer.uninstall()
    assert pcmrank.method_rank is originals["weighting.method_rank"]
    assert axioms.method_rank is originals["weighting.method_rank"]
    assert PCM.__post_init__ is post_init


def test_cli_pass_matches_golden():
    wl = WORKLOADS["cli_session"]
    ops = wl.build(DEFAULT_SEED, Path(env.OUT) / "test-cli")
    golden = load_golden(wl)
    assert golden is not None and len(golden) == len(ops)
    for op in ops:
        outcome = judge(wl, op, _call(wl, op), golden)
        assert outcome.failure is None, (op.label, outcome.failure)


def test_corrupted_cli_output_is_a_failure(tmp_path):
    wl = WORKLOADS["cli_session"]
    ops = wl.build(DEFAULT_SEED, Path(env.OUT) / "test-cli")
    golden = load_golden(wl)
    op = next(o for o in ops if o.args[0][:4] == ["weights", "--method", "rgm", "--input"])
    code, stdout, stderr = _call(wl, op)
    assert judge(wl, op, (code, stdout, stderr), golden).failure is None

    flipped = stdout.replace("0.", "1.", 1)
    outcome = judge(wl, op, (code, flipped, stderr), golden)
    assert outcome.failure and not outcome.correct
    # off the oracle even where no golden list applies
    outcome = judge(wl, op, (code, flipped, stderr))
    assert "oracle" in outcome.failure

    assert judge(wl, op, (code, stdout + " ", stderr), golden).failure
    assert "JSON" in judge(wl, op, (code, stdout[:-5], stderr)).failure
    assert judge(wl, op, (2, stdout, "error: x\n")).failure.startswith("exit 2")


def test_hunt_witness_that_does_not_replay_is_a_failure():
    wl = WORKLOADS["hunt_witness"]
    op = next(o for o in wl.build(DEFAULT_SEED, Path(env.OUT)) if o.args[:2] == ("em", "INV"))
    witness = _call(wl, op)
    assert wl.check(op, witness).failure is None
    n = witness.matrices[0].n
    fake = Witness(witness.axiom, witness.method, (PCM.ones(n),),
                   witness.auxiliary, witness.narrative)
    outcome = wl.check(op, fake)
    assert outcome.failure == "witness does not replay" and not outcome.correct


def test_audit_witness_and_raises_are_failures():
    wl = WORKLOADS["audit_rgm"]
    op = wl.build(DEFAULT_SEED, Path(env.OUT))[0]
    em_witness = falsify(MethodId.EM, AxiomId.INV, SearchConfig(seed=1, trials=200))
    assert wl.check(op, [None] * 5 + [em_witness]).failure
    assert not wl.check(op, ValueError("boom")).correct


def test_em_no_convergence_fails_but_is_not_wrong():
    wl = WORKLOADS["hunt_witness"]
    op = next(o for o in wl.build(DEFAULT_SEED, Path(env.OUT)) if o.args[:2] == ("em", "RSI"))
    outcome = wl.check(op, NoConvergence("no convergence to 1e-12 in 10000 iterations"))
    assert outcome.failure and outcome.correct
