"""The differential harness of ``gate.py`` and the tests: the engine's
checks, searches and shrinking against the reference loops of ``oracle``.

One process memoizes each trial's draw, shared by every method, tie
tolerance and budget, and each reference run (``reference``): per
(method, axiom, stream, tie_tol, em), the oracle's result for each trial,
built lazily in trial order, and ``oracle.shrink``'s outcome on a trial's
witness.  It never holds an engine result.  ``oracle.shrink`` judges its
steps through the engine's ``_run_check`` and the oracle ranks the
closed-form methods through ``weighting.method_weights`` (EM through its
own stepwise power iteration), so a test that patches code the oracle
reaches patches it only around the engine's call, or calls ``oracle``
itself.  Floating-point errors are not silenced.
``random_pcm`` is the random matrix the tests share.
"""

from __future__ import annotations

import dataclasses
from functools import cache

import numpy as np
import pytest

from pcmrank import PCM, AxiomVerdict, PcmError, Witness, falsify, witness_json_dict
from pcmrank import axioms
from pcmrank.axioms import _draw, _run_check, _shrink, _trial_rng
from pcmrank.weighting import EmOptions

import oracle

LOG9 = np.log(9.0)


def random_pcm(rng, n):
    return PCM.from_upper(np.exp(rng.uniform(-LOG9, LOG9, (n, n))))


def settle(run, *args):
    """What ``run(*args)`` ends with: its result (for a verdict, its witness
    or None), or the type and text of the error it raises."""
    try:
        found = run(*args)
    except Exception as exc:  # both paths must fail alike
        return type(exc).__name__, str(exc)
    return found.witness if isinstance(found, AxiomVerdict) else found


def as_outcome(found):
    return witness_json_dict(found) if isinstance(found, Witness) else found


def outcome(run, *args):
    """What a check, a search or a shrink ends with: the witness as JSON,
    None, or the type and text of the error raised."""
    return as_outcome(settle(run, *args))


@cache
def _drawn(axiom, stream, trial):
    grids, aux = _draw(axiom, stream, _trial_rng(stream.seed, trial))
    return tuple(PCM.from_upper(g) for g in grids), aux


def trial_inputs(axiom, cfg, trial, tie_tol):
    """A trial's matrices, and its auxiliary values with the tie tolerance."""
    matrices, aux = _drawn(axiom, dataclasses.replace(cfg, trials=1), trial)
    return list(matrices), {**aux, "tie_tol": tie_tol}


def search_loop(check, shrink):
    """The search as a loop: every trial in order through ``check``, and
    the first violation's witness through ``shrink``."""

    def search(method, axiom, cfg, tie_tol, em=EmOptions()):
        for trial in range(cfg.trials):
            verdict = check(method, axiom, *trial_inputs(axiom, cfg, trial, tie_tol), em)
            if not verdict.holds:
                return shrink(verdict.witness, em)
        return None

    return search


scalar_search = search_loop(_run_check, _shrink)


def falsify_unshrunk(method, axiom, cfg, tie_tol, em=EmOptions()):
    """``falsify``'s first witness, before shrinking."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(axioms, "_shrink", lambda witness, em: witness)
        return falsify(method, axiom, cfg, tie_tol, em)


def raw_witness(method, axiom, cfg, tie_tol=1e-9, em=EmOptions()):
    """``falsify_unshrunk``, or None where the search fails."""
    try:
        return falsify_unshrunk(method, axiom, cfg, tie_tol, em)
    except PcmError:
        return None


def assert_shrinks_alike(witness, em=EmOptions()):
    """``_shrink`` ends as ``oracle.shrink`` on ``witness``; floating-point
    errors are ignored, as ``falsify`` ignores them."""
    with np.errstate(all="ignore"):
        engine, expected = outcome(_shrink, witness, em), outcome(oracle.shrink, witness, em)
    assert engine == expected, witness_json_dict(witness)


class Reference:
    """The reference run of one (method, axiom, stream, tie_tol, em)."""

    def __init__(self, *key):
        self.key, self.found = key, []  # per trial, in order, as ``settle`` gives it

    def result(self, trial):
        """The oracle's result of ``trial``, after those of the trials before it."""
        method, axiom, stream, tie_tol, em = self.key
        while len(self.found) <= trial:
            t = len(self.found)
            self.found.append(settle(lambda: oracle.run_check(
                method, axiom, *trial_inputs(axiom, stream, t, tie_tol), em
            )))
        return self.found[trial]

    def flagged(self, trials):
        """Per trial: does the reference check fail or raise?"""
        return np.array([self.result(t) is not None for t in range(trials)])

    @cache
    def shrunk(self, trial):
        """``oracle.shrink``'s outcome on the witness of ``trial``."""
        return outcome(oracle.shrink, self.result(trial), self.key[-1])

    def search(self, trials, shrink=True):
        """How the loop of reference checks ends: with the first trial that
        does not hold, its error or its witness, shrunk unless ``shrink``
        is False, or with None."""
        for trial in range(trials):
            found = self.result(trial)
            if isinstance(found, Witness) and shrink:
                return self.shrunk(trial)
            if found is not None:
                return as_outcome(found)
        return None


_RUNS: dict = {}


def reference(method, axiom, cfg, tie_tol, em=EmOptions()) -> Reference:
    """The process's reference run; fewer trials read a prefix of more."""
    key = method, axiom, dataclasses.replace(cfg, trials=1), tie_tol, em
    return _RUNS.setdefault(key, Reference(*key))


def reference_search(method, axiom, cfg, tie_tol, em=EmOptions(), shrink=True):
    return reference(method, axiom, cfg, tie_tol, em).search(cfg.trials, shrink)


def scalar_verdicts(method, axiom, cfg, tie_tol, em=EmOptions()):
    """Per trial: does the reference check fail, or abort without
    converging?  Any other error fails the caller."""
    run = reference(method, axiom, cfg, tie_tol, em)
    errors = [found for found in map(run.result, range(cfg.trials))
              if isinstance(found, tuple) and found[0] != "NoConvergence"]
    assert not errors, errors[0]
    return run.flagged(cfg.trials)
