"""Differential gate of the stacked falsifier against the reference loops
of ``oracle``, over all 42 method/axiom pairs:

    PYTHONPATH=src python tests/gate.py --trials 2000 [--seed 42] [--tie-tol 1e-9]
        [--em-max-iterations 10000] [--n-min 2] [--n-max 6]

For each pair it checks, trial by trial, that the stacked flags of
``_flag_trials`` equal the verdicts of the pair loops, that the
package's check returns the pair loop's outcome, and that the first
witness shrinks as ``oracle.shrink`` shrinks the pair loop's.  It also
checks that ``falsify`` ends as the pair loops do: with the error of the
first trial whose reference check does not hold, or with its witness
shrunk by ``oracle.shrink``, or with None when every trial holds.  EM
iterates within ``--em-max-iterations`` steps on both sides, and trials
draw from ``--n-min`` to ``--n-max`` alternatives, named as in the CLI.
It prints one line per pair and exits with status 1 on any mismatch.
pytest does not collect this file; ``test_gate.py`` runs it, and the
tests run the same comparisons at smaller budgets, through the same
reference runs of ``harness``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from pcmrank import AxiomId, MethodId, SearchConfig, Witness, falsify
from pcmrank.axioms import _flag_trials, _run_check, _shrink
from pcmrank.weighting import EmOptions

from harness import as_outcome, outcome, reference, settle, trial_inputs


def gate_pair(
    method: MethodId, axiom: AxiomId, cfg: SearchConfig, tie_tol: float, em: EmOptions
) -> list[str]:
    """The mismatches of one pair, and a one-line summary last."""
    run = reference(method, axiom, cfg, tie_tol, em)
    flags, _, _ = _flag_trials(method, axiom, cfg, range(cfg.trials), tie_tol, em)
    problems, witness = [], None  # the first witness of a check, and its trial
    for trial in range(cfg.trials):
        found = settle(_run_check, method, axiom, *trial_inputs(axiom, cfg, trial, tie_tol), em)
        if as_outcome(found) != as_outcome(run.result(trial)):
            problems.append(f"trial {trial}: the check differs from the pair loops")
        if witness is None and isinstance(run.result(trial), Witness):
            witness = trial, found
    expected = run.flagged(cfg.trials)
    if not np.array_equal(flags, expected):
        problems.append(f"flags differ from the verdicts at trials "
                        f"{np.flatnonzero(flags != expected)[:10].tolist()}")
    if witness is not None and outcome(_shrink, witness[1], em) != run.shrunk(witness[0]):
        problems.append("the first witness shrinks unlike the greedy loop")
    if outcome(falsify, method, axiom, cfg, tie_tol, em) != run.search(cfg.trials):
        problems.append("falsify ends unlike the loop of reference checks")
    summary = (f"{method.value}/{axiom.value}: {int(flags.sum())} flags, "
               f"{int(expected.sum())} verdicts, "
               f"{'no witness' if witness is None else 'witness shrunk'}")
    return problems + [summary]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tie-tol", type=float, default=1e-9)
    parser.add_argument("--em-max-iterations", type=int, default=EmOptions.max_iterations)
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=6)
    args = parser.parse_args(argv)
    cfg = SearchConfig(seed=args.seed, trials=args.trials, n_range=(args.n_min, args.n_max))
    em = EmOptions(max_iterations=args.em_max_iterations)
    failed = 0
    with np.errstate(all="ignore"):  # as falsify runs
        for method in MethodId:
            for axiom in AxiomId:
                *problems, summary = gate_pair(method, axiom, cfg, args.tie_tol, em)
                print(("MISMATCH " if problems else "ok ") + summary)
                for problem in problems:
                    print("    " + problem)
                failed += bool(problems)
    print(f"{failed} of {len(MethodId) * len(AxiomId)} pairs mismatched")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
