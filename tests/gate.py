"""Differential gate of the stacked falsifier against the reference loops
of ``oracle``, over all 42 method/axiom pairs:

    PYTHONPATH=src python tests/gate.py --trials 2000 [--seed 42] [--tie-tol 1e-9]

For each pair it checks, trial by trial, that the stacked flags of
``_flag_trials`` equal the verdicts of the pair loops (for EM, whose
stacked iteration is capped, that the flags include them), that the
package's check returns the pair loop's outcome, and that the first
witness shrinks as ``oracle.shrink`` shrinks it.  It prints one line per
pair and exits with status 1 on any mismatch.  pytest does not collect
this file; the tests run the same comparisons at smaller budgets.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from pcmrank import PCM, AxiomId, MethodId, SearchConfig, witness_json_dict
from pcmrank.axioms import _flag_trials, _run_check, _shrink
from pcmrank.weighting import EmOptions

import oracle


def outcome(check, method, axiom, matrices, aux):
    try:
        verdict = check(method, axiom, matrices, aux, EmOptions())
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None if verdict.holds else witness_json_dict(verdict.witness)


def shrunk(shrink, witness):
    try:
        return witness_json_dict(shrink(witness, EmOptions()))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def gate_pair(method: MethodId, axiom: AxiomId, cfg: SearchConfig, tie_tol: float) -> list[str]:
    """The mismatches of one pair, and a one-line summary last."""
    flags, draws = _flag_trials(method, axiom, cfg, range(cfg.trials), tie_tol)
    problems, expected, witness = [], np.zeros(cfg.trials, dtype=bool), None
    for trial, (grids, aux) in enumerate(draws):
        matrices, aux = [PCM.from_upper(g) for g in grids], {**aux, "tie_tol": tie_tol}
        reference = outcome(oracle.run_check, method, axiom, matrices, aux)
        if outcome(_run_check, method, axiom, matrices, aux) != reference:
            problems.append(f"trial {trial}: the check differs from the pair loops")
        expected[trial] = reference is not None
        if witness is None and isinstance(reference, dict):
            witness = _run_check(method, axiom, matrices, aux).witness
    exact = np.array_equal(flags, expected)
    if not (exact or (method is MethodId.EM and np.all(flags >= expected))):
        problems.append(f"flags differ from the verdicts at trials "
                        f"{np.flatnonzero(flags != expected)[:10].tolist()}")
    if witness is not None and shrunk(_shrink, witness) != shrunk(oracle.shrink, witness):
        problems.append("the first witness shrinks unlike the greedy loop")
    summary = (f"{method.value}/{axiom.value}: {int(flags.sum())} flags, "
               f"{int(expected.sum())} verdicts, "
               f"{'no witness' if witness is None else 'witness shrunk'}")
    return problems + [summary]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tie-tol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    cfg = SearchConfig(seed=args.seed, trials=args.trials)
    failed = 0
    with np.errstate(all="ignore"):  # as falsify runs
        for method in MethodId:
            for axiom in AxiomId:
                *problems, summary = gate_pair(method, axiom, cfg, args.tie_tol)
                print(("MISMATCH " if problems else "ok ") + summary)
                for problem in problems:
                    print("    " + problem)
                failed += bool(problems)
    print(f"{failed} of {len(MethodId) * len(AxiomId)} pairs mismatched")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
