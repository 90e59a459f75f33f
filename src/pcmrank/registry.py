"""Fixed registry of known counterexamples and spot checks.

Each case pins a published instance — matrices hard-coded exactly as
printed in the source material — to the check it falsifies (or, for the
two spot checks, satisfies).  ``run_case`` re-runs the designated check
and reports expected versus observed, so the whole registry doubles as a
regression gate for the ranking methods and the axiom checkers.
"""

from __future__ import annotations

import numpy as np

from .axioms import AxiomId, check_ai, check_ano, check_iic, check_res, check_rsi
from .core import PCM, Permutation, RationalExponent, UnknownCase
from .transforms import aggregate, power
from .weighting import MethodId, em_weights, method_scores


def _pcm(rows) -> PCM:
    return PCM.from_upper(np.array(rows, dtype=float))


# two judges whose row sums both favour alternative 2, yet the aggregate
# favours alternative 1 (row sums 9 vs 10.25, 5.25 vs 6, then 6 vs 5)
ARITH_AI_A1 = _pcm([[1, 4, 4], [1 / 4, 1, 9], [1 / 4, 1 / 9, 1]])
ARITH_AI_A2 = _pcm([[1, 1 / 4, 4], [4, 1, 1], [1 / 4, 1, 1]])

# same shape for the favourable-product rule (scores 2 vs 1, 9 vs 8, then 1 vs 2)
FAVPROD_AI_A1 = _pcm([[1, 2, 1 / 9], [1 / 2, 1, 1], [9, 1, 1]])
FAVPROD_AI_A2 = _pcm([[1, 1 / 8, 9], [8, 1, 1], [1 / 9, 1, 1]])

# 6x6 tournament-style matrix whose eigenvector ranking flips the pair
# (2, 4) when every entry is squared
KENDALL6 = _pcm(
    [
        [1, 2, 2, 1 / 2, 2, 2],
        [1 / 2, 1, 1 / 2, 2, 2, 1 / 2],
        [1 / 2, 2, 1, 2, 2, 2],
        [2, 1 / 2, 1 / 2, 1, 1 / 2, 1 / 2],
        [1 / 2, 1 / 2, 1 / 2, 2, 1, 2],
        [1 / 2, 2, 1 / 2, 2, 1 / 2, 1],
    ]
)

# 4x4 matrix where rewriting only the (3, 4) comparison to 4 flips the
# eigenvector ranking of alternatives 1 and 2
IIC4 = _pcm([[1, 1, 1, 3], [1, 1, 2, 1], [1, 1 / 2, 1, 1], [1 / 3, 1, 1, 1]])

CASE_IDS = (
    "ex41-ai-arith",
    "ex43-ai-favprod",
    "ex45-iic-arith-note",
    "prop51-rsi-kendall",
    "prop51-iic-4x4",
    "prop61-flat-res",
    "prop61-arith-ai",
    "prop61-index-ano",
)


def _pair_scores(method: MethodId, matrices, pair) -> list[list[float]]:
    i, j = pair
    return [[float(s[i]), float(s[j])] for s in (method_scores(method, m) for m in matrices)]


def _ai_case(case_id: str, method: MethodId, m1: PCM, m2: PCM) -> dict:
    verdict = check_ai(method, [m1, m2])
    pair = (0, 1)
    details = {
        "pair": list(pair),
        "scores_per_matrix": _pair_scores(method, [m1, m2], pair),
        "scores_aggregate": _pair_scores(method, [aggregate([m1, m2])], pair)[0],
        "narrative": verdict.witness.narrative if verdict.witness else None,
    }
    return _report(case_id, method, AxiomId.AI, "fail", verdict.holds, details)


def _report(case_id, method, axiom, expected, holds, details) -> dict:
    observed = "hold" if holds else "fail"
    return {
        "id": case_id,
        "method": method.value,
        "axiom": axiom.value,
        "expected": expected,
        "observed": observed,
        "ok": observed == expected,
        "details": details,
    }


def run_case(case_id: str) -> dict:
    """Re-run one registry case; ``ok`` is True when the observed verdict
    matches the recorded one."""
    if case_id == "ex41-ai-arith":
        return _ai_case(case_id, MethodId.ROW_ARITHMETIC_MEAN, ARITH_AI_A1, ARITH_AI_A2)

    if case_id == "ex43-ai-favprod":
        return _ai_case(case_id, MethodId.FAVOURABLE_PRODUCT, FAVPROD_AI_A1, FAVPROD_AI_A2)

    if case_id == "ex45-iic-arith-note":
        # row sums of untouched rows cannot move, so the arithmetic-mean
        # rule keeps the (1, 2) relation across the remote rewrite
        verdict = check_iic(
            MethodId.ROW_ARITHMETIC_MEAN, IIC4, cell=(2, 3), new_value=4.0, pair=(0, 1)
        )
        details = {
            "pair": [0, 1],
            "cell": [2, 3],
            "value": 4.0,
            "row_sums": [float(x) for x in IIC4.entries.sum(axis=1)],
        }
        return _report(
            case_id, MethodId.ROW_ARITHMETIC_MEAN, AxiomId.IIC, "hold", verdict.holds, details
        )

    if case_id == "prop51-rsi-kendall":
        verdict = check_rsi(MethodId.EM, KENDALL6, RationalExponent(2, 1))
        w1, _ = em_weights(KENDALL6)
        w2, _ = em_weights(power(KENDALL6, RationalExponent(2, 1)))
        details = {
            "kappa": "2/1",
            "pair": list(verdict.witness.auxiliary["pair"]) if verdict.witness else None,
            "weights": [float(x) for x in w1.w],
            "weights_squared": [float(x) for x in w2.w],
            "narrative": verdict.witness.narrative if verdict.witness else None,
        }
        return _report(case_id, MethodId.EM, AxiomId.RSI, "fail", verdict.holds, details)

    if case_id == "prop51-iic-4x4":
        verdict = check_iic(MethodId.EM, IIC4, cell=(2, 3), new_value=4.0, pair=(0, 1))
        w1, _ = em_weights(IIC4)
        w2, _ = em_weights(IIC4.with_entry(2, 3, 4.0))
        details = {
            "pair": [0, 1],
            "cell": [2, 3],
            "value": 4.0,
            "weights": [float(x) for x in w1.w],
            "weights_modified": [float(x) for x in w2.w],
            "narrative": verdict.witness.narrative if verdict.witness else None,
        }
        return _report(case_id, MethodId.EM, AxiomId.IIC, "fail", verdict.holds, details)

    if case_id == "prop61-flat-res":
        verdict = check_res(MethodId.FLAT, PCM.ones(3), pair=(0, 1), increased_value=2.0)
        details = {
            "pair": [0, 1],
            "increase": 2.0,
            "narrative": verdict.witness.narrative if verdict.witness else None,
        }
        return _report(case_id, MethodId.FLAT, AxiomId.RES, "fail", verdict.holds, details)

    if case_id == "prop61-arith-ai":
        # independence witness: the row-sum rule keeps anonymity and
        # responsiveness but loses aggregation invariance
        return _ai_case(case_id, MethodId.ROW_ARITHMETIC_MEAN, ARITH_AI_A1, ARITH_AI_A2)

    if case_id == "prop61-index-ano":
        sigma = Permutation(np.array([1, 0, 2]))
        verdict = check_ano(MethodId.INDEX_ORDER, PCM.ones(3), sigma)
        details = {
            "permutation": [1, 0, 2],
            "narrative": verdict.witness.narrative if verdict.witness else None,
        }
        return _report(case_id, MethodId.INDEX_ORDER, AxiomId.ANO, "fail", verdict.holds, details)

    raise UnknownCase(f"no registry case {case_id!r}; known: {', '.join(CASE_IDS)}")


def run_all() -> list[dict]:
    """Run every registry case in declaration order."""
    return [run_case(case_id) for case_id in CASE_IDS]
