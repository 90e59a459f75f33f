"""Fixed registry of known counterexamples and spot checks.

Each case pins a published instance — matrices hard-coded exactly as
printed in the source material — to the check it falsifies (or, for the
two spot checks, satisfies).  ``run_case`` re-runs the designated check
and reports expected versus observed, so the whole registry doubles as a
regression gate for the ranking methods and the axiom checkers.
"""

from __future__ import annotations

import numpy as np

from .axioms import AxiomId, _run_check
from .core import DEFAULT_TIE_TOL, PCM, RationalExponent, UnknownCase, _shown
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


def _pair_scores(method: MethodId, matrices, pair) -> list[list[float]]:
    i, j = pair
    return [[float(s[i]), float(s[j])] for s in (method_scores(method, m) for m in matrices)]


def _narrative(verdict) -> str | None:
    return verdict.witness.narrative if verdict.witness else None


def _em_weights(a: PCM) -> list[float]:
    return [float(x) for x in em_weights(a)[0].w]


def _ai_details(method, matrices, aux, verdict) -> dict:
    pair = (0, 1)
    return {
        "pair": list(pair),
        "scores_per_matrix": _pair_scores(method, matrices, pair),
        "scores_aggregate": _pair_scores(method, [aggregate(list(matrices))], pair)[0],
        "narrative": _narrative(verdict),
    }


_ARITH_AI = (
    MethodId.ROW_ARITHMETIC_MEAN, AxiomId.AI, (ARITH_AI_A1, ARITH_AI_A2), {}, "fail", _ai_details
)

#: case id -> (method, axiom, matrices, auxiliary values as a witness
#: records them, expected verdict, details(method, matrices, aux, verdict))
_CASES = {
    "ex41-ai-arith": _ARITH_AI,
    "ex43-ai-favprod": (
        MethodId.FAVOURABLE_PRODUCT, AxiomId.AI, (FAVPROD_AI_A1, FAVPROD_AI_A2), {}, "fail",
        _ai_details,
    ),
    # row sums of untouched rows cannot move, so the arithmetic-mean rule
    # keeps the (1, 2) relation across the remote rewrite
    "ex45-iic-arith-note": (
        MethodId.ROW_ARITHMETIC_MEAN, AxiomId.IIC, (IIC4,),
        {"pair": [0, 1], "cell": [2, 3], "value": 4.0}, "hold",
        lambda method, m, aux, verdict: {
            **aux, "row_sums": [float(x) for x in m[0].entries.sum(axis=1)]
        },
    ),
    "prop51-rsi-kendall": (
        MethodId.EM, AxiomId.RSI, (KENDALL6,), {"kappa": "2/1"}, "fail",
        lambda method, m, aux, verdict: {
            **aux,
            "pair": list(verdict.witness.auxiliary["pair"]) if verdict.witness else None,
            "weights": _em_weights(m[0]),
            "weights_squared": _em_weights(power(m[0], RationalExponent.parse(aux["kappa"]))),
            "narrative": _narrative(verdict),
        },
    ),
    "prop51-iic-4x4": (
        MethodId.EM, AxiomId.IIC, (IIC4,), {"pair": [0, 1], "cell": [2, 3], "value": 4.0}, "fail",
        lambda method, m, aux, verdict: {
            **aux,
            "weights": _em_weights(m[0]),
            "weights_modified": _em_weights(m[0].with_entry(*aux["cell"], aux["value"])),
            "narrative": _narrative(verdict),
        },
    ),
    "prop61-flat-res": (
        MethodId.FLAT, AxiomId.RES, (PCM.ones(3),), {"pair": [0, 1], "increase": 2.0}, "fail",
        lambda method, m, aux, verdict: {**aux, "narrative": _narrative(verdict)},
    ),
    # independence witness: the row-sum rule keeps anonymity and
    # responsiveness but loses aggregation invariance
    "prop61-arith-ai": _ARITH_AI,
    "prop61-index-ano": (
        MethodId.INDEX_ORDER, AxiomId.ANO, (PCM.ones(3),), {"permutation": [1, 0, 2]}, "fail",
        lambda method, m, aux, verdict: {**aux, "narrative": _narrative(verdict)},
    ),
}
CASE_IDS = tuple(_CASES)


def run_case(case_id: str) -> dict:
    """Re-run one registry case through its check; ``ok`` is True when the
    observed verdict matches the recorded one."""
    if not isinstance(case_id, str) or case_id not in CASE_IDS:  # an array compares elementwise
        raise UnknownCase(f"no registry case {_shown(case_id)}; known: {', '.join(CASE_IDS)}")
    method, axiom, matrices, aux, expected, details = _CASES[case_id]
    verdict = _run_check(method, axiom, matrices, {**aux, "tie_tol": DEFAULT_TIE_TOL})
    observed = "hold" if verdict.holds else "fail"
    return {
        "id": case_id,
        "method": method.value,
        "axiom": axiom.value,
        "expected": expected,
        "observed": observed,
        "ok": observed == expected,
        "details": details(method, matrices, aux, verdict),
    }


def run_all() -> list[dict]:
    """Run every registry case in declaration order."""
    return [run_case(case_id) for case_id in CASE_IDS]
