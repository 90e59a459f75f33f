"""Ranking methods: row geometric mean and principal-eigenvector weights,
plus the simpler score rules used as foils in the axiom audit."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DEFAULT_TIE_TOL,
    PCM,
    DimensionMismatch,
    InvalidParameter,
    NoConvergence,
    NoWeightForm,
    NonPositive,
    Ranking,
    WeightVector,
    check_tie_tol,
    ranking_from_weights,
)


class MethodId(Enum):
    """The seven implemented ranking methods; values are the CLI tokens."""

    RGM = "rgm"
    EM = "em"
    ROW_ARITHMETIC_MEAN = "arith"
    FIRST_COLUMN = "col1"
    FAVOURABLE_PRODUCT = "favprod"
    FLAT = "flat"
    INDEX_ORDER = "index"


#: methods that define a weight vector (FLAT and INDEX_ORDER rank only)
WEIGHTED_METHODS = (
    MethodId.RGM,
    MethodId.EM,
    MethodId.ROW_ARITHMETIC_MEAN,
    MethodId.FIRST_COLUMN,
    MethodId.FAVOURABLE_PRODUCT,
)


@dataclass(frozen=True)
class EmOptions:
    """Power iteration budget and stopping tolerance (sup norm on the
    normalized iterate)."""

    max_iterations: int = 10_000
    convergence_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidParameter("max_iterations must be at least 1")
        if not self.convergence_tol > 0.0:
            raise InvalidParameter("convergence_tol must be positive")


def rgm_weights(a: PCM) -> WeightVector:
    """Row geometric means, normalized to sum one.

    Means are taken in log space; this is the closed-form minimizer of the
    log least squares objective (see ``rgm_objective``).
    """
    return WeightVector.from_scores(closed_form_scores(MethodId.RGM, a.entries))


def rgm_objective(a: PCM, w: WeightVector) -> float:
    """Sum over all ordered pairs of [ln a_ij - ln(w_i / w_j)]^2."""
    if w.n != a.n:
        raise DimensionMismatch(f"matrix has {a.n} alternatives, weights {w.n}")
    lw = np.log(w.w)
    resid = np.log(a.entries) - (lw[:, None] - lw[None, :])
    return float(np.sum(resid * resid))


def em_weights(
    a: PCM, opts: EmOptions = EmOptions(), start=None
) -> tuple[WeightVector, float]:
    """Principal-eigenvector weights by power iteration, with the Rayleigh
    estimate of the dominant eigenvalue.

    Iterates w <- Aw (normalized to sum one) from the uniform vector, or
    from ``start`` if given, until the sup-norm step drops to
    ``opts.convergence_tol``.  The matrix is positive, so Perron-Frobenius
    guarantees convergence; an exhausted budget raises NoConvergence
    rather than returning an unconverged vector.  The returned eigenvalue
    is the mean of the componentwise ratios (Aw)_i / w_i and sits at or
    above n for any reciprocal matrix, up to iteration error.
    """
    m = a.entries
    if start is None:
        w = np.full(a.n, 1.0 / a.n)
    else:
        w = np.asarray(start, dtype=float)
        if w.shape != (a.n,) or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise NonPositive("start vector must be positive with length n")
        w = w / w.sum()
    # each step is v = m @ w, v /= v.sum(), max|v - w|, written into two
    # reused buffers: the same operations in the same order, so the same bits
    v, step = np.empty(a.n), np.empty(a.n)
    for _ in range(opts.max_iterations):
        np.matmul(m, w, out=v)
        v /= np.add.reduce(v)
        np.absolute(np.subtract(v, w, out=step), out=step)
        if np.maximum.reduce(step) <= opts.convergence_tol:
            lambda_max = float(np.mean((m @ v) / v))
            return WeightVector(v), lambda_max
        w, v = v, w
    raise NoConvergence(
        f"no convergence to {opts.convergence_tol:g} in {opts.max_iterations} iterations"
    )


def em_weight_stack(e: np.ndarray, opts: EmOptions = EmOptions()) -> np.ndarray:
    """``em_weights`` for every matrix of the stack ``e`` (..., n, n): one
    row of n weights per matrix, or a row of NaN for a matrix that has not
    converged within ``opts.max_iterations`` steps.

    All matrices iterate together from the uniform vector, one stacked
    step at a time; a matrix leaves the stack at the step it converges.
    Each row carries the bits ``em_weights`` gives that matrix when the
    matrix has the same memory layout here as there (C order for built
    matrices, Fortran order for the transposed ones of ``opposite``),
    since the layout picks the order of the products' sums.  Nothing is
    validated.
    """
    n = e.shape[-1]
    m = e.reshape(-1, n, n)  # a view for C-ordered or transposed stacks
    out = np.full(m.shape[:-1], np.nan)
    live = np.arange(len(m))
    w = np.full(out.shape, 1.0 / n)
    for _ in range(opts.max_iterations):
        v = np.matmul(m, w[..., None])[..., 0]
        v /= np.add.reduce(v, axis=-1, keepdims=True)
        done = np.maximum.reduce(np.absolute(v - w), axis=-1) <= opts.convergence_tol
        if done.any():
            out[live[done]] = v[done]
            # boolean indexing keeps each matrix's layout, and so its bits
            live, m, v = live[~done], m[~done], v[~done]
            if not len(live):
                break
        w = v
    return out.reshape(e.shape[:-1])


def method_scores(m: MethodId, a: PCM, em: EmOptions = EmOptions()) -> np.ndarray:
    """Raw per-alternative scores before normalization (larger is better).

    EM: the Perron vector; the closed-form methods: see
    ``closed_form_scores``.  FLAT and INDEX_ORDER rank without scores.
    """
    if m is MethodId.EM:
        w, _ = em_weights(a, em)
        return w.w
    return closed_form_scores(m, a.entries)


def closed_form_scores(m: MethodId, e: np.ndarray) -> np.ndarray:
    """Scores of a closed-form method on the entries ``e`` of one matrix
    (n, n) or of a stack of matrices (..., n, n), one row of n scores per
    matrix.  Each matrix's scores carry the same bits either way.

    RGM: row geometric means.  ROW_ARITHMETIC_MEAN: row sums.
    FIRST_COLUMN: the first column.  FAVOURABLE_PRODUCT: the product of the
    row entries >= 1 (the diagonal 1 always qualifies, so the score is well
    defined).
    """
    if m is MethodId.RGM:
        return np.exp(np.mean(np.log(e), axis=-1))
    if m is MethodId.ROW_ARITHMETIC_MEAN:
        return e.sum(axis=-1)
    if m is MethodId.FIRST_COLUMN:
        return e[..., :, 0].copy()
    if m is MethodId.FAVOURABLE_PRODUCT:
        return np.where(e >= 1.0, e, 1.0).prod(axis=-1)
    raise NoWeightForm(f"method {m.value} does not define scores")


def method_weights(m: MethodId, a: PCM, em: EmOptions = EmOptions()) -> WeightVector:
    """Normalized weight vector for any score-based method."""
    return WeightVector.from_scores(method_scores(m, a, em))


def method_rank(
    m: MethodId,
    a: PCM,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> Ranking:
    """Ranking induced by method ``m`` on matrix ``a``.

    FLAT ties everything; INDEX_ORDER ranks alternatives by their index
    regardless of the matrix; every other method ranks by its weights.
    The tie tolerance is checked for every method.
    """
    check_tie_tol(tie_tol)
    if m is MethodId.FLAT:
        return Ranking(np.zeros(a.n, dtype=int))
    if m is MethodId.INDEX_ORDER:
        return Ranking(np.arange(a.n))
    return ranking_from_weights(method_weights(m, a, em), tie_tol)


def weights_json_dict(
    m: MethodId, w: WeightVector, lambda_max: float | None = None
) -> dict:
    """JSON fragment: {"method": ..., "n": ..., "weights": [...],
    "lambda_max": ... | null}."""
    return {
        "method": m.value,
        "n": w.n,
        "weights": [float(x) for x in w.w],
        "lambda_max": lambda_max,
    }
