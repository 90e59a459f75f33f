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
    PcmError,
    Ranking,
    WeightVector,
    as_float,
    as_int,
    check_tie_tol,
    tie_group_max,
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


@dataclass(frozen=True)
class EmOptions:
    """Power iteration budget and stopping tolerance (sup norm on the
    normalized iterate)."""

    max_iterations: int = 10_000
    convergence_tol: float = 1e-12

    def __post_init__(self):  # numpy numbers become Python ones
        for name, convert in (("max_iterations", as_int), ("convergence_tol", as_float)):
            object.__setattr__(self, name, convert(name, getattr(self, name)))
        if self.max_iterations < 1:
            raise InvalidParameter("max_iterations must be at least 1")
        if not self.convergence_tol > 0.0:
            raise InvalidParameter("convergence_tol must be positive")

    def exhausted(self) -> NoConvergence:
        """The error of an iteration still unconverged after the budget."""
        return NoConvergence(
            f"no convergence to {self.convergence_tol:g} in {self.max_iterations} iterations"
        )


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


def em_weights(a: PCM, opts: EmOptions = EmOptions()) -> tuple[WeightVector, float]:
    """Principal-eigenvector weights by power iteration, with the Rayleigh
    estimate of the dominant eigenvalue.

    Iterates w <- Aw (normalized to sum one) from the uniform vector until
    the sup-norm step drops to ``opts.convergence_tol``: ``em_weight_stack``
    on a stack of one.  The matrix is positive, so Perron-Frobenius
    guarantees convergence; an exhausted budget raises NoConvergence
    rather than returning an unconverged vector.  The returned eigenvalue
    is the mean of the componentwise ratios (Aw)_i / w_i and sits at or
    above n for any reciprocal matrix, up to iteration error; where a
    ratio passes the float range it is sum(Aw) instead, w summing to one.
    """
    m = a.entries
    v = em_weight_stack(m, opts)
    if np.isnan(v).any():
        raise opts.exhausted()
    weights = WeightVector(v)  # rejects a weight that underflowed to 0 before dividing by it
    with np.errstate(over="ignore"):
        lambda_max = np.mean((m @ v) / v)
    if not np.isfinite(lambda_max):
        lambda_max = np.add.reduce(m @ v)
    return weights, float(lambda_max)


#: the power iteration tests its convergence once per block of this many steps
_EM_BLOCK = 8


def _power_iteration(m: np.ndarray, w: np.ndarray, steps: int, tol: float):
    """The first of at most ``steps`` iterates of ``m`` from ``w`` that moves
    by ``tol`` or less in sup norm, or None.  Each step is v = m @ w,
    v /= v.sum(): the operations of a step of ``em_weight_stack``, in its
    order, so the same bits.  A block of steps writes its iterates into one
    history buffer, and one test then finds its first converged step."""
    history = np.empty((_EM_BLOCK + 1, len(w)))
    history[0] = w
    rows = list(history)
    while steps > 0:
        block = min(_EM_BLOCK, steps)
        for w, v in zip(rows, rows[1:block + 1]):
            np.matmul(m, w, out=v)
            v /= np.add.reduce(v)
        moved = np.maximum.reduce(np.absolute(history[1:block + 1] - history[:block]), axis=1)
        done = np.flatnonzero(moved <= tol)
        if len(done):
            return history[done[0] + 1].copy()
        history[0] = history[block]
        steps -= block
    return None


def em_weight_stack(e: np.ndarray, opts: EmOptions = EmOptions()) -> np.ndarray:
    """``em_weights`` for every matrix of the stack ``e`` (..., n, n): one
    row of n weights per matrix, or a row of NaN for a matrix that has not
    converged within ``opts.max_iterations`` steps.

    All matrices iterate together from the uniform vector, a block of
    stacked steps at a time, as in ``_power_iteration``; a matrix leaves
    the stack after the block in which it converges, with the iterate of
    its first converged step, and the last one left finishes in
    ``_power_iteration``.  Nothing is validated.
    """
    n = e.shape[-1]
    m = e.reshape(-1, n, n)  # a view for C-ordered or transposed stacks
    out = np.full(m.shape[:-1], np.nan)
    live = np.arange(len(m))
    history = np.empty((_EM_BLOCK + 1, *out.shape))
    history[0] = 1.0 / n
    left = opts.max_iterations
    while left > 0 and len(live):
        if len(live) == 1:  # fewer calls per step
            last = _power_iteration(m[0], history[0, 0], left, opts.convergence_tol)
            if last is not None:
                out[live[0]] = last
            break
        block = min(_EM_BLOCK, left)
        h = history[:block + 1, :len(live)]
        for w, v in zip(h, h[1:]):
            np.matmul(m, w[..., None], out=v[..., None])
            v /= np.add.reduce(v, axis=-1, keepdims=True)
        moved = np.maximum.reduce(np.absolute(h[1:] - h[:-1]), axis=-1) <= opts.convergence_tol
        done = moved.any(axis=0)
        if done.any():
            out[live[done]] = h[moved.argmax(axis=0)[done] + 1, np.flatnonzero(done)]
            live, m = live[~done], m[~done]
            history[0, :len(live)] = h[block, ~done]
        else:
            history[0, :len(live)] = h[block]
        left -= block
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
        return np.exp(np.add.reduce(np.log(e), axis=-1) / e.shape[-1])
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
    """Ranking induced by method ``m`` on matrix ``a``: ``rank_keys`` on a
    stack of one.

    FLAT ties everything; INDEX_ORDER ranks alternatives by their index
    regardless of the matrix; every other method ranks by its weights.
    The tie tolerance is checked for every method.  Where the weights
    cannot be ranked, the error is read from the row already ranked
    (``rank_error``).
    """
    tie_tol = check_tie_tol(tie_tol)
    keys, ok = rank_keys(m, a.entries, tie_tol, em)
    if not ok:
        raise rank_error(m, keys, em)
    return Ranking.from_keys(keys)


def rank_error(m: MethodId, keys: np.ndarray, em: EmOptions) -> PcmError:
    """The error of a valid matrix whose row of ``rank_keys`` was rejected,
    read from that row's ``keys`` or relation array: a NaN is an EM
    iteration that has not converged or a score that overflowed (inf /
    inf), and a row without one has a weight of 0."""
    if not np.isnan(keys).any():
        return NonPositive("weights must be finite and strictly positive")
    if m is MethodId.EM:
        return em.exhausted()
    return NonPositive("scores must be finite and strictly positive")


def rank_keys(
    m: MethodId, e: np.ndarray, tie_tol: float, em: EmOptions = EmOptions()
) -> tuple[np.ndarray, np.ndarray]:
    """Rank keys of method ``m`` for every matrix in the stack ``e``
    (..., n, n), smaller first and equal within a tie group (see
    ``core.relation`` and ``Ranking.from_keys``), and a mask of the
    matrices ``method_rank`` ranks without raising.  The keys are zeros
    for FLAT, the index for INDEX_ORDER and minus ``tie_group_max`` of the
    weights otherwise.  For EM the mask also clears where the iteration
    has not converged within ``em.max_iterations``; such a matrix, and one
    with an entry that is not finite and positive, has NaN keys.  Every
    matrix's keys carry the same bits in any stack.
    """
    ok = ((e > 0.0) & (e < np.inf)).all(axis=(-2, -1)) & (tie_tol >= 0.0)
    if m is MethodId.FLAT:
        return np.zeros(e.shape[:-1]), ok
    if m is MethodId.INDEX_ORDER:
        return np.broadcast_to(np.arange(e.shape[-1]), e.shape[:-1]), ok
    if m is MethodId.EM:  # NaN rows where unconverged
        s = np.full(e.shape[:-1], np.nan)
        s[ok] = em_weight_stack(e[ok], em)  # a bad entry would iterate NaN to the end
    else:
        s = closed_form_scores(m, e)
    w = s / s.sum(axis=-1, keepdims=True)
    # w > 0 throughout only if every score and their sum are finite and
    # positive; the weights then sum to 1 within n ulps, far inside SUM_TOL
    ok &= (w > 0.0).all(axis=-1)
    return -tie_group_max(w, tie_tol), ok


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
