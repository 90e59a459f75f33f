"""Reciprocity-preserving matrix algebra: geometric-mean aggregation,
opposite (full reversal), rational entrywise powers, and relabelling.
Each is written once over unvalidated entry arrays (..., n, n), for one
matrix or a stack; the ``PCM`` functions validate around it."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    PCM,
    DimensionMismatch,
    EmptyList,
    Permutation,
    RationalExponent,
    check_kind,
    reciprocal_fill,
)


def aggregate_entries(e: np.ndarray, k: np.ndarray | None = None) -> np.ndarray:
    """Entrywise geometric mean over the matrix axis of ``e`` (..., m, n, n);
    a single matrix (m = 1) is returned unchanged, bit for bit.  ``k`` holds
    each row's count of matrices where the rest are all ones, whose logs add
    +0 in matrix order, so each mean keeps the bits of its k matrices'."""
    if e.shape[-3] == 1:
        return e[..., 0, :, :]
    count = e.shape[-3] if k is None else k[..., None, None]
    return _exp_mean(np.add.reduce(np.log(e), axis=-3), count)


def _exp_mean(total: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    """The geometric mean of k matrices from ``total``, the sum of their logs."""
    return reciprocal_fill(np.exp(total / k))


def opposite_entries(e: np.ndarray) -> np.ndarray:
    """Every matrix transposed, as a view that callers copy: the entries
    move bit for bit."""
    return e.swapaxes(-1, -2)


def power_entries(e: np.ndarray, kappa) -> np.ndarray:
    """exp(kappa * ln a_ij) above the diagonal, mirrored; one ``kappa`` per
    matrix.  A matrix whose kappa is 1 is returned unchanged, bit for bit,
    as ``power`` returns it (exp(ln a) misses a by an ulp now and then)."""
    k = np.asarray(kappa)[..., None, None]
    return np.where(k == 1, e, reciprocal_fill(np.exp(k * np.log(e))))


def permute_entries(e: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``result[sigma[i], sigma[j]] == e[i, j]``, one label map ``sigma`` per matrix."""
    inv = np.argsort(sigma, axis=-1)
    lead = (x[..., None, None] for x in np.indices(inv.shape[:-1], sparse=True))
    return e[(*lead, inv[..., :, None], inv[..., None, :])]


def aggregate(matrices: Sequence[PCM]) -> PCM:
    """Entrywise geometric mean of the given matrices.

    Computed as exp of the arithmetic mean of logs, which keeps the result
    independent of operand order and safe from overflow.  A single matrix
    is returned unchanged (bit for bit).
    """
    check_kind("matrices", matrices, Sequence)
    if len(matrices) == 0:
        raise EmptyList("nothing to aggregate")
    for m in matrices:
        check_kind("matrix", m, PCM)
        if m.n != matrices[0].n:
            raise DimensionMismatch(f"mixed sizes {matrices[0].n} and {m.n}")
    if len(matrices) == 1:
        return matrices[0]
    return PCM(aggregate_entries(np.array([m.entries for m in matrices])))


def opposite(a: PCM) -> PCM:
    """Transpose: every preference reversed, as a C-ordered copy.  Entries
    move bit for bit, so opposite(opposite(a)) == a exactly."""
    check_kind("a", a, PCM)
    return PCM(opposite_entries(a.entries))


@np.errstate(all="ignore")  # an entry beyond the float range is rejected
def power(a: PCM, kappa: RationalExponent) -> PCM:
    """Raise every entry to kappa = p/q.  Exponent 1 returns the input
    unchanged; otherwise the upper triangle is recomputed as
    exp((p/q) * ln a_ij) and mirrored."""
    check_kind("a", a, PCM)
    check_kind("kappa", kappa, RationalExponent)
    if kappa.p == kappa.q:  # lowest terms, so this is exactly 1
        return a
    return PCM(power_entries(a.entries, kappa.value))


def permute(a: PCM, sigma: Permutation) -> PCM:
    """Relabel alternatives: the data of alternative i moves to label
    sigma(i), i.e. result[sigma(i)][sigma(j)] == a[i][j] bit for bit."""
    check_kind("a", a, PCM)
    check_kind("sigma", sigma, Permutation)
    if sigma.n != a.n:
        raise DimensionMismatch(f"permutation on {sigma.n} labels, matrix has {a.n}")
    return PCM(permute_entries(a.entries, sigma.map))
