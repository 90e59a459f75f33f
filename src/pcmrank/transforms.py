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
    reciprocal_fill,
    stack_indices,
)


def aggregate_entries(e: np.ndarray) -> np.ndarray:
    """Entrywise geometric mean over the matrix axis of ``e`` (..., k, n, n);
    a single matrix (k = 1) is returned unchanged, bit for bit."""
    if e.shape[-3] == 1:
        return e[..., 0, :, :]
    return reciprocal_fill(np.exp(np.add.reduce(np.log(e), axis=-3) / e.shape[-3]))


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
    lead = (x[..., None, None] for x in stack_indices(inv.shape[:-1]))
    return e[(*lead, inv[..., :, None], inv[..., None, :])]


def aggregate(matrices: Sequence[PCM]) -> PCM:
    """Entrywise geometric mean of the given matrices.

    Computed as exp of the arithmetic mean of logs, which keeps the result
    independent of operand order and safe from overflow.  A single matrix
    is returned unchanged (bit for bit).
    """
    if len(matrices) == 0:
        raise EmptyList("nothing to aggregate")
    n = matrices[0].n
    for m in matrices[1:]:
        if m.n != n:
            raise DimensionMismatch(f"mixed sizes {n} and {m.n}")
    if len(matrices) == 1:
        return matrices[0]
    return PCM(aggregate_entries(np.array([m.entries for m in matrices])))


def opposite(a: PCM) -> PCM:
    """Transpose: every preference reversed, as a C-ordered copy.  Entries
    move bit for bit, so opposite(opposite(a)) == a exactly."""
    return PCM(opposite_entries(a.entries))


def power(a: PCM, kappa: RationalExponent) -> PCM:
    """Raise every entry to kappa = p/q.  Exponent 1 returns the input
    unchanged; otherwise the upper triangle is recomputed as
    exp((p/q) * ln a_ij) and mirrored."""
    if kappa.p == kappa.q:  # lowest terms, so this is exactly 1
        return a
    return PCM(power_entries(a.entries, kappa.value))


def permute(a: PCM, sigma: Permutation) -> PCM:
    """Relabel alternatives: the data of alternative i moves to label
    sigma(i), i.e. result[sigma(i)][sigma(j)] == a[i][j] bit for bit."""
    if sigma.n != a.n:
        raise DimensionMismatch(f"permutation on {sigma.n} labels, matrix has {a.n}")
    return PCM(permute_entries(a.entries, sigma.map))
