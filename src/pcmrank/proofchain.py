"""Constructive chain behind the row-geometric-mean characterization.

Starting from a matrix whose first two rows share their product, the
chain flattens all comparisons among the remaining alternatives (B),
averages B over the cyclic relabellings of those alternatives (C),
rebalances with a matrix built from the first two row products (D), and
lands on E = C (+) D, whose rows all have geometric mean one and whose
shape depends on the single number alpha = sqrt(a_12).  The module also
verifies the algebraic identities E satisfies and offers the row-product
rebalancing step used to reach the equal-product case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TIE_TOL,
    PCM,
    DimensionTooSmall,
    IndexOutOfRange,
    InvalidParameter,
    NonPositive,
    PcmError,
    Permutation,
    RationalExponent,
    UnequalRowProducts,
    as_float,
    as_int,
    check_kind,
    relation,
)
from .transforms import _exp_mean, aggregate, opposite, permute, permute_entries, power
from .weighting import MethodId, closed_form_scores, method_rank

ROW_PRODUCT_TOL = 1e-9  # on log row products; looser than the identity tol
CHAIN_TOL = 1e-12


@dataclass(frozen=True)
class ProofChain:
    """The A -> B -> C -> D -> E construction for one input matrix.

    Invariants (checked on construction, each within 1e-12 where numeric):
    B keeps rows/columns 1 and 2 of A and flattens the rest to 1; C keeps
    a_12 and spreads each of the first two rows' tail products evenly;
    E = C (+) D has e_12 = alpha = sqrt(a_12), e_1k = (1/alpha)^(1/(n-2)),
    e_2k = alpha^(1/(n-2)), ones elsewhere, and unit row geometric means.
    """

    a: PCM
    b: PCM
    c: PCM
    d: PCM
    e: PCM
    alpha: float


def _log_row_sums(a: PCM) -> np.ndarray:
    return np.log(a.entries).sum(axis=1)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise NonPositive(f"exp({x:g}) overflows a float") from None


@np.errstate(all="ignore")  # an entry that overflows is rejected
def equalize_pair(a: PCM, i: int, j: int) -> PCM:
    """Rescale the single comparison (i, j) so rows i and j end up with
    equal products: a_ij is multiplied by sqrt(rowprod_j / rowprod_i)."""
    i, j = as_int("index", i), as_int("index", j)
    check_kind("a", a, PCM)
    if i == j or not (0 <= i < a.n and 0 <= j < a.n):
        raise IndexOutOfRange(f"pair ({i}, {j}) invalid for n={a.n}")
    log_rows = _log_row_sums(a)
    correction = _exp((log_rows[j] - log_rows[i]) / 2.0)
    return a.with_entry(i, j, float(a.entries[i, j] * correction))


def _aggregate_relabellings(a: PCM, maps: np.ndarray) -> PCM:
    """``aggregate([permute(a, Permutation(m)) for m in maps])`` for label
    maps ``maps`` (k, n), bit for bit: a relabelling moves the logs as it moves
    the entries, so the logs of ``a`` are taken once, each relabelling's are
    gathered by its inverse map with two ``take``s, and they are summed in map
    order, the order in which the stack's sum adds them."""
    if len(maps) == 1:  # a single matrix is returned unchanged, as aggregate does
        return PCM(permute_entries(a.entries, maps[0]))
    logs, inverses = np.log(a.entries), np.argsort(maps, axis=-1)
    return PCM(_exp_mean(sum(logs.take(v, 0).take(v, 1) for v in inverses), len(maps)))


def build_proof_chain(a: PCM) -> ProofChain:
    """Run the B, C, D, E construction for ``a``.

    Requires n >= 3 and equal products of rows 1 and 2 (use
    ``equalize_pair`` first); every ProofChain invariant is verified
    before returning.
    """
    check_kind("a", a, PCM)
    n = a.n
    if n < 3:
        raise DimensionTooSmall("the construction needs at least 3 alternatives")
    log_rows = _log_row_sums(a)
    if abs(log_rows[0] - log_rows[1]) > ROW_PRODUCT_TOL:
        raise UnequalRowProducts(
            f"log row products differ by {abs(log_rows[0] - log_rows[1]):.3g}"
        )

    flattened = a.entries.copy()
    flattened[2:, 2:] = 1.0
    b = PCM(flattened)

    # the n - 2 rotations of the tail 2..n-1, alternatives 0 and 1 fixed
    cycles = np.tile(np.arange(n), (n - 2, 1))
    cycles[:, 2:] = 2 + np.add.outer(np.arange(n - 2), np.arange(n - 2)) % (n - 2)
    c = _aggregate_relabellings(b, cycles)

    d_grid = np.ones((n, n))
    d_grid[0, 2:] = _exp(-log_rows[0] / (n - 2))
    d_grid[1, 2:] = _exp(-log_rows[1] / (n - 2))
    d = PCM.from_upper(d_grid)

    e = aggregate([c, d])
    alpha = math.sqrt(a.entries[0, 1])
    chain = ProofChain(a=a, b=b, c=c, d=d, e=e, alpha=alpha)
    _validate_chain(chain)
    return chain


def _close(x, y, tol: float = CHAIN_TOL) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return bool(np.all(np.abs(x - y) <= tol * np.maximum(np.abs(x), np.abs(y))))


def _validate_chain(chain: ProofChain) -> None:
    a, b, c, d, e = chain.a.entries, chain.b.entries, chain.c.entries, chain.d.entries, chain.e.entries
    n = chain.a.n
    alpha = chain.alpha
    checks = [
        ("b keeps rows 1 and 2", np.array_equal(b[:2, :], a[:2, :]) and np.array_equal(b[:, :2], a[:, :2])),
        ("b inner block is flat", np.all(b[2:, 2:] == 1.0)),
        ("c keeps a_12", _close(c[0, 1], a[0, 1])),
        ("c spreads row-1 tail", _close(c[0, 2:], math.exp(np.log(a[0, 2:]).mean()))),
        ("c spreads row-2 tail", _close(c[1, 2:], math.exp(np.log(a[1, 2:]).mean()))),
        ("c inner block is flat", np.all(c[2:, 2:] == 1.0)),
        ("e_12 is alpha", _close(e[0, 1], alpha)),
        ("e row 1 tail", _close(e[0, 2:], (1.0 / alpha) ** (1.0 / (n - 2)))),
        ("e row 2 tail", _close(e[1, 2:], alpha ** (1.0 / (n - 2)))),
        ("e inner block is flat", np.all(e[2:, 2:] == 1.0)),
        ("e rows have unit geometric mean", bool(np.all(np.abs(closed_form_scores(MethodId.RGM, e) - 1.0) <= CHAIN_TOL))),
    ]
    broken = [name for name, ok in checks if not ok]
    if broken:
        raise PcmError(f"construction invariants violated: {', '.join(broken)}")


def verify_proof_identities(chain: ProofChain, tol: float = CHAIN_TOL) -> dict:
    """Check the identities E satisfies, each entrywise within ``tol``.

    ``inv_swap``: swapping labels 1 and 2 equals the opposite of E.
    ``swap_power_aggregate`` (n >= 4 only, else None): the swapped matrix
    raised to 1/(n-2) equals the aggregate of the label swaps (2, m) for
    m = 3..n.  ``unit_row_geomeans``: every row of E has geometric mean 1.
    ``alpha_sqrt``: e_12 = sqrt(a_12).
    """
    check_kind("chain", chain, ProofChain)
    tol = as_float("tol", tol)
    if not tol > 0.0:
        raise InvalidParameter("tol must be positive")
    e = chain.e
    n = e.n
    swap12 = permute(e, Permutation.transposition(n, 0, 1))
    out = {
        "inv_swap": _close(swap12.entries, opposite(e).entries, tol),
    }
    if n >= 4:
        lhs = power(swap12, RationalExponent(1, n - 2))
        swaps = np.tile(np.arange(n), (n - 2, 1))  # row m - 2 swaps labels 1 and m
        rows = np.arange(n - 2)
        swaps[rows, 1], swaps[rows, rows + 2] = rows + 2, 1
        rhs = _aggregate_relabellings(e, swaps)
        out["swap_power_aggregate"] = _close(lhs.entries, rhs.entries, tol)
    else:
        out["swap_power_aggregate"] = None
    row_geomeans = closed_form_scores(MethodId.RGM, e.entries)
    out["unit_row_geomeans"] = bool(np.all(np.abs(row_geomeans - 1.0) <= tol))
    out["alpha_sqrt"] = _close(e.entries[0, 1], math.sqrt(chain.a.entries[0, 1]), tol)
    return out


def row_product_smoke(a: PCM, tie_tol: float = DEFAULT_TIE_TOL) -> dict:
    """End-to-end sanity: the geometric-mean ranking of the pair (1, 2)
    tracks the row products.

    Clauses: (1) equal row products force a tie (reported as applicable
    only when the products agree), (2) after ``equalize_pair`` the tie
    appears, (3) a strict preference points the same way as the log
    row-product difference.
    """
    check_kind("a", a, PCM)
    log_rows = _log_row_sums(a)
    delta = float(log_rows[0] - log_rows[1])
    # +1, 0 or -1 as alternative 1 ranks above, ties with or ranks below 2
    rel = relation(method_rank(MethodId.RGM, a, tie_tol).rank)[0, 1]
    rel_eq = relation(method_rank(MethodId.RGM, equalize_pair(a, 0, 1), tie_tol).rank)[0, 1]
    applicable = abs(delta) <= ROW_PRODUCT_TOL
    return {
        "tie_when_equal": {"applicable": applicable, "passed": bool(rel == 0 or not applicable)},
        "tie_after_equalize": bool(rel_eq == 0),
        "strict_matches_row_products": bool(rel == 0 or rel == np.sign(delta)),
    }


def chain_json_dict(chain: ProofChain, identities: dict) -> dict:
    """JSON dump: {"alpha": ..., "B": ..., "C": ..., "D": ..., "E": ...,
    "identities": {...}}."""
    return {
        "alpha": chain.alpha,
        "B": chain.b.entries.tolist(),
        "C": chain.c.entries.tolist(),
        "D": chain.d.entries.tolist(),
        "E": chain.e.entries.tolist(),
        "identities": identities,
    }
