"""Executable audits of the six ranking axioms, a seeded randomized
falsifier with greedy witness shrinking, and an empirical check of the
implications between the axioms.

Every check returns an AxiomVerdict; a failed verdict carries a Witness
holding the full falsifying instance, and feeding a Witness to ``replay``
reproduces the failure deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TIE_TOL,
    PCM,
    DimensionMismatch,
    DimensionTooSmall,
    IndexOutOfRange,
    InvalidParameter,
    NonPositive,
    NotAnIncrease,
    OverlappingIndices,
    PcmError,
    Permutation,
    RationalExponent,
    reciprocal_fill,
    relation,
    tie_group_max,
)
from .transforms import aggregate, opposite, permute, power
from .weighting import EmOptions, MethodId, closed_form_scores, em_weight_stack, method_rank


class AxiomId(Enum):
    ANO = "ANO"  # anonymity: labels do not matter
    AI = "AI"  # aggregation invariance: unanimity survives geometric pooling
    INV = "INV"  # inversion: reversing all judgments reverses the ranking
    RSI = "RSI"  # rational scale invariance under entrywise powers
    IIC = "IIC"  # independence of irrelevant comparisons
    RES = "RES"  # responsiveness: a better a_ij strictly promotes i over j


@dataclass(frozen=True)
class Witness:
    """A concrete falsifying instance for (method, axiom).

    ``matrices`` and ``auxiliary`` contain everything needed to re-run the
    check; ``auxiliary`` uses 0-based indices and always records the
    tie tolerance, while ``narrative`` spells the broken biconditional out
    with 1-based alternative numbers.
    """

    axiom: AxiomId
    method: MethodId
    matrices: tuple[PCM, ...]
    auxiliary: dict
    narrative: str


@dataclass(frozen=True)
class AxiomVerdict:
    holds: bool
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise ValueError("witness must be present exactly when the axiom fails")


@dataclass(frozen=True)
class SearchConfig:
    """Budget and distribution for the randomized counterexample search.

    Entries are drawn as exp(uniform over ``entry_log_range``); the default
    span covers ratio judgments up to 9.  ``k_range`` bounds how many
    matrices an aggregation-invariance trial pools.
    """

    seed: int
    trials: int = 10_000
    n_range: tuple[int, int] = (2, 6)
    entry_log_range: tuple[float, float] = (-math.log(9.0), math.log(9.0))
    k_range: tuple[int, int] = (2, 4)

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameter("trials must be at least 1")
        lo, hi = self.n_range
        if not (2 <= lo <= hi <= 64):
            raise InvalidParameter(f"n_range {self.n_range} must sit inside [2, 64]")
        elo, ehi = self.entry_log_range
        # a one-point range would leave the IIC draw no value to change to
        if not (-math.inf < elo < ehi < math.inf):
            raise InvalidParameter(
                f"entry_log_range {self.entry_log_range} must be finite with lo < hi"
            )
        klo, khi = self.k_range
        if not (2 <= klo <= khi):
            raise InvalidParameter(f"k_range {self.k_range} must start at 2 or more")


def check_ano(
    method: MethodId,
    a: PCM,
    sigma: Permutation,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Anonymity: i vs j under A must equal sigma(i) vs sigma(j) under the
    relabelled matrix, for every pair."""
    if sigma.n != a.n:
        raise DimensionMismatch(f"permutation on {sigma.n} labels, matrix has {a.n}")
    ranks = [method_rank(method, m, tie_tol, em) for m in (a, permute(a, sigma))]
    inputs = {"permutation": [int(x) for x in sigma.map]}
    return _judge(AxiomId.ANO, method, [a], ranks, inputs, tie_tol)


def check_ai(
    method: MethodId,
    matrices: Sequence[PCM],
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Aggregation invariance: a pair ranked i >= j in every matrix must
    stay so in the geometric-mean aggregate, strictly if strict anywhere."""
    if len(matrices) < 2:
        raise InvalidParameter("aggregation invariance needs at least two matrices")
    n = matrices[0].n
    for m in matrices[1:]:
        if m.n != n:
            raise DimensionMismatch(f"mixed sizes {n} and {m.n}")
    ranks = [method_rank(method, m, tie_tol, em) for m in matrices]
    ranks.append(method_rank(method, aggregate(list(matrices)), tie_tol, em))
    return _judge(AxiomId.AI, method, matrices, ranks, {}, tie_tol)


def check_inv(
    method: MethodId,
    a: PCM,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Inversion: the ranking on the opposite (transposed) matrix must be
    the exact reverse, pair by pair."""
    ranks = [method_rank(method, m, tie_tol, em) for m in (a, opposite(a))]
    return _judge(AxiomId.INV, method, [a], ranks, {}, tie_tol)


def check_rsi(
    method: MethodId,
    a: PCM,
    kappa: RationalExponent,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Rational scale invariance: raising every entry to kappa must leave
    every pairwise relation unchanged."""
    base = method_rank(method, a, tie_tol, em)
    image = method_rank(method, power(a, kappa), tie_tol, em)
    return _judge(AxiomId.RSI, method, [a], [base, image], {"kappa": str(kappa)}, tie_tol)


def check_iic(
    method: MethodId,
    a: PCM,
    cell: tuple[int, int],
    new_value: float,
    pair: tuple[int, int],
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Independence of irrelevant comparisons: rewriting the comparison of
    two other alternatives must not move the (i, j) relation."""
    k, l = cell
    i, j = pair
    if a.n < 4:
        raise DimensionTooSmall("needs at least 4 alternatives")
    for idx in (k, l, i, j):
        if not 0 <= idx < a.n:
            raise IndexOutOfRange(f"index {idx} invalid for n={a.n}")
    if k == l or i == j:
        raise IndexOutOfRange("cell and pair must each name two alternatives")
    if {k, l} & {i, j}:
        raise OverlappingIndices(f"cell {cell} overlaps pair {pair}")
    if not np.isfinite(new_value) or new_value <= 0.0:
        raise NonPositive("replacement value must be positive")
    if new_value == a.entries[k, l]:
        raise InvalidParameter("replacement value must differ from the current entry")
    ranks = [method_rank(method, m, tie_tol, em) for m in (a, a.with_entry(k, l, new_value))]
    inputs = {"cell": [k, l], "value": float(new_value), "pair": [i, j]}
    return _judge(AxiomId.IIC, method, [a], ranks, inputs, tie_tol)


def check_res(
    method: MethodId,
    a: PCM,
    pair: tuple[int, int],
    increased_value: float,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Responsiveness: if i is ranked at least as high as j, improving
    a_ij must leave i strictly above j.  Vacuously holds when i starts
    strictly below j, and then the improved matrix is not ranked."""
    i, j = pair
    if i == j or not (0 <= i < a.n and 0 <= j < a.n):
        raise IndexOutOfRange(f"pair {pair} invalid for n={a.n}")
    if not increased_value > a.entries[i, j]:
        raise NotAnIncrease(
            f"{increased_value!r} does not exceed a[{i + 1}][{j + 1}] = "
            f"{a.entries[i, j]!r}"
        )
    base = method_rank(method, a, tie_tol, em)
    if base.rank[i] > base.rank[j]:
        return AxiomVerdict(holds=True)
    image = method_rank(method, a.with_entry(i, j, increased_value), tie_tol, em)
    inputs = {"pair": [i, j], "increase": float(increased_value)}
    return _judge(AxiomId.RES, method, [a], [base, image], inputs, tie_tol)


# ---------------------------------------------------------------------------
# the axioms as data: one verdict rule over relation arrays for every caller

_REL_TEXT = {1: "strictly above", 0: "tied with", -1: "strictly below"}


@dataclass(frozen=True)
class _Spec:
    """One axiom, shared by its check, replay, shrinking and the stacked
    search.

    ``broken(before, after, x)`` marks the pairs (i, j) that break the
    axiom, (trials, n, n), from the relation arrays of each trial's
    matrices, ``before`` (trials, matrices, n, n), and of its transformed
    matrix, ``after`` (trials, n, n), and from ``x``, the trials' inputs
    as arrays (see ``_input_arrays``).  A witness reports the first
    marked pair in row-major order, which has i < j wherever the mask is
    symmetric.  ``narrative`` tells that pair's story, ``args`` turns a
    witness back into the check's arguments, ``pinned`` names the indices
    shrinking keeps and ``min_n`` is the fewest alternatives the check
    accepts.
    """

    broken: Callable
    narrative: Callable
    args: Callable
    pinned: Callable = lambda aux: set(aux["pair"])
    min_n: int = 2


def _input_arrays(inputs: list) -> dict:
    """Each input but the exponent, stacked over the trials into one array."""
    return {k: np.array([x[k] for x in inputs]) for k in inputs[0] if k != "kappa"}


def _one_pair(after: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Mask of the one pair each trial watches."""
    mask = np.zeros(after.shape, dtype=bool)
    mask[np.arange(len(pair)), pair[:, 0], pair[:, 1]] = True
    return mask


def _ano_broken(before: np.ndarray, after: np.ndarray, x: dict) -> np.ndarray:
    sigma = x["permutation"]
    b = np.arange(len(sigma))[:, None, None]
    return before[:, 0] != after[b, sigma[:, :, None], sigma[:, None, :]]


def _ai_broken(before: np.ndarray, after: np.ndarray, x: dict) -> np.ndarray:
    strict = (before > 0).any(axis=1)
    return (before >= 0).all(axis=1) & ((after < 0) | (strict & (after == 0)))


def _ano_narrative(method, rel, i, j, x) -> str:
    sigma = x["permutation"]
    return (
        f"{method.value} breaks anonymity: alternative {i + 1} is "
        f"{_REL_TEXT[rel[0, i, j]]} {j + 1}, but after relabelling by "
        f"{[s + 1 for s in sigma]} alternative {sigma[i] + 1} is "
        f"{_REL_TEXT[rel[-1, sigma[i], sigma[j]]]} {sigma[j] + 1}"
    )


def _ai_narrative(method, rel, i, j, x) -> str:
    clause = (
        "is strictly below in the aggregate"
        if rel[-1, i, j] < 0
        else "fails to stay strictly above in the aggregate"
    )
    return (
        f"{method.value} breaks aggregation invariance: alternative {i + 1} is "
        f"ranked at least as high as {j + 1} in all {len(rel) - 1} matrices"
        + (" (strictly in at least one)" if (rel[:-1, i, j] > 0).any() else "")
        + f", yet {clause}"
    )


def _inv_narrative(method, rel, i, j, x) -> str:
    return (
        f"{method.value} breaks inversion: alternative {i + 1} is "
        f"{_REL_TEXT[rel[0, i, j]]} {j + 1}, but on the opposite matrix it is "
        f"{_REL_TEXT[rel[-1, i, j]]} instead of {_REL_TEXT[-rel[0, i, j]]}"
    )


def _rsi_narrative(method, rel, i, j, x) -> str:
    return (
        f"{method.value} breaks scale invariance at exponent {x['kappa']}: "
        f"alternative {i + 1} is {_REL_TEXT[rel[0, i, j]]} {j + 1} before but "
        f"{_REL_TEXT[rel[-1, i, j]]} after"
    )


def _iic_narrative(method, rel, i, j, x) -> str:
    k, l = x["cell"]
    return (
        f"{method.value} breaks independence of irrelevant comparisons: "
        f"rewriting the comparison of alternatives {k + 1} and {l + 1} to "
        f"{x['value']:g} turns alternative {i + 1} from {_REL_TEXT[rel[0, i, j]]} "
        f"{j + 1} into {_REL_TEXT[rel[-1, i, j]]}"
    )


def _res_narrative(method, rel, i, j, x) -> str:
    return (
        f"{method.value} breaks responsiveness: alternative {i + 1} is "
        f"{_REL_TEXT[rel[0, i, j]]} {j + 1}, yet raising their comparison to "
        f"{x['increase']:g} leaves it {_REL_TEXT[rel[-1, i, j]]} instead of "
        f"strictly above"
    )


_SPECS = {
    AxiomId.ANO: _Spec(
        _ano_broken,
        _ano_narrative,
        lambda m, x: (m[0], Permutation(x["permutation"])),
        lambda x: set(x["pair"]) | {t for t, s in enumerate(x["permutation"]) if s != t},
    ),
    AxiomId.AI: _Spec(_ai_broken, _ai_narrative, lambda m, x: (m,)),
    AxiomId.INV: _Spec(
        lambda before, after, x: after != -before[:, 0], _inv_narrative, lambda m, x: (m[0],)
    ),
    AxiomId.RSI: _Spec(
        lambda before, after, x: after != before[:, 0],
        _rsi_narrative,
        lambda m, x: (m[0], RationalExponent.parse(x["kappa"])),
    ),
    AxiomId.IIC: _Spec(
        lambda before, after, x: (after != before[:, 0]) & _one_pair(after, x["pair"]),
        _iic_narrative,
        lambda m, x: (m[0], tuple(x["cell"]), x["value"], tuple(x["pair"])),
        lambda x: set(x["pair"]) | set(x["cell"]),
        min_n=4,
    ),
    # RES holds where i starts strictly below j or ends strictly above
    AxiomId.RES: _Spec(
        lambda before, after, x: (before[:, 0] >= 0) & (after <= 0) & _one_pair(after, x["pair"]),
        _res_narrative,
        lambda m, x: (m[0], tuple(x["pair"]), x["increase"]),
    ),
}


def _judge(
    axiom: AxiomId,
    method: MethodId,
    matrices: Sequence[PCM],
    ranks: list,
    inputs: dict,
    tie_tol: float,
) -> AxiomVerdict:
    """Verdict of one check from its rankings (the matrices', then the
    transformed matrix's) and its inputs, as ``_draw`` records them."""
    rel = relation(np.array([r.rank for r in ranks]))
    broken = _SPECS[axiom].broken(rel[None, :-1], rel[None, -1], _input_arrays([inputs]))[0]
    first = int(broken.argmax())  # row-major, so the first broken pair if any
    if not broken.flat[first]:
        return AxiomVerdict(holds=True)
    i, j = divmod(first, len(broken))
    aux = {**inputs, "pair": [i, j], "tie_tol": tie_tol}
    narrative = _SPECS[axiom].narrative(method, rel, i, j, inputs)
    witness = Witness(axiom, method, tuple(matrices), aux, narrative)
    return AxiomVerdict(holds=False, witness=witness)


# ---------------------------------------------------------------------------
# replay and the randomized search


def _run_check(
    method: MethodId,
    axiom: AxiomId,
    matrices: Sequence[PCM],
    aux: dict,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    # the check is looked up by name when called, so a rebound one is used
    check = globals()[f"check_{axiom.value.lower()}"]
    return check(method, *_SPECS[axiom].args(matrices, aux), aux["tie_tol"], em)


def replay(witness: Witness, em: EmOptions = EmOptions()) -> AxiomVerdict:
    """Re-run the check a witness came from; a genuine witness must come
    back with holds == False."""
    return _run_check(witness.method, witness.axiom, witness.matrices, witness.auxiliary, em)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # stream depends only on (seed, trial index), so trials are order-free
    return np.random.default_rng(np.random.SeedSequence((seed % 2**64, trial)))


def _draw_grid(rng: np.random.Generator, n: int, log_range: tuple[float, float]) -> np.ndarray:
    # only the strict upper triangle counts, as in PCM.from_upper
    return np.exp(rng.uniform(log_range[0], log_range[1], size=(n, n)))


def _entry(grid: np.ndarray, i: int, j: int) -> float:
    """Entry (i, j) of ``PCM.from_upper(grid)``."""
    return grid[i, j] if i < j else 1.0 / grid[j, i]


def _draw_kappa(rng: np.random.Generator) -> RationalExponent:
    while True:
        kappa = RationalExponent(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        if kappa.p != kappa.q:
            return kappa


def _draw(axiom: AxiomId, cfg: SearchConfig, rng: np.random.Generator) -> tuple[list, dict]:
    """One trial's inputs, in stream order: the matrices as grids for
    ``PCM.from_upper`` (not yet validated) and the check's auxiliary
    values as a Witness records them, less the tie tolerance.  The
    stacked search and the re-run of a flagged trial draw through here."""
    n_lo, n_hi = cfg.n_range
    if axiom is AxiomId.IIC:
        n_lo = max(n_lo, 4)  # the axiom is vacuous below four alternatives
        n_hi = max(n_hi, n_lo)
    n = int(rng.integers(n_lo, n_hi + 1))
    a = _draw_grid(rng, n, cfg.entry_log_range)
    if axiom is AxiomId.ANO:
        return [a], {"permutation": [int(x) for x in rng.permutation(n)]}
    if axiom is AxiomId.AI:
        k = int(rng.integers(cfg.k_range[0], cfg.k_range[1] + 1))
        return [a] + [_draw_grid(rng, n, cfg.entry_log_range) for _ in range(k - 1)], {}
    if axiom is AxiomId.RSI:
        return [a], {"kappa": str(_draw_kappa(rng))}
    if axiom is AxiomId.IIC:
        picks = [int(x) for x in rng.permutation(n)[:4]]
        cell = (picks[2], picks[3])
        value = float(np.exp(rng.uniform(*cfg.entry_log_range)))
        current = _entry(a, *cell)
        # a grid that PCM.from_upper rejects must not keep this loop spinning
        while value == current and 0.0 < current < math.inf:
            value = float(np.exp(rng.uniform(*cfg.entry_log_range)))
        return [a], {"cell": list(cell), "value": value, "pair": picks[:2]}
    if axiom is AxiomId.RES:
        i, j = (int(x) for x in rng.permutation(n)[:2])
        span = max(cfg.entry_log_range[1], math.log(3.0))
        log_factor = rng.uniform(0.1, span)
        try:
            factor = math.exp(log_factor)
        except OverflowError:
            raise NonPositive(f"increase factor exp({log_factor:g}) overflows a float") from None
        return [a], {"pair": [i, j], "increase": float(_entry(a, i, j) * factor)}
    return [a], {}


def falsify(
    method: MethodId,
    axiom: AxiomId,
    cfg: SearchConfig,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> Optional[Witness]:
    """Search ``cfg.trials`` random instances for a violation of ``axiom``
    by ``method``; return the first witness found, greedily shrunk, or
    None when every trial passes.

    Each trial's random stream is derived from (seed, trial index) alone,
    so results are reproducible and independent of evaluation order.
    Trials are drawn in chunks and judged as stacks (see ``_flag_trials``);
    the first flagged trial is run again through its check, which alone
    decides the verdict and builds the witness.

    A trial whose EM power iteration exhausts ``em.max_iterations``
    aborts the search with NoConvergence, as a trial-by-trial loop
    would; the trial is not skipped.
    """
    per_trial = cfg.k_range[1] if axiom is AxiomId.AI else 1
    cap = max(1, _CHUNK_MATRICES // per_trial)
    start, size = 0, 1
    while start < cfg.trials:
        trials = range(start, min(start + size, cfg.trials))
        flags = _flag_trials(method, axiom, cfg, trials, tie_tol, em)
        for trial in np.flatnonzero(flags):
            grids, aux = _draw(axiom, cfg, _trial_rng(cfg.seed, start + int(trial)))
            matrices = [PCM.from_upper(g) for g in grids]
            verdict = _run_check(method, axiom, matrices, {**aux, "tie_tol": tie_tol}, em)
            if not verdict.holds:
                return _shrink(verdict.witness, em)
        start, size = start + len(flags), min(2 * size, cap)
    return None


# --- batched search ----------------------------------------------------------

#: chunks start at one trial, since many searches fail on their first, and
#: double up to this many drawn matrices: 8 MB of draws at n = 64, ranked
#: beside their transformed images in a stack of twice that
_CHUNK_MATRICES = 256

#: a stacked EM iteration stops after this many steps (or fewer, within
#: ``EmOptions.max_iterations``); a matrix still unconverged then flags its
#: trial for the scalar re-run, so a rare slow matrix cannot hold a whole
#: chunk for the full budget
_EM_STACK_ITERATIONS = 256


def _flag_trials(
    method: MethodId,
    axiom: AxiomId,
    cfg: SearchConfig,
    trials: range,
    tie_tol: float,
    em: EmOptions = EmOptions(),
) -> np.ndarray:
    """Flag each trial whose scalar check would report a violation or
    reject an input (a non-finite or non-positive entry, score or weight,
    a bad tie tolerance, or an EM iteration that does not converge).

    Trials are drawn in order from their own streams, grouped by shape and
    judged a stack at a time, so each needs no PCM, Ranking or check call.
    Flags may over-report a rejection, never under-report a violation:
    a matrix whose EM needs more than ``_EM_STACK_ITERATIONS`` steps flags
    its trial even when the scalar check goes on to converge.
    A trial whose draw raises ends the flags, flagged: its scalar re-run
    raises the same error.
    """
    draws = []
    for t in trials:
        try:
            draws.append(_draw(axiom, cfg, _trial_rng(cfg.seed, t)))
        except (ArithmeticError, ValueError):  # e.g. math.exp overflowing on a wide entry range
            break
    by_shape: dict[tuple[int, int], list[int]] = {}
    for idx, (grids, _) in enumerate(draws):
        by_shape.setdefault((len(grids), grids[0].shape[0]), []).append(idx)
    flags = np.ones(min(len(draws) + 1, len(trials)), dtype=bool)
    with np.errstate(all="ignore"):  # rejected inputs are flagged, not warned about
        for idx in by_shape.values():
            flags[idx] = _stack_flags(method, axiom, [draws[t] for t in idx], tie_tol, em)
    return flags


def _relations(
    method: MethodId, e: np.ndarray, tie_tol: float, em: EmOptions = EmOptions()
) -> tuple[np.ndarray, np.ndarray]:
    """Relation arrays (see ``core.relation``) of ``method``'s ranking of
    every matrix in the stack ``e`` (..., n, n), and a mask of the rankings
    the scalar path would compute without raising; for EM it also clears
    where the iteration has not converged within ``_EM_STACK_ITERATIONS``
    steps.

    The arithmetic repeats ``method_rank`` operation for operation, so the
    weights carry the same bits and the tie closure decides the same way.
    """
    ok = ((e > 0.0) & (e < np.inf)).all(axis=(-2, -1)) & (tie_tol >= 0.0)
    if method is MethodId.FLAT:
        return np.zeros(e.shape), ok
    if method is MethodId.INDEX_ORDER:
        return np.broadcast_to(relation(np.arange(e.shape[-1])), e.shape), ok
    if method is MethodId.EM:
        capped = EmOptions(min(em.max_iterations, _EM_STACK_ITERATIONS), em.convergence_tol)
        s = em_weight_stack(e, capped)  # NaN rows where unconverged
    else:
        s = closed_form_scores(method, e)
    w = s / s.sum(axis=-1, keepdims=True)
    # w > 0 throughout only if every score and their sum are finite and
    # positive; the weights then sum to 1 within n ulps, far inside SUM_TOL
    ok &= (w > 0.0).all(axis=-1)
    return relation(-tie_group_max(w, tie_tol)), ok


def _stack_flags(
    method: MethodId, axiom: AxiomId, draws: list, tie_tol: float, em: EmOptions
) -> np.ndarray:
    """``_flag_trials`` for trials with the same number and size of
    matrices: each trial's drawn matrices and its transformed matrix are
    ranked as one stack, and the axiom's rule judges their relation
    arrays.  For every grid ``PCM.from_upper`` accepts, the draw rules out
    the checks' own argument errors (an unchanged IIC value, a RES value
    that is no increase)."""
    stack = reciprocal_fill(np.array([grids for grids, _ in draws]))  # (trials, matrices, n, n)
    x = _input_arrays([aux for _, aux in draws])
    b = np.arange(len(draws))
    a = stack[:, 0]
    if axiom is AxiomId.INV:
        # the opposite matrix as a transposed view, laid out like the
        # scalar path's, so that its reductions add in the same order
        before, ok = _relations(method, a, tie_tol, em)
        after, ok_after = _relations(method, a.transpose(0, 2, 1), tie_tol, em)
        before, ok = before[:, None], ok & ok_after
    else:
        if axiom is AxiomId.AI:
            image = reciprocal_fill(np.exp(np.mean(np.log(stack), axis=1)))
        elif axiom is AxiomId.ANO:
            inv = np.argsort(x["permutation"], axis=1)
            image = a[b[:, None, None], inv[:, :, None], inv[:, None, :]]
        elif axiom is AxiomId.RSI:
            kappa = np.array([RationalExponent.parse(aux["kappa"]).value for _, aux in draws])
            image = reciprocal_fill(np.exp(kappa[:, None, None] * np.log(a)))
        else:  # IIC and RES rewrite one cell
            at, to = ("cell", "value") if axiom is AxiomId.IIC else ("pair", "increase")
            (k, l), value = x[at].T, x[to]
            image = a.copy()
            image[b, k, l] = value
            image[b, l, k] = 1.0 / value
        rel, ok = _relations(method, np.concatenate([stack, image[:, None]], axis=1), tie_tol, em)
        before, after, ok = rel[:, :-1], rel[:, -1], ok.all(axis=1)
    return _SPECS[axiom].broken(before, after, x).any(axis=(1, 2)) | ~ok


# --- greedy witness shrinking ----------------------------------------------

def _round_to_one_significant(x: float) -> float:
    exponent = math.floor(math.log10(abs(x)))
    return round(x, -exponent)


def _delete_index(matrices: tuple[PCM, ...], aux: dict, idx: int):
    """Drop one alternative, remapping every recorded index; entries keep
    their bits because deletion only removes a row and column."""
    kept = [PCM(np.delete(np.delete(m.entries, idx, axis=0), idx, axis=1)) for m in matrices]

    def remap(t: int) -> int:
        return t - 1 if t > idx else t

    new_aux = dict(aux)
    for key in ("pair", "cell"):
        if key in new_aux:
            new_aux[key] = [remap(t) for t in new_aux[key]]
    if "permutation" in new_aux:
        sigma = new_aux["permutation"]
        new_aux["permutation"] = [remap(sigma[t]) for t in range(len(sigma)) if t != idx]
    return tuple(kept), new_aux


def _attempt(method, axiom, matrices, aux, em) -> Optional[AxiomVerdict]:
    try:
        verdict = _run_check(method, axiom, matrices, aux, em)
    except PcmError:
        return None
    except ValueError:
        return None
    return verdict


def _shrink(witness: Witness, em: EmOptions = EmOptions()) -> Witness:
    """Best-effort minimization: drop alternatives outside the pinned
    indices, then round entries (and the auxiliary value, if any) to one
    significant digit, keeping only steps that still falsify."""
    method, axiom = witness.method, witness.axiom
    matrices, aux = witness.matrices, dict(witness.auxiliary)
    current = witness

    changed = True
    while changed:
        changed = False
        n = matrices[0].n
        if n <= _SPECS[axiom].min_n:
            break
        pinned = _SPECS[axiom].pinned(aux)
        for idx in range(n - 1, -1, -1):
            if idx in pinned:
                continue
            cand_mats, cand_aux = _delete_index(matrices, aux, idx)
            verdict = _attempt(method, axiom, cand_mats, cand_aux, em)
            if verdict is not None and not verdict.holds:
                matrices, aux = cand_mats, cand_aux
                # keep the replayed pair so pinning tracks the live violation
                aux["pair"] = verdict.witness.auxiliary.get("pair", aux.get("pair"))
                current = verdict.witness
                changed = True
                break

    for mat_index, m in enumerate(matrices):
        for i in range(m.n):
            for j in range(i + 1, m.n):
                original = matrices[mat_index].entries[i, j]
                rounded = _round_to_one_significant(original)
                if rounded == original or rounded <= 0.0:
                    continue
                cand = list(matrices)
                cand[mat_index] = cand[mat_index].with_entry(i, j, rounded)
                verdict = _attempt(method, axiom, tuple(cand), aux, em)
                if verdict is not None and not verdict.holds:
                    matrices = tuple(cand)
                    current = verdict.witness

    for key in ("value", "increase"):
        if key in aux:
            rounded = _round_to_one_significant(aux[key])
            if rounded != aux[key] and rounded > 0.0:
                cand_aux = dict(aux)
                cand_aux[key] = rounded
                verdict = _attempt(method, axiom, matrices, cand_aux, em)
                if verdict is not None and not verdict.holds:
                    aux = cand_aux
                    current = verdict.witness

    return current


# ---------------------------------------------------------------------------
# implications between axioms


def check_implications(
    method: MethodId,
    cfg: SearchConfig,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> dict:
    """Empirically audit "anonymity and aggregation invariance together
    force inversion / scale invariance / irrelevance independence".

    If the falsifier clears both premise axioms under ``cfg`` but breaks a
    conclusion axiom under the same budget, that implication is reported
    as contradicted, which signals an implementation bug rather than a
    property of the method.  A violated premise makes the implications
    vacuous.
    """
    found: dict[AxiomId, Optional[Witness]] = {}
    for axiom in (AxiomId.ANO, AxiomId.AI, AxiomId.INV, AxiomId.RSI, AxiomId.IIC):
        found[axiom] = falsify(method, axiom, cfg, tie_tol, em)
    premise_holds = found[AxiomId.ANO] is None and found[AxiomId.AI] is None
    implications = {}
    for axiom in (AxiomId.INV, AxiomId.RSI, AxiomId.IIC):
        contradicted = premise_holds and found[axiom] is not None
        implications[axiom.value] = {
            "status": "contradicted" if contradicted else "consistent",
            "vacuous": not premise_holds,
            "conclusion_witness": found[axiom],
        }
    return {
        "method": method.value,
        "premise": {
            "ano_witness": found[AxiomId.ANO],
            "ai_witness": found[AxiomId.AI],
            "holds": premise_holds,
        },
        "implications": implications,
    }


def witness_json_dict(witness: Witness) -> dict:
    """JSON fragment with stable field order:
    {"axiom": ..., "method": ..., "matrices": [...], "aux": {...},
    "narrative": ...}."""
    return {
        "axiom": witness.axiom.value,
        "method": witness.method.value,
        "matrices": [m.entries.tolist() for m in witness.matrices],
        "aux": dict(witness.auxiliary),
        "narrative": witness.narrative,
    }
