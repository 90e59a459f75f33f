"""Executable audits of the six ranking axioms, a seeded randomized
falsifier with greedy witness shrinking, and an empirical check of the
implications between the axioms.

Every check returns an AxiomVerdict; a failed verdict carries a Witness
holding the full falsifying instance, and feeding a Witness to ``replay``
reproduces the failure deterministically.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, Optional

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
    Permutation,
    RationalExponent,
    _converted,
    as_float,
    as_int,
    as_pair,
    check_kind,
    check_tie_tol,
    reciprocal_fill,
    relation,
    rewrite_entry,
    triu_indices,
)
from .transforms import aggregate_entries, opposite_entries, permute_entries, power_entries
from .weighting import _PADDED_N, EmOptions, MethodId, rank_error, rank_keys


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
    with 1-based alternative numbers.  A field of the wrong kind raises
    InvalidParameter.
    """

    axiom: AxiomId
    method: MethodId
    matrices: tuple[PCM, ...]
    auxiliary: dict
    narrative: str

    def __post_init__(self):
        for name, kind in (
            ("axiom", AxiomId), ("method", MethodId), ("matrices", Sequence),
            ("auxiliary", Mapping), ("narrative", str),
        ):
            check_kind(name, getattr(self, name), kind)
        for m in self.matrices:
            check_kind("matrix", m, PCM)


@dataclass(frozen=True)
class AxiomVerdict:
    holds: bool
    witness: Optional[Witness] = None

    def __post_init__(self):
        if _converted("holds", bool, self.holds, "a truth value") == (self.witness is not None):
            raise ValueError("witness must be present exactly when the axiom fails")


@dataclass(frozen=True)
class SearchConfig:
    """Budget and distribution for the randomized counterexample search.

    Entries are drawn as exp(uniform over ``entry_log_range``); the default
    span covers ratio judgments up to 9.  An entry drawn beyond the float
    range is an input like any other: its check rejects it.  ``seed``,
    ``trials`` and the bounds of ``n_range`` take any integer, numpy's
    included, and nothing else; the seed counts modulo 2**64.  The bounds
    of ``entry_log_range`` take any real number.  Both ranges are stored
    as tuples of two Python numbers.
    """

    seed: int
    trials: int = 10_000
    n_range: tuple[int, int] = (2, 6)
    entry_log_range: tuple[float, float] = (-math.log(9.0), math.log(9.0))

    def __post_init__(self):  # numpy numbers become Python ones
        for name, value in (
            ("seed", as_int("seed", self.seed)),
            ("trials", as_int("trials", self.trials)),
            ("n_range", as_pair("n_range", self.n_range, as_int)),
            ("entry_log_range", as_pair("entry_log_range", self.entry_log_range, as_float)),
        ):
            object.__setattr__(self, name, value)
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


def check_ano(
    method: MethodId,
    a: PCM,
    sigma: Permutation,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Anonymity: i vs j under A must equal sigma(i) vs sigma(j) under the
    relabelled matrix, for every pair."""
    return _judge(AxiomId.ANO, method, [a], (sigma,), tie_tol, em)


def check_ai(
    method: MethodId,
    matrices: Sequence[PCM],
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Aggregation invariance: a pair ranked i >= j in every matrix must
    stay so in the geometric-mean aggregate, strictly if strict anywhere."""
    check_kind("matrices", matrices, Sequence)
    return _judge(AxiomId.AI, method, matrices, (), tie_tol, em)


def check_inv(
    method: MethodId,
    a: PCM,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Inversion: the ranking on the opposite (transposed) matrix must be
    the exact reverse, pair by pair."""
    return _judge(AxiomId.INV, method, [a], (), tie_tol, em)


def check_rsi(
    method: MethodId,
    a: PCM,
    kappa: RationalExponent,
    tie_tol: float = DEFAULT_TIE_TOL,
    em: EmOptions = EmOptions(),
) -> AxiomVerdict:
    """Rational scale invariance: raising every entry to kappa must leave
    every pairwise relation unchanged."""
    return _judge(AxiomId.RSI, method, [a], (kappa,), tie_tol, em)


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
    return _judge(AxiomId.IIC, method, [a], (cell, new_value, pair), tie_tol, em)


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
    strictly below j, and then no error of the improved matrix is raised."""
    return _judge(AxiomId.RES, method, [a], (pair, increased_value), tie_tol, em)


# ---------------------------------------------------------------------------
# the axioms as data: one verdict rule over relation arrays for every caller

_REL_TEXT = {1: "strictly above", 0: "tied with", -1: "strictly below"}


def _no_tail(rng: Optional[np.random.Generator], n: int, a: np.ndarray, cfg: SearchConfig) -> tuple:
    return [], {}


@dataclass(frozen=True)
class _Spec:
    """One axiom, shared by its check, draw, replay, shrinking and the
    stacked search.

    ``rules(matrices, *args)`` applies the check's argument rules to its
    matrices and other arguments, whose leading ones have the types
    ``kinds`` names, and returns the inputs as ``_draw`` records them.
    ``tail(rng, n, a, cfg)`` draws a trial's other grids, at most
    ``per_trial`` in all, and its inputs after ``_draw``'s n and grid
    ``a``, in as few Generator calls as their bits allow; INV's draws
    nothing (``_no_tail``).
    ``image(e, x)``, the only code that builds an image, is each trial's
    transformed matrix (trials, n, n), from its matrices ``e`` (trials,
    matrices, n, n) and ``x``, the trials' inputs as arrays (see
    ``_input_arrays``); ``rejected`` is the error text of an image with an
    entry that is not finite and positive (see ``_judge``).
    ``broken(before, after, x)`` marks the pairs (i, j) that break the
    axiom, (trials, n, n), from the relation arrays of the matrices,
    ``before`` (trials, matrices, n, n), and of the transformed matrix,
    ``after`` (trials, n, n).  A witness reports the first marked pair in
    row-major order, which has i < j wherever the mask is symmetric.
    ``narrative`` tells that pair's story, ``args`` turns a witness back
    into the check's arguments, ``min_n`` is the fewest alternatives the
    check accepts, ``vacuous(before, x)`` marks the trials whose check
    holds without ranking the transformed matrix and ``valid(e, x)`` those
    whose inputs pass the argument rules that read an entry (IIC's value
    must change its cell, RES's value must raise its pair's entry).
    ``vacuous`` and ``valid`` are None where an axiom has no such rule.
    """

    rules: Callable
    image: Callable
    broken: Callable
    narrative: Callable
    args: Callable
    tail: Callable = _no_tail
    kinds: tuple = ()
    min_n: int = 2
    vacuous: Optional[Callable] = None
    valid: Optional[Callable] = None
    per_trial: int = 1
    rejected: str = "entries must be finite and strictly positive"


def _input_arrays(inputs: list) -> dict:
    """Each input, stacked over the trials into one array."""
    return {k: np.array([x[k] for x in inputs]) for k in inputs[0]}


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


def _ano_rules(m, sigma) -> dict:
    if sigma.n != m[0].n:
        raise DimensionMismatch(f"permutation on {sigma.n} labels, matrix has {m[0].n}")
    return {"permutation": [int(x) for x in sigma.map]}


def _ai_rules(m) -> dict:
    if len(m) < 2:
        raise InvalidParameter("aggregation invariance needs at least two matrices")
    for b in m[1:]:
        if b.n != m[0].n:
            raise DimensionMismatch(f"mixed sizes {m[0].n} and {b.n}")
    return {}


def _iic_rules(m, cell, new_value, pair) -> dict:
    a = m[0]
    (k, l), (i, j) = as_pair("cell", cell), as_pair("pair", pair)
    if a.n < 4:
        raise DimensionTooSmall("needs at least 4 alternatives")
    k, l, i, j = (as_int("index", idx) for idx in (k, l, i, j))
    for idx in (k, l, i, j):
        if not 0 <= idx < a.n:
            raise IndexOutOfRange(f"index {idx} invalid for n={a.n}")
    if k == l or i == j:
        raise IndexOutOfRange("cell and pair must each name two alternatives")
    if {k, l} & {i, j}:
        raise OverlappingIndices(f"cell {cell} overlaps pair {pair}")
    new_value = as_float("value", new_value)
    if not np.isfinite(new_value) or new_value <= 0.0:
        raise NonPositive("replacement value must be positive")
    if new_value == a.entries[k, l]:
        raise InvalidParameter("replacement value must differ from the current entry")
    return {"cell": [k, l], "value": new_value, "pair": [i, j]}


def _res_rules(m, pair, increased_value) -> dict:
    a = m[0]
    i, j = (as_int("index", idx) for idx in as_pair("pair", pair))
    if i == j or not (0 <= i < a.n and 0 <= j < a.n):
        raise IndexOutOfRange(f"pair {pair} invalid for n={a.n}")
    increase = as_float("increase", increased_value)
    if not increase > a.entries[i, j]:
        raise NotAnIncrease(
            f"{increased_value!r} does not exceed a[{i + 1}][{j + 1}] = "
            f"{float(a.entries[i, j])!r}"
        )
    return {"pair": [i, j], "increase": increase}


@lru_cache(maxsize=128)
def _kappa_value(kappa: str) -> float:
    """The value of an exponent as a witness records it, parsed once."""
    return RationalExponent.parse(kappa).value


def _draw_grids(rng: np.random.Generator, shape: tuple, log_range: tuple[float, float]) -> np.ndarray:
    # only the strict upper triangle of each grid counts, as in PCM.from_upper
    return np.exp(rng.uniform(log_range[0], log_range[1], size=shape))


def _entry(grid: np.ndarray, i: int, j: int) -> float:
    """Entry (i, j) of ``PCM.from_upper(grid)``."""
    return grid[i, j] if i < j else 1.0 / grid[j, i]


def _ai_tail(rng: np.random.Generator, n: int, a: np.ndarray, cfg: SearchConfig) -> tuple:
    k = int(rng.integers(2, 5))  # pools 2 to 4 matrices
    return list(_draw_grids(rng, (k - 1, n, n), cfg.entry_log_range)), {}


def _rsi_tail(rng: np.random.Generator, n: int, a: np.ndarray, cfg: SearchConfig) -> tuple:
    while True:  # p/q with p, q in 1..5, reduced as RationalExponent reduces it
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))  # faster than one size=2 call
        if p != q:
            g = math.gcd(p, q)
            return [], {"kappa": f"{p // g}/{q // g}"}


def _iic_tail(rng: np.random.Generator, n: int, a: np.ndarray, cfg: SearchConfig) -> tuple:
    picks = rng.permutation(n)[:4].tolist()
    value = float(np.exp(rng.uniform(*cfg.entry_log_range)))
    current = _entry(a, *picks[2:])
    # a grid that PCM.from_upper rejects must not keep this loop spinning
    while value == current and 0.0 < current < math.inf:
        value = float(np.exp(rng.uniform(*cfg.entry_log_range)))
    return [], {"cell": picks[2:], "value": value, "pair": picks[:2]}


def _res_tail(rng: np.random.Generator, n: int, a: np.ndarray, cfg: SearchConfig) -> tuple:
    i, j = rng.permutation(n)[:2].tolist()
    try:
        factor = math.exp(rng.uniform(0.1, max(cfg.entry_log_range[1], math.log(3.0))))
    except OverflowError:  # check_res then holds vacuously or rejects the increase
        factor = math.inf
    return [], {"pair": [i, j], "increase": float(_entry(a, i, j) * factor)}


_SPECS = {
    AxiomId.ANO: _Spec(
        _ano_rules,
        lambda e, x: permute_entries(e[:, 0], x["permutation"]),
        _ano_broken,
        _ano_narrative,
        lambda m, x: (m[0], Permutation(x["permutation"])),
        lambda rng, n, a, cfg: ([], {"permutation": rng.permutation(n).tolist()}),
        (("sigma", Permutation),),
    ),
    AxiomId.AI: _Spec(
        _ai_rules, lambda e, x: aggregate_entries(e, x.get("pool")), _ai_broken, _ai_narrative,
        lambda m, x: (m,), _ai_tail, per_trial=4,
    ),
    AxiomId.INV: _Spec(
        lambda m: {},
        lambda e, x: opposite_entries(e[:, 0]),
        lambda before, after, x: after != -before[:, 0],
        _inv_narrative,
        lambda m, x: (m[0],),
    ),
    AxiomId.RSI: _Spec(
        lambda m, kappa: {"kappa": str(kappa)},
        lambda e, x: power_entries(e[:, 0], [_kappa_value(k) for k in x["kappa"]]),
        lambda before, after, x: after != before[:, 0],
        _rsi_narrative,
        lambda m, x: (m[0], RationalExponent.parse(x["kappa"])),
        _rsi_tail,
        (("kappa", RationalExponent),),
    ),
    AxiomId.IIC: _Spec(
        _iic_rules,
        lambda e, x: rewrite_entry(e[:, 0], *x["cell"].T, x["value"]),
        lambda before, after, x: (after != before[:, 0]) & _one_pair(after, x["pair"]),
        _iic_narrative,
        lambda m, x: (m[0], as_pair("cell", x["cell"]), x["value"], as_pair("pair", x["pair"])),
        _iic_tail,
        min_n=4,
        valid=lambda e, x: x["value"] != e[:, 0][_one_pair(e[:, 0], x["cell"])],
    ),
    # RES holds where i starts strictly below j or ends strictly above
    AxiomId.RES: _Spec(
        _res_rules,
        lambda e, x: rewrite_entry(e[:, 0], *x["pair"].T, x["increase"]),
        lambda before, after, x: (before[:, 0] >= 0) & (after <= 0) & _one_pair(after, x["pair"]),
        _res_narrative,
        lambda m, x: (m[0], as_pair("pair", x["pair"]), x["increase"]),
        _res_tail,
        vacuous=lambda before, x: before[:, 0][_one_pair(before[:, 0], x["pair"])] < 0,
        valid=lambda e, x: x["increase"] > e[:, 0][_one_pair(e[:, 0], x["pair"])],
        rejected="replacement entry must be finite and positive",
    ),
}


def _witness(
    axiom: AxiomId, method: MethodId, matrices: Sequence[PCM], inputs: dict,
    rel: np.ndarray, broken: np.ndarray, tie_tol: float,
) -> Optional[Witness]:
    """The witness of a trial its check accepts, from the relation arrays
    ``rel`` (matrices + 1, n, n) of its matrices and transformed matrix
    and its broken pairs ``broken`` (n, n), or None where no pair breaks.
    It reports the first broken pair in row-major order beside the
    check's ``inputs``, as ``_draw`` or a witness records them.  A check
    and a search build their witness here through ``_judge``, and
    shrinking from the last step it kept."""
    first = int(broken.argmax())
    if not broken.flat[first]:
        return None
    i, j = divmod(first, len(broken))
    aux = {**inputs, "pair": [i, j], "tie_tol": tie_tol}
    narrative = _SPECS[axiom].narrative(method, rel, i, j, inputs)
    return Witness(axiom, method, tuple(matrices), aux, narrative)


@np.errstate(all="ignore")
def _judge(
    axiom: AxiomId, method: MethodId, matrices: Sequence[PCM], args: tuple,
    tie_tol: float, em: EmOptions, row: Optional[tuple] = None,
) -> AxiomVerdict:
    """Verdict of a check on its ``matrices`` and other arguments ``args``:
    every check and every search ends here.  ``row`` is the trial's row of
    ``_stack_verdicts`` where a search's stack judged it; a check judges a
    stack of one trial.  Errors come in order: a matrix that is not a
    ``PCM`` or an argument not of its ``kinds``, the spec's argument
    rules, the tie tolerance, a method or budget of the wrong type, then
    the first rejected matrix of the row, matrices then image.  An image
    with an entry that is not finite and positive raises the spec's
    ``rejected`` text, and any other rejected matrix what ``rank_error``
    reads from its relation array.  A vacuous check's image counts as
    ranked, so it raises none.  Floating-point errors are ignored: an
    input near the float range is judged without a RuntimeWarning."""
    spec = _SPECS[axiom]
    kinds = [("matrix", PCM)] * len(matrices) + list(spec.kinds)
    for value, (name, kind) in zip([*matrices, *args], kinds):
        check_kind(name, value, kind)
    inputs = spec.rules(matrices, *args)
    tie_tol = check_tie_tol(tie_tol)  # the first error any ranking raises
    check_kind("method", method, MethodId)
    check_kind("em", em, EmOptions)
    x, e = _input_arrays([inputs]), np.array([m.entries for m in matrices])[None]
    if row is None:
        row = [v[0] for v in _stack_verdicts(method, axiom, e, x, tie_tol, em)]
    rel, broken, ok = row
    if not ok.all():
        first = int(ok.argmin())
        image = spec.image(e, x)  # rejected as the PCM function building it would
        if first == len(matrices) and not ((image > 0.0) & (image < np.inf)).all():
            raise NonPositive(spec.rejected)
        raise rank_error(method, rel[first], em)
    witness = _witness(axiom, method, matrices, inputs, rel, broken, tie_tol)
    return AxiomVerdict(holds=witness is None, witness=witness)


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
    try:
        args, tie_tol = _SPECS[axiom].args(matrices, aux), aux["tie_tol"]
    except KeyError as missing:
        raise InvalidParameter(f"witness auxiliary has no {missing}") from None
    except IndexError:  # a spec's args take the first matrix
        raise InvalidParameter("witness has no matrix") from None
    return check(method, *args, tie_tol, em)


def replay(witness: Witness, em: EmOptions = EmOptions()) -> AxiomVerdict:
    """Re-run the check a witness came from; a genuine witness must come
    back with holds == False."""
    check_kind("witness", witness, Witness)
    check_kind("em", em, EmOptions)
    return _run_check(witness.method, witness.axiom, witness.matrices, witness.auxiliary, em)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # stream depends only on (seed, trial index), so trials are order-free
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed % 2**64, trial))))


#: trials below this keep their seeded stream and, where there is room,
#: their prefix (see ``_Memo``)
_KEPT_TRIALS = 2**14
#: the prefixes of one seed take at most this many float entries' worth of
#: memory, 16 MiB (see ``_Memo.keep``)
_KEPT_ENTRIES = 2**21


class _Memo:
    """What searches on one seed share, so that a search that follows
    another on its seed draws less (see ``_trial_draws``): each kept
    trial's seeded PCG64 (state, inc), and per prefix key (``_prefix_key``)
    a dict of each kept trial's prefix by trial.  A prefix is n, the first
    grid and the stream's state right after them, as (state, inc,
    has_uint32, uinteger): the buffered 32-bit half of the draw of n is
    part of the stream.  Grids are read-only, entries never change once
    made, and a search keeps the memo it read, so threads race only for
    work."""

    def __init__(self, seed: int):
        self.seed, self.seeded, self.prefixes = seed, {}, {}
        self.room = _KEPT_ENTRIES  # what the prefixes may still take
        self.lock = threading.Lock()

    def keep(self, drawn: dict, t: int, n: int, a: np.ndarray, rng: np.random.Generator):
        """Keep trial ``t``'s prefix, n and grid ``a`` just drawn from
        ``rng``, in ``drawn`` where no prefix of ``t`` is and its charge fits
        in ``room``: n**2 entries for its grid, and 128 (1 KiB) for the rest
        of what keeping it takes."""
        charge = n * n + 128
        if t >= _KEPT_TRIALS or self.room < charge:
            return
        s = rng.bit_generator.state
        a.flags.writeable = False
        prefix = n, a, (s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"])
        with self.lock:
            if t not in drawn and self.room >= charge:
                self.room -= charge
                drawn[t] = prefix

    def stream(self, t: int) -> np.random.Generator:
        """Trial ``t``'s stream, bit for bit as ``_trial_rng`` seeds it; draw
        from it before taking the next.  A trial below ``_KEPT_TRIALS`` keeps
        its seeded state here, and a later search restores it, not seeding
        again."""
        kept = self.seeded.get(t)
        if kept is not None:
            return _restored(*kept)
        rng = _trial_rng(self.seed, t)
        if t < _KEPT_TRIALS:
            state = rng.bit_generator.state["state"]
            self.seeded[t] = state["state"], state["inc"]
        return rng


_kept = _Memo(-1)  # the last seed searched, mod 2**64
_spare = threading.local()  # .rng: the thread's Generator a kept state is restored into


def _memo(seed: int) -> _Memo:
    """The memo of ``seed``, which replaces that of the last seed searched."""
    global _kept
    memo = _kept
    if memo.seed != seed % 2**64:
        memo = _kept = _Memo(seed % 2**64)
    return memo


def _restored(state: int, inc: int, has_uint32: int = 0, uinteger: int = 0) -> np.random.Generator:
    """The thread's spare Generator with its PCG64 set to a kept state;
    draw from it before restoring the next."""
    rng = getattr(_spare, "rng", None)
    if rng is None:
        rng = _spare.rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32, "uinteger": uinteger,
    }
    return rng


def _prefix_key(spec: _Spec, cfg: SearchConfig) -> tuple:
    """What a trial's prefix depends on besides its stream: the bounds of
    n after the spec's ``min_n`` (four for IIC), and the entry range."""
    n_lo = max(cfg.n_range[0], spec.min_n)
    return n_lo, max(cfg.n_range[1], n_lo), cfg.entry_log_range


def _draw_prefix(rng: np.random.Generator, key: tuple) -> tuple[int, np.ndarray]:
    n_lo, n_hi, log_range = key
    n = int(rng.integers(n_lo, n_hi + 1))
    return n, _draw_grids(rng, (n, n), log_range)


def _draw(axiom: AxiomId, cfg: SearchConfig, rng: np.random.Generator) -> tuple[list, dict]:
    """One trial's inputs, in stream order: its prefix, n and the first
    grid, then the spec's ``tail``.  Grids are for ``PCM.from_upper`` (not
    yet validated), and the check's auxiliary values as a Witness records
    them, less the tie tolerance.  A search's draws (``_trial_draws``)
    equal this one's bit for bit.  A draw never raises: an entry beyond
    the float range is drawn as inf or 0, a RES increase factor as inf,
    and the check judges them; outside an ``np.errstate`` the grid's
    overflows warn."""
    spec = _SPECS[axiom]
    n, a = _draw_prefix(rng, _prefix_key(spec, cfg))
    more, inputs = spec.tail(rng, n, a, cfg)
    return [a, *more], inputs


def _trial_draws(axiom: AxiomId, cfg: SearchConfig, trials: range) -> list:
    """Each trial's draw, as ``_draw`` makes it from ``_trial_rng(cfg.seed,
    t)``.

    A trial whose prefix the memo of the seed keeps under the search's
    prefix key takes n and its grid from there, and draws its tail from
    its stream restored as it stood after them, where the spec has one.
    Any other trial draws its prefix from its seeded stream
    (``_Memo.stream``), and the memo keeps it where there is room."""
    spec = _SPECS[axiom]
    key = _prefix_key(spec, cfg)
    memo = _memo(cfg.seed)
    drawn = memo.prefixes.setdefault(key, {})
    draws = []
    for t in trials:
        prefix = drawn.get(t)
        if prefix is None:
            rng = memo.stream(t)
            n, a = _draw_prefix(rng, key)
            memo.keep(drawn, t, n, a, rng)
        else:
            n, a, state = prefix
            rng = _restored(*state) if spec.tail is not _no_tail else None
        more, inputs = spec.tail(rng, n, a, cfg)
        draws.append(([a, *more], inputs))
    return draws


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
    so results are reproducible and independent of evaluation order and of
    the searches run before; a search that follows another on its seed
    takes what it can of each trial's draw from the memo of the seed (see
    ``_trial_draws``).  Trials are drawn in the chunks of ``_chunks``, the
    first of which holds one trial unless the whole budget is at most
    ``_ONE_CHUNK_TRIALS`` trials and fits a chunk, and judged as stacks by
    ``_flag_trials``, which flags exactly the trials whose check would
    fail or raise, and here judges no matrix size that starts after a
    flagged trial.  The first flagged trial ends the search: ``_judge``
    settles it from its own stack row, as its check would, with its
    witness or its check's error.  A method, axiom, config or EM budget of
    the wrong type raises InvalidParameter, after the tie tolerance is
    converted.

    The search ends as a trial-by-trial loop of checks would: at the
    first witness, or with the error of the first check that raises one,
    such as NoConvergence when a trial's EM power iteration exhausts
    ``em.max_iterations``; no trial is skipped.  Floating-point errors are
    ignored throughout, so inputs beyond the float range are judged
    without a RuntimeWarning.
    """
    tie_tol = as_float("tie_tol", tie_tol)  # checked where the first flagged trial settles
    for name, value, kind in (
        ("method", method, MethodId), ("axiom", axiom, AxiomId),
        ("cfg", cfg, SearchConfig), ("em", em, EmOptions),
    ):
        check_kind(name, value, kind)
    per_trial = _SPECS[axiom].per_trial
    with np.errstate(all="ignore"):
        for trials in _chunks(cfg.trials, max(1, _CHUNK_MATRICES // per_trial)):
            _, draws, rows = _flag_trials(method, axiom, cfg, trials, tie_tol, em, stop=True)
            if rows:
                trial = min(rows)
                grids, inputs = draws[trial]
                matrices = [PCM.from_upper(g) for g in grids]
                args = _SPECS[axiom].args(matrices, inputs)[1:]
                verdict = _judge(axiom, method, matrices, args, tie_tol, em, rows[trial])
                return _shrink(verdict.witness, em)
    return None


# --- batched search ----------------------------------------------------------

#: a search's chunks hold at most this many drawn matrices (see
#: ``_chunks``): 8 MB of draws at n = 64, ranked beside their transformed
#: images in a stack of twice that
_CHUNK_MATRICES = 256

#: a budget of at most this many trials that fits a chunk runs as one (see
#: ``_chunks``): a search that passes then pays one round of drawing,
#: grouping and stacking, not two or three (RGM ANO at 12 trials took 500
#: against 610 µs of CPU, at 16 trials 600 against 845), while one that
#: fails at its first trial draws and judges the whole budget (index INV
#: at 12 trials took 900 against 570 µs), all on a seed not searched before
_ONE_CHUNK_TRIALS = 16


def _chunks(trials: int, cap: int) -> Iterator[range]:
    """Split a budget of ``trials`` into consecutive ranges of trials.

    A budget of at most ``_ONE_CHUNK_TRIALS`` that fits within ``cap`` is
    one chunk: 12 trials run as one.  Otherwise the first chunk holds one
    trial, since many searches fail on their first, and each next chunk
    doubles up to ``cap`` trials.  A chunk after the first takes the whole
    rest of the budget when that rest fits within ``cap`` and within what
    this chunk and the next two would hold, 7 times its size: 17 trials
    run as 1, 2 and 14.  Every chunk after the first stops before 8 times
    (its start + 1), so a search whose witness lies in that last chunk has
    drawn at most about eight times the trials before it.
    """
    if trials <= min(_ONE_CHUNK_TRIALS, cap):
        yield range(trials)
        return
    start, size = 0, 1
    while start < trials:
        rest = trials - start
        if start and rest < 7 * size and rest <= cap:
            size = rest
        yield range(start, start + size)
        start, size = start + size, min(2 * size, cap)


def _flag_trials(
    method: MethodId,
    axiom: AxiomId,
    cfg: SearchConfig,
    trials: range,
    tie_tol: float,
    em: EmOptions = EmOptions(),
    stop: bool = False,
) -> tuple[np.ndarray, list, dict]:
    """Flag each trial whose check would report a violation or reject an
    input (a non-finite or non-positive entry, score or weight, a bad tie
    tolerance, or an EM iteration that does not converge within
    ``em.max_iterations``), and no other.  Returns the flags, the trials'
    draws, and for each flagged trial, by index in ``trials``, its row of
    ``_stack_verdicts`` on its n alternatives and own matrices: its
    relation arrays, broken pairs and ranked mask (see ``_judge``).

    Trials are drawn in order from their own streams, through the memo of
    the seed (``_trial_draws``), grouped by matrix size and judged a group
    at a time, in the order of each group's first trial, as one stack of
    matrices filled by ``reciprocal_fill`` (``_group_stack``), so each
    needs no PCM, Ranking or check call.  For any method but EM, sizes up
    to ``_PADDED_N`` form one group, padded with ones to its largest, as
    row sums of fewer than 8 values keep their bits (``rank_keys``), and
    EM's matrix-vector products do not.  With ``stop``, as
    ``falsify`` runs it, a group whose first trial comes after a flagged
    trial is not judged, nor is any later group: they hold only later
    trials.  Rejected inputs warn unless floating-point errors are ignored.
    """
    draws = _trial_draws(axiom, cfg, trials)
    padded = _PADDED_N if method is not MethodId.EM else 0  # every size up to it shares a group
    groups: dict[int, list[int]] = {}
    for idx, (grids, _) in enumerate(draws):
        groups.setdefault(max(len(grids[0]), padded), []).append(idx)
    rows: dict = {}
    for idx in groups.values():
        if stop and rows and idx[0] > min(rows):
            break
        stack, x, ns = _group_stack(draws, idx)
        rel, broken, ok = _stack_verdicts(method, axiom, stack, x, tie_tol, em, ns)
        flagged = broken.any(axis=(1, 2)) | ~ok.all(axis=1)
        for row in flagged.nonzero()[0]:
            grids = draws[idx[row]][0]
            n, real = len(grids[0]), [*range(len(grids)), -1]  # its own matrices and image
            rows[idx[row]] = rel[row, real, :n, :n], broken[row, :n, :n], ok[row, real]
    flags = np.zeros(len(draws), dtype=bool)
    flags[list(rows)] = True
    return flags, draws, rows


def _group_stack(draws: list, idx: list) -> tuple[np.ndarray, dict, Optional[list]]:
    """The trials ``idx`` of ``draws`` as one stack of filled matrices, its
    inputs and each trial's n, or None where all share one: padded with
    ones to the largest n, and with all-ones matrices to the most matrices
    (an AI group's pools of 2 to 4), where ``x["pool"]`` holds each count."""
    grids, inputs = zip(*(draws[t] for t in idx))
    ns, ks = [len(g[0]) for g in grids], [len(g) for g in grids]
    size, most = max(ns), max(ks)
    if min(ns) == size and min(ks) == most:  # one shape
        e = np.array(grids)
    else:
        e = np.ones((len(idx), most, size, size))
        for row, (g, n) in enumerate(zip(grids, ns)):
            e[row, :len(g), :n, :n] = g
    if min(ns) < size and "permutation" in inputs[0]:  # each padded label maps to itself
        inputs = [{**x, "permutation": [*x["permutation"], *range(n, size)]}
                  for x, n in zip(inputs, ns)]
    x = _input_arrays(inputs) | ({"pool": np.array(ks)} if min(ks) < most else {})
    return reciprocal_fill(e), x, ns if min(ns) < size else None


def _stack_verdicts(
    method: MethodId, axiom: AxiomId, stack: np.ndarray, x: dict, tie_tol: float,
    em: EmOptions, ns: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Judge a stack of trials (trials, matrices, n, n) with their inputs
    ``x`` (see ``_input_arrays``) at once: each trial's image is built by
    the axiom's spec, every matrix and image is ranked in one stack by
    ``rank_keys``, as ``method_rank`` ranks one, EM within ``em``'s
    budget, and the axiom's rule judges their relation arrays.  Returns
    the relation arrays (trials, matrices + 1, n, n), the pairs that break
    the axiom (trials, n, n) and whether its check ranks each matrix and
    the image (trials, matrices + 1): the image's column holds where the
    spec's ``vacuous`` rule does, and requires its ``valid`` rule.  A
    check under ``em`` fails exactly where a pair breaks and the whole row
    is accepted, and reports the first broken pair in row-major order; an
    EM matrix unconverged within the budget is one the check cannot rank.
    A check is a stack of one trial (``_judge``), a search's group one
    (``_group_stack``): ``ns`` holds the sizes of trials padded with ones
    to at most 7, and only their real pairs can break the axiom;
    ``x["pool"]`` each AI trial's count of matrices, and the all-ones
    matrices padding the rest are not ranked: they tie every pair."""
    spec = _SPECS[axiom]
    full = np.concatenate([stack, spec.image(stack, x)[:, None]], axis=1)
    if "pool" in x:  # only each trial's own matrices and image are ranked
        real = np.arange(full.shape[1]) < x["pool"][:, None]
        real[:, -1] = True
        keys, ok = np.zeros(full.shape[:-1]), np.ones(real.shape, dtype=bool)
        keys[real], ok[real] = rank_keys(method, full[real], tie_tol, em, ns and np.repeat(ns, x["pool"] + 1))
    else:
        keys, ok = rank_keys(method, full, tie_tol, em, ns and np.array(ns)[:, None])
    rel = relation(keys)
    if spec.vacuous is not None:
        ok[:, -1] |= spec.vacuous(rel[:, :-1], x)
    if spec.valid is not None:
        ok[:, -1] &= spec.valid(stack, x)
    broken = spec.broken(rel[:, :-1], rel[:, -1], x)
    if ns is not None:  # the pairs of real alternatives only
        broken &= np.maximum.outer(*[np.arange(stack.shape[-1])] * 2) < np.array(ns)[:, None, None]
    return rel, broken, ok


# --- greedy witness shrinking ----------------------------------------------

def _delete_index(e: np.ndarray, aux: dict, idx: int) -> tuple[np.ndarray, dict]:
    """Drop one alternative from the matrices ``e`` (matrices, n, n),
    remapping every recorded index; entries keep their bits because
    deletion only removes a row and column."""
    kept = np.delete(np.delete(e, idx, axis=1), idx, axis=2)

    def remap(t: int) -> int:
        return t - 1 if t > idx else t

    new_aux = dict(aux)
    for key in ("pair", "cell"):
        if key in new_aux:
            new_aux[key] = [remap(t) for t in new_aux[key]]
    if "permutation" in new_aux:
        sigma = new_aux["permutation"]
        new_aux["permutation"] = [remap(sigma[t]) for t in range(len(sigma)) if t != idx]
    return kept, new_aux


#: EM steps within which ``_falsifying`` first judges a shrinking stack
_SHORT_EM_STEPS = 256


def _falsifying(
    method: MethodId, axiom: AxiomId, stack: np.ndarray, auxes: list, em: EmOptions,
    decide: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The relation arrays and broken pairs of each row of a shrinking
    stack (rows, matrices, n, n) with its auxiliary values ``auxes``, and
    whether the row still falsifies: its check under ``em`` fails exactly
    there.  Only the rows up to the first whose verdict is ``decide`` are
    exact, the row the caller keeps or stops at; no later row is read.

    EM first judges the stack within ``_SHORT_EM_STEPS`` steps.  A matrix
    converges at the same step, to the same iterate, under any larger
    budget, so a row whose check ranks every matrix there is settled (a
    vacuous RES image counts as ranked, but then the row holds under any
    budget).  The other rows before the first settled row whose verdict
    is ``decide`` are judged again under ``em``."""
    x, tie_tol = _input_arrays(auxes), auxes[0]["tie_tol"]
    short = em
    if method is MethodId.EM and em.max_iterations > _SHORT_EM_STEPS:
        short = EmOptions(_SHORT_EM_STEPS, em.convergence_tol)
    rel, broken, ok = _stack_verdicts(method, axiom, stack, x, tie_tol, short)
    ranked = ok.all(axis=1)
    falsified = broken.any(axis=(1, 2)) & ranked
    if short is not em:
        stop = np.append(ranked & (falsified == decide), True).argmax()
        redo = np.flatnonzero(~ranked[:stop])
        if len(redo):
            xr = {k: v[redo] for k, v in x.items()}
            r, b, o = _stack_verdicts(method, axiom, stack[redo], xr, tie_tol, em)
            rel[redo], broken[redo], falsified[redo] = r, b, b.any(axis=(1, 2)) & o.all(axis=1)
    return rel, broken, falsified


def _shrink(witness: Witness, em: EmOptions = EmOptions()) -> Witness:
    """Best-effort minimization: drop alternatives outside the pinned
    indices, those the inputs name (``pair``, ``cell`` and each label
    ``permutation`` moves), then round entries (and the auxiliary value,
    if any) to one significant digit, as Python's ``.0e`` formatting
    rounds a float (inf past the float range), keeping only steps that
    still falsify.

    Every step is a row of ``_stack_verdicts`` under ``em``, the budget
    of the check the witness came from, so a step is kept exactly where
    that check would still fail.  A deletion round is one stack of all its
    candidates, highest index first (at most 62 at the 64-alternative
    limit), and keeps the first that falsifies.  The shrunk
    witness is built from the relation arrays of the last step kept; where
    no step is kept, the witness comes back unchanged."""
    method, axiom = witness.method, witness.axiom
    e, aux = np.array([m.entries for m in witness.matrices]), dict(witness.auxiliary)
    kept = None  # the relation arrays and broken pairs of the last step kept
    while True:
        moved = {t for t, s in enumerate(aux.get("permutation", ())) if s != t}
        pinned = {*aux["pair"], *aux.get("cell", ()), *moved}
        rows = [_delete_index(e, aux, idx) for idx in range(e.shape[-1] - 1, -1, -1)
                if idx not in pinned]
        if not rows:  # every index left is pinned
            break
        stack = np.array([cand for cand, _ in rows])
        rel, broken, falsified = _falsifying(method, axiom, stack, [a for _, a in rows], em)
        if not falsified.any():
            break
        p = int(falsified.argmax())
        e, aux, kept = *rows[p], (rel[p], broken[p])
        # the pair its check would report, so pinning tracks the live violation
        aux["pair"] = list(divmod(int(broken[p].argmax()), e.shape[-1]))

    e, kept = _round_entries(method, axiom, e, aux, em, kept)
    for key in ("value", "increase"):
        if key in aux:
            cand = {**aux, key: float(f"{aux[key]:.0e}")}
            if cand[key] != aux[key] and 0.0 < cand[key] < math.inf:
                rel, broken, falsified = _falsifying(method, axiom, e[None], [cand], em)
                if falsified[0]:
                    aux, kept = cand, (rel[0], broken[0])
    if kept is None:
        return witness
    return _witness(axiom, method, [PCM(m) for m in e], aux, *kept, aux["tie_tol"])


def _round_entries(
    method: MethodId, axiom: AxiomId, e: np.ndarray, aux: dict, em: EmOptions,
    kept: Optional[tuple],
) -> tuple[np.ndarray, Optional[tuple]]:
    """The greedy rounding of ``_shrink`` over the matrices ``e``
    (matrices, n, n): each upper entry in turn, in (matrix, i, j) order,
    rounded to one significant digit where that changes it and stays
    finite, each step kept if the witness still falsifies.  Returns the
    rounded entries with the relation arrays and broken pairs of the last
    step kept, or ``kept`` where no step is.

    Each step rounds an entry of its own, so the steps are judged as a
    stack of prefixes: row p rounds steps 0 to p on top of the entries
    kept so far.  The rows up to the first that does not falsify are kept,
    that step is dropped, and the next stack starts after it."""
    iu, ju = triu_indices(e.shape[-1])
    t, i, j = np.repeat(np.arange(len(e)), len(iu)), np.tile(iu, len(e)), np.tile(ju, len(e))
    original = e[t, i, j]
    rounded = np.array([float(f"{v:.0e}") for v in original])
    step = (rounded != original) & (rounded < np.inf)
    t, i, j, rounded = t[step], i[step], j[step], rounded[step]
    size = max(1, _CHUNK_MATRICES // (len(e) + 1))  # prefixes, each with its image
    start = 0
    while start < len(rounded):
        s = slice(start, start + size)
        rows = len(rounded[s])
        prefix = np.tri(rows, dtype=bool)  # row p takes steps 0 to p
        stack = np.repeat(e[None], rows, axis=0)
        stack[:, t[s], i[s], j[s]] = np.where(prefix, rounded[s], e[t[s], i[s], j[s]])
        stack[:, t[s], j[s], i[s]] = np.where(prefix, 1.0 / rounded[s], e[t[s], j[s], i[s]])
        rel, broken, falsified = _falsifying(method, axiom, stack, [aux] * rows, em, False)
        accepted = rows if falsified.all() else int(falsified.argmin())
        if accepted:
            e, kept = stack[accepted - 1], (rel[accepted - 1], broken[accepted - 1])
        start += min(accepted + 1, rows)
    return e, kept


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
    check_kind("witness", witness, Witness)
    return {
        "axiom": witness.axiom.value,
        "method": witness.method.value,
        "matrices": [m.entries.tolist() for m in witness.matrices],
        "aux": dict(witness.auxiliary),
        "narrative": witness.narrative,
    }
