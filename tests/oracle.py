"""Reference implementations kept beside the tests: the ranking of a
matrix composed from its weight vector, the axiom checks as pair-by-pair
loops over that ranking and ``pair_relation``, the union-find tie
closure of ``ranking_from_weights``, witness shrinking as
a greedy loop of one check per step, the EM power iteration that tests
its convergence after every step, and the matrix CSV parser that
converts and validates one field at a time.

These are the rules as first written, one matrix, one pair, one step,
one iterate or one field at a time.  The package ranks every matrix
through one stacked function, judges every axiom over relation arrays,
judges a witness's shrinking steps as stacks, iterates EM in blocks and
converts a CSV grid in one loop without a per-field helper instead; the
tests hold it to these loops for rankings, verdicts, witness pairs,
narratives, errors, shrunk witnesses, weight bits and parsed entries.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from pcmrank import (
    AxiomId,
    AxiomVerdict,
    DimensionMismatch,
    DimensionTooSmall,
    IndexOutOfRange,
    InvalidParameter,
    NonPositive,
    NonSquare,
    NotAnIncrease,
    OverlappingIndices,
    PCM,
    PairRelation,
    PcmError,
    Permutation,
    Ranking,
    RationalExponent,
    ReciprocityViolation,
    TooSmall,
    Witness,
    aggregate,
    method_weights,
    opposite,
    pair_relation,
    permute,
    power,
    ranking_from_weights,
)
from pcmrank.axioms import _SPECS, _round_to_one_significant, _run_check
from pcmrank.core import DEFAULT_RECIPROCITY_TOL, DEFAULT_TIE_TOL, check_tie_tol, triu_indices
from pcmrank.weighting import EmOptions, MethodId

_REL_TEXT = {
    PairRelation.STRICTLY_ABOVE: "strictly above",
    PairRelation.TIED: "tied with",
    PairRelation.STRICTLY_BELOW: "strictly below",
}


def method_rank(method, a, tie_tol=DEFAULT_TIE_TOL, em=EmOptions()) -> Ranking:
    """``weighting.method_rank`` composed from the weight vector: FLAT ties
    everything, INDEX_ORDER ranks by index, and every other method ranks
    ``method_weights`` through ``ranking_from_weights``; the tie tolerance
    is checked first for every method."""
    check_tie_tol(tie_tol)
    if method is MethodId.FLAT:
        return Ranking(np.zeros(a.n, dtype=int))
    if method is MethodId.INDEX_ORDER:
        return Ranking(np.arange(a.n))
    return ranking_from_weights(method_weights(method, a, em), tie_tol)


def _fail(axiom, method, matrices, auxiliary, narrative):
    return AxiomVerdict(False, Witness(axiom, method, tuple(matrices), auxiliary, narrative))


def check_ano(method, a, sigma, tie_tol, em):
    if sigma.n != a.n:
        raise DimensionMismatch(f"permutation on {sigma.n} labels, matrix has {a.n}")
    base = method_rank(method, a, tie_tol, em)
    image = method_rank(method, permute(a, sigma), tie_tol, em)
    for i in range(a.n):
        for j in range(i + 1, a.n):
            rel = pair_relation(base, i, j)
            rel_img = pair_relation(image, int(sigma.map[i]), int(sigma.map[j]))
            if rel is not rel_img:
                aux = {"permutation": [int(x) for x in sigma.map], "pair": [i, j],
                       "tie_tol": tie_tol}
                narrative = (
                    f"{method.value} breaks anonymity: alternative {i + 1} is "
                    f"{_REL_TEXT[rel]} {j + 1}, but after relabelling by "
                    f"{[int(x) + 1 for x in sigma.map]} alternative "
                    f"{int(sigma.map[i]) + 1} is {_REL_TEXT[rel_img]} "
                    f"{int(sigma.map[j]) + 1}"
                )
                return _fail(AxiomId.ANO, method, [a], aux, narrative)
    return AxiomVerdict(holds=True)


def check_ai(method, matrices, tie_tol, em):
    if len(matrices) < 2:
        raise InvalidParameter("aggregation invariance needs at least two matrices")
    n = matrices[0].n
    for m in matrices[1:]:
        if m.n != n:
            raise DimensionMismatch(f"mixed sizes {n} and {m.n}")
    ranks = [method_rank(method, m, tie_tol, em) for m in matrices]
    agg_rank = method_rank(method, aggregate(list(matrices)), tie_tol, em)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rels = [pair_relation(r, i, j) for r in ranks]
            if any(rel is PairRelation.STRICTLY_BELOW for rel in rels):
                continue
            strict = any(rel is PairRelation.STRICTLY_ABOVE for rel in rels)
            agg_rel = pair_relation(agg_rank, i, j)
            weak_broken = agg_rel is PairRelation.STRICTLY_BELOW
            strict_broken = strict and agg_rel is not PairRelation.STRICTLY_ABOVE
            if weak_broken or strict_broken:
                clause = (
                    "is strictly below in the aggregate"
                    if weak_broken
                    else "fails to stay strictly above in the aggregate"
                )
                narrative = (
                    f"{method.value} breaks aggregation invariance: alternative "
                    f"{i + 1} is ranked at least as high as {j + 1} in all "
                    f"{len(matrices)} matrices"
                    + (" (strictly in at least one)" if strict else "")
                    + f", yet {clause}"
                )
                aux = {"pair": [i, j], "tie_tol": tie_tol}
                return _fail(AxiomId.AI, method, matrices, aux, narrative)
    return AxiomVerdict(holds=True)


def check_inv(method, a, tie_tol, em):
    base = method_rank(method, a, tie_tol, em)
    rev = method_rank(method, opposite(a), tie_tol, em)
    for i in range(a.n):
        for j in range(i + 1, a.n):
            rel = pair_relation(base, i, j)
            rel_op = pair_relation(rev, i, j)
            if rel_op is not rel.reverse():
                narrative = (
                    f"{method.value} breaks inversion: alternative {i + 1} is "
                    f"{_REL_TEXT[rel]} {j + 1}, but on the opposite matrix it is "
                    f"{_REL_TEXT[rel_op]} instead of {_REL_TEXT[rel.reverse()]}"
                )
                aux = {"pair": [i, j], "tie_tol": tie_tol}
                return _fail(AxiomId.INV, method, [a], aux, narrative)
    return AxiomVerdict(holds=True)


def check_rsi(method, a, kappa, tie_tol, em):
    base = method_rank(method, a, tie_tol, em)
    powered = method_rank(method, power(a, kappa), tie_tol, em)
    for i in range(a.n):
        for j in range(i + 1, a.n):
            rel = pair_relation(base, i, j)
            rel_pow = pair_relation(powered, i, j)
            if rel is not rel_pow:
                aux = {"kappa": str(kappa), "pair": [i, j], "tie_tol": tie_tol}
                narrative = (
                    f"{method.value} breaks scale invariance at exponent {kappa}: "
                    f"alternative {i + 1} is {_REL_TEXT[rel]} {j + 1} before but "
                    f"{_REL_TEXT[rel_pow]} after"
                )
                return _fail(AxiomId.RSI, method, [a], aux, narrative)
    return AxiomVerdict(holds=True)


def check_iic(method, a, cell, new_value, pair, tie_tol, em):
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
    modified = a.with_entry(k, l, new_value)
    rel = pair_relation(method_rank(method, a, tie_tol, em), i, j)
    rel_mod = pair_relation(method_rank(method, modified, tie_tol, em), i, j)
    if rel is not rel_mod:
        aux = {"cell": [k, l], "value": float(new_value), "pair": [i, j], "tie_tol": tie_tol}
        narrative = (
            f"{method.value} breaks independence of irrelevant comparisons: "
            f"rewriting the comparison of alternatives {k + 1} and {l + 1} to "
            f"{new_value:g} turns alternative {i + 1} from {_REL_TEXT[rel]} "
            f"{j + 1} into {_REL_TEXT[rel_mod]}"
        )
        return _fail(AxiomId.IIC, method, [a], aux, narrative)
    return AxiomVerdict(holds=True)


def check_res(method, a, pair, increased_value, tie_tol, em):
    i, j = pair
    if i == j or not (0 <= i < a.n and 0 <= j < a.n):
        raise IndexOutOfRange(f"pair {pair} invalid for n={a.n}")
    if not increased_value > a.entries[i, j]:
        raise NotAnIncrease(
            f"{increased_value!r} does not exceed a[{i + 1}][{j + 1}] = {float(a.entries[i, j])!r}"
        )
    rel = pair_relation(method_rank(method, a, tie_tol, em), i, j)
    if rel is PairRelation.STRICTLY_BELOW:
        return AxiomVerdict(holds=True)
    improved = a.with_entry(i, j, increased_value)
    rel_after = pair_relation(method_rank(method, improved, tie_tol, em), i, j)
    if rel_after is not PairRelation.STRICTLY_ABOVE:
        aux = {"pair": [i, j], "increase": float(increased_value), "tie_tol": tie_tol}
        narrative = (
            f"{method.value} breaks responsiveness: alternative {i + 1} is "
            f"{_REL_TEXT[rel]} {j + 1}, yet raising their comparison to "
            f"{increased_value:g} leaves it {_REL_TEXT[rel_after]} instead of "
            f"strictly above"
        )
        return _fail(AxiomId.RES, method, [a], aux, narrative)
    return AxiomVerdict(holds=True)


def run_check(method, axiom, matrices, aux, em=EmOptions()):
    """The reference check of ``axiom`` on a witness's inputs."""
    tie_tol = aux["tie_tol"]
    a = matrices[0]
    if axiom is AxiomId.ANO:
        return check_ano(method, a, Permutation(aux["permutation"]), tie_tol, em)
    if axiom is AxiomId.AI:
        return check_ai(method, matrices, tie_tol, em)
    if axiom is AxiomId.INV:
        return check_inv(method, a, tie_tol, em)
    if axiom is AxiomId.RSI:
        return check_rsi(method, a, RationalExponent.parse(aux["kappa"]), tie_tol, em)
    if axiom is AxiomId.IIC:
        cell, pair = tuple(aux["cell"]), tuple(aux["pair"])
        return check_iic(method, a, cell, aux["value"], pair, tie_tol, em)
    return check_res(method, a, tuple(aux["pair"]), aux["increase"], tie_tol, em)


def ranking_union_find(w: np.ndarray, tie_tol: float) -> Ranking:
    """Dense ranks, larger weight first, with i and j tied when
    |w_i - w_j| <= tie_tol * max(w_i, w_j), closed transitively by
    union-find; groups are ordered by their largest weight."""
    n = len(w)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) <= tie_tol * max(w[i], w[j]):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    ordered = sorted(groups.values(), key=lambda g: -max(w[i] for i in g))
    labels = np.empty(n, dtype=int)
    for label, members in enumerate(ordered):
        labels[members] = label
    return Ranking(labels)


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
        return _run_check(method, axiom, matrices, aux, em)
    except (PcmError, ValueError):
        return None


def shrink(witness: Witness, em: EmOptions = EmOptions()) -> Witness:
    """Greedy minimization, one check per step: drop alternatives outside
    the pinned indices, then round entries (and the auxiliary value, if
    any) to one significant digit, keeping only steps that still falsify."""
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
                aux["pair"] = verdict.witness.auxiliary["pair"]
                current = verdict.witness
                changed = True
                break

    for mat_index, m in enumerate(matrices):
        for i in range(m.n):
            for j in range(i + 1, m.n):
                original = matrices[mat_index].entries[i, j]
                rounded = _round_to_one_significant(original)
                # a rounding that overflows to inf is no step
                if rounded == original or not 0.0 < rounded < math.inf:
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


def em_power_iteration(m, w, steps, tol):
    """``weighting._power_iteration`` as a loop that tests every step: the
    first of at most ``steps`` iterates of ``m`` from ``w`` that moves by
    ``tol`` or less in sup norm, or None."""
    v, step = np.empty(len(w)), np.empty(len(w))
    for _ in range(steps):
        np.matmul(m, w, out=v)
        v /= np.add.reduce(v)
        np.absolute(np.subtract(v, w, out=step), out=step)
        if np.maximum.reduce(step) <= tol:
            return v
        w, v = v, w
    return None


def em_weight_stack(e, opts: EmOptions = EmOptions()):
    """``weighting.em_weight_stack`` as a loop that tests every step: the
    weights of each matrix of ``e`` (..., n, n), NaN where unconverged."""
    n = e.shape[-1]
    m = e.reshape(-1, n, n)
    out = np.full(m.shape[:-1], np.nan)
    live = np.arange(len(m))
    w = np.full(out.shape, 1.0 / n)
    for done_steps in range(opts.max_iterations):
        if len(live) < 2:
            if len(live):
                left = opts.max_iterations - done_steps
                last = em_power_iteration(m[0], w[0], left, opts.convergence_tol)
                if last is not None:
                    out[live[0]] = last
            break
        v = np.matmul(m, w[..., None])[..., 0]
        v /= np.add.reduce(v, axis=-1, keepdims=True)
        done = np.maximum.reduce(np.absolute(v - w), axis=-1) <= opts.convergence_tol
        if done.any():
            out[live[done]] = v[done]
            live, m, v = live[~done], m[~done], v[~done]
        w = v
    return out.reshape(e.shape[:-1])


def pcm_parse(text: str, reciprocity_tol: float = DEFAULT_RECIPROCITY_TOL) -> PCM:
    """``core.pcm_parse`` field by field: each field is stripped, converted
    and checked in row-major order, so the first bad field raises."""
    if not reciprocity_tol > 0.0:
        raise InvalidParameter("reciprocity_tol must be positive")
    rows = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    n = len(rows)
    if n < 2:
        raise TooSmall(f"matrix needs at least 2 rows, got {n}")
    grid = []
    for line in rows:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != n:
            raise NonSquare(f"{n} rows but a row with {len(fields)} fields")
        grid.append([_parse_entry(f) for f in fields])
    a = np.array(grid, dtype=float)
    iu, ju = triu_indices(n)
    product = a[iu, ju] * a[ju, iu]
    off = np.abs(product - 1.0) > reciprocity_tol
    if off.any():
        first = int(off.argmax())  # the first pair in row-major order
        i, j = int(iu[first]), int(ju[first])
        raise ReciprocityViolation(
            f"a[{i + 1}][{j + 1}] * a[{j + 1}][{i + 1}] = "
            f"{product[first]:.9g} is off 1 by more than {reciprocity_tol:g}"
        )
    return PCM.from_upper(a)


def _parse_entry(field: str) -> float:
    if "/" in field:
        num, _, den = field.partition("/")
        try:
            p, q = int(num.strip()), int(den.strip())
        except ValueError:
            raise NonPositive(f"bad rational literal {field!r}") from None
        if p <= 0 or q <= 0:
            raise NonPositive(f"rational literal {field!r} must have p, q > 0")
        try:
            return p / q  # int division is correctly rounded
        except OverflowError:
            raise NonPositive(f"rational literal {field!r} overflows a float") from None
    try:
        value = float(field)
    except ValueError:
        raise NonPositive(f"bad entry {field!r}") from None
    if not np.isfinite(value) or value <= 0.0:
        raise NonPositive(f"entry {field!r} is not a positive real")
    return value
