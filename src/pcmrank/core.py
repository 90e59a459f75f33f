"""Domain types shared by the whole package: comparison matrices, weight
vectors, rankings, permutations, rational exponents, and the matrix CSV
format.

Alternatives are 0-indexed everywhere in the library; the command line
renumbers them 1-based for display.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd, inf

import numpy as np

SUM_TOL = 1e-12  # absolute tolerance on sum(w) == 1
DEFAULT_TIE_TOL = 1e-9
DEFAULT_RECIPROCITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# errors


class PcmError(Exception):
    """Base class for every error raised by this package."""


class NonSquare(PcmError, ValueError):
    """Input grid is not n-by-n."""


class NonPositive(PcmError, ValueError):
    """An entry is not a positive finite real (or failed to parse)."""


class ReciprocityViolation(PcmError, ValueError):
    """a_ij * a_ji strays from 1 beyond the allowed tolerance."""


class TooSmall(PcmError, ValueError):
    """Fewer than two alternatives."""


class IndexOutOfRange(PcmError, IndexError):
    """Alternative index outside 0..n-1, or a degenerate pair."""


class DimensionMismatch(PcmError, ValueError):
    """Operands do not agree on the number of alternatives."""


class EmptyList(PcmError, ValueError):
    """An aggregation of zero matrices was requested."""


class DimensionTooSmall(PcmError, ValueError):
    """The operation needs more alternatives than the matrix has."""


class NoConvergence(PcmError, RuntimeError):
    """Eigenvector iteration exhausted its budget before reaching tolerance."""


class NoWeightForm(PcmError, ValueError):
    """The ranking method does not define a weight vector."""


class OverlappingIndices(PcmError, ValueError):
    """The modified cell must be disjoint from the observed pair."""


class NotAnIncrease(PcmError, ValueError):
    """The replacement value does not exceed the current entry."""


class UnknownCase(PcmError, KeyError):
    """No registry case under that identifier."""


class UnequalRowProducts(PcmError, ValueError):
    """Rows expected to share a product do not."""


class InvalidParameter(PcmError, ValueError):
    """A setting or argument lies outside its documented range."""


def _shown(value) -> str:
    """``value``'s repr for an error text, or its type's name where the
    repr spans lines (an array's does), so the error stays on one line."""
    text = repr(value)
    return type(value).__name__ if "\n" in text else text


def as_int(name: str, value) -> int:
    """``value`` as a Python int, from any integer, numpy's included."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {_shown(value)}") from None


def as_float(name: str, value) -> float:
    """``value`` as a Python float, from any real number, numpy's included."""
    if not isinstance(value, numbers.Real):
        raise InvalidParameter(f"{name} must be a real number, got {_shown(value)}")
    return float(value)


def as_ints(name: str, values: np.ndarray) -> np.ndarray:
    """``values``, a non-empty vector, as a new int array, each element
    through ``as_int`` unless numpy already holds them as integers."""
    kind = values.dtype.kind
    if kind in "bi" or (kind == "u" and int(values.max()) <= np.iinfo(int).max):
        return values.astype(int)
    ints = [as_int(name, v) for v in values.tolist()]
    try:
        return np.array(ints, dtype=int)
    except OverflowError:
        info = np.iinfo(int)
        big = next(v for v in ints if not info.min <= v <= info.max)
        raise InvalidParameter(f"{name} {big} does not fit in a {info.bits}-bit integer") from None


def _converted(name: str, convert, value, what: str = "an array of floats", **kw):
    """``convert(value, **kw)``, or InvalidParameter where it raises numpy's
    (or Python's) error for a value of the wrong kind: text where a number
    belongs, a ragged nesting, a number past the float range, an array
    where one truth value belongs, a complex number where a float belongs
    (whose imaginary part numpy's cast drops with only a ComplexWarning)."""
    try:
        if kw.get("dtype") is float and np.asarray(value).dtype.kind == "c":
            raise TypeError
        return convert(value, **kw)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(f"{name} must be {what}, got {_shown(value)}") from None


def _sized(make, shape, n: int) -> np.ndarray:
    """``make(shape)``, or InvalidParameter where numpy cannot index an
    array of that shape."""
    try:
        return make(shape)
    except ValueError:  # numpy's "Maximum allowed size exceeded" and its kin
        raise InvalidParameter(f"n = {n} is too large for an array") from None


def as_pair(name: str, value, convert=None) -> tuple:
    """``value``, a sequence of two numbers, as a tuple of ``convert``'s
    results for each, or of the two items as they are without ``convert``."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise InvalidParameter(f"{name} must be a pair of numbers, got {_shown(value)}") from None
    if convert is None:
        return lo, hi
    return convert(name, lo), convert(name, hi)


def check_kind(name: str, value, kind: type) -> None:
    """Raise InvalidParameter unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidParameter(f"{name} must be {article} {kind.__name__}, got {_shown(value)}")


# ---------------------------------------------------------------------------
# upper-triangle helpers


@lru_cache(maxsize=128)
def triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an n-by-n
    matrix, as ``np.triu_indices(n, k=1)``; cached and read-only."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def reciprocal_fill(g: np.ndarray) -> np.ndarray:
    """New array holding the strict upper triangle of ``g`` (a matrix or a
    stack of matrices, shape (..., n, n)), its exact float reciprocals
    below the diagonal and ones on it.  Nothing is validated."""
    iu, ju = triu_indices(g.shape[-1])
    up = g[..., iu, ju]
    a = np.ones(g.shape)
    a[..., iu, ju] = up
    a[..., ju, iu] = 1.0 / up
    return a


def rewrite_entry(e: np.ndarray, i, j, value) -> np.ndarray:
    """Copy of ``e`` (..., n, n) with entry (i, j) set to ``value`` and (j, i)
    to its reciprocal; one cell and value per matrix.  Nothing is validated."""
    a = e.copy()
    lead = np.indices(np.shape(value), sparse=True)
    a[(*lead, i, j)] = value
    a[(*lead, j, i)] = 1.0 / value
    return a


# ---------------------------------------------------------------------------
# pairwise comparison matrix


@dataclass(frozen=True)
class PCM:
    """Positive reciprocal comparison matrix over n >= 2 alternatives.

    ``entries[i][j]`` answers "how many times is alternative i preferred
    to j".  The diagonal is exactly 1 and every off-diagonal pair holds a
    float and its exact float reciprocal.  Value-producing constructors
    derive the lower triangle from the upper; entry-moving transforms
    (transpose, relabelling) keep the pairs bit for bit, which is why the
    reciprocal may sit in either orientation.  ``entries`` is always a
    C-ordered copy, so weights depend on the entries alone, not on the
    layout they were given in.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _converted("entries", np.array, self.entries, dtype=float, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NonSquare(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n < 2:
            raise TooSmall("need at least two alternatives")
        if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
            raise NonPositive("entries must be finite and strictly positive")
        if np.any(np.diagonal(a) != 1.0):
            raise ReciprocityViolation("diagonal entries must equal 1 exactly")
        iu, ju = triu_indices(n)
        up, lo = a[iu, ju], a[ju, iu]
        if not np.all((lo == 1.0 / up) | (up == 1.0 / lo)):
            raise ReciprocityViolation(
                "every off-diagonal pair must be an exact float reciprocal pair"
            )
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_upper(cls, grid) -> "PCM":
        """Canonical PCM from the strict upper triangle of ``grid``.

        The lower triangle is overwritten with exact reciprocals and the
        diagonal is forced to 1, so whatever ``grid`` carried there is
        ignored.  The filled matrix is validated once, as any ``PCM``.
        """
        g = _converted("grid", np.asarray, grid, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise NonSquare(f"expected a square matrix, got shape {g.shape}")
        with np.errstate(divide="ignore", over="ignore"):  # a bad reciprocal is rejected
            return cls(reciprocal_fill(g))

    @classmethod
    def ones(cls, n: int) -> "PCM":
        """The all-ones matrix: total indifference among n alternatives."""
        n = as_int("n", n)
        if n < 2:
            raise TooSmall("need at least two alternatives")
        return cls(_sized(np.ones, (n, n), n))

    def with_entry(self, i: int, j: int, value: float) -> "PCM":
        """Copy with (i, j) set to ``value`` and (j, i) to its reciprocal."""
        n = self.n
        i, j = as_int("index", i), as_int("index", j)
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise IndexOutOfRange(f"cell ({i}, {j}) invalid for n={n}")
        if not np.isfinite(value) or value <= 0.0:
            raise NonPositive("replacement entry must be finite and positive")
        return PCM(rewrite_entry(self.entries, i, j, value))


def csv_rows(text: str) -> list[str]:
    """The rows of the matrix CSV format in ``text``: its lines that are
    not blank, stripped.  The parse and the command line's size limit
    count rows by this one rule."""
    return [line for line in (raw.strip() for raw in text.splitlines()) if line]


def pcm_parse(text: str, reciprocity_tol: float = DEFAULT_RECIPROCITY_TOL) -> PCM:
    """Parse the matrix CSV format into a canonical PCM.

    Each of the n lines holds n comma-separated fields; a field is a
    decimal literal or a rational "p/q" with integer p, q > 0.  The raw
    grid must satisfy |a_ij * a_ji - 1| <= reciprocity_tol for all i < j,
    after which the lower triangle is replaced with exact reciprocals and
    the diagonal forced to 1.
    """
    check_kind("text", text, str)
    return pcm_parse_rows(csv_rows(text), reciprocity_tol)


def pcm_parse_rows(rows: list[str], reciprocity_tol: float = DEFAULT_RECIPROCITY_TOL) -> PCM:
    """``pcm_parse`` of a text whose ``csv_rows`` are ``rows``."""
    reciprocity_tol = as_float("reciprocity_tol", reciprocity_tol)
    if not reciprocity_tol > 0.0:
        raise InvalidParameter("reciprocity_tol must be positive")
    n = len(rows)
    if n < 2:
        raise TooSmall(f"matrix needs at least 2 rows, got {n}")
    values = []
    rationals = {}  # each distinct rational field, once it passed every check
    for line in rows:  # row-major order, so the first bad row or field raises
        fields = line.split(",")
        if len(fields) != n:
            raise NonSquare(f"{n} rows but a row with {len(fields)} fields")
        for field in fields:  # int() and float() strip whitespace as str.strip does
            if "/" in field:
                value = rationals.get(field)
                if value is None:
                    num, _, den = field.partition("/")
                    try:
                        p, q = int(num), int(den)
                    except ValueError:
                        raise NonPositive(f"bad rational literal {field.strip()!r}") from None
                    if p <= 0 or q <= 0:
                        raise NonPositive(f"rational literal {field.strip()!r} must have p, q > 0")
                    try:
                        value = rationals[field] = p / q  # int division is correctly rounded
                    except OverflowError:
                        raise NonPositive(
                            f"rational literal {field.strip()!r} overflows a float"
                        ) from None
                values.append(value)
            else:
                try:
                    value = float(field)
                except ValueError:
                    raise NonPositive(f"bad entry {field.strip()!r}") from None
                if not 0.0 < value < inf:
                    raise NonPositive(f"entry {field.strip()!r} is not a positive real")
                values.append(value)
    a = np.array(values).reshape(n, n)
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


def pcm_to_csv(a: PCM) -> str:
    """Matrix CSV with 17-significant-digit decimals (round-trip exact)."""
    check_kind("a", a, PCM)
    line = ",".join(["%.17g"] * a.n) + "\n"  # one format per row, the bytes of f"{v:.17g}"
    return "".join(line % tuple(row) for row in a.entries.tolist())


def is_consistent(a: PCM, tol: float) -> bool:
    """Multiplicative transitivity: |a_ik - a_ij * a_jk| <= tol * a_ik for
    every triple (i, j, k)."""
    tol = as_float("tol", tol)
    if not tol > 0.0:
        raise InvalidParameter("tol must be positive")
    check_kind("a", a, PCM)
    e = a.entries
    chained = np.einsum("ij,jk->ijk", e, e)  # chained[i, j, k] = a_ij * a_jk
    target = e[:, None, :]
    return bool(np.all(np.abs(target - chained) <= tol * target))


# ---------------------------------------------------------------------------
# weight vectors and rankings


@dataclass(frozen=True)
class WeightVector:
    """Positive priorities summing to one."""

    w: np.ndarray

    def __post_init__(self):
        w = _converted("w", np.array, self.w, dtype=float)
        if w.ndim != 1 or len(w) < 1:
            raise NonSquare("weights must form a non-empty vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise NonPositive("weights must be finite and strictly positive")
        if abs(w.sum() - 1.0) > SUM_TOL:
            raise InvalidParameter(f"weights sum to {w.sum()!r}, not 1")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return len(self.w)

    @classmethod
    @np.errstate(all="ignore")  # a sum that overflows is rejected
    def from_scores(cls, scores) -> "WeightVector":
        """Normalize positive scores to sum one."""
        s = _converted("scores", np.asarray, scores, dtype=float)
        if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
            raise NonPositive("scores must be finite and strictly positive")
        return cls(s / s.sum())


@dataclass(frozen=True)
class Ranking:
    """Weak order as dense rank labels: 0 = best, ties share a label,
    labels are consecutive integers."""

    rank: np.ndarray

    def __post_init__(self):
        r = _converted("rank", np.asarray, self.rank, "an array of integers")
        if r.ndim != 1 or len(r) < 1:
            raise NonSquare("ranks must form a non-empty vector")
        r = as_ints("rank", r)
        labels = set(r.tolist())
        if labels != set(range(max(labels) + 1)):
            raise InvalidParameter(f"rank labels {sorted(labels)} are not dense from 0")
        r.flags.writeable = False
        object.__setattr__(self, "rank", r)

    @property
    def n(self) -> int:
        return len(self.rank)

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "Ranking":
        """Dense labels from rank keys, smaller first: equal keys share a
        label, and the smallest key is labelled 0."""
        return cls(np.unique(keys, return_inverse=True)[1])

    def groups(self) -> list[list[int]]:
        """Alternative indices grouped by label, best group first."""
        out: list[list[int]] = [[] for _ in range(int(self.rank.max()) + 1)]
        for i, label in enumerate(self.rank):
            out[int(label)].append(i)
        return out


class PairRelation(Enum):
    STRICTLY_ABOVE = "strictly_above"
    TIED = "tied"
    STRICTLY_BELOW = "strictly_below"

    def reverse(self) -> "PairRelation":
        if self is PairRelation.STRICTLY_ABOVE:
            return PairRelation.STRICTLY_BELOW
        if self is PairRelation.STRICTLY_BELOW:
            return PairRelation.STRICTLY_ABOVE
        return PairRelation.TIED


def check_tie_tol(tie_tol: float) -> float:
    """``tie_tol`` as a Python float; reject one that is not a number >= 0."""
    if not as_float("tie_tol", tie_tol) >= 0.0:
        raise InvalidParameter(f"tie_tol must be a non-negative number, got {tie_tol!r}")
    return float(tie_tol)


def tie_group_max(w: np.ndarray, tie_tol: float) -> np.ndarray:
    """The largest weight in each alternative's tie group, for weights
    ``w`` of shape (..., n).

    i and j tie when |w_i - w_j| <= tie_tol * max(w_i, w_j), and the
    relation is closed transitively, so a chain of near-ties forms one
    group.  Distinct groups have distinct maxima.  Nothing is validated.

    Where no two neighbours in sorted order tie, no pair ties at all and
    ``w`` comes back as it is: if a >= b tie, so do a and its sorted lower
    neighbour c, since rounding is monotone and fl(a - c) <= fl(a - b).
    """
    d = np.sort(w, axis=-1)
    if not (d[..., 1:] - d[..., :-1] <= tie_tol * d[..., 1:]).any():
        return w
    n = w.shape[-1]
    wi, wj = w[..., :, None], w[..., None, :]
    tied = (np.abs(wi - wj) <= tie_tol * np.maximum(wi, wj)) | np.eye(n, dtype=bool)
    links = np.count_nonzero(tied)
    while links > tied.size // n:  # some tie off the diagonal
        # each squaring doubles the length of the chains it closes; a float
        # matmul, as numpy's boolean one is far slower
        tied |= np.matmul(tied, tied, dtype=np.float32) > 0.0
        grown = np.count_nonzero(tied)
        if grown == links:
            break
        links = grown
    return np.maximum.reduce(np.where(tied, wj, -np.inf), axis=-1)


def relation(rank: np.ndarray) -> np.ndarray:
    """Pairwise view of rank keys ``rank`` (..., n), smaller first:
    ``R[..., i, j] = sign(rank_j - rank_i)`` is +1, 0 or -1 as i ranks
    strictly above, tied with or strictly below j."""
    return np.sign(rank[..., None, :] - rank[..., :, None])


def ranking_from_weights(w: WeightVector, tie_tol: float = DEFAULT_TIE_TOL) -> Ranking:
    """Dense ranks from weights, larger weight first.

    i and j share a label when |w_i - w_j| <= tie_tol * max(w_i, w_j),
    closed transitively (see ``tie_group_max``) so the result stays a weak
    order even across chains of near-ties; a group's label is the dense
    rank of its largest weight.
    """
    check_kind("w", w, WeightVector)
    return Ranking.from_keys(-tie_group_max(w.w, check_tie_tol(tie_tol)))


def pair_relation(r: Ranking, i: int, j: int) -> PairRelation:
    """How alternative i stands against j in ranking ``r``."""
    i, j = as_int("index", i), as_int("index", j)
    check_kind("r", r, Ranking)
    if i == j or not (0 <= i < r.n and 0 <= j < r.n):
        raise IndexOutOfRange(f"pair ({i}, {j}) invalid for n={r.n}")
    if r.rank[i] < r.rank[j]:
        return PairRelation.STRICTLY_ABOVE
    if r.rank[i] > r.rank[j]:
        return PairRelation.STRICTLY_BELOW
    return PairRelation.TIED


def ranking_json_dict(r: Ranking) -> dict:
    """JSON fragment: {"rank": [...], "groups": [[...], ...]} (0-based)."""
    check_kind("r", r, Ranking)
    return {"rank": [int(x) for x in r.rank], "groups": r.groups()}


# ---------------------------------------------------------------------------
# permutations and rational exponents


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0, ..., n-1}; ``map[i]`` is the image of i."""

    map: np.ndarray

    def __post_init__(self):
        m = _converted("permutation", np.asarray, self.map, "an array of integers")
        if m.ndim != 1 or len(m) < 1:
            raise NonSquare("permutation must be a non-empty vector")
        m = as_ints("permutation", m)
        if sorted(int(x) for x in m) != list(range(len(m))):
            raise InvalidParameter(f"{m.tolist()} is not a permutation of 0..{len(m) - 1}")
        m.flags.writeable = False
        object.__setattr__(self, "map", m)

    @property
    def n(self) -> int:
        return len(self.map)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        n = as_int("n", n)
        return cls(_sized(np.arange, n, n))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        i, j, n = as_int("index", i), as_int("index", j), as_int("n", n)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"transposition ({i}, {j}) invalid for n={n}")
        m = _sized(np.arange, n, n)
        m[i], m[j] = m[j], m[i]
        return cls(m)

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.map))


@dataclass(frozen=True)
class RationalExponent:
    """Positive rational p/q, reduced to lowest terms on construction."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        # a number below 1 breaks the range rule; anything else must be an integer
        if (isinstance(p, numbers.Real) and p < 1) or (isinstance(q, numbers.Real) and q < 1):
            raise InvalidParameter(f"exponent {p}/{q} must have p, q >= 1")
        p, q = as_int("exponent p", p), as_int("exponent q", q)
        g = gcd(p, q)
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)
        try:
            self.value  # p / q must be a float
        except OverflowError:
            raise InvalidParameter("exponent is too large for a float") from None

    @classmethod
    def parse(cls, text: str) -> "RationalExponent":
        """Accepts "p/q" or a bare positive integer."""
        try:
            num, _, den = text.partition("/")
            p = int(num.strip())
            q = int(den.strip()) if den else 1
        except (AttributeError, TypeError, ValueError):  # a non-string has no str.partition
            raise InvalidParameter(f"bad exponent {_shown(text)}") from None
        return cls(p, q)

    @property
    def value(self) -> float:
        return self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"
