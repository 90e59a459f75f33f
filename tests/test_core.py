import math
import random
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from harness import random_pcm
from pcmrank import (
    PCM,
    IndexOutOfRange,
    InvalidParameter,
    MethodId,
    NonPositive,
    NonSquare,
    PairRelation,
    PcmError,
    Permutation,
    Ranking,
    RationalExponent,
    ReciprocityViolation,
    TooSmall,
    WeightVector,
    aggregate,
    em_weights,
    is_consistent,
    method_rank,
    method_scores,
    method_weights,
    opposite,
    pair_relation,
    pcm_parse,
    pcm_to_csv,
    permute,
    power,
    ranking_from_weights,
    ranking_json_dict,
    rgm_objective,
    rgm_weights,
    weights_json_dict,
    witness_json_dict,
)
from pcmrank.axioms import AxiomId, AxiomVerdict, Witness
from pcmrank.core import reciprocal_fill, tie_group_max, triu_indices


class TestParse:
    def test_round_trip_2x2(self):
        a = pcm_parse("1,4\n1/4,1")
        assert a.entries.tolist() == [[1.0, 4.0], [0.25, 1.0]]

    def test_lower_triangle_canonicalized(self):
        a = pcm_parse("1,4\n0.2500001,1", reciprocity_tol=1e-6)
        assert a.entries[1, 0] == 0.25

    def test_reciprocity_violation(self):
        with pytest.raises(ReciprocityViolation):
            pcm_parse("1,4\n0.3,1", reciprocity_tol=1e-6)

    def test_a_reciprocity_tol_that_is_not_a_positive_number_is_invalid(self):
        # None and 'x' raised a bare TypeError from the comparison; NaN and
        # values that are not positive keep their text
        for tol, text in [(None, "a real number, got None"), ("x", "a real number, got 'x'"),
                          (math.nan, "positive"), (-1.0, "positive"), (0, "positive")]:
            with pytest.raises(InvalidParameter) as exc:
                pcm_parse("1,4\n1/4,1", tol)
            assert str(exc.value) == f"reciprocity_tol must be {text}"

    def test_reciprocity_violation_names_the_first_pair_in_row_major_order(self):
        rows = [["1"] * 64 for _ in range(64)]
        rows[40][50] = "2"
        rows[7][3] = "3"  # below the diagonal, but pair (4, 8) comes first
        with pytest.raises(ReciprocityViolation) as exc:
            pcm_parse("\n".join(",".join(row) for row in rows))
        assert str(exc.value) == "a[4][8] * a[8][4] = 3 is off 1 by more than 1e-06"

    def test_rational_literals(self):
        a = pcm_parse("1,1/3\n3,1")
        assert a.entries[0, 1] == 1 / 3
        b = pcm_parse("1,1/9\n9,1")
        assert b.entries[0, 1] == 1 / 9

    def test_whitespace_tolerated(self):
        a = pcm_parse(" 1 , 4 \n 1/4 , 1 \n")
        assert a.entries[0, 1] == 4.0

    def test_non_square(self):
        with pytest.raises(NonSquare):
            pcm_parse("1,4,2\n1/4,1,1")

    def test_unparseable_entry(self):
        with pytest.raises(NonPositive):
            pcm_parse("1,abc\n1,1")

    def test_negative_entry(self):
        with pytest.raises(NonPositive):
            pcm_parse("1,-4\n-0.25,1")

    def test_zero_rational(self):
        with pytest.raises(NonPositive):
            pcm_parse("1,0/3\n1,1")

    def test_too_small(self):
        with pytest.raises(TooSmall):
            pcm_parse("1")
        with pytest.raises(TooSmall):
            pcm_parse("")

    def test_diagonal_forced_to_one(self):
        a = pcm_parse("5,4\n1/4,5")
        assert np.all(np.diagonal(a.entries) == 1.0)

    def test_serialize_reparse_is_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = random_pcm(rng, int(rng.integers(2, 9)))
            again = pcm_parse(pcm_to_csv(a))
            assert np.array_equal(again.entries, a.entries)

    def test_reciprocals_exact_after_parse(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = random_pcm(rng, int(rng.integers(2, 9)))
            n = a.n
            for i in range(n):
                for j in range(i + 1, n):
                    assert a.entries[j, i] == 1.0 / a.entries[i, j]


def _parsed(parse, text: str, reciprocity_tol: float = 1e-6):
    """The entries' bytes, or the error's type and text."""
    try:
        return parse(text, reciprocity_tol).entries.tobytes()
    except PcmError as exc:
        return type(exc), str(exc)


EDGE_FIELDS = [
    "-1/-2", "0/1", "1/0", "+3/4", " 3 / 4 ", "1_0", "1/2/3", "1e3/2", "1/", "/", "",
    "nan", "inf", "-inf", "1e-400", "1e400", "5e-324", "0x10", "-0.0",
    "7" * 400 + "/" + "3" * 399, "1" + "0" * 4999, "1" + "0" * 4999 + "/1",
    "\uff13/\uff14", "\uff11.\uff15", "\u0663", "\u00a02\u00a0", "1\u20282",
    # bad fields with spaces around them: each error names the field stripped
    " -2 ", " x ", " 3/0 ", " 1/x ", " 1" + "0" * 400 + "/1 ",
]


def _reciprocal(field: str) -> str:
    num, slash, den = field.partition("/")
    if slash:
        return f"{den}/{num}"
    try:
        return repr(1.0 / float(field))
    except (ValueError, ZeroDivisionError):
        return field


def _grid_text(fields, sep="\n") -> str:
    return sep.join(",".join(row) for row in fields) + "\n"


def _edge_texts():
    for f in EDGE_FIELDS:
        yield _grid_text([["1", f, "2"], [_reciprocal(f), "1", "3"], ["1/2", "1/3", "1"]])
        yield _grid_text([["1", _reciprocal(f), "2"], [f, "1", "3"], ["1/2", "1/3", "1"]])
        yield _grid_text([[f, "4"], ["1/4", "1"]])
    yield "1,2\n\n   \n1/2,1\n"  # blank and whitespace-only lines
    yield " \t\n1,2\r\n1/2,1\r\n\x0c\n"
    yield "1,2\n1\n"  # a short row
    yield "1,2,3\n1/2,1\n"  # a long row
    yield "1,2,3\n1/2,1\n1/3,1,1,1\n"  # a short and a long row: nine fields in all
    yield "1,4\n0.3,1\n"  # a reciprocity violation
    yield "1,4,abc\n1/4,1\n"  # a bad field before a short row
    yield ""
    yield "1,1\n"


@st.composite
def _csv_texts(draw):
    """CSV text: reciprocal grids of decimals and rationals, which parse,
    or rows of any fields and lengths, which mostly do not."""
    space = st.sampled_from(["", " ", "\t", "\u00a0"])
    integer = st.one_of(st.integers(-3, 10**20), st.just(10**400))
    field = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.floats(min_value=1e-3, max_value=1e3).map(lambda x: f"{x:.17g}"),
        st.builds(lambda l, p, q, r: f"{l}{p}/{q}{r}", space, integer, integer, space),
        st.text(alphabet="0123456789./-+eE_ ", max_size=6),
        st.sampled_from(EDGE_FIELDS),
    )
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        up = [[draw(field) for _ in range(n)] for _ in range(n)]
        rows = [["1" if i == j else up[i][j] if i < j else _reciprocal(up[j][i])
                 for j in range(n)] for i in range(n)]
    else:
        rows = [draw(st.lists(field, min_size=max(n - 1, 0), max_size=n + 1)) for _ in range(n)]
    return _grid_text(rows, draw(st.sampled_from(["\n", "\r\n", "\n\n", "\n \n"])))


class TestParseMatchesFieldByFieldReference:
    """``pcm_parse`` converts the fields in one loop, without the
    reference's per-field helper: it must give the reference's entries bit
    for bit, or its error type and text."""

    @pytest.mark.parametrize("text", list(_edge_texts()))
    def test_edge_cases(self, text):
        assert _parsed(pcm_parse, text) == _parsed(oracle.pcm_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(text=_csv_texts(), tol=st.sampled_from([1e-6, 1e-2, 0.5]))
    def test_any_csv_text(self, text, tol):
        assert _parsed(pcm_parse, text, tol) == _parsed(oracle.pcm_parse, text, tol)

    def test_negative_rationals_are_rejected_though_their_quotient_is_positive(self):
        with pytest.raises(NonPositive, match="must have p, q > 0"):
            pcm_parse("1,-1/-2\n-2/-1,1")

    def test_mixed_64_alternative_file(self):
        text = (Path(__file__).parent / "golden" / "inputs" / "mixed64.csv").read_text()
        assert _parsed(pcm_parse, text) == _parsed(oracle.pcm_parse, text)


#: a few literals, each repeated many times in a grid: one rational in four
#: whitespace variants, good and bad rationals, and decimals, good and bad
REPEATED_GOOD = ["3/4", " 3/4", "3/4\t", "\u00a03/4", "4/3", "1/9", "9/1", "5/7", "2/1", "1/1"]
REPEATED_BAD = ["3/0", "x/2", "-1/-2", "7" * 400 + "/3"]
REPEATED_DECIMALS = ["0.5", "2", " 1.25 ", "0.8", "1e-3", "abc", "-2"]  # the last two bad


@st.composite
def _repeated_field_texts(draw):
    """CSV text of up to 64 alternatives over a small vocabulary, so the
    same rational field recurs: reciprocal grids, which parse unless a bad
    literal was drawn, or grids of any of the fields, now and then with a
    row one field short."""
    pool = REPEATED_GOOD + REPEATED_DECIMALS[:5]
    if draw(st.booleans()):
        pool += REPEATED_BAD + REPEATED_DECIMALS[5:]
    vocabulary = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    vocabulary.append(draw(st.sampled_from([f for f in pool if "/" in f])))
    n = draw(st.integers(3, 64))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # "1/1" on the diagonal
        rows = [["1/1"] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rng.choice(vocabulary)
                rows[j][i] = _reciprocal(rows[i][j])
    else:  # the drawn rational in at least two cells that no short row loses
        rows = [[rng.choice(vocabulary) for _ in range(n)] for _ in range(n)]
        for k in rng.sample(range(n * (n - 1)), 2):
            rows[k // (n - 1)][k % (n - 1)] = vocabulary[-1]
    if rng.random() < 0.15:
        rows[rng.randrange(n)].pop()
    return _grid_text(rows)


class TestRepeatedFieldsMatchReference:
    """``pcm_parse`` converts each distinct rational field once per file: a
    repeated field must give the reference's entries bit for bit, and the
    first bad field in row-major order the reference's error type and text."""

    @settings(max_examples=150, deadline=None)
    @given(text=_repeated_field_texts())
    def test_grids_of_few_distinct_fields(self, text):
        fields = Counter(f for line in text.splitlines() for f in line.split(",") if "/" in f)
        assert max(fields.values()) >= 2
        assert _parsed(pcm_parse, text) == _parsed(oracle.pcm_parse, text)

    def test_a_bad_rational_raises_at_its_first_occurrence(self):
        text = _grid_text([["1", "3/0", "2"], ["3/0", "1", "x/2"], ["1/2", "3/0", "1"]])
        error = (NonPositive, "rational literal '3/0' must have p, q > 0")
        assert _parsed(pcm_parse, text) == error

    def test_saaty_64_alternative_file(self):
        text = (Path(__file__).parent / "golden" / "inputs" / "saaty64.csv").read_text()
        assert _parsed(pcm_parse, text) == _parsed(oracle.pcm_parse, text)


class TestPcmType:
    def test_entries_frozen(self):
        a = pcm_parse("1,4\n1/4,1")
        with pytest.raises(ValueError):
            a.entries[0, 1] = 2.0

    def test_rejects_broken_reciprocity(self):
        with pytest.raises(ReciprocityViolation):
            PCM(np.array([[1.0, 4.0], [0.3, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ReciprocityViolation):
            PCM(np.array([[2.0, 4.0], [0.25, 1.0]]))

    def test_with_entry_sets_both_cells(self):
        a = pcm_parse("1,4\n1/4,1")
        b = a.with_entry(0, 1, 2.0)
        assert b.entries[0, 1] == 2.0 and b.entries[1, 0] == 0.5
        assert a.entries[0, 1] == 4.0  # original untouched

    def test_ones(self):
        assert np.all(PCM.ones(4).entries == 1.0)

    @pytest.mark.parametrize("make, error, text", [
        (lambda: PCM(np.array([1.0, 2.0])), NonSquare, "expected a square matrix, got shape (2,)"),
        (lambda: PCM.ones(1), TooSmall, "need at least two alternatives"),
        (lambda: PCM.ones(3).with_entry(0, 3, 2.0), IndexOutOfRange, "cell (0, 3) invalid for n=3"),
        (lambda: PCM.ones(3).with_entry(1, 1, 2.0), IndexOutOfRange, "cell (1, 1) invalid for n=3"),
        (lambda: PCM.ones(3).with_entry(0.5, 1, 2.0), InvalidParameter,
         "index must be an integer, got 0.5"),
    ])
    def test_construction_errors(self, make, error, text):
        with pytest.raises(error) as exc:
            make()
        assert str(exc.value) == text

    @pytest.mark.parametrize("n", ["3", 2.5, 2.0, None, [3]])
    def test_a_size_that_is_not_an_integer_is_invalid(self, n):
        with pytest.raises(InvalidParameter) as exc:
            PCM.ones(n)
        assert str(exc.value) == f"n must be an integer, got {n!r}"

    def test_triu_indices_cached_and_read_only(self):
        iu, ju = triu_indices(6)
        assert triu_indices(6)[0] is iu
        assert np.array_equal(iu, np.triu_indices(6, k=1)[0])
        assert np.array_equal(ju, np.triu_indices(6, k=1)[1])
        with pytest.raises(ValueError):
            iu[0] = 5

    def test_reciprocal_fill_stacks_match_from_upper(self):
        grids = np.exp(np.random.default_rng(3).uniform(-2.0, 2.0, (4, 5, 5)))
        filled = reciprocal_fill(grids)
        for g, f in zip(grids, filled):
            assert np.array_equal(f, PCM.from_upper(g).entries)

    @pytest.mark.parametrize("grid, error, text", [
        (np.ones((0, 0)), TooSmall, "need at least two alternatives"),
        (np.ones((1, 1)), TooSmall, "need at least two alternatives"),
        ([1.0, 2.0], NonSquare, "expected a square matrix, got shape (2,)"),
        (np.ones((2, 3)), NonSquare, "expected a square matrix, got shape (2, 3)"),
        *(([[1.0, x], [7.0, 1.0]], NonPositive, "entries must be finite and strictly positive")
          for x in (0.0, -0.0, -2.0, 5e-324, np.inf, np.nan)),
    ])
    def test_from_upper_rejects_as_pcm_does_without_a_warning(self, grid, error, text):
        # the filled matrix is validated once; a RuntimeWarning fails the test
        with pytest.raises(error) as exc:
            PCM.from_upper(grid)
        assert str(exc.value) == text


class TestConsistency:
    def test_ones_consistent(self):
        assert is_consistent(PCM.ones(5), 1e-9)

    def test_consistent_3x3(self):
        a = pcm_parse("1,2,4\n1/2,1,2\n1/4,1/2,1")
        assert is_consistent(a, 1e-9)

    def test_aggregated_counterexample_inconsistent(self):
        b = pcm_parse("1,1,4\n1,1,3\n1/4,1/3,1")
        assert not is_consistent(b, 1e-9)  # a_13 = 4 but a_12 * a_23 = 3

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_consistent(PCM.ones(3), 0.0)
        with pytest.raises(InvalidParameter, match="^tol must be positive$"):
            is_consistent(None, -1.0)  # the tolerance is checked first

    @pytest.mark.parametrize("tol", ["x", None, 1j, [1e-9]])
    def test_a_tol_that_is_not_a_real_number_is_invalid(self, tol):
        with pytest.raises(InvalidParameter) as exc:
            is_consistent(PCM.ones(3), tol)
        assert str(exc.value) == f"tol must be a real number, got {tol!r}"

    def test_a_matrix_that_is_not_a_pcm_is_invalid(self):
        with pytest.raises(InvalidParameter, match="^a must be a PCM, got None$"):
            is_consistent(None, 1e-9)

    def test_an_array_is_named_by_its_type(self):
        # its repr ran to 13 lines at n = 64
        with pytest.raises(InvalidParameter, match="^a must be a PCM, got ndarray$"):
            is_consistent(PCM.ones(64).entries, 0.1)


class TestWeightVector:
    def test_from_scores(self):
        w = WeightVector.from_scores([2.0, 1.0, 1.0])
        assert np.allclose(w.w, [0.5, 0.25, 0.25])

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            WeightVector(np.array([0.5, 0.5, 0.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.6, 0.6]))

    def test_an_empty_vector_is_no_weight_vector(self):
        with pytest.raises(NonSquare, match="^weights must form a non-empty vector$"):
            WeightVector([])

    def test_scores_whose_sum_overflows_raise_without_a_warning(self):
        # a RuntimeWarning fails the test
        with pytest.raises(NonPositive, match="^weights must be finite and strictly positive$"):
            WeightVector.from_scores([1e308, 1e308])

    def test_a_bad_sum_is_an_invalid_parameter(self):
        # a bare ValueError, which the subclass still is
        with pytest.raises(InvalidParameter, match="weights sum to .+, not 1") as raised:
            WeightVector([0.5, 0.6])
        assert isinstance(raised.value, ValueError)


class TestRanking:
    def test_uniform_all_tied(self):
        r = ranking_from_weights(WeightVector.from_scores([1.0, 1.0, 1.0]), 1e-9)
        assert r.rank.tolist() == [0, 0, 0]

    def test_strict_order(self):
        r = ranking_from_weights(WeightVector(np.array([0.5, 0.3, 0.2])), 1e-9)
        assert r.rank.tolist() == [0, 1, 2]

    def test_published_6x6_weight_display(self):
        w = WeightVector.from_scores([0.2286, 0.1430, 0.2102, 0.1321, 0.1430, 0.1430])
        r = ranking_from_weights(w, 1e-9)
        assert r.rank.tolist() == [0, 2, 1, 3, 2, 2]

    def test_near_tie_chain_closes_transitively(self):
        # adjacent gaps are inside the tolerance, the outer gap is not;
        # the closure must still produce one group
        base = np.array([1.0, 1.0 + 9e-10, 1.0 + 1.8e-9])
        r = ranking_from_weights(WeightVector.from_scores(base), 1e-9)
        assert r.rank.tolist() == [0, 0, 0]

    def test_tie_tol_zero_separates(self):
        base = np.array([1.0, 1.0 + 1e-13, 2.0])
        r = ranking_from_weights(WeightVector.from_scores(base), 0.0)
        assert r.rank.tolist() == [2, 1, 0]

    def test_a_tie_tolerance_that_is_not_a_number_is_invalid(self):
        w = WeightVector.from_scores([1.0, 2.0, 3.0])
        with pytest.raises(InvalidParameter, match="tie_tol must be a real number"):
            ranking_from_weights(w, "0.1")

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            w = WeightVector.from_scores(np.exp(rng.uniform(-1, 1, n)))
            sigma = rng.permutation(n)
            permuted = np.empty(n)
            permuted[sigma] = w.w
            base = ranking_from_weights(w, 1e-9)
            moved = ranking_from_weights(WeightVector(permuted), 1e-9)
            for i in range(n):
                assert moved.rank[sigma[i]] == base.rank[i]

    def test_labels_must_be_dense(self):
        with pytest.raises(ValueError):
            Ranking(np.array([0, 2]))

    def test_labels_that_are_not_dense_are_an_invalid_parameter(self):
        # a bare ValueError, which the subclass still is
        with pytest.raises(InvalidParameter, match=r"rank labels \[0, 2\] are not dense from 0") as raised:
            Ranking([0, 2])
        assert isinstance(raised.value, ValueError)

    @pytest.mark.parametrize("rank", [[0.5, 1.5], ["0", "1"], [0.0, 1.0]])
    def test_labels_that_are_not_integers_are_invalid(self, rank):
        with pytest.raises(InvalidParameter, match="rank must be an integer"):  # were truncated
            Ranking(rank)

    def test_groups_and_json(self):
        r = Ranking(np.array([0, 2, 1, 3, 2, 2]))
        assert r.groups() == [[0], [2], [1, 4, 5], [3]]
        assert ranking_json_dict(r) == {
            "rank": [0, 2, 1, 3, 2, 2],
            "groups": [[0], [2], [1, 4, 5], [3]],
        }

    def test_dense_labels_are_transitive(self):
        # vacuously true for integer labels; kept as the sanity assertion
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            w = ranking_from_weights(WeightVector.from_scores(np.exp(rng.uniform(-1, 1, n))))
            r = w.rank
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if r[i] < r[j] and r[j] < r[k]:
                            assert r[i] < r[k]


def union_find_group_max(w: np.ndarray, tie_tol: float) -> np.ndarray:
    """The largest weight of each alternative's group in
    ``oracle.ranking_union_find``; NaN weights tie with nothing."""
    out = np.empty(len(w))
    for members in oracle.ranking_union_find(w, tie_tol).groups():
        out[members] = max(w[i] for i in members)
    return out


@st.composite
def _near_tie_weights(draw):
    """A stack of weight rows (rows, n) built on near-ties: each weight is
    a fresh draw, or an earlier weight of its row moved by a multiple of
    the tolerance and nudged by a few ulps; some weights and rows are NaN."""
    tie_tol = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.3, 1.0, 2.5]))
    n, count = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    rows = []
    for _ in range(count):
        if draw(st.integers(0, 9)) == 0:
            rows.append([np.nan] * n)
            continue
        row = []
        for k in range(n):
            if k and draw(st.booleans()):
                base = row[draw(st.integers(0, k - 1))]
                step = draw(st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]))
                value = base * (1.0 + step * max(tie_tol, 1e-9))
                for _ in range(draw(st.integers(-2, 2)) % 5):
                    value = np.nextafter(value, draw(st.sampled_from([0.0, np.inf])))
            elif draw(st.integers(0, 19)) == 0:
                value = np.nan
            else:
                value = draw(st.floats(1e-6, 1.0))
            row.append(value)
        rows.append(row)
    return np.array(rows), tie_tol


class TestTieGroupMax:
    """``tie_group_max`` skips the closure where no sorted neighbours tie;
    with or without that shortcut it must give the union-find groups."""

    @settings(max_examples=400, deadline=None)
    @given(case=_near_tie_weights())
    def test_matches_union_find(self, case):
        w, tie_tol = case
        with np.errstate(invalid="ignore"):
            gmax = tie_group_max(w, tie_tol)
        for row, got in zip(w, gmax):
            assert np.array_equal(got, union_find_group_max(row, tie_tol), equal_nan=True)

    def test_no_tie_returns_the_weights(self):
        w = np.array([[0.5, 0.3, 0.2], [np.nan, np.nan, np.nan]])
        assert tie_group_max(w, 1e-9) is w

    def test_one_tie_closes_the_whole_stack(self):
        w = np.array([[0.5, 0.3, 0.2], [0.4, 0.4 * (1 + 5e-10), 0.2]])
        assert tie_group_max(w, 1e-9).tolist() == [[0.5, 0.3, 0.2], [0.4 * (1 + 5e-10)] * 2 + [0.2]]


_FORMAT_EDGES = [5e-324, 2.2250738585072014e-308, 6e-309, 1e308, 1.7976931348623157e308,
                 0.1, 1.2345678901234567, 1e16, 123456.5, 1e-5, 0.0001, -0.0, math.inf, math.nan]


class TestFormatting:
    """One %-format per row must give the bytes of formatting each value."""

    @settings(max_examples=500, deadline=None)
    @given(v=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_percent_format_equals_format_spec(self, v):
        for spec in (".17g", ".6g"):
            assert ("%" + spec) % v == format(v, spec)

    @pytest.mark.parametrize("v", _FORMAT_EDGES)
    def test_edge_values(self, v):
        assert ("%.17g" % v, "%.6g" % v) == (f"{v:.17g}", f"{v:.6g}")

    @settings(max_examples=200, deadline=None)
    @given(upper=st.lists(st.floats(5.6e-309, 1.7976931348623157e308), min_size=1, max_size=15))
    def test_csv_bytes(self, upper):
        n = next(k for k in range(2, 8) if k * (k - 1) // 2 >= len(upper))
        grid = np.ones((n, n))
        iu, ju = triu_indices(n)
        grid[iu[:len(upper)], ju[:len(upper)]] = upper
        with np.errstate(over="ignore"):  # a subnormal's reciprocal pair is checked both ways
            a = PCM.from_upper(grid)
        expected = "\n".join(",".join(f"{v:.17g}" for v in row) for row in a.entries) + "\n"
        assert pcm_to_csv(a) == expected


class TestPairRelation:
    def test_tied(self):
        r = Ranking(np.array([0, 0, 1]))
        assert pair_relation(r, 0, 1) is PairRelation.TIED

    def test_published_pair(self):
        r = Ranking(np.array([0, 2, 1, 3, 2, 2]))
        assert pair_relation(r, 1, 3) is PairRelation.STRICTLY_ABOVE

    def test_strictly_below(self):
        r = Ranking(np.array([0, 1, 2]))
        assert pair_relation(r, 2, 0) is PairRelation.STRICTLY_BELOW

    def test_antisymmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            labels = rng.integers(0, n, n)
            dense = np.unique(labels, return_inverse=True)[1]
            r = Ranking(dense)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    assert pair_relation(r, i, j) is pair_relation(r, j, i).reverse()

    def test_errors(self):
        r = Ranking(np.array([0, 1]))
        with pytest.raises(IndexOutOfRange):
            pair_relation(r, 0, 0)
        with pytest.raises(IndexOutOfRange):
            pair_relation(r, 0, 5)

    def test_an_index_that_is_not_an_integer_is_invalid(self):
        with pytest.raises(InvalidParameter, match=r"^index must be an integer, got 1\.5$"):
            pair_relation(Ranking(np.array([0, 1])), 0, 1.5)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))

    @pytest.mark.parametrize("m", [[0.5, 1.2, 2.7], ["0", "1"], np.array([1.0, 0.0])])
    def test_elements_that_are_not_integers_are_invalid(self, m):
        with pytest.raises(InvalidParameter, match="permutation must be an integer"):  # identities
            Permutation(m)

    @pytest.mark.parametrize("m", [[], [[0, 1], [1, 0]], [[0.5]], 3])
    def test_a_shape_that_is_no_vector_raises_before_the_elements_are_read(self, m):
        with pytest.raises(NonSquare, match="^permutation must be a non-empty vector$"):
            Permutation(m)
        with pytest.raises(NonSquare, match="^ranks must form a non-empty vector$"):
            Ranking(m)

    def test_inverse(self):
        sigma = Permutation(np.array([2, 0, 1]))
        assert sigma.inverse().map.tolist() == [1, 2, 0]

    def test_transposition(self):
        assert Permutation.transposition(4, 0, 2).map.tolist() == [2, 1, 0, 3]

    @pytest.mark.parametrize("i, j", [(0, -1), (0, 5), (3, 0)])
    def test_a_transposition_outside_the_labels_is_out_of_range(self, i, j):
        # -1 would otherwise count from the end
        with pytest.raises(IndexOutOfRange, match=rf"^transposition \({i}, {j}\) invalid for n=3$"):
            Permutation.transposition(3, i, j)

    def test_a_transposition_index_that_is_not_an_integer_is_invalid(self):
        with pytest.raises(InvalidParameter, match=r"^index must be an integer, got 1\.5$"):
            Permutation.transposition(3, 0, 1.5)
        with pytest.raises(InvalidParameter, match=r"^index must be an integer, got 1\.5$"):
            Permutation.transposition(2.0, 0, 1.5)  # the indices are converted first

    def test_identity(self):
        assert Permutation.identity(3).map.tolist() == [0, 1, 2]
        with pytest.raises(NonSquare, match="^permutation must be a non-empty vector$"):
            Permutation.identity(0)

    @pytest.mark.parametrize("n", ["3", 2.5, 2.0, None])
    def test_a_size_that_is_not_an_integer_is_invalid(self, n):
        # the error names the size, not an element of a map built from it
        for make in (lambda: Permutation.identity(n), lambda: Permutation.transposition(n, 0, 1)):
            with pytest.raises(InvalidParameter) as exc:
                make()
            assert str(exc.value) == f"n must be an integer, got {n!r}"


class TestRationalExponent:
    def test_reduces_to_lowest_terms(self):
        for k in (RationalExponent(4, 6), RationalExponent(np.int64(4), np.uint8(6))):
            assert (k.p, k.q) == (2, 3) and (type(k.p), type(k.q)) == (int, int)

    def test_parse_forms(self):
        assert str(RationalExponent.parse("2/4")) == "1/2"
        assert str(RationalExponent.parse("3")) == "3/1"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RationalExponent(0, 2)
        with pytest.raises(InvalidParameter, match=r"^exponent 0.5/1 must have p, q >= 1$"):
            RationalExponent(0.5, 1)
        with pytest.raises(ValueError):
            RationalExponent.parse("-1/2")

    @pytest.mark.parametrize("text", [3, None, b"2/1", 2.0])
    def test_parse_rejects_what_is_not_a_string(self, text):
        # 3 raised a bare AttributeError from str.partition
        with pytest.raises(InvalidParameter) as exc:
            RationalExponent.parse(text)
        assert str(exc.value) == f"bad exponent {text!r}"

    def test_value(self):
        assert RationalExponent(1, 2).value == 0.5

    @pytest.mark.parametrize("p, q", [(1.5, 1), ("2", 1), (2, 1.0), (2, None), (math.nan, 1)])
    def test_p_and_q_that_are_not_integers_are_invalid(self, p, q):
        # a float or a string raised a bare TypeError, and 2/1.0 became 2.0/1.0
        with pytest.raises(InvalidParameter, match="must be an integer"):
            RationalExponent(p, q)

    def test_rejects_a_value_beyond_float_range(self):
        with pytest.raises(InvalidParameter):
            RationalExponent(10**400, 1)
        assert RationalExponent(10**400, 10**400 - 1).value == 1.0


class TestWrongKindsAreInvalid:
    @pytest.mark.parametrize("call, text", [
        (lambda: pcm_parse(None), "text must be a str, got None"),
        (lambda: pcm_parse(b"1,2\n0.5,1\n"), "text must be a str, got b'1,2\\n0.5,1\\n'"),
        (lambda: pcm_to_csv(None), "a must be a PCM, got None"),
        (lambda: aggregate(PCM.ones(3)), "matrices must be a Sequence, got PCM"),
        (lambda: aggregate(None), "matrices must be a Sequence, got None"),
        (lambda: aggregate([PCM.ones(3), None]), "matrix must be a PCM, got None"),
        (lambda: opposite(PCM.ones(3).entries), "a must be a PCM, got ndarray"),
        (lambda: permute(PCM.ones(3), None), "sigma must be a Permutation, got None"),
        (lambda: power(PCM.ones(3), 2), "kappa must be a RationalExponent, got 2"),
        (lambda: ranking_from_weights([0.5, 0.5]), "w must be a WeightVector, got [0.5, 0.5]"),
        (lambda: witness_json_dict(None), "witness must be a Witness, got None"),
        (lambda: em_weights(None), "a must be a PCM, got None"),
        (lambda: em_weights(PCM.ones(3), None), "opts must be an EmOptions, got None"),
        (lambda: method_weights("rgm", PCM.ones(3)), "m must be a MethodId, got 'rgm'"),
        (lambda: method_scores(MethodId.RGM, None), "a must be a PCM, got None"),
        (lambda: method_rank(MethodId.RGM, None), "a must be a PCM, got None"),
        (lambda: rgm_weights(None), "a must be a PCM, got None"),
        (lambda: rgm_objective(PCM.ones(3), None), "w must be a WeightVector, got None"),
        (lambda: weights_json_dict(MethodId.RGM, None), "w must be a WeightVector, got None"),
        (lambda: ranking_json_dict(None), "r must be a Ranking, got None"),
        (lambda: pair_relation(None, 0, 1), "r must be a Ranking, got None"),
        # this one returned a ranking without reading its EM budget
        (lambda: method_rank(MethodId.RGM, PCM.ones(3), 1e-9, None),
         "em must be an EmOptions, got None"),
        # the tie tolerance and the indices are still checked first
        (lambda: method_rank(MethodId.RGM, None, -1.0),
         "tie_tol must be a non-negative number, got -1.0"),
        (lambda: pair_relation(None, "x", 1), "index must be an integer, got 'x'"),
        # numpy's OverflowError and "Maximum allowed size exceeded" came out bare
        (lambda: Permutation([0, 1, 2**70]),
         "permutation 1180591620717411303424 does not fit in a 64-bit integer"),
        (lambda: Ranking([0, 2**70]), "rank 1180591620717411303424 does not fit in a 64-bit integer"),
        (lambda: Permutation.identity(2**70), "n = 1180591620717411303424 is too large for an array"),
        (lambda: Permutation.transposition(2**70, 0, 1),
         "n = 1180591620717411303424 is too large for an array"),
        (lambda: PCM.ones(2**70), "n = 1180591620717411303424 is too large for an array"),
        # a uint64 past 2**63 - 1 wrapped to a negative label
        (lambda: Permutation(np.array([2**64 - 1, 0], dtype=np.uint64)),
         "permutation 18446744073709551615 does not fit in a 64-bit integer"),
        (lambda: Ranking(np.array([0, 2**64 - 1], dtype=np.uint64)),
         "rank 18446744073709551615 does not fit in a 64-bit integer"),
        # numpy's ValueError, TypeError or OverflowError came out bare
        *[(lambda make=make, value=value: make(value),
           f"{name} must be an array of floats, got {value!r}")
          for make, name in ((PCM, "entries"), (PCM.from_upper, "grid"), (WeightVector, "w"),
                             (WeightVector.from_scores, "scores"))
          for value in ("x", b"x", [[1, 2], [1]], [2**1024])],
        # a complex array kept its real part, with only a ComplexWarning
        (lambda: PCM(np.array([[1, 2 + 1j], [0.5, 1]])),
         "entries must be an array of floats, got ndarray"),
        (lambda: PCM.from_upper(np.array([[1, 2 + 1j], [0.5, 1]])),
         "grid must be an array of floats, got ndarray"),
        (lambda: WeightVector(np.array([0.5 + 0j, 0.5])),
         "w must be an array of floats, got array([0.5+0.j, 0.5+0.j])"),
        (lambda: WeightVector.from_scores(np.array([1, 2 + 1j])),
         "scores must be an array of floats, got array([1.+0.j, 2.+1.j])"),
        (lambda: PCM({}), "entries must be an array of floats, got {}"),
        (lambda: Permutation([[1, 0], [0]]),
         "permutation must be an array of integers, got [[1, 0], [0]]"),
        (lambda: Ranking([[0], 1]), "rank must be an array of integers, got [[0], 1]"),
        (lambda: AxiomVerdict(holds=np.array([True, False])),
         "holds must be a truth value, got array([ True, False])"),
        # numpy's TypeError ("ufunc 'isfinite' not supported") or ValueError
        # (an array's ambiguous truth value) came out bare
        (lambda: PCM.ones(3).with_entry(0, 1, "x"), "value must be a real number, got 'x'"),
        (lambda: PCM.ones(3).with_entry(0, 1, None), "value must be a real number, got None"),
        (lambda: PCM.ones(3).with_entry(0, 1, np.array([2.0, 3.0])),
         "value must be a real number, got array([2., 3.])"),
        # witness_json_dict raised a bare TypeError or AttributeError on these
        (lambda: witness_json_dict(Witness(AxiomId.INV, MethodId.RGM, (PCM.ones(3),), None, "")),
         "auxiliary must be a Mapping, got None"),
        (lambda: witness_json_dict(Witness("INV", MethodId.RGM, (PCM.ones(3),), {}, "")),
         "axiom must be an AxiomId, got 'INV'"),
        (lambda: witness_json_dict(Witness(AxiomId.INV, MethodId.RGM, ("x",), {}, "")),
         "matrix must be a PCM, got 'x'"),
    ])
    def test_entry_points_raise_one_line(self, call, text):
        # each raised a bare exception from numpy or from its first use, and none warns
        with warnings.catch_warnings(), pytest.raises(InvalidParameter) as exc:
            warnings.simplefilter("error")
            call()
        assert str(exc.value) == text
