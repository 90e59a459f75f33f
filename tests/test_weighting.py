import itertools
import math

import numpy as np
import pytest

from pcmrank import (
    PCM,
    EmOptions,
    InvalidParameter,
    DimensionMismatch,
    MethodId,
    NoConvergence,
    NonPositive,
    NoWeightForm,
    PairRelation,
    WeightVector,
    em_weights,
    is_consistent,
    method_rank,
    method_scores,
    method_weights,
    pair_relation,
    pcm_parse,
    rgm_objective,
    rgm_weights,
    weights_json_dict,
)
from pcmrank.core import reciprocal_fill, relation
from pcmrank.registry import ARITH_AI_A1, FAVPROD_AI_A1, IIC4, KENDALL6
from pcmrank.transforms import aggregate_entries
from pcmrank.weighting import (
    _PADDED_N, _power_iteration, closed_form_scores, em_weight_stack, rank_keys,
)

import oracle
from harness import LOG9, random_pcm


# a score or a weight sum beyond the float range
OVER = PCM.from_upper([[1, 1e300, 1e300], [1, 1, 1], [1, 1, 1]])
UNDER = PCM.from_upper([[1, 1e-308, 1e-308], [1, 1, 1], [1, 1, 1]])


def consistent_pcm(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum()
    return PCM.from_upper(w[:, None] / w[None, :]), w


class TestRgm:
    def test_ones_uniform(self):
        for n in (2, 4, 6):
            w = rgm_weights(PCM.ones(n))
            assert np.max(np.abs(w.w - 1.0 / n)) <= 1e-15

    def test_2x2_hand_case(self):
        # row geometric means 2 and 1/2, so weights 0.8 and 0.2
        w = rgm_weights(pcm_parse("1,4\n1/4,1"))
        assert np.max(np.abs(w.w - [0.8, 0.2])) <= 1e-12

    def test_aggregated_counterexample_closed_form(self):
        b = pcm_parse("1,1,4\n1,1,3\n1/4,1/3,1")
        expected = np.array([4.0, 3.0, 1.0 / 12.0]) ** (1.0 / 3.0)
        expected /= expected.sum()
        assert np.max(np.abs(rgm_weights(b).w - expected)) <= 1e-12

    def test_closed_form_matches_numeric_minimizer(self):
        # second route: minimize the objective directly (scipy) and compare
        from scipy.optimize import minimize

        b = pcm_parse("1,1,4\n1,1,3\n1/4,1/3,1")

        def objective(theta):
            scores = np.exp(np.append(theta, 0.0))
            return rgm_objective(b, WeightVector.from_scores(scores))

        res = minimize(objective, np.zeros(2), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 5000})
        numeric = np.exp(np.append(res.x, 0.0))
        numeric /= numeric.sum()
        assert np.max(np.abs(rgm_weights(b).w - numeric)) <= 1e-6


class TestRgmObjective:
    def test_zero_on_consistent(self):
        rng = np.random.default_rng(51)
        a, _ = consistent_pcm(rng, 5)
        assert rgm_objective(a, rgm_weights(a)) <= 1e-18

    def test_zero_on_ones_uniform(self):
        w = WeightVector(np.full(4, 0.25))
        assert rgm_objective(PCM.ones(4), w) == 0.0

    def test_closed_form_beats_perturbations(self):
        rng = np.random.default_rng(52)
        b = pcm_parse("1,1,4\n1,1,3\n1/4,1/3,1")
        w = rgm_weights(b)
        at_optimum = rgm_objective(b, w)
        logs = np.log(w.w)
        for _ in range(1000):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            moved = np.exp(logs + 1e-3 * direction)
            assert rgm_objective(b, WeightVector.from_scores(moved)) > at_optimum

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^matrix has 3 alternatives, weights 2$"):
            rgm_objective(PCM.ones(3), WeightVector.from_scores([1.0, 1.0]))

    def test_local_minimality_sweep(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            a = random_pcm(rng, n)
            w = rgm_weights(a)
            at_optimum = rgm_objective(a, w)
            logs = np.log(w.w)
            for _ in range(100):
                direction = rng.normal(size=n)
                direction /= np.linalg.norm(direction)
                moved = np.exp(logs + 1e-3 * direction)
                assert rgm_objective(a, WeightVector.from_scores(moved)) > at_optimum


class TestEm:
    def test_ones(self):
        w, lam = em_weights(PCM.ones(5))
        assert np.max(np.abs(w.w - 0.2)) <= 1e-12
        assert abs(lam - 5.0) <= 1e-12

    def test_consistent_3x3(self):
        a = pcm_parse("1,2,4\n1/2,1,2\n1/4,1/2,1")
        w, lam = em_weights(a)
        assert np.max(np.abs(w.w - [4 / 7, 2 / 7, 1 / 7])) <= 1e-9
        assert abs(lam - 3.0) <= 1e-9

    def test_published_6x6_weights(self):
        w, _ = em_weights(KENDALL6)
        published = [0.2286, 0.1430, 0.2102, 0.1321, 0.1430, 0.1430]
        assert np.max(np.abs(w.w - published)) <= 5e-5

    def test_no_convergence_raises(self):
        with pytest.raises(NoConvergence):
            em_weights(KENDALL6, EmOptions(max_iterations=1))

    def test_start_insensitive(self):
        """The Perron vector is unique: the power iteration finds it from
        any positive start."""
        rng = np.random.default_rng(54)
        opts = EmOptions()
        for _ in range(100):
            a = random_pcm(rng, int(rng.integers(2, 7)))
            w0, _ = em_weights(a, opts)
            for _ in range(5):
                start = np.exp(rng.uniform(-2, 2, a.n))
                w1 = _power_iteration(
                    a.entries, start / start.sum(), opts.max_iterations, opts.convergence_tol
                )
                assert np.max(np.abs(w1 - w0.w)) <= 10 * opts.convergence_tol

    def test_lambda_at_least_n(self):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            _, lam = em_weights(random_pcm(rng, n))
            assert lam >= n - 1e-9

    def test_options_validation(self):
        with pytest.raises(ValueError):
            EmOptions(max_iterations=0)
        with pytest.raises(ValueError):
            EmOptions(convergence_tol=0.0)

    def test_a_true_budget_is_one_iteration(self):
        # bool is an integer; as a budget it once sliced the iteration's
        # history with a boolean index
        opts = EmOptions(max_iterations=True)
        assert opts == EmOptions(max_iterations=1)
        assert type(opts.max_iterations) is int
        with pytest.raises(NoConvergence, match=" in 1 iterations"):
            em_weights(KENDALL6, opts)

    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": 2.5}, {"max_iterations": 10.0}, {"max_iterations": "10"},
        {"convergence_tol": "1e-9"}, {"convergence_tol": None},
    ])
    def test_options_reject_values_that_are_not_numbers(self, kwargs):
        with pytest.raises(InvalidParameter, match="must be an? (integer|real number)"):
            EmOptions(**kwargs)

    def test_options_take_numpy_numbers_as_python_ones(self):
        opts = EmOptions(max_iterations=np.int32(500), convergence_tol=np.float64(1e-10))
        assert (type(opts.max_iterations), type(opts.convergence_tol)) == (int, float)
        twin_opts = EmOptions(500, 1e-10)
        assert opts == twin_opts
        (w, lam), (twin, twin_lam) = em_weights(KENDALL6, opts), em_weights(KENDALL6, twin_opts)
        assert np.array_equal(w.w, twin.w) and lam == twin_lam


class TestAgreementProperties:
    def test_consistent_case_recovers_generator(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a, w = consistent_pcm(rng, n)
            assert is_consistent(a, 1e-9)
            assert np.max(np.abs(rgm_weights(a).w - w)) <= 1e-9
            ew, lam = em_weights(a)
            assert np.max(np.abs(ew.w - w)) <= 1e-9
            assert abs(lam - n) <= 1e-9

    def test_em_equals_rgm_rank_for_n3(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            a = random_pcm(rng, 3)
            assert np.array_equal(
                method_rank(MethodId.EM, a).rank, method_rank(MethodId.RGM, a).rank
            )


class TestScoreMethods:
    def test_arith_scores(self):
        scores = method_scores(MethodId.ROW_ARITHMETIC_MEAN, ARITH_AI_A1)
        assert scores.tolist() == [9.0, 10.25, 1.0 + 0.25 + 1 / 9]

    def test_favprod_scores(self):
        scores = method_scores(MethodId.FAVOURABLE_PRODUCT, FAVPROD_AI_A1)
        assert scores.tolist() == [2.0, 1.0, 9.0]

    def test_col1_on_ones_uniform(self):
        w = method_weights(MethodId.FIRST_COLUMN, PCM.ones(4))
        assert np.allclose(w.w, 0.25)

    def test_no_weight_form(self):
        with pytest.raises(NoWeightForm):
            method_weights(MethodId.FLAT, PCM.ones(3))
        with pytest.raises(NoWeightForm):
            method_scores(MethodId.INDEX_ORDER, PCM.ones(3))

    def test_favprod_scores_that_overflow_come_back_without_a_warning(self):
        # a RuntimeWarning fails the test
        assert method_scores(MethodId.FAVOURABLE_PRODUCT, OVER).tolist() == [math.inf, 1.0, 1.0]

    @pytest.mark.parametrize("method, a, text", [
        (MethodId.FAVOURABLE_PRODUCT, OVER, "scores must be finite and strictly positive"),
        (MethodId.FIRST_COLUMN, UNDER, "weights must be finite and strictly positive"),
        (MethodId.ROW_ARITHMETIC_MEAN, UNDER, "weights must be finite and strictly positive"),
    ], ids=["favprod-over", "col1-under", "arith-under"])
    @pytest.mark.parametrize("run", [method_rank, method_weights], ids=["rank", "weights"])
    def test_scores_beyond_the_float_range_raise_without_a_warning(self, run, method, a, text):
        # a RuntimeWarning fails the test
        with pytest.raises(NonPositive) as exc:
            run(method, a)
        assert str(exc.value) == text

    def test_all_weight_vectors_valid(self):
        rng = np.random.default_rng(58)
        for method in (MethodId.RGM, MethodId.EM, MethodId.ROW_ARITHMETIC_MEAN,
                       MethodId.FIRST_COLUMN, MethodId.FAVOURABLE_PRODUCT):
            for _ in range(20):
                a = random_pcm(rng, int(rng.integers(2, 7)))
                w = method_weights(method, a)
                assert abs(w.w.sum() - 1.0) <= 1e-12 and np.all(w.w > 0)


class TestMethodRank:
    def test_flat_ties_everything(self):
        rng = np.random.default_rng(59)
        a = random_pcm(rng, 5)
        assert method_rank(MethodId.FLAT, a).rank.tolist() == [0] * 5

    def test_index_order_ignores_matrix(self):
        rng = np.random.default_rng(60)
        a = random_pcm(rng, 4)
        assert method_rank(MethodId.INDEX_ORDER, a).rank.tolist() == [0, 1, 2, 3]

    def test_em_pair_flips_on_remote_rewrite(self):
        before = method_rank(MethodId.EM, IIC4)
        after = method_rank(MethodId.EM, IIC4.with_entry(2, 3, 4.0))
        assert pair_relation(before, 0, 1) is PairRelation.STRICTLY_ABOVE
        assert pair_relation(after, 0, 1) is PairRelation.STRICTLY_BELOW

    def test_a_tie_tolerance_that_is_not_a_number_is_invalid(self):
        with pytest.raises(InvalidParameter, match="tie_tol must be a real number"):
            method_rank(MethodId.RGM, KENDALL6, tie_tol="0.1")


def test_weights_json_shape():
    w, lam = em_weights(PCM.ones(3))
    payload = weights_json_dict(MethodId.EM, w, lam)
    assert list(payload) == ["method", "n", "weights", "lambda_max"]
    assert payload["method"] == "em" and payload["n"] == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 16, 64])
def test_em_iterations_carry_the_bits_of_the_stepwise_loops(n):
    """The power iteration tests its convergence once per block of steps,
    and a single matrix's blocks grow; its iterates, its stopping step and
    so its weights, or NaN where it does not converge, must be those of the
    loops that test every step, for matrices in C order and transposed,
    and entries up to e**720.  Entries raised to the fifth power, as RSI's
    image at kappa = 5, mix slowly: for 3 <= n <= 6 some of those matrices
    first converge after step 184, the end of the fifth single-matrix block,
    and some not within 10 000 steps.  Their budgets end on and beside
    each block end."""
    rng = np.random.default_rng(n)
    spans = ((0.05, (1, 2, 7, 8, 9, 10_000)), (2.2, (1, 8, 17, 10_000)),
             (40.0, (3, 16, 300)), (720.0, (5, 64)))
    block_ends = [end + d for end in (8, 24, 56, 120, 184) for d in (-1, 0, 1)]
    with np.errstate(all="ignore"):
        stacks = [(reciprocal_fill(np.exp(rng.uniform(-span, span, (6, n, n)))), budgets)
                  for span, budgets in spans]
        slow = reciprocal_fill(np.exp(rng.uniform(-LOG9, LOG9, (12, n, n)))) ** 5
        stacks.append((slow, (*block_ends, 10_000)))
        for k, (stack, budgets) in enumerate(stacks):
            for view, budget in itertools.product((stack, stack.transpose(0, 2, 1)), budgets):
                opts = EmOptions(max_iterations=budget)
                got, want = em_weight_stack(view, opts), oracle.em_weight_stack(view, opts)
                assert np.array_equal(got, want, equal_nan=True), (k, budget)
                for m in view:
                    got, want = (
                        run(m, np.full(n, 1.0 / n), budget, opts.convergence_tol)
                        for run in (_power_iteration, oracle.em_power_iteration)
                    )
                    assert (got is None) == (want is None), (k, budget)
                    assert got is None or np.array_equal(got, want), (k, budget)
    if 3 <= n <= 6:
        unconverged = [np.isnan(oracle.em_weight_stack(slow, EmOptions(max_iterations=budget)))
                       .any(axis=1) for budget in (184, 10_000)]
        assert unconverged[1].any()
        assert (unconverged[0] & ~unconverged[1]).any()


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 9, 16, 31, 64])
def test_rgm_scores_and_aggregates_carry_the_bits_of_numpy_mean(n):
    # both divide a sum of logs by its count, as np.mean does; from n = 8 on
    # numpy sums each row pairwise, beyond the sizes the golden inputs hold
    rng = np.random.default_rng(n)
    for shape in ((n, n), (5, n, n), (3, 4, n, n)):
        e = np.exp(rng.uniform(-20.0, 20.0, shape))
        want = np.exp(np.mean(np.log(e), axis=-1))
        assert np.array_equal(closed_form_scores(MethodId.RGM, e), want)
    for k in (2, 3, 4, 9):
        e = np.exp(rng.uniform(-20.0, 20.0, (6, k, n, n)))
        want = reciprocal_fill(np.exp(np.mean(np.log(e), axis=-3)))
        assert np.array_equal(aggregate_entries(e), want)
        assert np.array_equal(aggregate_entries(e[0]), want[0])


def bits(a) -> bytes:
    """The bits of ``a`` as floats, with one NaN for every NaN: without
    AVX-512, numpy's maximum reduction in ``tie_group_max`` gives a NaN key
    the sign bit its row length selects, and only whether a key is NaN is
    ever read (``rank_error``)."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


@pytest.mark.parametrize("size", range(1, _PADDED_N + 1))
def test_row_sums_of_at_most_7_values_ignore_trailing_zeros(size):
    # the premise of padded ranking: numpy adds a row of fewer than 8 values
    # in sequence, so zeros after its last value leave the sum's bits as
    # they are; from 8 values on it sums in pairwise blocks, and padding
    # rows of 4 to 7 values to 8 changes many sums
    rng = np.random.default_rng(size)
    for n in range(1, size + 1):
        for shape in ((4000, n), (500, 3, n), (100, 4, 5, n)):
            x = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape[:-1] + (1,)))
            padded = np.zeros(shape[:-1] + (size,))
            padded[..., :n] = x
            for sums in (lambda a: np.add.reduce(a, axis=-1), lambda a: a.sum(axis=-1, keepdims=True)):
                assert bits(sums(padded)) == bits(sums(x)), (n, shape)


def padded_cases(rng, n):
    """Filled matrices of n alternatives: random entries whose logs span up
    to +-710, so that some overflow to inf and some underflow to 0;
    consistent matrices whose weights form chains of near-ties at the
    tolerances of the test; and matrices with one entry of 0, inf or NaN."""
    spans = np.repeat([LOG9, 40.0, 360.0, 710.0], 40)
    drawn = np.exp(rng.uniform(-1.0, 1.0, (len(spans), n, n)) * spans[:, None, None])
    steps = rng.choice([0.0, 1e-12, 1e-9, 1.5e-9, 0.2, 0.3, 0.45, 1.0, 3.0], (160, n))
    v = np.cumprod(1.0 + steps, axis=-1)[:, rng.permutation(n)]
    tied = v[:, :, None] / v[:, None, :]
    bad = np.exp(rng.uniform(-LOG9, LOG9, (30, n, n)))
    bad[np.arange(30), 0, rng.integers(1, n, 30)] = np.resize([0.0, np.inf, np.nan], 30)
    return reciprocal_fill(np.concatenate([drawn, tied, bad]))


@pytest.mark.parametrize("method", [m for m in MethodId if m is not MethodId.EM],
                         ids=lambda m: m.value)
def test_padded_matrices_rank_with_the_bits_of_their_own_size(method):
    # every size up to 7 in one stack padded with ones to each larger size,
    # as a search stacks them: the keys, relations and ranked mask of each
    # matrix's real alternatives equal those of its own size's stack
    rng = np.random.default_rng(7)
    with np.errstate(all="ignore"):  # entries beyond the float range warn
        cases = {n: padded_cases(rng, n) for n in range(2, _PADDED_N + 1)}
    for tie_tol in (0.0, 1e-9, 0.3, 2.0, math.inf):
        with np.errstate(all="ignore"):  # and so do their scores, on both sides
            alone = {n: rank_keys(method, e, tie_tol) for n, e in cases.items()}
            for size in range(2, _PADDED_N + 1):
                sizes = [n for n in cases if n <= size]
                stack = np.ones((sum(len(cases[n]) for n in sizes), size, size))
                ns = np.repeat(sizes, [len(cases[n]) for n in sizes])
                for n in sizes:
                    stack[ns == n, :n, :n] = cases[n]
                keys, ok = rank_keys(method, stack, tie_tol, n=ns)
                rel = relation(keys)
                for n in sizes:
                    want_keys, want_ok = alone[n]
                    where = method, tie_tol, n, size
                    assert bits(keys[ns == n, :n]) == bits(want_keys), where
                    assert bits(rel[ns == n, :n, :n]) == bits(relation(want_keys)), where
                    assert np.array_equal(ok[ns == n], want_ok), where
                    assert want_ok.any() and not want_ok.all(), where
