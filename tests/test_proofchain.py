import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pcmrank import (
    PCM,
    DimensionTooSmall,
    IndexOutOfRange,
    InvalidParameter,
    NonPositive,
    UnequalRowProducts,
    aggregate,
    build_proof_chain,
    equalize_pair,
    opposite,
    pcm_parse,
    permute,
    row_product_smoke,
    verify_proof_identities,
)
from pcmrank.core import Permutation
from pcmrank.proofchain import _aggregate_relabellings, chain_json_dict

from harness import random_pcm


def row_products(a):
    return np.exp(np.log(a.entries).sum(axis=1))


MIXED64 = Path(__file__).parent / "golden" / "inputs" / "mixed64.csv"


def cyclic_maps(n):
    """The relabellings C averages B over: the n - 2 rotations of labels
    2..n-1, labels 0 and 1 fixed."""
    return [[0, 1, *(2 + (s + t) % (n - 2) for t in range(n - 2))] for s in range(n - 2)]


def swap_maps(n):
    """The label swaps (1, m), m = 2..n-1, whose aggregate the identity
    ``swap_power_aggregate`` compares with a power of E."""
    return [Permutation.transposition(n, 1, m).map.tolist() for m in range(2, n)]


def wide_pcm(rng, n, span):
    return PCM.from_upper(np.exp(rng.uniform(-span, span, (n, n))))


# equalizing (1, 2) multiplies a_12 = 1e300 by 1e150
WIDE = PCM.from_upper([[1, 1e300, 1e-300, 1], [1, 1, 1e300, 1e300], [1, 1, 1, 1], [1, 1, 1, 1]])


class TestEqualizePair:
    def test_hand_case(self):
        # row products 2 and 1/2, correction sqrt(1/4) = 1/2, so a_12: 4 -> 2
        a = pcm_parse("1,4,1/2\n1/4,1,2\n2,1/2,1")
        out = equalize_pair(a, 0, 1)
        assert abs(out.entries[0, 1] - 2.0) <= 1e-14
        assert np.max(np.abs(row_products(out) - 1.0)) <= 1e-12

    def test_noop_when_already_equal(self):
        a = pcm_parse("1,2,1/2\n1/2,1,2\n2,1/2,1")
        out = equalize_pair(a, 0, 1)
        assert np.max(np.abs(out.entries - a.entries)) <= 1e-15

    def test_ones_fixed(self):
        out = equalize_pair(PCM.ones(4), 0, 1)
        assert np.array_equal(out.entries, PCM.ones(4).entries)

    def test_idempotent(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            a = random_pcm(rng, int(rng.integers(2, 7)))
            once = equalize_pair(a, 0, 1)
            twice = equalize_pair(once, 0, 1)
            rel = np.abs(twice.entries - once.entries) / once.entries
            assert np.max(rel) <= 1e-15

    def test_equalizes_any_pair(self):
        rng = np.random.default_rng(72)
        a = random_pcm(rng, 5)
        out = equalize_pair(a, 1, 3)
        products = np.log(out.entries).sum(axis=1)
        assert abs(products[1] - products[3]) <= 1e-12

    def test_bad_pair(self):
        with pytest.raises(IndexOutOfRange):
            equalize_pair(PCM.ones(3), 1, 1)

    def test_an_index_that_is_not_an_integer_is_invalid(self):
        with pytest.raises(InvalidParameter, match=r"^index must be an integer, got 1\.5$"):
            equalize_pair(PCM.ones(3), 0, 1.5)
        with pytest.raises(InvalidParameter, match=r"^index must be an integer, got 1\.5$"):
            equalize_pair(PCM.ones(3).entries, 0, 1.5)  # the indices are converted first

    def test_an_entry_beyond_the_float_range_raises_without_a_warning(self):
        # a RuntimeWarning fails the test
        with pytest.raises(NonPositive, match="^replacement entry must be finite and positive$"):
            equalize_pair(WIDE, 0, 1)


class TestAggregateRelabellings:
    """The relabelling mean against its definition, bit for bit."""

    @pytest.mark.parametrize("span", [math.log(9), 5.0, 50.0, 300.0])
    @pytest.mark.parametrize("n", [3, 4, 5, 16, 64])
    def test_equals_the_aggregate_of_the_relabelled_matrices(self, n, span):
        rng = np.random.default_rng(n * 1000 + int(span))
        for _ in range(3):
            a = wide_pcm(rng, n, span)
            random_maps = [rng.permutation(n).tolist() for _ in range(int(rng.integers(1, n + 1)))]
            # one map (and n = 3's one rotation) moves the entries, taking no
            # logs: exp(log x) misses x by an ulp now and then
            for maps in (cyclic_maps(n), swap_maps(n), random_maps, random_maps[:1]):
                want = aggregate([permute(a, Permutation(m)) for m in maps])
                got = _aggregate_relabellings(a, np.array(maps))
                assert np.array_equal(got.entries, want.entries)

    @pytest.mark.parametrize("n", [3, 4, 5, 16, 64])
    def test_c_is_b_averaged_over_the_rotations_of_the_tail(self, n):
        rng = np.random.default_rng(82 + n)
        for span in (math.log(9), 5.0):
            chain = build_proof_chain(equalize_pair(wide_pcm(rng, n, span), 0, 1))
            want = aggregate([permute(chain.b, Permutation(m)) for m in cyclic_maps(n)])
            assert np.array_equal(chain.c.entries, want.entries)


class TestMemory:
    """The chain holds O(n^2) floats: no stack of n - 2 relabelled copies."""

    @staticmethod
    def peak_bytes(run, *args):
        tracemalloc.start()
        try:
            run(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_the_chain_and_its_identities_on_64_alternatives_stay_below_1_mib(self):
        a = equalize_pair(pcm_parse(MIXED64.read_text()), 0, 1)
        chain = build_proof_chain(a)  # warm any cache before measuring
        assert self.peak_bytes(build_proof_chain, a) < 2**20
        assert self.peak_bytes(verify_proof_identities, chain) < 2**20


class TestBuildChain:
    def test_3x3_hand_case(self):
        # equal unit row products: d collapses to the all-ones matrix and
        # e is the entrywise square root
        a = pcm_parse("1,2,1/2\n1/2,1,2\n2,1/2,1")
        chain = build_proof_chain(a)
        assert np.array_equal(chain.d.entries, PCM.ones(3).entries)
        assert np.max(np.abs(chain.e.entries - np.sqrt(a.entries))) <= 1e-12
        assert abs(chain.alpha - math.sqrt(2.0)) <= 1e-15
        assert np.max(np.abs(row_products(chain.e) - 1.0)) <= 1e-12

    def test_3x3_b_and_c_equal_a_bitwise(self):
        rng = np.random.default_rng(73)
        a = equalize_pair(random_pcm(rng, 3), 0, 1)
        chain = build_proof_chain(a)
        assert np.array_equal(chain.b.entries, a.entries)
        assert np.array_equal(chain.c.entries, chain.b.entries)

    def test_ones_chain(self):
        for n in (3, 4, 6):
            chain = build_proof_chain(PCM.ones(n))
            for part in (chain.b, chain.c, chain.d, chain.e):
                assert np.array_equal(part.entries, PCM.ones(n).entries)
            assert chain.alpha == 1.0

    def test_4x4_tail_structure(self):
        rng = np.random.default_rng(74)
        a = equalize_pair(random_pcm(rng, 4), 0, 1)
        chain = build_proof_chain(a)
        e = a.entries
        # cyclic averaging spreads the tail of each of the first two rows
        assert abs(chain.c.entries[0, 2] - chain.c.entries[0, 3]) <= 1e-12
        expected_c = math.sqrt(e[0, 2] * e[0, 3])
        assert abs(chain.c.entries[0, 2] - expected_c) <= 1e-12 * expected_c
        expected_d = 1.0 / math.sqrt(e[0, 1] * e[0, 2] * e[0, 3])
        assert abs(chain.d.entries[0, 2] - expected_d) <= 1e-12 * expected_d
        expected_e = (1.0 / chain.alpha) ** 0.5
        assert abs(chain.e.entries[0, 2] - expected_e) <= 1e-12 * expected_e

    def test_unequal_row_products_rejected(self):
        a = pcm_parse("1,4,1/2\n1/4,1,2\n2,1/2,1")
        with pytest.raises(UnequalRowProducts):
            build_proof_chain(a)

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            build_proof_chain(PCM.ones(2))


class TestIdentities:
    def test_3x3_identities(self):
        a = pcm_parse("1,2,1/2\n1/2,1,2\n2,1/2,1")
        report = verify_proof_identities(build_proof_chain(a))
        assert report["inv_swap"] and report["unit_row_geomeans"] and report["alpha_sqrt"]
        assert report["swap_power_aggregate"] is None  # meaningless below n=4

    def test_random_sweep(self):
        rng = np.random.default_rng(75)
        for n in (3, 4, 5, 6):
            for _ in range(10):
                a = equalize_pair(random_pcm(rng, n), 0, 1)
                report = verify_proof_identities(build_proof_chain(a))
                assert report["inv_swap"]
                assert report["unit_row_geomeans"]
                assert report["alpha_sqrt"]
                if n >= 4:
                    assert report["swap_power_aggregate"]

    def test_swapping_first_two_labels_equals_opposite_on_e(self):
        rng = np.random.default_rng(76)
        a = equalize_pair(random_pcm(rng, 4), 0, 1)
        e = build_proof_chain(a).e
        swapped = permute(e, Permutation.transposition(4, 0, 1))
        assert np.max(np.abs(swapped.entries - opposite(e).entries)) <= 1e-12


class TestSmoke:
    def test_ones_all_clauses_pass(self):
        report = row_product_smoke(PCM.ones(4))
        assert report["tie_when_equal"] == {"applicable": True, "passed": True}
        assert report["tie_after_equalize"]
        assert report["strict_matches_row_products"]

    def test_strict_preference_matches_products(self):
        b = pcm_parse("1,1,4\n1,1,3\n1/4,1/3,1")  # row products 4 > 3
        report = row_product_smoke(b)
        assert report["strict_matches_row_products"]
        assert report["tie_after_equalize"]
        assert not report["tie_when_equal"]["applicable"]

    def test_an_equalized_entry_beyond_the_float_range_raises_without_a_warning(self):
        with pytest.raises(NonPositive, match="^replacement entry must be finite and positive$"):
            row_product_smoke(WIDE)

    def test_equalized_instance_ties(self):
        a = pcm_parse("1,2,1/2\n1/2,1,2\n2,1/2,1")
        report = row_product_smoke(a)
        assert report["tie_when_equal"] == {"applicable": True, "passed": True}


class TestArguments:
    @pytest.mark.parametrize("call, text", [
        (lambda a: build_proof_chain(a.entries), "a must be a PCM"),
        (lambda a: build_proof_chain(None), "a must be a PCM, got None"),
        (lambda a: equalize_pair(a.entries, 0, 1), "a must be a PCM"),
        (lambda a: equalize_pair("a", 0, 1), "a must be a PCM, got 'a'"),
        (lambda a: row_product_smoke(a.entries), "a must be a PCM"),
        (lambda a: verify_proof_identities(None), "chain must be a ProofChain, got None"),
        (lambda a: verify_proof_identities(a), "chain must be a ProofChain"),
        (lambda a: verify_proof_identities(build_proof_chain(a), "x"),
         "tol must be a real number, got 'x'"),
        (lambda a: verify_proof_identities(build_proof_chain(a), None),
         "tol must be a real number, got None"),
        # a tolerance that is not positive reported every identity as failing
        (lambda a: verify_proof_identities(build_proof_chain(a), -1.0), "tol must be positive"),
        (lambda a: verify_proof_identities(build_proof_chain(a), 0.0), "tol must be positive"),
        (lambda a: verify_proof_identities(build_proof_chain(a), math.nan), "tol must be positive"),
    ])
    def test_a_value_of_the_wrong_kind_is_invalid(self, call, text):
        with pytest.raises(InvalidParameter) as exc:
            call(PCM.ones(4))
        assert str(exc.value).startswith(text)
        assert "\n" not in str(exc.value)  # an array's repr ran to n lines

    def test_an_array_is_named_by_its_type(self):
        # at n = 64 the array's repr ran to 13 lines
        with pytest.raises(InvalidParameter, match="^a must be a PCM, got ndarray$"):
            build_proof_chain(PCM.ones(64).entries)


def test_chain_json_shape():
    a = pcm_parse("1,2,1/2\n1/2,1,2\n2,1/2,1")
    chain = build_proof_chain(a)
    payload = chain_json_dict(chain, verify_proof_identities(chain))
    assert list(payload) == ["alpha", "B", "C", "D", "E", "identities"]
    assert payload["identities"]["inv_swap"] is True
