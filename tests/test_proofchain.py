import math

import numpy as np
import pytest

from pcmrank import (
    PCM,
    DimensionTooSmall,
    IndexOutOfRange,
    InvalidParameter,
    NonPositive,
    UnequalRowProducts,
    build_proof_chain,
    equalize_pair,
    opposite,
    pcm_parse,
    permute,
    row_product_smoke,
    verify_proof_identities,
)
from pcmrank.core import Permutation
from pcmrank.proofchain import chain_json_dict

from harness import random_pcm


def row_products(a):
    return np.exp(np.log(a.entries).sum(axis=1))


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

    def test_an_entry_beyond_the_float_range_raises_without_a_warning(self):
        # a RuntimeWarning fails the test
        with pytest.raises(NonPositive, match="^replacement entry must be finite and positive$"):
            equalize_pair(WIDE, 0, 1)


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


def test_chain_json_shape():
    a = pcm_parse("1,2,1/2\n1/2,1,2\n2,1/2,1")
    chain = build_proof_chain(a)
    payload = chain_json_dict(chain, verify_proof_identities(chain))
    assert list(payload) == ["alpha", "B", "C", "D", "E", "identities"]
    assert payload["identities"]["inv_swap"] is True
