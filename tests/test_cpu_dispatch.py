"""The bits pinned by the golden transcripts and the draw digests, and
those that padded ranking keeps, on numpy's other kernels: the host's
AVX-512 dispatch targets are disabled through ``NPY_DISABLE_CPU_FEATURES``
in a subprocess that reruns those tests (ROADMAP item 8).  Hosts where
numpy dispatches to no AVX-512 target skip them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = Path(__file__).parent
AVX512 = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)
          and (target == "X86_V4" or target.startswith("AVX512"))]


def without_avx512(*tests: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        # plain asserts: the diffs of the long transcripts would take seconds
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain",
         "--tb=no", "-rf", *tests],
        cwd=TESTS.parent, env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)},
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.skipif(not AVX512, reason="numpy dispatches to no AVX-512 target on this host")
@pytest.mark.xfail(strict=False, reason=(
    "numpy's exp, log and add.reduce differ in their last bit between dispatch "
    "targets, so without AVX-512 six golden transcripts and all six draw digests "
    "change (ROADMAP item 8)"))
def test_goldens_and_draws_keep_their_bits_without_avx512():
    run = without_avx512(str(TESTS / "test_golden.py"),
                         f"{TESTS / 'test_falsify_batched.py'}::test_draws_keep_their_bits")
    assert run.returncode == 0, run.stdout[-3000:]


@pytest.mark.skipif(not AVX512, reason="numpy dispatches to no AVX-512 target on this host")
def test_padded_ranking_keeps_its_bits_without_avx512():
    # the bits of a padded matrix's ranking rest on how numpy sums a row,
    # and those of a padded pool's aggregate on how it sums over matrices,
    # which each dispatch target may do its own way
    run = without_avx512(
        f"{TESTS / 'test_weighting.py'}::test_row_sums_of_at_most_7_values_ignore_trailing_zeros",
        f"{TESTS / 'test_weighting.py'}::test_padded_matrices_rank_with_the_bits_of_their_own_size",
        f"{TESTS / 'test_falsify_batched.py'}::test_padded_pools_judge_with_the_bits_of_their_own_stacks",
    )
    assert run.returncode == 0, run.stdout[-3000:]
