"""Weights, rankings and axiom audits for positive reciprocal pairwise
comparison matrices."""

from .axioms import (
    AxiomId,
    AxiomVerdict,
    SearchConfig,
    Witness,
    check_ai,
    check_ano,
    check_iic,
    check_implications,
    check_inv,
    check_res,
    check_rsi,
    falsify,
    replay,
    witness_json_dict,
)
from .core import (
    PCM,
    DimensionMismatch,
    DimensionTooSmall,
    EmptyList,
    IndexOutOfRange,
    InvalidParameter,
    NoConvergence,
    NonPositive,
    NonSquare,
    NotAnIncrease,
    NoWeightForm,
    OverlappingIndices,
    PairRelation,
    PcmError,
    Permutation,
    Ranking,
    RationalExponent,
    ReciprocityViolation,
    TooSmall,
    UnequalRowProducts,
    UnknownCase,
    WeightVector,
    is_consistent,
    pair_relation,
    pcm_parse,
    pcm_to_csv,
    ranking_from_weights,
    ranking_json_dict,
)
from .proofchain import (
    ProofChain,
    build_proof_chain,
    equalize_pair,
    row_product_smoke,
    verify_proof_identities,
)
from .registry import CASE_IDS, run_all, run_case
from .transforms import aggregate, opposite, permute, power
from .weighting import (
    EmOptions,
    MethodId,
    em_weights,
    method_rank,
    method_scores,
    method_weights,
    rgm_objective,
    rgm_weights,
    weights_json_dict,
)

__version__ = "0.1.0"
