"""Discrete norms of dyadic sequence spaces.

Evaluates Besov-type, Triebel-Lizorkin-type and Carleson-measure style norms
on finitely supported dyadic-cube coefficient fields; verifies the exact
identities and two-sided collapse bounds between the scales; certifies the
tower counterexamples separating them; classifies parameter tuples to the
classical space they coincide with; and analyzes sampled periodic functions
through a band-pass filter bank for transform-consistency checks.
"""
from ._log2 import NEG_INF, log2_sum, log2_to_linear
from .analyze import (
    FilterBank,
    GridFunction,
    ConsistencyReport,
    band_limit_fraction,
    build_filter_bank,
    coefficients,
    function_norm,
    load_grid_function,
    lp_convolve,
    transform_consistency,
    save_grid_function,
)
from .classify import (
    ClassificationReport,
    RefutationBundle,
    SpaceDescriptor,
    Verdict,
    classify,
    classify_cmo,
    cmo_param_of,
    refute_claim,
)
from .dyadic import (
    DimensionMismatchError,
    DyadicCube,
    SupportTree,
)
from .equivalence import (
    EquivalenceReport,
    check_holder_embeddings,
    check_exact_identities,
    check_collapse_b,
    check_collapse_f,
    check_collapse_inhomogeneous,
    identity_tolerance,
    random_sample_set,
    random_sequence,
    collapse_upper_constant_log2,
)
from .seqspace import (
    CubeSequence,
    Family,
    Forest,
    NormValue,
    ParamError,
    SequenceFormatError,
    SpaceParams,
    b_type_norm,
    bbmo_norm,
    cmo_norm,
    f_inf_inf_norm,
    f_type_norm,
    load_jsonl,
    norm,
    save_jsonl,
)
from .witness import (
    GrowthReport,
    TowerWitness,
    build_tower,
    certify_separation,
    separation_b_bound_log2,
    separation_f_bound_log2,
    tower_b_closed_form,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
