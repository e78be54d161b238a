"""Certified spectral flow for paths of Hermitian matrices.

The package computes the spectral flow of a path of Hermitian matrices by
four methods that must agree exactly (at finite dimension only the
certified subdivision is not tied to the endpoint rank difference by
algebra), compares the metric geometries the flow lives in, and
cross-checks the classical index-theory identities (projection pairs,
compressions of shifts, graded kernels) that pin the flow down uniquely.
"""

from .errors import (
    BoundaryCollisionError,
    CertificationError,
    ConsistencyFault,
    ContourCollisionError,
    DefinitenessError,
    DimensionMismatchError,
    EndpointError,
    FinitenessError,
    FunctionDomainError,
    HermiticityError,
    IllConditionedRankWarning,
    ImageMembershipError,
    InputError,
    InvertibilityError,
    SamplingError,
    SpecFlowError,
)
from .matcore import (
    A1Report,
    EigenDecomposition,
    HermitianMatrix,
    Interval,
    Projection,
    apply_function,
    as_hermitian,
    check_a1,
    contour_projection,
    eigh,
    inv_sqrt_integral,
    nonneg_projection,
    op_norm,
    rank_eps,
    spectral_projection,
)
from .transforms import (
    MembershipReport,
    UnitaryMatrix,
    cayley,
    cayley_inverse,
    is_in_cayley_invertible_image,
    is_in_riesz_image,
    riesz,
    riesz_inverse,
)
from .opmodel import (
    DiagonalModel,
    ce_fuglede,
    ce_lambda,
    ce_rank_one,
    ce_swap,
    closed_form_distances,
    realize,
    swap_bounds,
    truncate_fn,
    truncation_riesz_bound,
)
from .metrics import (
    GraphNormReport,
    MetricReport,
    d_G,
    d_G_detail,
    d_N,
    d_R,
    d_W,
    metric_separation_report,
    norm_graph_equivalence_check,
)
from .projpair import PairIndexResult, pair_index
from .specflow import (
    OPAQUE,
    OperatorPath,
    Regularity,
    SfCertificate,
    SfOptions,
    SfSegment,
    certify_invertible,
    crossing_oracle_report,
    lipschitz,
    path_concat,
    path_reverse,
    piecewise_affine,
    sf_all_methods,
    sf_crossing_oracle,
    sf_endpoints,
    sf_pairsum,
    sf_phillips,
)
from .generators import (
    ENDPOINT_CLAMP_GAP,
    FAMILY_NAMES,
    clamp_spectrum_away_from_zero,
    concat_compatible_pair,
    conjugation_path,
    cyclic_shift,
    family_path,
    half_integer_diagonal,
    homotopy_family,
    invertible_trig_path,
    line_path,
    normalization_path,
    random_hermitian,
    random_invertible_hermitian,
    random_projection,
    random_spd,
    random_unitary,
    spawn_rngs,
    trig_path,
    unitary_rotation_path,
)
from .toeplitz import (
    commutator_report,
    cyclic_shift_sweep,
    power_sweep,
    toeplitz_compression,
    toeplitz_index,
    verify_toeplitz_theorem,
)
from .graded import (
    GradedOperator,
    eigenpair_cancellation_check,
    graded_window_dim,
    index_stability_check,
)
from .axioms import (
    SfFunctional,
    builtin_functionals,
    check_concatenation,
    check_homotopy,
    check_invertible_vanishing,
    check_normalization,
    component_label,
    connect_invertibles,
    run_all_checks,
)

__version__ = "0.1.0"
