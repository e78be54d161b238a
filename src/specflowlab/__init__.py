"""Certified spectral flow for paths of Hermitian matrices.

The package computes the spectral flow of a path of Hermitian matrices by
four methods that must agree exactly (at finite dimension only the
certified subdivision is not tied to the endpoint rank difference by
algebra), compares the metric geometries the flow lives in, and
cross-checks the classical index-theory identities (projection pairs,
compressions of shifts, graded kernels) that pin the flow down uniquely.

The names load lazily (PEP 562): ``import specflowlab`` runs no submodule,
and the first access to an exported name, or to one of the submodules
that define them, imports that submodule, so a command that computes a
flow never loads the metric, Toeplitz, graded or axiom layers.
"""

import importlib

#: each submodule with the names the package exports from it
_EXPORTS = {
    "errors": (
        "BoundaryCollisionError", "CertificationError", "ConsistencyFault",
        "DimensionMismatchError", "EndpointError", "FinitenessError",
        "FunctionDomainError", "HermiticityError", "IllConditionedRankWarning",
        "InputError", "SamplingError", "SpecFlowError",
    ),
    "matcore": (
        "EigenDecomposition", "HermitianMatrix", "Interval", "Projection",
        "apply_function", "as_hermitian", "eigh", "nonneg_projection", "op_norm",
        "rank_eps", "spectral_projection",
    ),
    "transforms": ("UnitaryMatrix", "cayley", "riesz"),
    "opmodel": (
        "DiagonalModel", "closed_form_distances", "realize", "swap_bounds",
        "truncate_fn", "truncation_riesz_bound",
    ),
    "metrics": (
        "GraphNormReport", "MetricReport", "d_G", "d_G_detail", "d_N", "d_R", "d_W",
        "metric_separation_report", "norm_graph_equivalence_check",
    ),
    "projpair": ("PairIndexResult", "pair_index"),
    "paths": (
        "OperatorPath", "Regularity", "lipschitz", "path_concat", "path_reverse",
        "piecewise_affine",
    ),
    "specflow": (
        "SfCertificate", "SfOptions", "SfSegment", "certify_invertible",
        "crossing_oracle_report", "sf_all_methods", "sf_crossing_oracle", "sf_endpoints",
        "sf_pairsum", "sf_phillips",
    ),
    "generators": (
        "ENDPOINT_CLAMP_GAP", "FAMILY_NAMES", "clamp_spectrum_away_from_zero",
        "concat_compatible_pair", "conjugation_path", "cyclic_shift", "family_path",
        "half_integer_diagonal", "homotopy_family", "invertible_trig_path", "line_path",
        "normalization_path", "random_hermitian", "random_unitary", "spawn_rngs",
        "trig_path", "unitary_rotation_path",
    ),
    "toeplitz": (
        "cyclic_shift_sweep", "power_sweep", "toeplitz_compression", "toeplitz_index",
        "verify_toeplitz_theorem",
    ),
    "graded": (
        "GradedOperator", "eigenpair_cancellation_check", "graded_window_dim",
        "index_stability_check",
    ),
    "axioms": (
        "SfFunctional", "builtin_functionals", "check_concatenation", "check_homotopy",
        "check_invertible_vanishing", "check_normalization", "component_label",
        "connect_invertibles", "run_all_checks",
    ),
}

#: the exported names, then the submodules that define them
__all__ = [name for names in _EXPORTS.values() for name in names] + list(_EXPORTS)

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that defines an exported ``name`` and bind the
    value here, so later lookups do not come back; a submodule's own name
    imports it (the import binds it here)."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
