"""The public surface: every name the package exports, as one literal list.

A name added to or dropped from `groupforests/__init__.py` shows here as a
one-line diff.
"""

import inspect

import groupforests

PUBLIC_NAMES = [
    "ComponentGroup",
    "DisconnectedGraphError",
    "ExperimentConfig",
    "FamilyMismatchError",
    "FiniteQuotient",
    "GreenTruncation",
    "GroupFamily",
    "GroupForestsError",
    "GroupRingElement",
    "GroupWord",
    "HomoclinicResult",
    "IdentityMismatchError",
    "MarginalRow",
    "NotWellBalancedError",
    "QuotientLaplacian",
    "QuotientMultigraph",
    "Report",
    "ResourceLimitError",
    "ReturnSeries",
    "SpanningTree",
    "SpectralRadiusProbe",
    "SpectrumSummary",
    "TreeEntropyResult",
    "UnsupportedFamilyError",
    "WindowError",
    "build_laplacian",
    "fk_estimate_eigen",
    "fk_estimate_tree",
    "formal_inverse_residual",
    "format_group_ring",
    "format_word",
    "free_abelian_spectrum",
    "free_ball_quotient",
    "green_truncation",
    "harmonic_component_group",
    "homoclinic_point",
    "injectivity_radius",
    "laplacian_element",
    "lift_marginals",
    "parse_group_ring",
    "parse_word",
    "require_well_balanced",
    "resolve_config",
    "return_series",
    "rng_stream",
    "run",
    "spanning_tree_count",
    "spectral_radius_probe",
    "spectrum",
    "tree_entropy",
    "wilson_sample",
    "word_ball",
]


def test_public_names_are_pinned():
    exported = sorted(
        name
        for name, value in vars(groupforests).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES
