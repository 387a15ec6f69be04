"""Spanning forests, sandpile groups, and harmonic invariants on finite group quotients.

The library builds convolution Laplacians of symmetric integer group-ring
elements on finite quotients of Z^d, free groups, and the discrete Heisenberg
group, and computes: exact spanning-tree counts, the cokernel (sandpile /
harmonic component) group, spectra and log-determinant estimates, tree
entropy series, truncated lattice Green functions and homoclinic points,
spectral-radius probes, and uniform spanning tree samples with window
marginal statistics along quotient chains.
"""

from .errors import (
    DisconnectedGraphError,
    FamilyMismatchError,
    GroupForestsError,
    IdentityMismatchError,
    NotWellBalancedError,
    ResourceLimitError,
    UnsupportedFamilyError,
    WindowError,
)
from .groups import (
    FiniteQuotient,
    GroupFamily,
    GroupWord,
    format_word,
    free_ball_quotient,
    injectivity_radius,
    parse_word,
    word_ball,
)
from .forests import (
    MarginalRow,
    QuotientMultigraph,
    SpanningTree,
    lift_marginals,
    rng_stream,
    wilson_sample,
)
from .linalg import (
    ComponentGroup,
    QuotientLaplacian,
    SpectrumSummary,
    build_laplacian,
    fk_estimate_eigen,
    fk_estimate_tree,
    free_abelian_spectrum,
    harmonic_component_group,
    spanning_tree_count,
    spectrum,
)
from .runner import ExperimentConfig, Report, resolve_config, run
from .walks import (
    GreenTruncation,
    GroupRingElement,
    HomoclinicResult,
    ReturnSeries,
    SpectralRadiusProbe,
    TreeEntropyResult,
    formal_inverse_residual,
    format_group_ring,
    green_truncation,
    homoclinic_point,
    laplacian_element,
    parse_group_ring,
    require_well_balanced,
    return_series,
    spectral_radius_probe,
    tree_entropy,
)

__version__ = "0.1.0"
