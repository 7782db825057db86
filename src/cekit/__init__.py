"""cekit: unified-entropy concentratable entanglement for small multipartite systems."""

from .convex_roof import (
    Ensemble,
    RoofResult,
    cce_mixed_upper,
    mixed_ordering_spotcheck,
    mixing_ensemble,
)
from .entropy import (
    EntropyParams,
    binary_entropy,
    fannes_audenaert_bound,
    unified_entropy,
    unified_entropy_spectrum,
)
from .errors import ResourceLimitError
from .measures import (
    MeasureReport,
    NamedMeasures,
    cce_pure,
    continuity_gap,
    gme_certificate,
    named_measures,
    tensor_identity_residual,
)
from .states import StateRecipe, dicke, ghz, haar_random, random_density, random_product, star, w
from .swaptest import (
    ControlDistribution,
    ShotRecord,
    bounds_from_estimate,
    cce_from_distribution,
    sample_shots,
    swap_test_distribution,
)
from .tensor import (
    DensityOperator,
    PureState,
    hermitian_eigenvalues,
    reduced_state,
    trace_distance,
)

__version__ = "0.1.0"
