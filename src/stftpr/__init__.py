"""Phase retrieval from multiple-window short-time Fourier magnitude measurements.

The package reconstructs a finite complex signal, up to a global phase, from
the squared magnitudes of its multiple-window STFT, and certifies when that
is possible: covisibility-graph connectivity is necessary, endpoint-graph
connectivity plus short windows plus the modulation-matrix rank gate is
sufficient.  Worst-case noise-stability bounds quantify how far admissible
measurement noise can move the result.
"""

from .errors import (
    CertificationError,
    ConfigurationError,
    DegenerateEdgeError,
    DimensionMismatchError,
    DisconnectedGraphError,
    InvalidPartitionError,
    InvalidPriorError,
    InvalidWindowError,
    PhaseRetrievalError,
    SearchSpaceError,
    UndefinedBudgetError,
)
from .model import (
    DEFAULT_ZERO_TOL,
    GlobalPhaseDistance,
    ProblemConfig,
    phase_distance,
    support,
)
from .oracle import (
    OracleReport,
    compare,
    exhaustive_ambiguity_search,
    magnitudes_direct,
    measure_direct,
    stft_direct,
)
from .phase import (
    EdgeWitnesses,
    ReconstructionResult,
    default_degenerate_tol,
    edge_phase,
    propagate,
    reconstruct,
    reconstruct_compressed,
)
from .robustness import (
    ErrorBudget,
    StabilityConstants,
    error_budget,
    min_support_magnitude,
    stability_constants,
    threshold_support,
)
from .spectral import (
    MagnitudeSpectrum,
    ModulationMatrices,
    certify_rank,
    default_rank_tol,
    recover_magnitudes,
    window_power_spectra,
)
from .stft import (
    AggregateMeasurements,
    MeasurementGrid,
    aggregate,
    corrupt,
    measure,
    read_grid_csv,
    stft,
    write_grid_csv,
)
from .supportgraph import (
    Geometry,
    SpanningTree,
    SupportGraph,
    WindowSupport,
    covisibility_graph_from_support,
    endpoint_graph_from_support,
    is_connected,
    rotate_component_phase,
    spanning_tree,
    window_support,
)

__all__ = [
    "AggregateMeasurements",
    "CertificationError",
    "ConfigurationError",
    "DEFAULT_ZERO_TOL",
    "DegenerateEdgeError",
    "DimensionMismatchError",
    "DisconnectedGraphError",
    "EdgeWitnesses",
    "ErrorBudget",
    "Geometry",
    "GlobalPhaseDistance",
    "InvalidPartitionError",
    "InvalidPriorError",
    "InvalidWindowError",
    "MagnitudeSpectrum",
    "MeasurementGrid",
    "ModulationMatrices",
    "OracleReport",
    "PhaseRetrievalError",
    "ProblemConfig",
    "ReconstructionResult",
    "SearchSpaceError",
    "SpanningTree",
    "StabilityConstants",
    "SupportGraph",
    "UndefinedBudgetError",
    "WindowSupport",
    "aggregate",
    "certify_rank",
    "compare",
    "corrupt",
    "covisibility_graph_from_support",
    "default_degenerate_tol",
    "default_rank_tol",
    "edge_phase",
    "endpoint_graph_from_support",
    "error_budget",
    "exhaustive_ambiguity_search",
    "is_connected",
    "magnitudes_direct",
    "measure",
    "measure_direct",
    "min_support_magnitude",
    "phase_distance",
    "propagate",
    "read_grid_csv",
    "reconstruct",
    "reconstruct_compressed",
    "recover_magnitudes",
    "rotate_component_phase",
    "spanning_tree",
    "stability_constants",
    "stft",
    "stft_direct",
    "support",
    "threshold_support",
    "window_power_spectra",
    "window_support",
    "write_grid_csv",
]

__version__ = "0.1.0"
