"""Two-sample hypothesis testing for weighted networks.

Library layout:

* :mod:`graphtest.graphs` - adjacency types, validation, thresholding,
  five-number summaries, CSV format
* :mod:`graphtest.models` - two-block Beta/Bernoulli generators
* :mod:`graphtest.twosample` - the split-sample statistics and decisions
* :mod:`graphtest.diagnostics` - closed-form calibration/power diagnostics
* :mod:`graphtest.simulate` - replicated Monte Carlo experiment grids
* :mod:`graphtest.realdata` - resampling pipeline for unequal groups
* :mod:`graphtest.pool` - the worker pool behind simulate and realdata
* :mod:`graphtest.cli` - the ``graphtest`` executable
"""

from .graphs import (
    AdjacencyMatrix,
    FiveNumberSummary,
    GraphSample,
    five_number_summary,
    load_adjacency_csv,
    pair_layout,
    save_adjacency_csv,
    threshold_binarize,
    validate_adjacency,
)
from .models import (
    MeanMatrix,
    TwoBlockModel,
    beta_moments,
    beta_params_from_moments,
    model_mean_matrix,
    sample_graph_from_means,
    sample_population,
)
from .rng import substream
from .twosample import (
    Partition,
    TestResult,
    critical_value,
    decide,
    random_partition,
    run_method,
    run_methods,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "FiveNumberSummary",
    "GraphSample",
    "MeanMatrix",
    "Partition",
    "TestResult",
    "TwoBlockModel",
    "beta_moments",
    "beta_params_from_moments",
    "critical_value",
    "decide",
    "five_number_summary",
    "load_adjacency_csv",
    "model_mean_matrix",
    "pair_layout",
    "random_partition",
    "run_method",
    "run_methods",
    "sample_graph_from_means",
    "sample_population",
    "save_adjacency_csv",
    "substream",
    "threshold_binarize",
    "validate_adjacency",
    "__version__",
]
