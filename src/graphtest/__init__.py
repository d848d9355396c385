"""Two-sample hypothesis testing for weighted networks.

Library layout:

* :mod:`graphtest.graphs` - the one graph type, ``GraphSample`` (a single
  graph is a one-row sample), validation, thresholding, five-number
  summaries, CSV format
* :mod:`graphtest.models` - two-block Beta/Bernoulli generators
* :mod:`graphtest.twosample` - the split-sample statistics and decisions
* :mod:`graphtest.diagnostics` - closed-form calibration/power diagnostics
* :mod:`graphtest.simulate` - replicated Monte Carlo experiment grids
* :mod:`graphtest.realdata` - resampling pipeline for unequal groups
* :mod:`graphtest.pool` - the one worker pool, ``stream`` and its join
  ``run``, behind simulate, realdata and test
* :mod:`graphtest.cli` - the ``graphtest`` executable
"""

from .diagnostics import (
    BernoulliCondition,
    ConditionRatios,
    ModelMoments,
    lambda_n,
    lambda_sparse_bernoulli,
    mean_matrix_moments,
)
from .graphs import (
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
    bernoulli_moments,
    beta_moments,
    beta_params_from_moments,
    model_mean_matrix,
    paired_difference_fourth_moment,
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
    run_methods,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliCondition",
    "ConditionRatios",
    "FiveNumberSummary",
    "GraphSample",
    "MeanMatrix",
    "ModelMoments",
    "Partition",
    "TestResult",
    "TwoBlockModel",
    "bernoulli_moments",
    "beta_moments",
    "beta_params_from_moments",
    "critical_value",
    "decide",
    "five_number_summary",
    "lambda_n",
    "lambda_sparse_bernoulli",
    "load_adjacency_csv",
    "mean_matrix_moments",
    "model_mean_matrix",
    "pair_layout",
    "paired_difference_fourth_moment",
    "random_partition",
    "run_methods",
    "sample_graph_from_means",
    "sample_population",
    "save_adjacency_csv",
    "substream",
    "threshold_binarize",
    "validate_adjacency",
    "__version__",
]
