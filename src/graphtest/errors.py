"""Exception hierarchy for the package.

Every exception carries a stable ``code`` string; the CLI prints errors as
one-line ``<code>: <message>`` records on stderr so callers can match on
codes rather than message text.
"""

from __future__ import annotations


class GraphTestError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ConfigError(GraphTestError):
    """Malformed configuration document (bad schema, unknown keys, bad types)."""

    code = "config"


class NonSquareError(GraphTestError):
    """Adjacency input is not a square matrix of at least 2 nodes."""

    code = "non-square"


class NonFiniteEntryError(GraphTestError):
    """An adjacency or mean/variance matrix contains NaN or infinity."""

    code = "non-finite-entry"

    def __init__(self, i: int, j: int, value: float):
        super().__init__(f"non-finite entry {value!r} at ({i}, {j})")
        self.i = i
        self.j = j
        self.value = value

    def __reduce__(self):
        return type(self), (self.i, self.j, self.value)


class AsymmetryError(GraphTestError):
    """Adjacency input differs from its transpose beyond the repair tolerance."""

    code = "asymmetry"

    def __init__(self, i: int, j: int, difference: float):
        super().__init__(
            f"entries ({i}, {j}) and ({j}, {i}) differ by {difference:g}, "
            "beyond tolerance"
        )
        self.i = i
        self.j = j
        self.difference = difference

    def __reduce__(self):
        return type(self), (self.i, self.j, self.difference)


class EmptyInputError(GraphTestError):
    code = "empty-input"


class OddNodeCountError(GraphTestError):
    """Two-block designs need an even node count."""

    code = "odd-node-count"


class NonPositiveParameterError(GraphTestError):
    """Beta shape parameters must be strictly positive."""

    code = "non-positive-parameter"


class ProbabilityRangeError(GraphTestError):
    """Bernoulli probability (including shift) must lie in [0, 1]."""

    code = "probability-range"


class OddSampleSizeError(GraphTestError):
    """The split statistic needs an even number of graphs per group."""

    code = "odd-sample-size"


class TooFewSamplesError(GraphTestError):
    code = "too-few-samples"


class DimensionMismatchError(GraphTestError):
    """Graphs being combined do not share a common node count."""

    code = "dimension-mismatch"


class SampleSizeMismatchError(GraphTestError):
    """The two groups do not have the same number of graphs."""

    code = "sample-size-mismatch"


class InvalidAlphaError(GraphTestError):
    code = "invalid-alpha"


class DegenerateModelError(GraphTestError):
    """A diagnostic is undefined because its normalizer is zero."""

    code = "degenerate-model"


class InvalidScenarioParamsError(GraphTestError):
    code = "invalid-scenario"


class DataLoadError(GraphTestError):
    """A group directory could not be loaded; message names the offending file."""

    code = "data-load"


class MixedDimensionsError(DataLoadError):
    """One file in a group has a different node count than the rest."""

    code = "mixed-dimensions"


class AllNAError(GraphTestError):
    """Every repetition produced an undefined statistic (zero denominator)."""

    code = "all-na"
