"""Tests for core graph types, validation, thresholding, and summaries."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from graphtest.errors import (
    AsymmetryError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteEntryError,
    NonSquareError,
)
from graphtest.graphs import (
    AdjacencyMatrix,
    GraphSample,
    five_number_summary,
    load_adjacency_csv,
    save_adjacency_csv,
    threshold_binarize,
    validate_adjacency,
)


class TestValidateAdjacency:
    def test_zero_matrix_valid(self):
        g = validate_adjacency(np.zeros((3, 3)), tolerance=1e-9)
        assert g.n == 3
        assert not g.weights.any()

    def test_symmetric_input_unchanged(self):
        g = validate_adjacency([[0.0, 1.0], [1.0, 0.0]], tolerance=1e-9)
        assert g.weights.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_weights_near_float64_max_kept(self):
        """Repairing symmetry must not overflow finite weights into inf."""
        raw = [[0.0, 1e308, -1.5e308], [1e308, 0.0, 2.0],
               [-1.5e308, 2.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = validate_adjacency(raw, tolerance=1e-9)
        assert g.weights.tolist() == raw

    def test_asymmetry_beyond_tolerance(self):
        with pytest.raises(AsymmetryError) as exc:
            validate_adjacency([[0.0, 1.0], [0.5, 0.0]], tolerance=1e-9)
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_asymmetry_within_tolerance_averaged(self):
        raw = [[0.0, 1.0 + 4e-10], [1.0, 0.0]]
        g = validate_adjacency(raw, tolerance=1e-9)
        assert g.weights[0, 1] == g.weights[1, 0] == pytest.approx(1.0 + 2e-10, abs=0)

    def test_diagonal_forced_to_zero(self):
        g = validate_adjacency([[5.0, 1.0], [1.0, -2.0]], tolerance=1e-9)
        assert g.weights[0, 0] == 0.0 and g.weights[1, 1] == 0.0

    def test_non_finite_entry_located(self):
        raw = np.zeros((3, 3))
        raw[1, 2] = np.nan
        with pytest.raises(NonFiniteEntryError) as exc:
            validate_adjacency(raw)
        assert (exc.value.i, exc.value.j) == (1, 2)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            validate_adjacency(np.zeros((2, 3)))

    def test_single_node_rejected(self):
        with pytest.raises(NonSquareError):
            validate_adjacency(np.zeros((1, 1)))

    def test_weights_are_read_only(self):
        g = validate_adjacency(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.weights[0, 1] = 1.0


class TestGraphSample:
    def test_mixed_dimensions_rejected(self):
        g2 = AdjacencyMatrix(np.zeros((2, 2)))
        g3 = AdjacencyMatrix(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            GraphSample((g2, g3))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            GraphSample(())

    def test_edges_shape(self):
        g = AdjacencyMatrix(np.zeros((4, 4)))
        sample = GraphSample((g, g, g))
        assert sample.edges.shape == (3, 6)
        assert sample.m == 3 and sample.n == 4


class TestThresholdBinarize:
    def _graph(self, value):
        return validate_adjacency([[0.0, value], [value, 0.0]])

    def test_above_threshold_is_one(self):
        assert threshold_binarize(self._graph(0.35), 0.3).weights[0, 1] == 1.0

    def test_absolute_value_used(self):
        assert threshold_binarize(self._graph(-0.35), 0.3).weights[0, 1] == 1.0

    def test_boundary_is_strict(self):
        # Equality at the threshold maps to 0 ("greater than", not ">=").
        assert threshold_binarize(self._graph(0.3), 0.3).weights[0, 1] == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            threshold_binarize(self._graph(0.5), -0.1)

    def test_output_invariants(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(8, 8))
        g = validate_adjacency((raw + raw.T) / 2)
        out = threshold_binarize(g, 0.4)
        assert set(np.unique(out.weights)) <= {0.0, 1.0}
        assert not np.diagonal(out.weights).any()
        assert np.array_equal(out.weights, out.weights.T)

    def test_antitone_in_threshold(self):
        """Raising tau can only remove edges, never add them."""
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(10, 10))
        g = validate_adjacency((raw + raw.T) / 2)
        taus = [0.0, 0.1, 0.3, 0.5, 0.9, 2.0]
        previous = threshold_binarize(g, taus[0]).weights
        for tau in taus[1:]:
            current = threshold_binarize(g, tau).weights
            assert (current <= previous).all(), f"gained an edge moving to tau={tau}"
            previous = current


def _quantile_oracle(sorted_values, q):
    """Linear interpolation between order statistics, independent of numpy."""
    pos = q * (len(sorted_values) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class TestFiveNumberSummary:
    def test_sorted_identity(self):
        assert five_number_summary([1, 2, 3, 4, 5]).as_tuple() == (1, 2, 3, 4, 5)

    def test_singleton(self):
        assert five_number_summary([5]).as_tuple() == (5, 5, 5, 5, 5)

    def test_even_length_interpolation(self):
        # Frozen from the order-statistic oracle below: quartiles of [1,2,3,4].
        values = [1.0, 2.0, 3.0, 4.0]
        expected = tuple(_quantile_oracle(values, q) for q in (0, 0.25, 0.5, 0.75, 1))
        assert expected == (1.0, 1.75, 2.5, 3.25, 4.0)
        assert five_number_summary(values).as_tuple() == expected

    def test_matches_oracle_on_random_batches(self):
        rng = np.random.default_rng(3)
        for size in (2, 3, 7, 10, 101):
            values = rng.normal(size=size)
            got = five_number_summary(values).as_tuple()
            ordered = np.sort(values)
            want = tuple(_quantile_oracle(ordered, q) for q in (0, 0.25, 0.5, 0.75, 1))
            assert got == pytest.approx(want, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=25)
        base = five_number_summary(values).as_tuple()
        for _ in range(10):
            assert five_number_summary(rng.permutation(values)).as_tuple() == base

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            five_number_summary([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            five_number_summary([1.0, np.nan])


class TestAdjacencyCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        raw = rng.normal(size=(6, 6))
        g = validate_adjacency((raw + raw.T) / 2)
        path = tmp_path / "graph.csv"
        save_adjacency_csv(g, path)
        back = load_adjacency_csv(path)
        assert np.array_equal(back.weights, g.weights)

    @pytest.mark.parametrize("text", ["", "# no rows\n"])
    def test_file_without_data_is_empty_input(self, tmp_path, text):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(EmptyInputError, match="the file contains no data"):
            load_adjacency_csv(path)

    def test_format_shape(self, tmp_path):
        g = validate_adjacency([[0.0, 0.5], [0.5, 0.0]])
        path = tmp_path / "g.csv"
        save_adjacency_csv(g, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert all(len(line.split(",")) == 2 for line in lines)
