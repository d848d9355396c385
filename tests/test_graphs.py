"""Tests for core graph types, validation, thresholding, and summaries."""

from __future__ import annotations

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphtest.errors import (
    AsymmetryError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteEntryError,
    NonSquareError,
)
from graphtest.graphs import (
    TOLERANCE,
    GraphSample,
    _read_canonical,
    pair_layout,
    five_number_summary,
    load_adjacency_csv,
    save_adjacency_csv,
    threshold_binarize,
    validate_adjacency,
)

from oracles import dense_validate, loadtxt_adjacency

FLOAT_MAX = np.finfo(np.float64).max
# Zeros of both signs, subnormals, and magnitudes whose sum or difference
# overflows, besides ordinary floats.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1.7e308, -1.7e308,
                     FLOAT_MAX, -FLOAT_MAX]),
    st.floats(allow_nan=False, allow_infinity=False))


def _mirror(upper: float):
    """An entry for the transposed position: equal, of the other sign, one
    ulp away (inf past the float64 max), within or just beyond tolerance,
    or unrelated."""
    return st.one_of(
        st.just(upper), st.just(-upper),
        st.sampled_from([math.nextafter(upper, -math.inf), math.nextafter(upper, math.inf)]),
        st.sampled_from([4e-10, -4e-10, 1e-9, -1e-9, 2e-9]).map(lambda d: upper + d),
        _ENTRIES)


class TestValidateAdjacency:
    def test_zero_matrix_valid(self):
        g = validate_adjacency(np.zeros((3, 3)))
        assert g.n == 3
        assert not g.dense().any()

    def test_symmetric_input_unchanged(self):
        g = validate_adjacency([[0.0, 1.0], [1.0, 0.0]])
        assert g.dense().tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_weights_near_float64_max_kept(self):
        """Repairing symmetry must not overflow finite weights into inf."""
        raw = [[0.0, 1e308, -1.5e308], [1e308, 0.0, 2.0],
               [-1.5e308, 2.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = validate_adjacency(raw)
        assert g.dense().tolist() == raw

    def test_asymmetry_beyond_tolerance(self):
        with pytest.raises(AsymmetryError) as exc:
            validate_adjacency([[0.0, 1.0], [0.5, 0.0]])
        assert (exc.value.i, exc.value.j) == (0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, -2.0, 3.5]), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_asymmetry_names_first_worst_pair(self, raw):
        """The pair named is the first largest gap in row-major order, so
        its row index is below its column index."""
        n = len(raw)
        gaps = [(abs(raw[i][j] - raw[j][i]), i, j) for i in range(n) for j in range(n)]
        worst = max(gap for gap, _, _ in gaps)
        assume(worst > 1e-9)
        with pytest.raises(AsymmetryError) as exc:
            validate_adjacency(raw)
        assert exc.value.i < exc.value.j
        assert (exc.value.i, exc.value.j) == next((i, j) for gap, i, j in gaps
                                                  if gap == worst)
        assert exc.value.difference == worst

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5))
    def test_pairs_match_dense_oracle(self, data, n):
        """Validating pair vectors gives the whole-matrix validation's pairs
        bit for bit, or the same error with the same pair and gap, and
        never a floating-point warning."""
        raw = np.zeros((n, n))
        for i in range(n):
            raw[i, i] = data.draw(_ENTRIES)
            for j in range(i + 1, n):
                raw[i, j] = data.draw(_ENTRIES)
                raw[j, i] = data.draw(_mirror(raw[i, j]))
        try:
            want = dense_validate(raw)
        except (AsymmetryError, NonFiniteEntryError) as err:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(type(err)) as got:
                    validate_adjacency(raw)
            if isinstance(err, AsymmetryError):
                assert ((got.value.i, got.value.j, got.value.difference)
                        == (err.i, err.j, err.difference))
            assert str(got.value) == str(err)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = validate_adjacency(raw)
        assert g.m == 1 and g.n == n
        assert g.edges[0].tobytes() == want[pair_layout(n)].tobytes()

    def test_asymmetry_within_tolerance_averaged(self):
        raw = [[0.0, 1.0 + 4e-10], [1.0, 0.0]]
        g = validate_adjacency(raw)
        assert g.dense()[0, 1] == g.dense()[1, 0] == pytest.approx(1.0 + 2e-10, abs=0)

    def test_diagonal_forced_to_zero(self):
        g = validate_adjacency([[5.0, 1.0], [1.0, -2.0]])
        assert g.dense()[0, 0] == 0.0 and g.dense()[1, 1] == 0.0

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
            g.edges[0, 0] = 1.0


class TestGraphSample:
    def test_mixed_dimensions_rejected(self):
        g2 = validate_adjacency(np.zeros((2, 2)))
        g3 = validate_adjacency(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            GraphSample((g2, g3))
        with pytest.raises(DimensionMismatchError) as exc:
            GraphSample((g3, GraphSample((g3, g3)), g2))
        assert str(exc.value) == "sample 2 has 2 nodes, expected 3"

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            GraphSample(())

    def test_stacks_samples_in_order(self):
        edges = np.arange(15.0).reshape(5, 3)
        parts = [GraphSample.from_edges(edges[:2]), GraphSample.from_edges(edges[2:3]),
                 GraphSample.from_edges(edges[3:])]
        sample = GraphSample(parts)
        assert sample.m == 5 and sample.n == 3
        assert sample.edges.tobytes() == edges.tobytes()
        assert not sample.edges.flags.writeable
        assert GraphSample(sample.graphs).edges.tobytes() == edges.tobytes()

    def test_graphs_are_read_only_row_views(self):
        sample = GraphSample.from_edges(np.arange(12.0).reshape(2, 6))
        graphs = sample.graphs
        assert len(graphs) == 2
        for k, graph in enumerate(graphs):
            assert graph.m == 1 and graph.n == 4
            assert np.shares_memory(graph.edges, sample.edges)
            assert graph.edges.tobytes() == sample.edges[k].tobytes()
            with pytest.raises(ValueError):
                graph.edges[0, 0] = -1.0

    def test_dense_is_symmetric_with_zero_diagonal(self):
        graph = GraphSample.from_edges([[1.0, -2.0, 3.0]])
        assert graph.dense().tolist() == [[0.0, 1.0, -2.0], [1.0, 0.0, 3.0],
                                          [-2.0, 3.0, 0.0]]

    @pytest.mark.parametrize("m", [2, 3])
    def test_dense_needs_one_graph(self, m):
        sample = GraphSample.from_edges(np.zeros((m, 3)))
        with pytest.raises(ValueError) as exc:
            sample.dense()
        assert str(exc.value) == f"dense() needs a one-graph sample, got {m} graphs"

    @pytest.mark.parametrize("shape", [(2, 4), (3,), (0, 3)])
    def test_from_edges_bad_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatchError) as exc:
            GraphSample.from_edges(np.zeros(shape))
        assert str(exc.value) == (
            f"expected a non-empty (m, n(n-1)/2) edge array, got shape {shape}")

    @pytest.mark.parametrize("edges, dtype", [
        ([[True, False, True]], np.bool_), ([[1, 0, 2]], np.float64),
        (np.array([[1, 0, 2]], dtype=np.int8), np.float64),
        (np.array([[0.5, 0.0, 2.0]], dtype=np.float32), np.float64),
    ], ids=["bool", "int-list", "int8", "float32"])
    def test_from_edges_keeps_bool_and_makes_the_rest_float64(self, edges, dtype):
        sample = GraphSample.from_edges(edges)
        assert sample.edges.dtype == dtype
        assert sample.edges.tolist() == np.asarray(edges, dtype=dtype).tolist()

    def test_from_edges_wraps_a_contiguous_bool_array_without_copying(self):
        edges = np.array([[True, False, True], [False, False, True]])
        assert GraphSample.from_edges(edges).edges is edges

    def test_stacking_bool_with_float_gives_float64(self):
        binary = GraphSample.from_edges([[True, False, True]])
        weighted = GraphSample.from_edges([[0.5, -1.0, 0.0]])
        assert GraphSample((binary, binary)).edges.dtype == bool
        mixed = GraphSample((binary, weighted, binary))
        assert mixed.edges.dtype == np.float64
        assert mixed.edges.tolist() == [[1.0, 0.0, 1.0], [0.5, -1.0, 0.0],
                                        [1.0, 0.0, 1.0]]

    def test_graphs_of_a_bool_sample_are_read_only_bool_views(self):
        sample = GraphSample.from_edges(np.array([[True, False, True], [False, True, True]]))
        for k, graph in enumerate(sample.graphs):
            assert graph.edges.dtype == bool
            assert np.shares_memory(graph.edges, sample.edges)
            assert graph.edges.tolist() == [sample.edges[k].tolist()]
            with pytest.raises(ValueError):
                graph.edges[0, 0] = False

    def test_dense_of_a_bool_graph_has_the_float_graph_bytes(self):
        edges = np.random.default_rng(3).random((1, 15)) < 0.4
        binary = GraphSample.from_edges(edges).dense()
        assert binary.dtype == np.float64
        assert binary.tobytes() == GraphSample.from_edges(edges * 1.0).dense().tobytes()

    def test_edges_shape(self):
        g = validate_adjacency(np.zeros((4, 4)))
        sample = GraphSample((g, g, g))
        assert sample.edges.shape == (3, 6)
        assert sample.m == 3 and sample.n == 4


class TestThresholdBinarize:
    def _graph(self, value):
        return validate_adjacency([[0.0, value], [value, 0.0]])

    def test_above_threshold_is_one(self):
        assert threshold_binarize(self._graph(0.35), 0.3).dense()[0, 1] == 1.0

    def test_absolute_value_used(self):
        assert threshold_binarize(self._graph(-0.35), 0.3).dense()[0, 1] == 1.0

    def test_boundary_is_strict(self):
        # Equality at the threshold maps to 0 ("greater than", not ">=").
        assert threshold_binarize(self._graph(0.3), 0.3).dense()[0, 1] == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            threshold_binarize(self._graph(0.5), -0.1)

    def test_output_invariants(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(8, 8))
        g = validate_adjacency((raw + raw.T) / 2)
        out = threshold_binarize(g, 0.4)
        assert set(np.unique(out.dense())) <= {0.0, 1.0}
        assert not np.diagonal(out.dense()).any()
        assert np.array_equal(out.dense(), out.dense().T)

    def test_output_is_bool(self):
        out = threshold_binarize(self._graph(0.35), 0.3)
        assert out.edges.dtype == bool
        assert threshold_binarize(out, 0.5).edges.tolist() == [[True]]

    def test_antitone_in_threshold(self):
        """Raising tau can only remove edges, never add them."""
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(10, 10))
        g = validate_adjacency((raw + raw.T) / 2)
        taus = [0.0, 0.1, 0.3, 0.5, 0.9, 2.0]
        previous = threshold_binarize(g, taus[0]).dense()
        for tau in taus[1:]:
            current = threshold_binarize(g, tau).dense()
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

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                                     _ENTRIES), min_size=1, max_size=50))
    def test_bits_match_numpy_percentile(self, values):
        """Signed zeros, duplicates, and gaps that overflow (whose nan and
        inf quartiles must match too)."""
        with np.errstate(all="ignore"):
            got = five_number_summary(values).as_tuple()
            want = np.percentile(np.array(values), [0, 25, 50, 75, 100])
        assert np.array(got).tobytes() == want.tobytes()


class TestAdjacencyCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        raw = rng.normal(size=(6, 6))
        g = validate_adjacency((raw + raw.T) / 2)
        path = tmp_path / "graph.csv"
        save_adjacency_csv(g, path)
        back = load_adjacency_csv(path)
        assert np.array_equal(back.dense(), g.dense())

    @pytest.mark.parametrize("text", ["", "# no rows\n"])
    def test_file_without_data_is_empty_input(self, tmp_path, text):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(EmptyInputError, match="the file contains no data"):
            load_adjacency_csv(path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6))
    def test_saved_files_never_reach_loadtxt(self, data, n):
        """Every file save_adjacency_csv writes is canonical: np.loadtxt,
        patched to raise, is never called, and the pairs come back bit for
        bit."""
        edges = np.array(data.draw(st.lists(_ENTRIES, min_size=n * (n - 1) // 2,
                                            max_size=n * (n - 1) // 2)))
        graph = GraphSample.from_edges(edges[np.newaxis])

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt was called")
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "g.csv"
            save_adjacency_csv(graph, path)
            mp.setattr(np, "loadtxt", refuse)
            assert load_adjacency_csv(path).edges.tobytes() == graph.edges.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_the_loadtxt_oracle(self, data):
        """Any file gives the pairs of np.loadtxt and validate_adjacency bit
        for bit, or the same error class and message."""
        text, canonical = data.draw(_adjacency_files())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.csv"
            path.write_bytes(text)
            assert _outcome(load_adjacency_csv, path) == _outcome(loadtxt_adjacency, path)
            if canonical:
                assert _read_canonical(path) is not None

    def test_format_shape(self, tmp_path):
        g = validate_adjacency([[0.0, 0.5], [0.5, 0.0]])
        path = tmp_path / "g.csv"
        save_adjacency_csv(g, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert all(len(line.split(",")) == 2 for line in lines)


def _outcome(read, path):
    """The pair bytes ``read`` returns for ``path``, or the class and
    message of what it raises."""
    try:
        return read(path).edges.tobytes()
    except Exception as err:  # any error class must match
        return type(err), str(err)


_SPELLINGS = (lambda x: "%.17g" % x, repr, lambda x: "%g" % x, lambda x: "%.3e" % x)
# Tokens besides spelled floats: a sign, no digit before or after the point,
# zeros of both signs, one value spelled two ways, non-finite values, and an
# underscore, which float() accepts and np.loadtxt does not.
_LITERALS = ("+5", ".5", "5.", "-.5", "+.5e1", "0", "-0", "0.5", "5e-1", "1e999",
             "-1e999", "nan", "1e-400", "1_0")


@st.composite
def _token(draw, value=None):
    if value is None and draw(st.booleans()):
        return draw(st.sampled_from(_LITERALS))
    value = float(draw(_ENTRIES) if value is None else value)
    return draw(st.sampled_from(_SPELLINGS))(value)


@st.composite
def _adjacency_files(draw):
    """The bytes of a square CSV of 1 to 4 nodes, and whether they are
    canonical by construction.  A token below the diagonal repeats its
    mirror's bytes, spells the mirror's value another way, is off by a gap
    within or beyond TOLERANCE, or is unrelated.  Then the file may be
    damaged: CRLF, no final LF, a trailing space, a BOM, a # comment, a
    blank line, a ragged line, or no data at all."""
    n = draw(st.integers(1, 4))
    rows = [[None] * n for _ in range(n)]
    canonical = n >= 2
    for i in range(n):
        rows[i][i] = draw(_token())
        for j in range(i + 1, n):
            rows[i][j] = upper = draw(_token())
            kind = draw(st.sampled_from(["same", "same", "respelled", "gap", "other"]))
            if kind == "same":
                rows[j][i] = upper
                continue
            canonical = False
            if kind == "other":
                rows[j][i] = draw(_token())
                continue
            value = float(upper)
            if kind == "gap":
                value += draw(st.sampled_from([TOLERANCE / 2, -TOLERANCE, 2 * TOLERANCE]))
            rows[j][i] = draw(_token(value))
    canonical = canonical and all(set(t) <= set("0123456789.eE+-")
                                  and math.isfinite(float(t)) for row in rows for t in row)
    lines = [",".join(row) for row in rows]
    damage = draw(st.lists(st.sampled_from(["crlf", "no-final-lf", "trailing-space",
                                            "bom", "comment", "blank", "ragged",
                                            "empty"]), max_size=2, unique=True))
    k = draw(st.integers(0, n - 1))
    if "trailing-space" in damage:
        lines[k] += " "
    if "ragged" in damage:
        lines[k] = lines[k].rpartition(",")[0] if n > 1 else lines[k] + ",1"
    if "comment" in damage:
        lines.insert(k, "# exported adjacency")
    if "blank" in damage:
        lines.insert(k, "")
    newline = "\r\n" if "crlf" in damage else "\n"
    text = newline.join(lines) + ("" if "no-final-lf" in damage else newline)
    if "empty" in damage:
        text = draw(st.sampled_from(["", "\n", "# nothing\n"]))
    if "bom" in damage:
        text = "\ufeff" + text
    canonical = canonical and not set(damage) - {"no-final-lf"}
    return text.encode("utf-8"), canonical
