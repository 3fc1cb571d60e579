"""Tests for skyline layers, covering graphs and dominating sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.skyline.bnl import bnl_skyline
from repro.skyline.dominance import dominance_matrix, dominates
from repro.skyline.dominating import (
    FrequencyOracle,
    dominating_sets,
    evaluation_order,
    pair_frequency,
)
from repro.skyline.layers import covering_graph, skyline_layers

matrices = arrays(
    dtype=float,
    shape=st.tuples(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=3),
    ),
    elements=st.floats(min_value=0.0, max_value=1.0, width=32),
)


class TestSkylineLayers:
    def test_toy_layers_match_figure5(self, toy):
        layers = skyline_layers(toy.known_matrix())
        labelled = [sorted(toy.label(i) for i in layer) for layer in layers]
        assert labelled == [
            ["b", "e", "i", "l"],
            ["a", "d", "g", "k"],
            ["c", "f", "h"],
            ["j"],
        ]

    @settings(max_examples=40, deadline=None)
    @given(matrices)
    def test_layers_partition_all_tuples(self, data):
        layers = skyline_layers(data)
        flattened = sorted(i for layer in layers for i in layer)
        assert flattened == list(range(data.shape[0]))

    @settings(max_examples=40, deadline=None)
    @given(matrices)
    def test_first_layer_is_skyline(self, data):
        assert sorted(skyline_layers(data)[0]) == bnl_skyline(data)

    @settings(max_examples=30, deadline=None)
    @given(matrices)
    def test_no_dominance_within_a_layer(self, data):
        for layer in skyline_layers(data):
            for s in layer:
                for t in layer:
                    if s != t:
                        assert not dominates(data[s], data[t])


class TestCoveringGraph:
    def test_toy_covering_matches_table3(self, toy):
        cover = covering_graph(toy.known_matrix())
        expected = {
            "a": {"b"},
            "g": {"e"},
            "d": {"b", "e"},
            "k": {"i", "l"},
            "c": {"a", "e"},
            "f": {"a", "d"},
            "h": {"d", "g", "i"},
            "j": {"f", "h"},
        }
        for label, parents in expected.items():
            t = toy.index_of(label)
            assert {toy.label(s) for s in cover[t]} == parents

    def test_skyline_tuples_have_empty_cover(self, toy):
        cover = covering_graph(toy.known_matrix())
        for label in "beil":
            assert cover[toy.index_of(label)] == set()

    @settings(max_examples=30, deadline=None)
    @given(matrices)
    def test_cover_members_dominate_directly(self, data):
        matrix = dominance_matrix(data)
        cover = covering_graph(data)
        for t, parents in cover.items():
            for s in parents:
                assert matrix[s, t]
                # No intermediate: s dominates no other dominator of t.
                dominators = np.flatnonzero(matrix[:, t])
                assert not any(matrix[s, w] for w in dominators)


class TestDominatingSets:
    def test_toy_dominating_sets_match_table1(self, toy):
        ds = dominating_sets(toy.known_matrix())
        expected = {
            "a": {"b"},
            "c": {"a", "b", "e"},
            "d": {"b", "e"},
            "f": {"a", "b", "d", "e"},
            "g": {"e"},
            "h": {"b", "d", "e", "g", "i"},
            "j": {"a", "b", "d", "e", "f", "g", "h", "i"},
            "k": {"i", "l"},
        }
        for label, members in expected.items():
            t = toy.index_of(label)
            assert {toy.label(s) for s in ds[t]} == members

    def test_total_question_count_is_26(self, toy):
        """Example 3: Σ|DS(t)| = 26 for the toy dataset."""
        ds = dominating_sets(toy.known_matrix())
        assert sum(len(members) for members in ds) == 26

    @settings(max_examples=30, deadline=None)
    @given(matrices)
    def test_lemma3_monotonicity(self, data):
        """s ∈ DS(t) implies |DS(s)| < |DS(t)| (paper Lemma 3)."""
        ds = dominating_sets(data)
        for t, members in enumerate(ds):
            for s in members:
                assert len(ds[s]) < len(ds[t])

    def test_evaluation_order_matches_table2(self, toy):
        ds = dominating_sets(toy.known_matrix())
        order = [toy.label(t) for t in evaluation_order(ds)]
        # Empty-DS tuples (skyline) come first, then the Table 2 order.
        assert order[4:] == ["a", "g", "d", "k", "c", "f", "h", "j"]

    @settings(max_examples=30, deadline=None)
    @given(matrices)
    def test_evaluation_order_respects_dominance(self, data):
        ds = dominating_sets(data)
        order = evaluation_order(ds)
        position = {t: i for i, t in enumerate(order)}
        for t, members in enumerate(ds):
            for s in members:
                assert position[s] < position[t]


class TestFrequencyOracle:
    def test_pair_frequency_counts_co_domination(self, toy):
        matrix = dominance_matrix(toy.known_matrix())
        b, e = toy.index_of("b"), toy.index_of("e")
        # b dominates {a, c, d, f, h, j}; e dominates {c, d, f, g, h, j}:
        # co-dominated = {c, d, f, h, j}.
        assert pair_frequency(matrix, b, e) == 5

    def test_oracle_symmetric_and_cached(self, toy):
        oracle = FrequencyOracle(dominance_matrix(toy.known_matrix()))
        b, e = toy.index_of("b"), toy.index_of("e")
        assert oracle.freq(b, e) == oracle.freq(e, b) == 5

    def test_freq_matrix_matches_scalar(self, toy):
        matrix = dominance_matrix(toy.known_matrix())
        oracle = FrequencyOracle(matrix)
        members = [toy.index_of(x) for x in "bdei"]
        table = oracle.freq_matrix(members)
        for i, u in enumerate(members):
            for j, v in enumerate(members):
                if u != v:
                    assert table[i, j] == oracle.freq(u, v)

    def test_quantiles_monotone(self, small_independent):
        oracle = FrequencyOracle(
            dominance_matrix(small_independent.known_matrix())
        )
        low, high = oracle.quantiles([0.3, 0.7])
        assert low <= high

    def test_quantiles_empty_population(self):
        # Mutually incomparable data: nobody dominates anything.
        data = np.asarray([[float(i), float(9 - i)] for i in range(10)])
        oracle = FrequencyOracle(dominance_matrix(data))
        assert oracle.quantiles([0.3, 0.7]) == [0.0, 0.0]

    @pytest.mark.parametrize("n,d,seed", [(1, 2, 0), (2, 1, 0), (9, 2, 4),
                                          (12, 3, 5), (40, 2, 1),
                                          (150, 3, 2), (300, 2, 3)])
    def test_quantiles_equal_numpy_quantile(self, n, d, seed):
        """The histogram read-off equals ``np.quantile`` over the
        explicit population of positive pair frequencies, on tie-heavy
        data and at probabilities whose index lands on, between and at
        the ends of the sorted values."""
        data = np.random.default_rng(seed).integers(0, 5, size=(n, d))
        matrix = dominance_matrix(data.astype(float))
        oracle = FrequencyOracle(matrix)
        values = [
            oracle.freq(u, v) for u in range(n) for v in range(u + 1, n)
        ]
        values = np.array([x for x in values if x > 0], dtype=np.int64)
        probabilities = [i / 40 for i in range(41)] + [1 / 3, 0.7, 0.999]
        expected = (
            [float(np.quantile(values, p)) for p in probabilities]
            if values.size else [0.0] * len(probabilities)
        )
        assert oracle.quantiles(probabilities) == expected

    def test_histogram_read_off_equals_numpy_quantile(self):
        """The read-off interpolates bit for bit like ``np.quantile``,
        including the ``gamma >= 0.5`` branch of its ``_lerp``."""
        from repro.skyline.dominating import _linear_quantile

        rng = np.random.default_rng(11)
        probabilities = [i / 40 for i in range(41)] + [1 / 3, 0.7, 0.999]
        for _ in range(300):
            values = rng.integers(0, 20, size=int(rng.integers(1, 30)))
            cumulative = np.cumsum(np.bincount(values, minlength=21))
            for p in probabilities:
                assert _linear_quantile(
                    cumulative, len(values), p
                ) == float(np.quantile(values, p)), (values.tolist(), p)

    def test_oracle_refuses_sizes_float32_cannot_count(self):
        # 2**24 rows of zero columns: the size check without the memory.
        with pytest.raises(ValueError, match="float32"):
            FrequencyOracle(np.zeros((1 << 24, 0), dtype=bool))

    def test_freq_matrix_is_exact_int64(self):
        data = np.random.default_rng(5).integers(0, 6, size=(400, 2))
        matrix = dominance_matrix(data.astype(float))
        members = list(range(0, 400, 9))
        table = FrequencyOracle(matrix).freq_matrix(members)
        rows = matrix[members].astype(np.int64)
        assert table.dtype == np.int64
        assert np.array_equal(table, rows @ rows.T)
