"""Tests for dominance primitives, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.skyline.dominance import (
    DominanceRelation,
    compare,
    dominance_matrix,
    dominates,
    incomparable,
    skyline_mask,
)
from tests.strategies import known_matrices

matrices = arrays(
    dtype=float,
    shape=st.tuples(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=4),
    ),
    elements=st.floats(min_value=0.0, max_value=1.0, width=32),
)


class TestPredicates:
    def test_strict_dominance(self):
        assert dominates((1, 2), (2, 3))

    def test_weak_dominance_needs_one_strict(self):
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 2), (1, 2))

    def test_no_dominance_when_worse_somewhere(self):
        assert not dominates((1, 5), (2, 3))

    def test_incomparable_symmetric_cases(self):
        assert incomparable((1, 5), (2, 3))
        assert incomparable((2, 3), (1, 5))
        assert incomparable((1, 2), (1, 2))  # equal tuples

    def test_compare_outcomes(self):
        assert compare((1, 2), (2, 3)) is DominanceRelation.FIRST_DOMINATES
        assert compare((2, 3), (1, 2)) is DominanceRelation.SECOND_DOMINATES
        assert compare((1, 2), (1, 2)) is DominanceRelation.EQUAL
        assert compare((1, 5), (2, 3)) is DominanceRelation.INCOMPARABLE


class TestDominanceMatrix:
    def test_matches_pairwise_predicate(self):
        rng = np.random.default_rng(0)
        data = rng.random((20, 3))
        matrix = dominance_matrix(data)
        for i in range(20):
            for j in range(20):
                assert matrix[i, j] == dominates(data[i], data[j])

    def test_diagonal_false(self):
        data = np.random.default_rng(1).random((10, 2))
        assert not np.any(np.diag(dominance_matrix(data)))

    def test_chunking_equivalence(self):
        data = np.random.default_rng(2).random((40, 3))
        assert np.array_equal(
            dominance_matrix(data, chunk_size=7),
            dominance_matrix(data, chunk_size=512),
        )

    @settings(max_examples=40, deadline=None)
    @given(matrices)
    def test_antisymmetric(self, data):
        matrix = dominance_matrix(data)
        assert not np.any(matrix & matrix.T)

    @settings(max_examples=40, deadline=None)
    @given(matrices)
    def test_transitive(self, data):
        matrix = dominance_matrix(data)
        n = matrix.shape[0]
        for i in range(n):
            for j in range(n):
                if matrix[i, j]:
                    # i ≺ j: everything j dominates, i dominates or equals.
                    dominated_by_j = np.flatnonzero(matrix[j])
                    for k in dominated_by_j:
                        assert matrix[i, k] or np.all(data[i] == data[k])


def _brute_force_matrix(rows):
    """``M[i][j]`` = row ``i`` dominates row ``j``, by a plain double loop
    over Python tuples (shares nothing with the numpy kernel)."""
    return [
        [
            all(a <= b for a, b in zip(s, t))
            and any(a < b for a, b in zip(s, t))
            for t in rows
        ]
        for s in rows
    ]


@pytest.mark.parametrize("d", [0, 1, 2, 4, 7])
@pytest.mark.parametrize("n", [0, 1, 63, 513])
def test_kernels_match_brute_force(n, d):
    """The per-dimension kernels equal the brute-force definition on
    tie-heavy data (values drawn from four levels), for every chunk size,
    including ``d == 0`` (nothing dominates, everything is skyline)."""
    rng = np.random.default_rng(1000 * n + d)
    data = rng.integers(0, 4, size=(n, d)).astype(float)
    expected = np.array(
        _brute_force_matrix([tuple(row) for row in data.tolist()]),
        dtype=bool,
    ).reshape(n, n)
    expected_mask = ~expected.any(axis=0)
    for chunk_size in (1, 7, 64, 512, 1024):
        assert np.array_equal(
            dominance_matrix(data, chunk_size=chunk_size), expected
        ), chunk_size
        assert np.array_equal(
            skyline_mask(data, chunk_size=chunk_size), expected_mask
        ), chunk_size


class TestSkylineMask:
    def test_matches_definition(self):
        rng = np.random.default_rng(3)
        data = rng.random((30, 3))
        mask = skyline_mask(data)
        matrix = dominance_matrix(data)
        for t in range(30):
            assert mask[t] == (not np.any(matrix[:, t]))

    @settings(max_examples=40, deadline=None)
    @given(matrices)
    def test_skyline_never_empty(self, data):
        assert np.any(skyline_mask(data))

    def test_equal_tuples_both_in_skyline(self):
        data = np.asarray([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        mask = skyline_mask(data)
        assert mask[0] and mask[1] and not mask[2]


class TestGeneratedRelations:
    """Properties over the shared relation-shape strategy
    (``tests/strategies/relations.py``): correlated, anticorrelated and
    duplicate-heavy grids with dense ties, the shapes the ``matrices``
    float strategy almost never hits."""

    @settings(max_examples=60, deadline=None)
    @given(known_matrices())
    def test_mask_matches_matrix_on_distribution_shapes(self, data):
        mask = skyline_mask(data)
        matrix = dominance_matrix(data)
        assert np.array_equal(mask, ~matrix.any(axis=0))

    @settings(max_examples=60, deadline=None)
    @given(known_matrices())
    def test_duplicate_rows_share_skyline_membership(self, data):
        mask = skyline_mask(data)
        n = data.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if np.all(data[i] == data[j]):
                    assert mask[i] == mask[j]

    @settings(max_examples=40, deadline=None)
    @given(known_matrices(kinds=("duplicate_heavy",), max_rows=20))
    def test_chunked_matrix_stable_on_duplicate_heavy(self, data):
        assert np.array_equal(
            dominance_matrix(data, chunk_size=3),
            dominance_matrix(data, chunk_size=512),
        )
