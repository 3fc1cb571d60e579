"""Dominating sets and pair frequencies (paper §3.1, §3.4, §5).

* ``DS(t)`` — the set of tuples that dominate ``t`` in ``AK``
  (Definition 5). Only questions ``(s, t)`` with ``s ∈ DS(t)`` can affect
  whether ``t`` is a skyline tuple (Lemma 1).
* ``freq(u, v)`` — the number of tuples dominated by *both* ``u`` and
  ``v`` in ``AK``; used to order probing questions (§3.4) and to grade
  question importance for dynamic voting (§5).
* The evaluation order sorts tuples by ascending ``|DS(t)|`` (Lemma 3
  guarantees this respects the dominance partial order), breaking ties by
  tuple index — which reproduces the paper's Table 2(a) ordering.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple as TupleT

import numpy as np

from repro.skyline.dominance import dominance_matrix


def dominating_sets(data: np.ndarray) -> List[Set[int]]:
    """``DS(t)`` for every row ``t`` of ``data`` (smaller preferred)."""
    matrix = dominance_matrix(np.asarray(data, dtype=float))
    return dominating_sets_from_matrix(matrix)


def dominating_sets_from_matrix(matrix: np.ndarray) -> List[Set[int]]:
    """``DS(t)`` read off a precomputed dominance matrix.

    Lets callers that already hold the matrix (the sharded machine
    phase, :func:`repro.core.engine.build_context`) derive the sets
    without a second quadratic pass over the data.
    """
    return [set(int(s) for s in np.flatnonzero(matrix[:, t]))
            for t in range(matrix.shape[0])]


def evaluation_order(dominating: List[Set[int]]) -> List[int]:
    """Tuple indices sorted by ascending ``|DS(t)|``, ties by index."""
    return sorted(range(len(dominating)), key=lambda t: (len(dominating[t]), t))


def packed_bitset_rows(sets: List[Set[int]], n: int) -> np.ndarray:
    """Index sets packed into rows of a ``(len(sets), ceil(n/64))``
    uint64 matrix.

    A disjointness or membership test against many sets becomes one
    vectorized ``AND``/``any`` over the rows instead of a Python loop
    over the sets. Bit ``i`` of row ``r`` lives at
    ``rows[r, i >> 6] >> (i & 63) & 1``.
    """
    words = max(1, (n + 63) >> 6)
    rows = np.zeros((len(sets), words), dtype=np.uint64)
    for index, members in enumerate(sets):
        if not members:
            continue
        idx = np.fromiter(members, dtype=np.int64, count=len(members))
        np.bitwise_or.at(
            rows[index],
            idx >> 6,
            np.uint64(1) << (idx & 63).astype(np.uint64),
        )
    return rows


def pair_frequency(matrix: np.ndarray, u: int, v: int) -> int:
    """``freq(u, v)`` — tuples dominated by both ``u`` and ``v`` in AK."""
    return int(np.count_nonzero(matrix[u] & matrix[v]))


def pair_frequency_table(
    data: np.ndarray,
) -> TupleT[np.ndarray, Dict[TupleT[int, int], int]]:
    """The dominance matrix plus a lazy frequency lookup helper.

    Returns the boolean dominance matrix and an (initially empty) cache
    dict; use :func:`pair_frequency` for individual lookups. Provided for
    callers that need many frequencies without recomputing the matrix.
    """
    matrix = dominance_matrix(np.asarray(data, dtype=float))
    cache: Dict[TupleT[int, int], int] = {}
    return matrix, cache


class FrequencyOracle:
    """Cached ``freq(u, v)`` lookups over a fixed dominance matrix.

    ``freq`` depends only on the machine-known ``AK`` values, so it can be
    precomputed/cached freely without touching the crowd.
    """

    def __init__(self, dominance: np.ndarray):
        self._matrix = np.asarray(dominance, dtype=bool)
        self._cache: Dict[TupleT[int, int], int] = {}

    def freq(self, u: int, v: int) -> int:
        """``freq(u, v)``, symmetric in its arguments."""
        key = (u, v) if u <= v else (v, u)
        value = self._cache.get(key)
        if value is None:
            value = pair_frequency(self._matrix, u, v)
            self._cache[key] = value
        return value

    def freq_matrix(self, members: List[int]) -> np.ndarray:
        """``freq(u, v)`` for all pairs of ``members`` as a ``k × k``
        matrix (vectorized; used by probing on large dominating sets)."""
        rows = self._matrix[members].astype(np.int64)
        return rows @ rows.T

    def quantiles(self, probabilities: List[float]) -> List[float]:
        """Quantiles of ``freq`` over all dominated-pair combinations.

        Used by dynamic voting to derive the ``α``/``β`` importance
        thresholds from the data (paper §5/§6.1: top ~30% of questions get
        more workers, bottom ~30% fewer). The population is all unordered
        pairs ``(u, v)`` of tuples that dominate at least one common tuple
        — the pairs that can actually appear as probing questions.
        """
        counts = self._matrix.astype(np.int64)
        # freq(u, v) = (M M^T)[u, v]: co-domination counts for all pairs.
        co_domination = counts @ counts.T
        iu = np.triu_indices(co_domination.shape[0], k=1)
        values = co_domination[iu]
        values = values[values > 0]
        if values.size == 0:
            return [0.0 for _ in probabilities]
        return [float(np.quantile(values, p)) for p in probabilities]
