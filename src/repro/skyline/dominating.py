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

Every ``DS(t)`` lives in one :class:`DominatingSets`: the evaluation
rank plus one bit row per tuple whose bit ``k`` stands for the ``k``-th
tuple of that rank. A row costs ``n/8`` bytes, and decoding it yields
``DS(t)`` already in evaluation order. :func:`dominating_sets` and
:func:`evaluation_order` are the plain-Python views of the same data.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, Iterable, List, Sequence, Set, Tuple as TupleT

import numpy as np

from repro.skyline.dominance import dominance_matrix

#: Matrix cells read per packing block: temporaries stay near this many
#: bytes whatever ``n`` is.
_BLOCK_CELLS = 1 << 20

#: float32 holds every integer below this exactly, so a float32 matmul
#: of 0/1 rows counts exactly while ``n`` stays below it.
_FLOAT32_EXACT = 1 << 24


def _rank_by_size(sizes: np.ndarray) -> np.ndarray:
    """Indices by ascending ``sizes``, ties by index (the Lemma 3 order)."""
    return np.lexsort((np.arange(len(sizes)), sizes))


class DominatingSets:
    """``DS(t) \\ removed`` for every tuple, as rank-ordered bit rows.

    * ``sizes[t]`` — ``|DS(t) \\ removed|``.
    * ``order`` — tuple indices by ``(sizes[t], t)``; ``rank`` is its
      inverse, the position of each tuple in ``order``.
    * ``rows`` — ``(n, 8·ceil(n/64))`` uint8, big-endian bits as
      :func:`numpy.packbits` writes them: bit ``k`` of row ``t`` is set
      iff ``order[k] ∈ DS(t) \\ removed``. Rows are padded to whole
      64-bit words so a batch of them can be viewed as ``uint64``.

    Build one with :func:`pack_dominating_sets`.
    """

    def __init__(
        self, sizes: np.ndarray, order: np.ndarray, rows: np.ndarray
    ) -> None:
        self.sizes = sizes
        self.order = order
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(len(order))
        self.rows = rows

    def __len__(self) -> int:
        return len(self.sizes)

    def size(self, t: int) -> int:
        """``|DS(t) \\ removed|``."""
        return int(self.sizes[t])

    def members(self, t: int) -> List[int]:
        """``DS(t) \\ removed`` in evaluation order."""
        bits = np.unpackbits(self.rows[t], count=len(self.sizes))
        return self.order[np.flatnonzero(bits)].tolist()

    def bit_row(self, indices: Iterable[int]) -> np.ndarray:
        """``indices`` packed as one row in the layout of :attr:`rows`."""
        bits = np.zeros(self.rows.shape[1] * 8, dtype=bool)
        idx = np.fromiter(indices, dtype=np.intp)
        bits[self.rank[idx]] = True
        return np.packbits(bits)


def pack_dominating_sets(
    matrix: np.ndarray, removed: Collection[int] = ()
) -> DominatingSets:
    """Every ``DS(t) \\ removed`` read off the dominance ``matrix``.

    ``matrix[s, t]`` means ``s`` dominates ``t``, so ``DS(t)`` is column
    ``t``. Columns are packed in blocks, so temporaries stay
    ``O(block · n)`` and the result costs ``n²/8`` bytes.
    """
    n = matrix.shape[0]
    dropped = np.fromiter(removed, dtype=np.intp, count=len(removed))
    sizes = np.count_nonzero(matrix, axis=0) - np.count_nonzero(
        matrix[dropped], axis=0
    )
    order = _rank_by_size(sizes)
    keep = np.ones(n, dtype=bool)
    keep[dropped] = False
    keep_ranked = keep[order][:, None]
    rows = np.zeros((n, ((n + 63) >> 6) << 3), dtype=np.uint8)
    block = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        bits = matrix[order, start:stop]
        bits &= keep_ranked
        rows[start:stop, :(n + 7) >> 3] = np.packbits(bits.T, axis=1)
    return DominatingSets(sizes, order, rows)


def dominating_sets(data: np.ndarray) -> List[Set[int]]:
    """``DS(t)`` for every row ``t`` of ``data`` (smaller preferred)."""
    packed = pack_dominating_sets(
        dominance_matrix(np.asarray(data, dtype=float))
    )
    return [set(packed.members(t)) for t in range(len(packed))]


def evaluation_order(dominating: Sequence[Collection[int]]) -> List[int]:
    """Tuple indices sorted by ascending ``|DS(t)|``, ties by index."""
    sizes = np.array([len(members) for members in dominating], dtype=np.int64)
    return _rank_by_size(sizes).tolist()


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
        if len(self._matrix) >= _FLOAT32_EXACT:
            raise ValueError(
                f"FrequencyOracle counts in float32, exact only below "
                f"{_FLOAT32_EXACT} tuples; got {len(self._matrix)}"
            )
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
        int64 matrix (vectorized; used by probing on large dominating
        sets). The product runs in float32, which numpy hands to BLAS and
        which counts exactly below ``2**24`` tuples."""
        rows = self._matrix[members].astype(np.float32)
        return (rows @ rows.T).astype(np.int64)

    def quantiles(self, probabilities: List[float]) -> List[float]:
        """Quantiles of ``freq`` over all dominated-pair combinations.

        Used by dynamic voting to derive the ``α``/``β`` importance
        thresholds from the data (paper §5/§6.1: top ~30% of questions get
        more workers, bottom ~30% fewer). The population is all unordered
        pairs ``(u, v)`` of tuples that dominate at least one common tuple
        — the pairs that can actually appear as probing questions.

        ``freq(u, v) = (M Mᵀ)[u, v]`` lies in ``[0, n]``, so the
        population is kept as a histogram: ``M Mᵀ`` is formed in float32
        row blocks over the upper triangle only, each block adds its
        ``bincount``, and each quantile is read off the cumulative counts
        with :func:`numpy.quantile`'s ``linear`` rule. Memory stays at
        the float32 copy of ``M`` plus one block.
        """
        n = len(self._matrix)
        rows = self._matrix.astype(np.float32)
        histogram = np.zeros(n + 1, dtype=np.int64)
        # float32 cells: one block's product is about _BLOCK_CELLS bytes.
        block = max(1, (_BLOCK_CELLS >> 2) // max(n, 1))
        for start in range(0, n, block):
            stop = min(start + block, n)
            # Row i of the block against columns j >= start; triu keeps
            # j > i, and the zeroed cells land in bin 0.
            co_domination = rows[start:stop] @ rows[start:].T
            histogram += np.bincount(
                np.triu(co_domination, k=1).astype(np.intp).ravel(),
                minlength=n + 1,
            )
        histogram[0] = 0
        cumulative = np.cumsum(histogram)
        total = int(cumulative[-1])
        if total == 0:
            return [0.0 for _ in probabilities]
        return [_linear_quantile(cumulative, total, p) for p in probabilities]


def _linear_quantile(cumulative: np.ndarray, total: int, p: float) -> float:
    """``np.quantile(values, p)`` (``linear`` method) from the cumulative
    histogram of ``total`` non-negative integer ``values``: the ``k``-th
    smallest value is the first bin whose cumulative count exceeds
    ``k``, and the two neighbours are interpolated exactly as numpy's
    ``_lerp`` does."""

    def order_statistic(k: int) -> int:
        return int(np.searchsorted(cumulative, k, side="right"))

    index = (total - 1) * p
    if index >= total - 1:
        return float(order_statistic(total - 1))
    lower = math.floor(index)
    gamma = index - lower
    a, b = order_statistic(lower), order_statistic(lower + 1)
    diff = b - a
    if gamma >= 0.5:
        return float(b - diff * (1 - gamma))
    return float(a + diff * gamma)
