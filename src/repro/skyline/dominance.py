"""Dominance primitives over fully-known value matrices (paper §2.2).

All functions assume the canonical "smaller preferred" convention
(relations canonicalize ``MAX`` attributes by negation, see
:meth:`repro.data.relation.Relation.known_matrix`).

Definitions (paper Definitions 1-2): ``s`` *dominates* ``t`` when ``s`` is
no worse on every attribute and strictly better on at least one; ``s`` and
``t`` are *incomparable* when neither dominates the other.
"""

from __future__ import annotations

import enum
from typing import List, Sequence, Union

import numpy as np

ArrayLike = Union[Sequence[float], np.ndarray]


class DominanceRelation(enum.Enum):
    """Outcome of comparing two tuples on known values."""

    FIRST_DOMINATES = "first"
    SECOND_DOMINATES = "second"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def dominates(s: ArrayLike, t: ArrayLike) -> bool:
    """True when ``s ≺ t`` (``s`` no worse everywhere, better somewhere)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return bool(np.all(s <= t) and np.any(s < t))


def incomparable(s: ArrayLike, t: ArrayLike) -> bool:
    """True when neither tuple dominates the other and they differ."""
    return not dominates(s, t) and not dominates(t, s)


def compare(s: ArrayLike, t: ArrayLike) -> DominanceRelation:
    """Full three-way-plus-equal comparison of two tuples."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s_no_worse = bool(np.all(s <= t))
    t_no_worse = bool(np.all(t <= s))
    if s_no_worse and t_no_worse:
        return DominanceRelation.EQUAL
    if s_no_worse:
        return DominanceRelation.FIRST_DOMINATES
    if t_no_worse:
        return DominanceRelation.SECOND_DOMINATES
    return DominanceRelation.INCOMPARABLE


def _dominance_rows(
    columns: Sequence[np.ndarray],
    start: int,
    stop: int,
    out: np.ndarray,
    le: np.ndarray,
    cmp: np.ndarray,
) -> None:
    """``out[i, j] = row start+i dominates row j`` for one row block.

    One 2-D comparison per dimension: ``<=`` results are ANDed into
    ``le`` and ``<`` results ORed into ``out``. Reducing a ``(b, n, d)``
    buffer over its last axis instead is numpy's slow path at small
    ``d``. ``out``, ``le`` and ``cmp`` are ``(stop - start, n)``
    bool buffers; ``columns`` holds at least one dimension.
    """
    first = columns[0]
    block = first[start:stop, None]
    np.less_equal(block, first, out=le)
    np.less(block, first, out=out)
    for column in columns[1:]:
        block = column[start:stop, None]
        np.less_equal(block, column, out=cmp)
        le &= cmp
        np.less(block, column, out=cmp)
        out |= cmp
    out &= le


def _columns(data: np.ndarray) -> List[np.ndarray]:
    """The contiguous columns of an ``(n, d)`` matrix."""
    return [np.ascontiguousarray(data[:, k]) for k in range(data.shape[1])]


def dominance_matrix(data: np.ndarray, chunk_size: int = 512) -> np.ndarray:
    """Boolean matrix ``M`` with ``M[i, j] = data[i] dominates data[j]``.

    Vectorized with row chunking so memory stays at
    ``O(chunk_size · n)`` — the paper's grids go to ``n = 10K`` where a
    naive Python double loop would be prohibitive. With no dimensions
    nothing dominates anything.

    Parameters
    ----------
    data:
        ``(n, d)`` float matrix, smaller preferred.
    chunk_size:
        Rows per broadcasting block.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    result = np.zeros((n, n), dtype=bool)
    if n == 0 or data.shape[1] == 0:
        return result
    columns = _columns(data)
    # Comparison buffers are allocated once and reused across chunks.
    b = min(chunk_size, n)
    le = np.empty((b, n), dtype=bool)
    cmp = np.empty((b, n), dtype=bool)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        size = stop - start
        _dominance_rows(columns, start, stop, result[start:stop],
                        le[:size], cmp[:size])
    return result


def skyline_mask(data: np.ndarray, chunk_size: int = 512) -> np.ndarray:
    """Boolean mask of skyline membership, computed without the full matrix.

    A tuple is in the skyline iff no other tuple dominates it
    (paper Definition 3). With no dimensions every tuple is.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    dominated = np.zeros(n, dtype=bool)
    if n == 0 or data.shape[1] == 0:
        return ~dominated
    columns = _columns(data)
    # Same reused-buffer scheme as :func:`dominance_matrix`.
    b = min(chunk_size, n)
    rows = np.empty((b, n), dtype=bool)
    le = np.empty((b, n), dtype=bool)
    cmp = np.empty((b, n), dtype=bool)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        size = stop - start
        _dominance_rows(columns, start, stop, rows[:size], le[:size],
                        cmp[:size])
        dominated |= rows[:size].any(axis=0)
    return ~dominated
