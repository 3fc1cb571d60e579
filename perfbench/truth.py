"""Ground truth for the benchmark's result checks.

Brute force on purpose: every tuple is compared with every other tuple,
so the check shares no code, index or ordering with ``repro.skyline``.
All inputs are "smaller is better" float matrices.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

import numpy as np

#: Rows compared against the whole matrix at once; bounds the temporary
#: boolean blocks to CHUNK x n.
CHUNK = 512


def skyline(points: np.ndarray) -> Set[int]:
    """Row indices of ``points`` that no other row dominates."""
    points = np.asarray(points, dtype=float)
    survivors: Set[int] = set()
    for start in range(0, len(points), CHUNK):
        block = points[start:start + CHUNK]
        no_worse = np.ones((len(block), len(points)), dtype=bool)
        better = np.zeros_like(no_worse)
        for column in range(points.shape[1]):
            theirs = points[None, :, column]
            mine = block[:, column, None]
            no_worse &= theirs <= mine
            better |= theirs < mine
        dominated = (no_worse & better).any(axis=1)
        survivors.update(start + int(i) for i in np.flatnonzero(~dominated))
    return survivors


def new_tuple_counts(
    predicted: Iterable[int], truth: Set[int], ak_skyline: Set[int]
) -> Tuple[int, int, int]:
    """``(correct, predicted_new, truth_new)`` over tuples outside
    ``SKY_AK(R)``, the paper's §6.1 convention for accuracy."""
    predicted_new = set(predicted) - ak_skyline
    truth_new = truth - ak_skyline
    return len(predicted_new & truth_new), len(predicted_new), len(truth_new)

