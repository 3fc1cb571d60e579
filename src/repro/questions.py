"""Question and answer formats for crowd micro-tasks (paper §2.1).

This vocabulary is deliberately crowd-independent: the sorting
substrate, the core engine, and the crowd platform all speak it, so it
sits below every one of those layers in the import DAG (RA004);
:mod:`repro.crowd` re-exports it for convenience.

The paper adopts the *qualitative* format: a pair-wise question ``(s, t)``
with ternary answers (``s`` preferred / ``t`` preferred / equally
preferred), symmetric in its arguments. The *quantitative* (unary) format
of Lofi et al. [12] is also modelled for the accuracy comparison (§6.1).

When ``|AC| = m > 1`` the pair ``(s, t)`` expands into ``m`` micro-
questions, one per crowd attribute — hence every question carries the
index of the crowd attribute it refers to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple as TupleT


class Preference(enum.Enum):
    """Ternary answer to a pairwise question, relative to ``(left, right)``."""

    LEFT = "left"
    RIGHT = "right"
    EQUAL = "equal"

    def flipped(self) -> "Preference":
        """The answer as seen from the swapped pair ``(right, left)``."""
        if self is Preference.LEFT:
            return Preference.RIGHT
        if self is Preference.RIGHT:
            return Preference.LEFT
        return Preference.EQUAL

    def opposite(self) -> "Preference":
        """The *wrong* strict answer — used by worker error models."""
        return self.flipped()


@dataclass(frozen=True)
class PairwiseQuestion:
    """A pairwise micro-question: which of two tuples is preferred on one
    crowd attribute?

    ``left``/``right`` are tuple indices; ``attribute`` is the crowd
    attribute index within ``AC`` (0-based). Questions are symmetric:
    ``(s, t)`` and ``(t, s)`` are the same micro-task; :meth:`key` gives
    the canonical identity used for caching/deduplication.
    """

    left: int
    right: int
    attribute: int = 0

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError("pairwise question needs two distinct tuples")

    def key(self) -> TupleT[int, int, int]:
        """Order-insensitive identity of the micro-task."""
        lo, hi = sorted((self.left, self.right))
        return (lo, hi, self.attribute)

    def canonical(self) -> "PairwiseQuestion":
        """The same question with ``left < right``."""
        if self.left < self.right:
            return self
        return PairwiseQuestion(self.right, self.left, self.attribute)

    def __repr__(self) -> str:
        return f"({self.left}, {self.right})@C{self.attribute}"


@dataclass(frozen=True)
class MultiwayQuestion:
    """An m-ary micro-question: which of ``k`` tuples is most preferred?

    §2.1 notes the qualitative format "can be extended to an m-ary
    format"; showing a worker several items at once ("which of these
    four movies is the most romantic?") resolves ``k − 1`` pairwise
    preferences with a single micro-task. The answer is the *tuple
    index* of the chosen candidate.
    """

    candidates: TupleT[int, ...]
    attribute: int = 0

    def __post_init__(self) -> None:
        if len(self.candidates) < 2:
            raise ValueError("multiway question needs at least two tuples")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("multiway question candidates must be distinct")

    def key(self) -> TupleT:
        """Order-insensitive identity of the micro-task."""
        return (tuple(sorted(self.candidates)), self.attribute)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.candidates)
        return f"({inner})@C{self.attribute}"


@dataclass(frozen=True)
class UnaryQuestion:
    """A quantitative micro-question: rate one tuple on one crowd attribute.

    Models the unary format of [12]; workers return a numeric estimate of
    the latent value.
    """

    tuple_index: int
    attribute: int = 0

    def __repr__(self) -> str:
        return f"u({self.tuple_index})@C{self.attribute}"
