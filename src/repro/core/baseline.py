"""The sort-based Baseline (paper §3, §6).

The Baseline crowdsources a *total order* of all tuples on every crowd
attribute via tournament sort, then computes the skyline machine-side
over the known values plus the crowdsourced ranks. It obtains every
missing preference — far more than needed for a skyline — which is
exactly the waste CrowdSky's dominating sets eliminate.

Latency: every comparison depends on earlier match outcomes, so the
Baseline runs one question per round (its round count equals its fresh
question count), matching its placement in Figures 8-9 and 12(b).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.result import CrowdSkylineResult
from repro.crowd.platform import SimulatedCrowd
from repro.questions import PairwiseQuestion, Preference
from repro.data.relation import Relation
from repro.exceptions import CrowdSkyError
from repro.obs import phase, run_span
from repro.skyline.bnl import bnl_skyline
from repro.sorting.comparators import crowd_comparator
from repro.sorting.tournament import tournament_sort


def crowd_ranks(
    relation: Relation, crowd: SimulatedCrowd, attribute: int
) -> np.ndarray:
    """Crowdsource a rank column for one crowd attribute.

    Tuples the crowd judged equal (adjacent in the total order with a
    cached ``EQUAL`` answer) receive the same rank so that neither
    spuriously dominates the other.
    """
    n = len(relation)
    order = tournament_sort(range(n), crowd_comparator(crowd, attribute))
    ranks = np.empty(n, dtype=float)
    rank = 0
    previous: Optional[int] = None
    for position, t in enumerate(order):
        if previous is not None:
            answer = crowd.cached_answer(
                PairwiseQuestion(previous, t, attribute)
            )
            if answer is not Preference.EQUAL:
                rank = position
        ranks[t] = rank
        previous = t
    return ranks


def bitonic_crowd_ranks(
    relation: Relation, crowd: SimulatedCrowd, attribute: int
) -> np.ndarray:
    """Crowdsource a rank column via a bitonic network (§3's alternative).

    Unlike the tournament, a bitonic network is oblivious: every stage's
    comparisons are independent, so the whole stage is asked as *one*
    round — ``O(log² n)`` rounds at the price of ``O(n log² n)``
    questions. Previously answered pairs are served from the platform
    cache.
    """
    from repro.sorting.bitonic import bitonic_sort

    n = len(relation)

    def prefetch(pairs):
        crowd.ask_pairwise_round(
            [PairwiseQuestion(a, b, attribute) for a, b in pairs]
        )

    def compare(a: int, b: int) -> Preference:
        answer = crowd.cached_answer(PairwiseQuestion(a, b, attribute))
        assert answer is not None, "stage prefetch must answer every pair"
        return answer

    order = bitonic_sort(range(n), compare, on_stage=prefetch)
    ranks = np.empty(n, dtype=float)
    rank = 0
    previous: Optional[int] = None
    for position, t in enumerate(order):
        if previous is not None:
            answer = crowd.cached_answer(
                PairwiseQuestion(previous, t, attribute)
            )
            if answer is not Preference.EQUAL:
                rank = position
        ranks[t] = rank
        previous = t
    return ranks


def baseline_skyline(
    relation: Relation,
    crowd: Optional[SimulatedCrowd] = None,
    sort: str = "tournament",
) -> CrowdSkylineResult:
    """Compute the crowdsourced skyline via full crowd sorting.

    Parameters
    ----------
    relation:
        Dataset with at least one crowd attribute.
    crowd:
        Crowd platform (perfect by default).
    sort:
        ``"tournament"`` (the paper's default: fewest questions, fully
        serial) or ``"bitonic"`` (more questions, but each network stage
        is one parallel round — ``O(log² n)`` rounds).
    """
    if relation.schema.num_crowd < 1:
        raise CrowdSkyError("Baseline needs at least one crowd attribute")
    if sort not in ("tournament", "bitonic"):
        raise CrowdSkyError(f"unknown Baseline sort {sort!r}")
    if crowd is None:
        crowd = SimulatedCrowd(relation)

    ranker = crowd_ranks if sort == "tournament" else bitonic_crowd_ranks
    with run_span("baseline", n=len(relation), sort=sort) as span:
        with phase("crowd_sort"):
            rank_columns: List[np.ndarray] = [
                ranker(relation, crowd, attribute)
                for attribute in range(relation.schema.num_crowd)
            ]
        with phase("machine_skyline"):
            augmented = np.hstack(
                [relation.known_matrix()]
                + [column[:, None] for column in rank_columns]
            )
            skyline = set(bnl_skyline(augmented))

        result = CrowdSkylineResult(
            skyline=skyline,
            stats=crowd.stats,
            question_log=list(crowd.question_log),
            algorithm=f"Baseline[{sort}]",
            metrics=crowd.metrics,
        )
    if span is not None:
        result.wall_time_s = span.duration_s
    return result
