"""Reproductions of the paper's worked Tables 1-3 on the toy dataset.

These are exact, deterministic artifacts: Table 1 lists the dominating
and question sets of the Figure 1 dataset; Table 2 shows them sorted by
``|DS(t)|`` with the Corollary-1 prunings after ``{a, g, d}`` turn out to
be non-skyline tuples; Table 3 shows the ParallelSL round schedule.
"""

from __future__ import annotations

from typing import Dict, List, Tuple as TupleT

from repro.core.parallel import parallel_sl
from repro.data.relation import Relation
from repro.data.toy import figure1_dataset
from repro.skyline.dominance import dominance_matrix
from repro.skyline.dominating import DominatingSets, pack_dominating_sets
from repro.skyline.layers import covering_graph


def _labels(relation: Relation, indices) -> List[str]:
    return sorted(relation.label(i) for i in indices)


def _toy_dominating() -> TupleT[Relation, DominatingSets]:
    """The Figure 1 dataset and its DS(t), packed as the engine packs
    them, so the tables read the engine's own evaluation rank."""
    relation = figure1_dataset()
    matrix = dominance_matrix(relation.known_matrix())
    return relation, pack_dominating_sets(matrix)


def table1_rows() -> List[Dict[str, object]]:
    """Table 1: dominating sets and question sets of the toy dataset."""
    relation, ds = _toy_dominating()
    rows = []
    for t in range(len(relation)):
        if not ds.size(t):
            continue
        label = relation.label(t)
        members = _labels(relation, ds.members(t))
        rows.append(
            {
                "t": label,
                "DS(t)": "{" + ", ".join(members) + "}",
                "Q(t)": ", ".join(f"({label}, {s})" for s in members),
                "|DS(t)|": len(members),
            }
        )
    rows.sort(key=lambda row: row["t"])
    return rows


def table2_rows() -> List[Dict[str, object]]:
    """Table 2: sorted dominating sets with Corollary-1 prunings.

    Reproduces the static listing of the paper: tuples ordered by
    ``|DS(t)|`` and the question sets remaining after the non-skyline
    tuples ``{a, g, d}`` are removed from later dominating sets.
    """
    relation, ds = _toy_dominating()
    non_skyline = {relation.index_of(x) for x in ("a", "g", "d")}
    rows = []
    for t in ds.order.tolist():
        members = ds.members(t)
        if not members:
            continue
        label = relation.label(t)
        original = _labels(relation, members)
        # A tuple's own question set is pruned only by *earlier* removals;
        # a, g, d themselves still list their original questions.
        if t in non_skyline:
            pruned = original
        else:
            pruned = _labels(relation, set(members) - non_skyline)
        rows.append(
            {
                "t": label,
                "DS(t)": "{" + ", ".join(original) + "}",
                "Q(t) after P1": ", ".join(
                    f"({label}, {s})" for s in pruned
                ),
                "questions": len(pruned),
            }
        )
    return rows


def table2_question_total() -> int:
    """Total questions in Table 2's pruned listing (paper: 18)."""
    return sum(row["questions"] for row in table2_rows())


def table3_rows() -> List[Dict[str, object]]:
    """Table 3: the ParallelSL schedule — ``c(t)`` and per-round questions."""
    relation = figure1_dataset()
    cover = covering_graph(relation.known_matrix())
    result = parallel_sl(figure1_dataset())

    rows: List[Dict[str, object]] = list(result.round_table(relation))
    rows.append(
        {
            "round": "c(t)",
            "questions": "; ".join(
                f"c({relation.label(t)})="
                + "{" + ", ".join(_labels(relation, cover[t])) + "}"
                for t in sorted(cover, key=relation.label)
                if cover[t]
            ),
        }
    )
    return rows
