"""The paper's primary contribution: CrowdSky and its schedulers.

* :mod:`repro.core.preference` — the preference graph ``T`` over crowd
  attributes (§3.3) with tie classes and transitive inference,
* :mod:`repro.core.tasks` — the per-tuple evaluation state machine
  implementing the pruning ladder DSet / P1 / P2 / P3 (§3.1-§3.4),
* :mod:`repro.core.crowdsky` — serial CrowdSky (Algorithm 1),
* :mod:`repro.core.parallel` — ParallelDSet (§4.1) and ParallelSL
  (Algorithm 2, §4.2),
* :mod:`repro.core.baseline` — the tournament-sort Baseline,
* :mod:`repro.core.unary` — the unary-question baseline simulating [12],
* :mod:`repro.core.result` — the result/trace container.
"""

from repro.core.baseline import baseline_skyline
from repro.core.crowdsky import CrowdSkyConfig, PruningLevel, crowdsky
from repro.core.parallel import parallel_dset, parallel_sl
from repro.core.preference import (
    ContradictionPolicy,
    PreferenceGraph,
    PreferenceSystem,
    ReferencePreferenceGraph,
    default_backend,
)
from repro.core.result import CrowdSkylineResult
from repro.core.unary import unary_skyline

__all__ = [
    "ContradictionPolicy",
    "CrowdSkyConfig",
    "CrowdSkylineResult",
    "PreferenceGraph",
    "PreferenceSystem",
    "PruningLevel",
    "ReferencePreferenceGraph",
    "baseline_skyline",
    "crowdsky",
    "default_backend",
    "parallel_dset",
    "parallel_sl",
    "unary_skyline",
]
