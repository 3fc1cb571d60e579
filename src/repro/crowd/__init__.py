"""Simulated crowdsourcing platform (paper §2.1, §5, §6).

This subpackage replaces the paper's Amazon Mechanical Turk deployment
with a faithful simulation (the question formats of
:mod:`repro.questions` are re-exported here):

* :mod:`repro.crowd.oracle` — ground-truth answers from latent values,
* :mod:`repro.crowd.workers` — worker error models (perfect, Bernoulli
  ``p``, per-worker skill, spammer) and the worker pool,
* :mod:`repro.crowd.voting` — static and dynamic majority voting (§5),
* :mod:`repro.crowd.platform` — round-based question execution, HIT
  batching, pricing and statistics (§6.2's cost formula),
* :mod:`repro.crowd.faults` — deterministic fault injection
  (abandonment, HIT expiry, transient errors, spam bursts),
* :mod:`repro.crowd.retry` — retry/backoff policy for re-posting
  questions that failed their round,
* :mod:`repro.crowd.backends` — the transport-agnostic
  :class:`~repro.crowd.backends.CrowdBackend` protocol (simulated /
  replay),
* :mod:`repro.crowd.journal` — the write-ahead vote journal making
  runs crash-resumable (docs/durability.md).
"""

from repro.crowd.backends import (
    CrowdBackend,
    RecordedPosting,
    ReplayBackend,
    SimulatedBackend,
)
from repro.crowd.faults import FaultPlan, FaultStats, HitOutcome
from repro.crowd.journal import (
    JournalWriter,
    RecoveredJournal,
    recover_journal,
    segment_paths,
)
from repro.crowd.hits import Hit, HitLedger
from repro.crowd.latency import LatencyEstimate, estimate_latency
from repro.crowd.oracle import GroundTruthOracle
from repro.crowd.platform import CrowdStats, SimulatedCrowd
from repro.crowd.quality import (
    QualityAwareCrowd,
    WorkerQualityTracker,
    weighted_vote,
)
from repro.questions import (
    MultiwayQuestion,
    PairwiseQuestion,
    Preference,
    UnaryQuestion,
)
from repro.crowd.retry import RetryPolicy
from repro.crowd.voting import (
    DynamicVoting,
    StaticVoting,
    VotingPolicy,
    majority_vote,
)
from repro.crowd.workers import (
    BernoulliWorker,
    DifficultyAwareWorker,
    PerfectWorker,
    SkilledWorker,
    SpammerWorker,
    WorkerPool,
)

__all__ = [
    "BernoulliWorker",
    "CrowdBackend",
    "CrowdStats",
    "FaultPlan",
    "FaultStats",
    "Hit",
    "HitLedger",
    "HitOutcome",
    "JournalWriter",
    "LatencyEstimate",
    "RecordedPosting",
    "RecoveredJournal",
    "ReplayBackend",
    "RetryPolicy",
    "MultiwayQuestion",
    "QualityAwareCrowd",
    "WorkerQualityTracker",
    "estimate_latency",
    "weighted_vote",
    "DynamicVoting",
    "GroundTruthOracle",
    "PairwiseQuestion",
    "DifficultyAwareWorker",
    "PerfectWorker",
    "Preference",
    "SimulatedBackend",
    "SimulatedCrowd",
    "SkilledWorker",
    "SpammerWorker",
    "StaticVoting",
    "UnaryQuestion",
    "VotingPolicy",
    "WorkerPool",
    "majority_vote",
    "recover_journal",
    "segment_paths",
]
