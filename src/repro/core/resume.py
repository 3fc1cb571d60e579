"""Crash recovery: resume or replay a journaled crowd run.

A run started with a journal directory attached (``SimulatedCrowd(...,
journal=path)``) survives its process. :func:`resume_run` recovers the
journal (healing torn tails, see :func:`repro.crowd.journal
.recover_journal`), rebuilds the crowd from the header's recipe, and
*re-executes the algorithm from the beginning* with a
:class:`~repro.crowd.backends.ReplayBackend` serving the journaled
prefix — consuming no randomness and asking no fresh questions — then
hands over to a live backend restored to the last committed RNG
state. Because the platform derives all accounting from backend
outcomes, the resumed run's result, stats and continued journal are
byte-identical to an uninterrupted run (the crash-injection suite in
``tests/test_recovery.py`` proves this at every write point).

:func:`replay_run` is the zero-cost variant for *finished* journals:
no live backend, no writer — a question beyond the recorded postings
raises :class:`~repro.exceptions.JournalReplayError`, which is the
proof that a replay never spends a cent.

The dataset itself is not journaled (it can be arbitrarily large);
callers pass the relation and the header's fingerprint guards against
resuming someone else's journal.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.crowdsky import (
    CrowdSkyConfig,
    crowdsky,
    crowdsky_budgeted,
)
from repro.core.parallel import parallel_dset, parallel_sl
from repro.core.result import CrowdSkylineResult
from repro.crowd.backends import ReplayBackend
from repro.crowd.faults import FaultPlan
from repro.crowd.hits import HitLedger
from repro.crowd.journal import (
    JOURNAL_VERSION,
    JournalWriter,
    RecoveredJournal,
    recover_journal,
)
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.retry import RetryPolicy
from repro.crowd.voting import StaticVoting
from repro.crowd.workers import WorkerPool
from repro.data.relation import Relation, relation_fingerprint
from repro.exceptions import JournalError, JournalReplayError
from repro.obs import current_observation


def crowd_from_spec(
    relation: Relation, spec: Dict[str, Any]
) -> SimulatedCrowd:
    """Rebuild a crowd platform from a journal header's recipe.

    The recipe (written by
    :meth:`~repro.crowd.platform.SimulatedCrowd.journal_spec`) covers
    perfect/uniform pools, static voting, fault rates, the retry
    policy and seed-built HIT ledgers. RNG positions are *not* part of
    the recipe — the replay backend restores them from the journal's
    state snapshots.
    """
    faults = (
        FaultPlan(**spec["faults"]) if spec.get("faults") else None
    )
    retry = (
        RetryPolicy(**spec["retry"]) if spec.get("retry") else None
    )
    ledger = (
        HitLedger.from_spec(spec["ledger"]) if spec.get("ledger") else None
    )
    return SimulatedCrowd(
        relation,
        pool=WorkerPool.from_spec(spec["pool"]),
        voting=StaticVoting(omega=spec["voting"]["omega"]),
        max_questions=spec.get("max_questions"),
        ledger=ledger,
        faults=faults,
        retry=retry,
        strict=spec.get("strict"),
    )


def _check_header(
    recovered: RecoveredJournal, relation: Relation
) -> Tuple[Dict[str, Any], Optional[CrowdSkyConfig]]:
    """The journal header and its parsed run config (None when the run
    used defaults). Parsing here, before any backend or writer is
    installed, makes a bad recorded config (e.g. an unknown closure
    backend) fail with a typed error before any posting is replayed."""
    header = recovered.header
    if header is None:
        raise JournalError(
            f"journal {recovered.directory} has no header record; "
            "nothing to resume"
        )
    version = header.get("journal_version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"journal {recovered.directory} uses format version "
            f"{version!r}, this build reads {JOURNAL_VERSION}"
        )
    recorded = header.get("relation", {}).get("fingerprint")
    if recorded is not None and recorded != relation_fingerprint(relation):
        raise JournalReplayError(
            "the journal was recorded against a different dataset "
            "(relation fingerprint mismatch); pass the relation the "
            "original run used"
        )
    raw_config = header.get("run", {}).get("config")
    config = (
        CrowdSkyConfig.from_payload(raw_config) if raw_config else None
    )
    return header, config


def _prepare_crowd(
    recovered: RecoveredJournal,
    relation: Relation,
    crowd: Optional[SimulatedCrowd],
    header: Dict[str, Any],
) -> SimulatedCrowd:
    if crowd is None:
        spec = header.get("spec")
        if spec is None:
            raise JournalError(
                "the journal header carries no crowd recipe (the "
                "original crowd used hand-built components); pass an "
                "equivalent crowd explicitly"
            )
        crowd = crowd_from_spec(relation, spec)
    return crowd


def _dispatch(
    header: Dict[str, Any],
    config: Optional[CrowdSkyConfig],
    relation: Relation,
    crowd: SimulatedCrowd,
) -> CrowdSkylineResult:
    """Re-run the journaled algorithm with its recorded arguments."""
    algorithm = header.get("algorithm")
    run = header.get("run", {})
    if algorithm == "crowdsky":
        return crowdsky(
            relation, crowd, config, visible_crowd=run.get("visible_crowd")
        )
    if algorithm == "crowdsky_budgeted":
        return crowdsky_budgeted(
            relation, run["max_questions"], crowd, config
        )
    if algorithm == "parallel_dset":
        return parallel_dset(
            relation, crowd, config, visible_crowd=run.get("visible_crowd")
        )
    if algorithm == "parallel_sl":
        return parallel_sl(
            relation, crowd, config, visible_crowd=run.get("visible_crowd")
        )
    raise JournalError(
        f"journal header names unknown algorithm {algorithm!r}"
    )


def _emit_resumed(header: Dict[str, Any], replay: ReplayBackend) -> None:
    observation = current_observation()
    if observation.enabled:
        observation.tracer.event(
            "run.resumed",
            algorithm=str(header.get("algorithm")),
            replayed=replay.replayed,
        )


def resume_run(
    journal: Union[RecoveredJournal, str, Path],
    relation: Relation,
    crowd: Optional[SimulatedCrowd] = None,
    heal: bool = True,
) -> CrowdSkylineResult:
    """Continue an interrupted journaled run to completion.

    Parameters
    ----------
    journal:
        The journal directory (or an already-recovered
        :class:`~repro.crowd.journal.RecoveredJournal`).
    relation:
        The dataset the original run used; checked against the
        header's fingerprint.
    crowd:
        Optional replacement platform for runs whose crowd cannot be
        rebuilt from the header recipe. Its RNG state is overwritten
        from the journal at the replay→live handover, so only its
        component *kinds* must match the original.
    heal:
        Rewrite corrupted segments down to the valid prefix before
        resuming (required for the writer to append again).

    The resumed run continues journaling where the original stopped,
    and its result is byte-identical to a never-interrupted run.
    """
    recovered = (
        journal
        if isinstance(journal, RecoveredJournal)
        else recover_journal(journal, heal=heal)
    )
    header, config = _check_header(recovered, relation)
    crowd = _prepare_crowd(recovered, relation, crowd, header)
    replay = ReplayBackend(
        recovered.postings, header.get("state"), live=crowd.backend
    )
    crowd.install_backend(replay)
    crowd.install_journal(JournalWriter.resume(recovered))
    result = _dispatch(header, config, relation, crowd)
    _emit_resumed(header, replay)
    return result


def replay_run(
    journal: Union[RecoveredJournal, str, Path],
    relation: Relation,
    crowd: Optional[SimulatedCrowd] = None,
) -> CrowdSkylineResult:
    """Re-execute a *finished* journaled run at zero crowd cost.

    Pure-replay mode: no writer is attached and there is no live
    backend, so every answer comes from the journal and a question
    beyond the recorded postings raises
    :class:`~repro.exceptions.JournalReplayError`. Use this as a
    deterministic, free re-run of an expensive crowd execution (e.g.
    to re-collect traces or metrics with different observability
    settings).
    """
    recovered = (
        journal
        if isinstance(journal, RecoveredJournal)
        else recover_journal(journal, heal=False)
    )
    header, config = _check_header(recovered, relation)
    crowd = _prepare_crowd(recovered, relation, crowd, header)
    replay = ReplayBackend(
        recovered.postings, header.get("state"), live=None
    )
    crowd.install_backend(replay)
    crowd.install_journal(None)
    result = _dispatch(header, config, relation, crowd)
    _emit_resumed(header, replay)
    return result
