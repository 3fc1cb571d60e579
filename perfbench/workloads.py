"""The benchmark's four workloads: seeded inputs, one timed pass, checks.

Each workload is a closed loop with one client: the next query starts
when the previous one returns. ``prepare`` builds every input (this is
the set-up the ``setup_s`` metric times); ``run_pass`` executes the
workload's fixed work once and returns raw outputs; ``check_pass``
compares those outputs with brute-force ground truth. Callables of
``repro`` are looked up on their module at call time, so the traced
run's wrappers (``layers.py``) are the ones called there.

A relation's value set and the stream's query log come from the
workload's pinned ``data_seed``; the run's ``--seed`` permutes the rows,
orders the queries and seeds the crowd. Drawn from the run's seed, the
inputs alone moved the end-to-end figures by more than the host does:
the ANT generator picks its attribute-exchange pattern once per
dataset, so ParallelSL's questions ranged from 17,000 to 27,000 and its
time from 12 to 26 s over five seeds, and the query stream's time
ranged from 18 to 24 s.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from repro.crowd.backends import CrowdBackend
from repro.crowd.journal import JournalWriter
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.voting import StaticVoting
from repro.crowd.workers import WorkerPool

import truth

# Modules, not names: ``repro.core`` re-exports functions under the same
# names as its submodules, and the traced run swaps functions in place.
crowdsky_mod = importlib.import_module("repro.core.crowdsky")
parallel_mod = importlib.import_module("repro.core.parallel")
resume_mod = importlib.import_module("repro.core.resume")
synthetic = importlib.import_module("repro.data.synthetic")
executor = importlib.import_module("repro.query.executor")

SPEC_PATH = Path(__file__).resolve().parent / "workloads.json"


def load_specs(size: str = "full") -> Dict[str, Dict[str, Any]]:
    """Workload specs from ``workloads.json``; ``size="tiny"`` overlays
    each spec's ``tiny`` section (the self-test sizes)."""
    specs = json.loads(SPEC_PATH.read_text())
    if size == "tiny":
        for spec in specs.values():
            for key, value in spec["tiny"].items():
                spec[key] = {**spec[key], **value} if isinstance(value, dict) else value
    return specs


class RoundClock(CrowdBackend):
    """Delegating crowd backend that timestamps every posting.

    Installed through the platform's public ``install_backend``; it adds
    one clock read per crowd round and changes no answer or state. The
    workloads post pairwise questions only.
    """

    def __init__(self, inner: CrowdBackend) -> None:
        self.inner = inner
        self.stamps: List[float] = []

    @property
    def last_was_replay(self) -> bool:
        return self.inner.last_was_replay

    def pairwise_round(self, posted):
        self.stamps.append(perf_counter())
        return self.inner.pairwise_round(posted)

    def state(self):
        return self.inner.state()

    def restore_state(self, state):
        self.inner.restore_state(state)

    def fault_stats(self):
        return self.inner.fault_stats()

    def gaps(self) -> List[float]:
        """Seconds between consecutive postings: software time per round."""
        return np.diff(self.stamps).tolist()


@dataclass
class Inputs:
    """Everything a pass needs, built before timing starts."""

    name: str
    spec: Dict[str, Any]
    relation: Any
    crowd_seeds: List[int]
    queries: List[Dict[str, Any]] = field(default_factory=list)
    truths: Dict[int, Any] = field(default_factory=dict)


@dataclass
class Pass:
    """Raw outputs of one execution of a workload's fixed work."""

    wall_s: float
    gaps_s: List[float]
    query_s: List[float]
    outputs: List[Any]
    questions: int = 0
    rounds: int = 0
    assignments: int = 0
    journal_bytes: int = 0
    #: Questions of the journaled runs, the base of bytes per question.
    journaled_questions: int = 0

    def counts(self) -> Dict[str, int]:
        """Work counts; identical for identical inputs."""
        return {
            "questions": self.questions,
            "rounds": self.rounds,
            "assignments": self.assignments,
            "journal_bytes": self.journal_bytes,
        }


def prepare(name: str, spec: Dict[str, Any], seed: int) -> Inputs:
    """Build a workload's inputs; the same seed gives the same inputs."""
    rel = spec["relation"]
    base = synthetic.generate_synthetic(
        rel["n"], rel["known"], rel["crowd"],
        synthetic.Distribution.parse(rel["distribution"]),
        seed=spec["data_seed"],
    )
    rng = np.random.default_rng(seed)
    relation = base.subset(rng.permutation(len(base)).tolist())
    seeds = [int(s) for s in rng.integers(2**31, size=spec["crowd_runs"])]
    inputs = Inputs(name, spec, relation, seeds)
    if "queries" in spec:
        log = _make_queries(spec, np.random.default_rng(spec["data_seed"]), len(base))
        inputs.queries = [log[i] for i in rng.permutation(len(log))]
    return inputs


def _make_queries(spec, rng: np.random.Generator, n: int) -> List[Dict]:
    """Seeded SKYLINE-OF queries over schema A1..Ak (known), C1..Cm.

    The mix is stratified: each kind's row targets take one jittered
    value per equal slice of its range, and half of its queries get the
    extra skyline attribute. ``rng`` picks the jitter, the filter
    columns, the directions and the projections.
    """
    plan = spec["queries"]
    shapes = []
    for uses_crowd in (True, False):
        count = plan["crowd_queries"] if uses_crowd else (
            plan["count"] - plan["crowd_queries"])
        low, high = plan["crowd_rows" if uses_crowd else "machine_rows"]
        rows = low + (high - low) * (np.arange(count) + rng.random(count)) / count
        extra = rng.permutation(np.arange(count) % 2)
        shapes += [(uses_crowd, r, bool(e)) for r, e in zip(rows, extra)]
    known = spec["relation"]["known"]
    queries = []
    for index in rng.permutation(len(shapes)):
        uses_crowd, rows, extra = shapes[index]
        share = rows / n
        a, b = (int(i) for i in rng.choice(known, size=2, replace=False))
        # Two filters on independent uniform columns keep ``share`` of
        # the rows between them.
        x = round(share ** rng.uniform(0.3, 0.7), 6)
        y = round(share / x, 6)
        sky = [("known", i) for i in range(known) if i not in (a, b)]
        if uses_crowd:
            sky += [("crowd", j) for j in range(1 + extra)]
        elif extra:
            sky.append(("known", a))
        directions = ["MIN" if rng.random() < 0.5 else "MAX" for _ in sky]
        names = [f"A{i + 1}" if kind == "known" else f"C{i + 1}" for kind, i in sky]
        projection = "*" if rng.random() < 0.5 else ", ".join(["label"] + names)
        text = (
            f"SELECT {projection} FROM items "
            f"WHERE A{a + 1} < {x} AND A{b + 1} < {y} SKYLINE OF "
            + ", ".join(f"{nm} {d}" for nm, d in zip(names, directions))
        )
        queries.append({
            "text": text, "filters": [(a, x), (b, y)], "skyline": sky,
            "directions": directions,
        })
    return queries


def _crowd(spec: Dict[str, Any], relation, seed: int, journal=None):
    model = spec["crowd"]
    if model["kind"] == "perfect":
        # Seeded although a perfect crowd draws nothing: the journal
        # records the generator state, so its bytes depend on the seed.
        crowd = SimulatedCrowd(relation, seed=seed, journal=journal)
    else:
        crowd = SimulatedCrowd(
            relation,
            pool=WorkerPool.uniform(size=model["pool_size"], accuracy=model["accuracy"]),
            voting=StaticVoting(model["omega"]),
            seed=seed,
            journal=journal,
        )
    clock = RoundClock(crowd.backend)
    crowd.install_backend(clock)
    return crowd, clock


def _guarded(label: str, fn, *args, **kwargs):
    """Run one query; a raise is reported and becomes a failed check."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # a failing query is counted, the run goes on
        print(f"[{label}] raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None


def _scheduler(spec):
    module = crowdsky_mod if spec["algorithm"] == "crowdsky" else parallel_mod
    return getattr(module, spec["algorithm"])


def run_pass(inputs: Inputs, workdir: Path) -> Pass:
    """Execute the workload's fixed work once, timing only the queries."""
    if inputs.queries:
        return _run_stream(inputs)
    spec, relation = inputs.spec, inputs.relation
    journal_dir = workdir / "journal"
    journaled = spec["durable"]["journaled_runs"] if spec["durable"] else 0

    def query(seed, journal):
        if not journal:
            crowd, clock = _crowd(spec, relation, seed)
            return _scheduler(spec)(relation, crowd), None, clock
        writer = JournalWriter(journal_dir)
        crowd, clock = _crowd(spec, relation, seed, writer)
        try:
            live = _scheduler(spec)(relation, crowd)
        finally:
            writer.close()
        return live, resume_mod.replay_run(journal_dir, relation), clock

    result = Pass(0.0, [], [], [])
    for i, seed in enumerate(inputs.crowd_seeds):
        start = perf_counter()
        output = _guarded(f"{inputs.name}#{i}", query, seed, i < journaled)
        elapsed = perf_counter() - start
        result.wall_s += elapsed
        result.query_s.append(elapsed)
        if journal_dir.exists():
            result.journal_bytes += sum(
                p.stat().st_size for p in journal_dir.iterdir()
            )
            shutil.rmtree(journal_dir)
        if output is None:
            result.outputs.append(None)
            continue
        live, replay, clock = output
        result.outputs.append((live, replay))
        if replay is not None:
            result.journaled_questions += live.stats.questions
        result.gaps_s += clock.gaps()
        result.questions += live.stats.questions
        result.rounds += live.stats.rounds
        result.assignments += live.stats.worker_assignments
    return result


def _run_stream(inputs: Inputs) -> Pass:
    spec = inputs.spec
    clocks: List[RoundClock] = []

    def crowd_factory(relation):
        crowd, clock = _crowd(spec, relation, inputs.crowd_seeds[0])
        clocks.append(clock)
        return crowd

    outputs, query_s = [], []
    start = perf_counter()
    for i, query in enumerate(inputs.queries):
        began = perf_counter()
        outputs.append(_guarded(
            f"{inputs.name}#{i}", executor.execute_query, query["text"],
            inputs.relation, crowd_factory=crowd_factory,
            algorithm=_scheduler(spec),
        ))
        query_s.append(perf_counter() - began)
    wall = perf_counter() - start
    done = [r for r in outputs if r is not None and r.stats is not None]
    return Pass(
        wall, [g for clock in clocks for g in clock.gaps()], query_s, outputs,
        questions=sum(r.stats.questions for r in done),
        rounds=sum(r.stats.rounds for r in done),
        assignments=sum(r.stats.worker_assignments for r in done),
    )


# -- checks -----------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of checking one pass."""

    attempted: int = 0
    failed: int = 0
    correct_new: int = 0
    predicted_new: int = 0
    truth_new: int = 0

    def add(self, ok: bool, counts=(0, 0, 0)) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.correct_new += counts[0]
        self.predicted_new += counts[1]
        self.truth_new += counts[2]

    def merge(self, other: "Verdict") -> None:
        """Count a repeated pass's checks; accuracy stays the first pass's."""
        self.attempted += other.attempted
        self.failed += other.failed


def _relation_truth(inputs: Inputs):
    """``(SKY_A, SKY_AK)`` of the relation from known + latent values."""
    if -1 not in inputs.truths:
        known = inputs.relation.known_matrix()
        full = np.hstack([known, inputs.relation.latent_matrix()])
        inputs.truths[-1] = (truth.skyline(full), truth.skyline(known))
    return inputs.truths[-1]


def _query_truth(inputs: Inputs, i: int):
    """``(SKY, SKY_AK)`` of query ``i`` in the table's row indices."""
    if i not in inputs.truths:
        query = inputs.queries[i]
        known = inputs.relation.known_matrix()
        latent = inputs.relation.latent_matrix()
        keep = np.ones(len(known), dtype=bool)
        for column, bound in query["filters"]:
            keep &= known[:, column] < bound
        rows = np.flatnonzero(keep)
        columns, known_columns = [], []
        for (kind, j), direction in zip(query["skyline"], query["directions"]):
            values = (known if kind == "known" else latent)[rows, j]
            values = -values if direction == "MAX" else values
            columns.append(values)
            if kind == "known":
                known_columns.append(values)
        sky = truth.skyline(np.column_stack(columns))
        sky_ak = truth.skyline(np.column_stack(known_columns))
        inputs.truths[i] = (
            {int(rows[k]) for k in sky}, {int(rows[k]) for k in sky_ak}
        )
    return inputs.truths[i]


def check_output(inputs: Inputs, i: int, output) -> tuple:
    """``(ok, new-tuple counts, skyline)`` for output ``i`` of a pass."""
    if inputs.queries:
        sky_a, sky_ak = _query_truth(inputs, i)
        got = set(output.indices)
        return got == sky_a, truth.new_tuple_counts(got, sky_a, sky_ak), got
    live, replay = output
    sky_a, sky_ak = _relation_truth(inputs)
    got = set(live.skyline)
    if inputs.spec["crowd"]["kind"] == "perfect":
        ok = got == sky_a
    else:
        # A noisy crowd may misjudge crowd attributes, but nothing can
        # dominate SKY_AK(R) when no two tuples tie on AK.
        ok = got >= sky_ak
    if replay is not None:
        ok = ok and (set(replay.skyline) == got
                     and replay.stats.questions == live.stats.questions
                     and replay.stats.rounds == live.stats.rounds)
    return ok, truth.new_tuple_counts(got, sky_a, sky_ak), got


def check_pass(inputs: Inputs, result: Pass,
               reference: Optional[Pass] = None) -> Verdict:
    """Check every output of ``result``; with ``reference`` (an earlier
    pass over the same inputs) also require identical skylines and
    counts."""
    verdict = Verdict()
    for i, output in enumerate(result.outputs):
        if output is None:
            verdict.add(False)
            continue
        ok, counts, got = check_output(inputs, i, output)
        if reference is not None:
            previous = reference.outputs[i]
            ok = ok and previous is not None and got == check_output(
                inputs, i, previous)[2]
        if not ok:
            print(f"[{inputs.name}#{i}] failed its check", file=sys.stderr)
        verdict.add(ok, counts)
    if reference is not None and result.counts() != reference.counts():
        print(f"[{inputs.name}] counts differ between passes: "
              f"{result.counts()} != {reference.counts()}", file=sys.stderr)
        verdict.failed += 1
    return verdict
