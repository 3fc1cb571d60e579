"""Differential suite: the numpy preference backend against the oracle.

The numpy backend (:class:`repro.core.preference.NumpyPreferenceGraph`)
is an optimization of the reference implementation, not a
reinterpretation — every observable it exposes must match the reference
bit for bit. These properties replay random answer histories (edges,
ties, contradictions under both :class:`ContradictionPolicy` values)
into both backends and compare the complete derivable state, pin the
round-shaped closure transactions (:meth:`PreferenceSystem.
apply_verdicts`) and the numpy bulk kernels against the scalar queries,
then pin full CrowdSky runs — all four schedulers — to identical
question order, round tables, skylines and journal bytes under either
backend. The numpy closure-update accounting is pinned to exact counts
on the seeded bench workload, and the removed ``bitset`` backend name
must fail with a typed error.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CrowdSkyConfig, crowdsky, parallel_dset, parallel_sl
from repro.core.crowdsky import crowdsky_budgeted
from repro.core.resume import resume_run
from repro.core.preference import (
    BACKEND_NAMES,
    ContradictionPolicy,
    NumpyPreferenceGraph,
    PreferenceGraph,
    PreferenceSystem,
    ReferencePreferenceGraph,
    default_backend,
)
from repro.crowd.backends import ReplayBackend
from repro.crowd.journal import _encode, segment_paths
from repro.crowd.platform import SimulatedCrowd
from repro.questions import Preference
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import Distribution, generate_synthetic
from repro.experiments import bench
from repro.exceptions import CrowdSkyError, PreferenceConflictError
from tests.strategies import (
    DIFFERENTIAL_SETTINGS,
    ROBUSTNESS_SETTINGS,
    answer_sequences,
    consistent_answer_sequences,
    pair_query_batches,
    small_relations,
    verdict_rounds,
)

pytestmark = pytest.mark.pref

BACKENDS = BACKEND_NAMES  # ("numpy", "reference")

#: The four schedulers of the end-to-end pin — name → runner.
SCHEDULERS = {
    "crowdsky": lambda relation, crowd, config: crowdsky(
        relation, crowd, config=config
    ),
    "crowdsky_budgeted": lambda relation, crowd, config: crowdsky_budgeted(
        relation, 40, crowd, config=config
    ),
    "parallel_dset": lambda relation, crowd, config: parallel_dset(
        relation, crowd, config=config
    ),
    "parallel_sl": lambda relation, crowd, config: parallel_sl(
        relation, crowd, config=config
    ),
}


def graph_state(graph, n):
    """Every observable of a preference graph, as comparable data."""
    return {
        "relations": [
            [graph.relation(u, v) for v in range(n)] for u in range(n)
        ],
        "classes": [graph.class_of(u) for u in range(n)],
        "edges": sorted(graph.edges()),
        "rejected": graph.rejected_answers,
        "version": graph.version,
    }


def replay(graph, events):
    """Replay an answer history; returns the acceptance bitmap."""
    return [graph.add_answer(u, v, answer) for u, v, _, answer in events]


def round_table(result):
    """The per-round question table: round → ordered (question, answer)."""
    table = {}
    for round_no, question, answer in result.question_log:
        table.setdefault(round_no, []).append((question.key(), answer))
    return table


def result_digest(result):
    """Every cross-backend observable of one scheduler run."""
    return {
        "skyline": result.skyline,
        "questions": result.stats.questions,
        "rounds": result.stats.rounds,
        "worker_assignments": result.stats.worker_assignments,
        "round_sizes": result.stats.round_sizes,
        "cached_hits": result.stats.cached_hits,
        "rejected": result.rejected_answers,
        "question_log": result.question_log,
        "round_table": round_table(result),
    }


def assert_backends_agree(by_backend):
    """Compare the optimized backend's value against the reference."""
    reference = by_backend["reference"]
    for backend, value in by_backend.items():
        assert value == reference, f"{backend} diverges from reference"


class TestGraphDifferential:
    @settings(
        parent=DIFFERENTIAL_SETTINGS,
    )
    @given(answer_sequences(max_attributes=1))
    def test_keep_first_state_identical(self, sequence):
        """Random histories (contradictions included) yield identical
        acceptance decisions and identical derivable state."""
        n, _, events = sequence
        graphs = {
            backend: PreferenceGraph(n, backend=backend)
            for backend in BACKENDS
        }
        assert_backends_agree(
            {b: replay(g, events) for b, g in graphs.items()}
        )
        assert_backends_agree(
            {b: graph_state(g, n) for b, g in graphs.items()}
        )

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(answer_sequences(max_attributes=1))
    def test_raise_policy_rejects_at_same_event(self, sequence):
        """Under RAISE all backends throw on exactly the same event,
        leaving identical pre-conflict state behind."""
        n, _, events = sequence
        graphs = {
            backend: PreferenceGraph(
                n, policy=ContradictionPolicy.RAISE, backend=backend
            )
            for backend in BACKENDS
        }
        failed_at = {}
        for name, graph in graphs.items():
            for index, (u, v, _, answer) in enumerate(events):
                try:
                    graph.add_answer(u, v, answer)
                except PreferenceConflictError:
                    failed_at[name] = index
                    break
        assert_backends_agree(
            {b: failed_at.get(b) for b in BACKENDS}
        )
        assert_backends_agree(
            {b: graph_state(g, n) for b, g in graphs.items()}
        )

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(consistent_answer_sequences())
    def test_consistent_histories_never_reject(self, sequence):
        """Histories drawn from a latent weak order are accepted whole
        by every backend, which then agrees with the latent order."""
        n, _, events, ranks = sequence
        for backend in BACKENDS:
            graph = PreferenceGraph(
                n, policy=ContradictionPolicy.RAISE, backend=backend
            )
            for u, v, _, answer in events:
                assert graph.add_answer(u, v, answer)
            assert graph.rejected_answers == 0
            for u in range(n):
                for v in range(n):
                    rel = graph.relation(u, v)
                    if u != v and rel is Preference.LEFT:
                        assert ranks[u] < ranks[v]
                    elif u != v and rel is Preference.RIGHT:
                        assert ranks[u] > ranks[v]
                    elif u != v and rel is Preference.EQUAL:
                        assert ranks[u] == ranks[v]

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(answer_sequences(max_attributes=2))
    def test_system_predicates_identical(self, sequence):
        """AC-level predicates (the pruning machinery's inputs) agree on
        every ordered pair, as does the batched resolve_pairs view."""
        n, num_attributes, events = sequence
        systems = {
            backend: PreferenceSystem(n, num_attributes, backend=backend)
            for backend in BACKENDS
        }
        for u, v, attribute, answer in events:
            assert_backends_agree({
                backend: system.add_answer(u, v, attribute, answer)
                for backend, system in systems.items()
            })
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        assert_backends_agree({
            b: s.resolve_pairs(pairs) for b, s in systems.items()
        })
        for predicate in (
            "ac_dominates",
            "ac_equal",
            "weakly_prefers_all",
            "cannot_dominate",
            "unknown_attributes",
        ):
            assert_backends_agree({
                b: [getattr(s, predicate)(u, v) for u, v in pairs]
                for b, s in systems.items()
            })
        assert_backends_agree({
            b: s.total_rejected() for b, s in systems.items()
        })
        members = list(range(0, n, 2)) + list(range(1, n, 2))
        assert_backends_agree({
            b: s.sky_ac(members) for b, s in systems.items()
        })
        assert_backends_agree({
            b: s.sky_ac(list(range(n))) for b, s in systems.items()
        })

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(verdict_rounds())
    def test_apply_verdicts_matches_scalar_ingestion(self, sequence):
        """Round-shaped closure transactions accept exactly the answers
        the scalar path accepts, in the same order, on every backend.

        KEEP_FIRST makes acceptance order-sensitive, so this is the pin
        that a transaction must never reorder or dedupe its batch."""
        n, num_attributes, rounds = sequence
        scalar = PreferenceSystem(n, num_attributes, backend="reference")
        scalar_accepted = [
            sum(
                scalar.add_answer(u, v, attribute, answer)
                for u, v, attribute, answer in batch
            )
            for batch in rounds
        ]
        states = {}
        for backend in BACKENDS:
            system = PreferenceSystem(n, num_attributes, backend=backend)
            accepted = [system.apply_verdicts(batch) for batch in rounds]
            assert accepted == scalar_accepted
            states[backend] = [
                graph_state(graph, n) for graph in system.graphs
            ]
        states["reference-scalar"] = [
            graph_state(graph, n) for graph in scalar.graphs
        ]
        assert_backends_agree(states)

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(sequence=answer_sequences(max_n=10, max_attributes=1), data=st.data())
    def test_numpy_bulk_kernels_match_scalar_queries(self, sequence, data):
        """The numpy bulk kernels answer exactly like the scalar API."""
        n, _, events = sequence
        graph = NumpyPreferenceGraph(n)
        replay(graph, events)
        pairs = data.draw(pair_query_batches(n))
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        codes = list(graph.relations_batch(us, vs))
        expected = [
            {None: 0, Preference.LEFT: 1, Preference.RIGHT: 2,
             Preference.EQUAL: 3}[graph.relation(u, v)]
            for u, v in pairs
        ]
        assert codes == expected
        reachable = list(graph.reachable_pairs(us, vs))
        assert reachable == [
            graph.class_of(u) != graph.class_of(v)
            and graph.relation(u, v) is Preference.LEFT
            for u, v in pairs
        ]
        mask = graph.undominated_mask()
        assert list(mask) == [
            not any(
                graph.relation(u, v) is Preference.LEFT
                for u in range(n)
                if graph.class_of(u) != graph.class_of(v)
            )
            for v in range(n)
        ]
        assert list(graph.find_roots(list(range(n)))) == [
            graph.class_of(v) for v in range(n)
        ]


class TestEndToEndDifferential:
    """Full CrowdSky runs must be bit-identical across backends."""

    @settings(parent=ROBUSTNESS_SETTINGS)
    @given(
        seed=st.integers(0, 10_000),
        distribution=st.sampled_from(list(Distribution)),
        num_crowd=st.integers(1, 2),
    )
    def test_seeded_instances_identical(self, seed, distribution, num_crowd):
        relation = generate_synthetic(
            28, 2, num_crowd, distribution, seed=seed
        )
        for scheduler in SCHEDULERS.values():
            assert_backends_agree({
                backend: result_digest(
                    scheduler(
                        relation, None, CrowdSkyConfig(backend=backend)
                    )
                )
                for backend in BACKENDS
            })

    @settings(parent=ROBUSTNESS_SETTINGS, max_examples=15)
    @given(relation=small_relations())
    def test_arbitrary_relations_identical(self, relation):
        """Grid relations with ties/duplicates — the degenerate-case
        preprocessing and tie-merge paths — agree end to end."""
        assert_backends_agree({
            backend: result_digest(
                crowdsky(relation, config=CrowdSkyConfig(backend=backend))
            )
            for backend in BACKENDS
        })

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_journal_bytes_identical(self, scheduler, tmp_path, monkeypatch):
        """The write-ahead journal is byte-for-byte independent of the
        backend, noisy crowd included.

        The backend is selected through ``REPRO_PREF_BACKEND`` (config
        ``backend=None``) so the run-header payload — which embeds the
        config — is identical too; only then is byte equality possible.
        """
        relation = generate_synthetic(24, 2, 2, seed=11)
        blobs = {}
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_PREF_BACKEND", backend)
            journal = tmp_path / backend
            crowd = SimulatedCrowd(
                relation,
                pool=WorkerPool.uniform(size=25, accuracy=0.9),
                seed=9,
                journal=journal,
            )
            SCHEDULERS[scheduler](relation, crowd, None)
            blobs[backend] = b"".join(
                path.read_bytes() for path in segment_paths(journal)
            )
        assert_backends_agree(blobs)


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_PREF_BACKEND", raising=False)
        assert default_backend() == "numpy"
        assert isinstance(PreferenceGraph(4), NumpyPreferenceGraph)

    @pytest.mark.parametrize(
        "backend, cls",
        [
            ("numpy", NumpyPreferenceGraph),
            ("reference", ReferencePreferenceGraph),
        ],
    )
    def test_env_var_selects_backend(self, backend, cls, monkeypatch):
        monkeypatch.setenv("REPRO_PREF_BACKEND", backend)
        assert default_backend() == backend
        assert isinstance(PreferenceGraph(4), cls)
        system = PreferenceSystem(4, 1)
        assert system.backend == backend
        assert isinstance(system.graphs[0], cls)

    def test_constructor_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREF_BACKEND", "reference")
        assert isinstance(
            PreferenceGraph(4, backend="numpy"), NumpyPreferenceGraph
        )

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(CrowdSkyError):
            PreferenceGraph(4, backend="quantum")
        monkeypatch.setenv("REPRO_PREF_BACKEND", "quantum")
        with pytest.raises(CrowdSkyError):
            default_backend()

    def test_config_backend_threads_through(self, small_independent):
        results = {
            backend: crowdsky(
                small_independent, config=CrowdSkyConfig(backend=backend)
            )
            for backend in BACKENDS
        }
        assert_backends_agree(
            {b: r.skyline for b, r in results.items()}
        )
        assert_backends_agree(
            {b: r.stats.questions for b, r in results.items()}
        )


class TestClosureAccounting:
    @pytest.mark.parametrize("n, expected", [(512, 5277), (2048, 20997)])
    def test_numpy_closure_updates_pinned(self, n, expected):
        """The numpy closure-update count on the seeded ``random_dag``
        mix of the ``crowd-scale`` bench (one update per representative
        row swept) — the exact figure the committed baseline records."""
        graph = NumpyPreferenceGraph(n)
        bench._replay(bench._closure_ops(n, seed=3), graph)
        assert graph.closure_updates == expected


class TestRemovedBitsetBackend:
    """``bitset`` is no longer a backend: every way of naming it fails
    with a typed error listing the valid names, before any crowd work."""

    VALID = r"expected one of 'numpy', 'reference'"

    def test_config_rejects_bitset(self):
        with pytest.raises(CrowdSkyError, match=self.VALID):
            CrowdSkyConfig(backend="bitset")

    def test_env_var_rejects_bitset(self, monkeypatch, small_independent):
        monkeypatch.setenv("REPRO_PREF_BACKEND", "bitset")
        crowd = SimulatedCrowd(small_independent)
        with pytest.raises(CrowdSkyError, match=self.VALID):
            crowdsky(small_independent, crowd)
        assert crowd.stats.questions == 0

    def test_resume_of_a_bitset_journal_rejected(self, tmp_path):
        relation = generate_synthetic(24, 2, 2, seed=11)
        journal = tmp_path / "run"
        crowd = SimulatedCrowd(relation, seed=9, journal=journal)
        crowdsky(relation, crowd, CrowdSkyConfig(backend="reference"))
        crowd.journal.close()
        (segment,) = segment_paths(journal)
        lines = []
        for line in segment.read_bytes().splitlines(keepends=True):
            record = json.loads(line)
            if record["type"] == "header":
                record["data"]["run"]["config"]["backend"] = "bitset"
                line = _encode(
                    record["seq"], record["epoch"], "header", record["data"]
                )
            lines.append(line)
        segment.write_bytes(b"".join(lines))
        assert b'"backend":"bitset"' in segment.read_bytes()
        before = segment.read_bytes()
        fresh = SimulatedCrowd(relation, seed=9)
        with pytest.raises(CrowdSkyError, match=self.VALID):
            resume_run(journal, relation, crowd=fresh)
        assert fresh.stats.questions == 0
        assert not isinstance(fresh.backend, ReplayBackend)
        assert segment.read_bytes() == before
