"""Perf smoke for the core kernels.

A scaled-down replay (n=128) of the ``benchmarks/closure_cases``
workloads pins the numpy closure backend to the reference oracle, the
dominance kernel must not be slower than a re-allocating variant,
building every DS(t) must stay within a few bytes per tuple pair and
one dominance pass, dynamic voting's frequency quantiles must stay
blocked, and a task's ladders must resolve head-first with a pinned
number of closure lookups.

Run via ``make test-perf-core``. Closure timings are gated by the
``closure_numpy_n*`` benchmarks of ``crowdsky bench`` (docs/profiling.md).
"""

import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.core import engine
from repro.data.synthetic import generate_synthetic
from repro.skyline import dominating

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from closure_cases import make_workloads, run_workload  # noqa: E402

pytestmark = [pytest.mark.perf, pytest.mark.pref]

SMOKE_N = 128
WORKLOADS = make_workloads(SMOKE_N)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_numpy_checksum_matches_reference(workload):
    """The numpy backend computes identical relations on every mix.

    No timing assertion at this size: the packed-bit broadcast pays a
    fixed numpy dispatch cost per *scalar* op, which only amortizes once
    the bulk kernels come into play (the `crowd-scale` suite is where
    the numpy backend's speedup is measured and pinned)."""
    ops = WORKLOADS[workload]
    assert run_workload(ops, SMOKE_N, "numpy") == run_workload(
        ops, SMOKE_N, "reference"
    ), f"numpy backend disagrees on {workload}"


def _realloc_dominance_matrix(data, chunk_size=64):
    """The pre-hoisting kernel: fresh comparison buffers every chunk.

    Kept here (not in the library) purely as the perf yardstick for
    the buffer-reuse fix in ``repro.skyline.dominance``.
    """
    import numpy as np

    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    result = np.zeros((n, n), dtype=bool)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = data[start:stop, None, :]
        le = np.all(block <= data[None, :, :], axis=2)
        lt = np.any(block < data[None, :, :], axis=2)
        result[start:stop] = le & lt
    return result


def test_dominance_matrix_buffer_hoisting_not_slower():
    """Perf smoke for the hoisted comparison buffers: the shipped
    kernel must match the re-allocating variant bit-for-bit and not be
    meaningfully slower (the 1.15x slack absorbs CI noise; on an idle
    machine the hoisted kernel wins)."""
    import numpy as np

    from repro.skyline.dominance import dominance_matrix

    data = np.random.default_rng(12).random((1024, 4))
    assert np.array_equal(
        dominance_matrix(data, chunk_size=64),
        _realloc_dominance_matrix(data),
    )

    def best(kernel, repeats=5):
        result = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            kernel(data, chunk_size=64)
            result = min(result, time.perf_counter() - start)
        return result

    hoisted = best(dominance_matrix)
    realloc = best(_realloc_dominance_matrix)
    assert hoisted <= realloc * 1.15, (
        f"hoisted dominance kernel slower than the re-allocating one: "
        f"{hoisted * 1000:.2f}ms vs {realloc * 1000:.2f}ms"
    )


def test_ds_walk_memory_is_packed():
    """Building the context and decoding every DS(t) in evaluation
    order peaks below ``4·n²`` bytes: the n² bool dominance matrix plus
    n²/8 bytes of packed rows, with no per-member Python objects."""
    relation = generate_synthetic(2000, 2, 2, seed=7)
    n = len(relation)
    tracemalloc.start()
    try:
        context = engine.build_context(relation)
        for t in context.eval_order():
            context.ds_in_eval_order(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n, f"peak {peak / 2**20:.1f} MiB"


def test_quantiles_memory_is_blocked():
    """Dynamic voting's frequency quantiles peak below ``6·n²`` bytes:
    the float32 copy of the dominance matrix plus one row block of
    ``M Mᵀ``, never the full int64 product."""
    from repro.skyline.dominance import dominance_matrix

    n = 2000
    relation = generate_synthetic(n, 2, 2, seed=7)
    oracle = dominating.FrequencyOracle(
        dominance_matrix(relation.known_matrix())
    )
    tracemalloc.start()
    try:
        low, high = oracle.quantiles([0.3, 0.7])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < low <= high
    assert peak < 6 * n * n, f"peak {peak / 2**20:.1f} MiB"


def test_serial_build_context_computes_dominance_once(monkeypatch):
    calls = []
    original = engine.dominance_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "dominance_matrix", counted)
    monkeypatch.setattr(dominating, "dominance_matrix", counted)
    engine.build_context(generate_synthetic(300, 2, 2, seed=7))
    assert len(calls) == 1


def test_ladders_resolve_on_demand(monkeypatch):
    """Probe and Q(t) ladders look pairs up head-first: ``advance``
    never bulk-resolves a ladder through ``resolve_pairs``, and the
    closure sees exactly the scalar lookups the head loops reach (plus
    answer ingestion). The literal pins the lookup count, so a
    reintroduced whole-ladder prefetch or a changed scan order shows."""
    from repro.core import preference, tasks
    from repro.core.crowdsky import CrowdSkyConfig, crowdsky
    from repro.crowd.platform import SimulatedCrowd

    inside_advance = []
    from_advance = []
    lookups = []
    advance = tasks.TupleTask.advance
    resolve_pairs = preference.PreferenceSystem.resolve_pairs
    relation = preference.NumpyPreferenceGraph.relation

    def traced_advance(self):
        inside_advance.append(1)
        try:
            return advance(self)
        finally:
            inside_advance.pop()

    def traced_resolve_pairs(self, pairs):
        if inside_advance:
            from_advance.append(1)
        return resolve_pairs(self, pairs)

    def counted_relation(self, u, v):
        lookups.append(1)
        return relation(self, u, v)

    monkeypatch.setattr(tasks.TupleTask, "advance", traced_advance)
    monkeypatch.setattr(
        preference.PreferenceSystem, "resolve_pairs", traced_resolve_pairs
    )
    monkeypatch.setattr(
        preference.NumpyPreferenceGraph, "relation", counted_relation
    )
    relation_data = generate_synthetic(300, 2, 2, seed=7)
    result = crowdsky(
        relation_data,
        SimulatedCrowd(relation_data),
        CrowdSkyConfig(backend="numpy"),
    )
    assert result.stats.questions > 0
    assert from_advance == []
    assert len(lookups) == 10114
