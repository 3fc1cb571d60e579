"""Perf smoke for the core kernels.

A scaled-down replay (n=128) of the ``benchmarks/closure_cases``
workloads pins the numpy closure backend to the reference oracle, the
hoisted dominance kernel must not be slower than the re-allocating
variant it replaced, and building every DS(t) must stay within a few
bytes per tuple pair and one dominance pass.

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
