"""Micro-benchmarks of the machine-side substrate (true timing runs).

These exercise the vectorized kernels that make Python-scale runs of the
paper's grids feasible: the dominance matrix, the three skyline
algorithms, skyline layers and the frequency oracle — plus the
transitive-closure workloads of ``closure_cases`` replayed against both
preference backends (the gated closure timings are the
``closure_numpy_n*`` records of ``crowdsky bench``).
"""

import numpy as np
import pytest

from closure_cases import N as CLOSURE_N
from closure_cases import WORKLOADS, run_workload
from repro.skyline.bnl import bnl_skyline
from repro.skyline.dnc import dnc_skyline
from repro.skyline.dominance import dominance_matrix, skyline_mask
from repro.skyline.dominating import FrequencyOracle, dominating_sets
from repro.skyline.layers import skyline_layers
from repro.skyline.sfs import sfs_skyline

N = 800
D = 4


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(0).random((N, D))


def test_dominance_matrix(benchmark, data):
    matrix = benchmark(dominance_matrix, data)
    assert matrix.shape == (N, N)


def test_skyline_mask(benchmark, data):
    mask = benchmark(skyline_mask, data)
    assert mask.any()


def test_bnl(benchmark, data):
    result = benchmark(bnl_skyline, data)
    assert result


def test_sfs(benchmark, data):
    result = benchmark(sfs_skyline, data)
    assert result == bnl_skyline(data)


def test_dnc(benchmark, data):
    result = benchmark(dnc_skyline, data)
    assert result == bnl_skyline(data)


def test_layers(benchmark, data):
    layers = benchmark(skyline_layers, data)
    assert sum(len(layer) for layer in layers) == N


def test_dominating_sets(benchmark, data):
    ds = benchmark(dominating_sets, data)
    assert len(ds) == N


def test_frequency_matrix(benchmark, data):
    oracle = FrequencyOracle(dominance_matrix(data))
    members = list(range(0, N, 10))
    table = benchmark(oracle.freq_matrix, members)
    assert table.shape == (len(members), len(members))


@pytest.mark.parametrize("backend", ["reference", "numpy"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_closure_workload(benchmark, workload, backend):
    """Replay one closure workload (n=512) against one backend.

    The checksum covers every query result and accept/reject decision,
    so the benchmark doubles as a cross-backend equivalence check.
    """
    ops = WORKLOADS[workload]
    checksum = benchmark(run_workload, ops, CLOSURE_N, backend)
    assert checksum == run_workload(ops, CLOSURE_N, "reference")
