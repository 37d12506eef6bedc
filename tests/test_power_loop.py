"""Tests of the one power loop (``repro.mining.power_method``).

PageRank, HITS, RWR, the simulated multi-GPU PageRank and the query
service's seeded walks all run :func:`power_iterate`.  The golden,
serve and mining suites pin its numbers; this file pins two of its
execution properties:

* a one-column walk runs the solo SpMV path: a width-1 service batch
  never calls ``spmm``;
* the loop allocates nothing per iteration: its ``tracemalloc`` peak
  does not grow with the iteration count, at one column or four.
"""

import asyncio
import tracemalloc

import numpy as np
import pytest

from repro.exec.sharded import ShardedExecutor
from repro.formats.base import SparseMatrix
from repro.formats.csr import CSRMatrix
from repro.graphs.rmat import rmat_graph
from repro.mining.pagerank import pagerank_operator
from repro.mining.power_method import seeded_walk
from repro.serve import QueryService, seeded_batch, seeded_solo


@pytest.fixture
def graph():
    return rmat_graph(256, 2048, seed=17)


@pytest.fixture
def calls(monkeypatch):
    """Count every ``spmv``/``spmm`` a plan-backed or sharded engine
    serves."""
    counts = {"spmv": 0, "spmm": 0}
    for owner in (SparseMatrix, ShardedExecutor):
        for name in counts:
            original = getattr(owner, name)

            def spy(self, *args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
    return counts


@pytest.mark.parametrize("make_engine", [
    lambda op: op,
    lambda op: ShardedExecutor(op, 2),
], ids=["plan", "sharded"])
def test_width_one_batch_runs_spmv_only(graph, calls, make_engine):
    operator = pagerank_operator(graph.to_coo())
    engine = make_engine(operator)
    n = operator.n_rows
    try:
        [column] = seeded_batch(
            engine, n, [42], alpha=0.85, tol=1e-10, max_iter=200
        )
        assert calls["spmm"] == 0
        assert calls["spmv"] >= column.iterations > 0
        solo = seeded_solo(engine, n, 42, alpha=0.85, tol=1e-10,
                           max_iter=200)
        assert column.iterations == solo.iterations
        assert np.array_equal(column.vector, solo.vector)
    finally:
        if engine is not operator:
            engine.close()


@pytest.mark.parametrize("n_shards", [None, 2])
def test_width_one_service_query_never_calls_spmm(graph, calls, n_shards):
    async def ask():
        return await service.query(graph="g", algorithm="ppr", seed=9)

    with QueryService(window_seconds=0.001) as service:
        service.register("g", graph, n_shards=n_shards)
        reply = asyncio.run(ask())
    assert reply.batch_width == 1
    assert calls["spmm"] == 0
    assert calls["spmv"] >= reply.iterations > 0


def _peak_bytes(engine, n, seeds, max_iter):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        seeded_walk(engine, n, seeds, alpha=0.85, tol=0.0,
                    max_iter=max_iter)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [1, 4])
def test_power_loop_allocates_nothing_per_iteration(graph, k):
    """``tol=0`` never converges, so every walk runs to ``max_iter``:
    six times the iterations must not raise the peak."""
    operator = CSRMatrix.from_coo(pagerank_operator(graph.to_coo()))
    n = operator.n_rows
    seeds = list(range(0, 4 * k, 4))
    # Build the plan and grow its workspace before measuring.
    seeded_walk(operator, n, seeds, alpha=0.85, tol=0.0, max_iter=60)
    short = _peak_bytes(operator, n, seeds, 10)
    long = _peak_bytes(operator, n, seeds, 60)
    assert long <= short
