"""No BLAS call on the per-SpMV path.

Above ~10K elements OpenBLAS splits a ``dot`` over its thread pool, and
the pool's worker then busy-waits between calls on a core a second SpMV
shard needs (DESIGN.md §8, "No BLAS on the per-call path").  These
tests make numpy's BLAS entry points raise and run warm production
calls on a graph past that threshold: every one must still complete,
bitwise equal to its unguarded run.
"""

import numpy as np
import pytest

from repro.exec.sharded import ShardedExecutor
from repro.graphs.rmat import rmat_graph
from repro.mining.pagerank import pagerank
from repro.mining.rwr import random_walk_with_restart

#: Past OpenBLAS's threading threshold (10,000 elements per operand).
N_NODES = 1 << 14

BLAS_ENTRY_POINTS = ("dot", "vdot", "inner", "matmul")


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(N_NODES, 8 * N_NODES, seed=17).to_coo()


@pytest.fixture
def no_blas(monkeypatch):
    """Make every numpy BLAS entry point raise for the test's body."""

    def forbid(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"np.{name} called on the per-call path")

        return raiser

    def arm():
        for name in BLAS_ENTRY_POINTS:
            monkeypatch.setattr(np, name, forbid(name))

    return arm


def test_warm_sharded_pagerank_calls_no_blas(graph, no_blas):
    assert graph.n_rows > 10_000
    pagerank(graph, n_shards=2)  # cold: builds the source-major setup
    expected = pagerank(graph, n_shards=2)  # builds the sharded executor
    assert expected.extra["n_shards"] == 2
    no_blas()
    result = pagerank(graph, n_shards=2)
    assert result.extra["n_shards"] == 2
    assert result.iterations == expected.iterations
    assert np.array_equal(result.vector, expected.vector)


def test_sharded_spmm_calls_no_blas(graph, no_blas):
    X = np.random.default_rng(5).random((graph.n_cols, 4))
    with ShardedExecutor(graph, 2) as ex:
        expected = ex.spmm(X)
        no_blas()
        assert np.array_equal(ex.spmm(X), expected)
        assert np.array_equal(ex.spmv(X[:, 0].copy()), expected[:, 0])


def test_batched_rwr_calls_no_blas(graph, no_blas):
    def walk():
        return random_walk_with_restart(
            graph, n_queries=4, max_iter=20, n_shards=2
        )

    expected = walk()
    no_blas()
    result = walk()
    assert np.array_equal(result.vector, expected.vector)
    assert (
        result.extra["per_query_iterations"]
        == expected.extra["per_query_iterations"]
    )
