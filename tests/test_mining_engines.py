"""A kernel prices a mining run; the operator or an executor runs it.

The contracts pinned here:

* a default run (no ``n_shards``, no ``REPRO_SPMV_SHARDS``) executes on
  the run's operator, so it equals the ``n_shards=2`` run bit for bit
  for every kernel, algorithm and available backend — including the
  kernels whose own storage would add in another order under numpy;
* no mining run builds a cost-model kernel until its cost is read, and
  an inapplicable kernel fails on that read;
* a caller's kernel instance must be built on the run's operator.
"""

import numpy as np
import pytest

from repro.errors import FormatNotApplicableError, ValidationError
from repro.exec import available_backends
from repro.exec.backends import set_default_backend
from repro.formats.coo import COOMatrix
from repro.graphs.rmat import rmat_graph
from repro.kernels.base import create
from repro.mining.hits import hits, hits_operator
from repro.mining.pagerank import pagerank, pagerank_operator
from repro.mining.rwr import random_walk_with_restart, rwr_operator
from tests.test_mining_cache import entry, fresh

KERNELS = ["hyb", "tile-coo", "tile-composite", "coo", "cpu-csr"]

#: setup key -> (run, operator builder)
ALGORITHMS = {
    "pagerank": (pagerank, pagerank_operator),
    "hits": (hits, hits_operator),
    "rwr": (
        lambda graph, **kw: random_walk_with_restart(graph, n_queries=3, **kw),
        rwr_operator,
    ),
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(2048, 24576, seed=13)


@pytest.fixture
def unsharded(monkeypatch):
    """No ``REPRO_SPMV_SHARDS``: the default run takes the operator."""
    monkeypatch.delenv("REPRO_SPMV_SHARDS", raising=False)


@pytest.fixture(params=available_backends())
def backend(request):
    prior = set_default_backend(request.param)
    yield request.param
    set_default_backend(prior)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_default_run_equals_the_sharded_run_bitwise(
    graph, unsharded, backend, algorithm, kernel
):
    run, _ = ALGORITHMS[algorithm]
    default = run(fresh(graph), kernel=kernel, tol=0.0, max_iter=25)
    sharded = run(fresh(graph), kernel=kernel, tol=0.0, max_iter=25,
                  n_shards=2)
    assert default.extra["n_shards"] == 1
    assert sharded.extra["n_shards"] == 2
    assert np.array_equal(default.vector, sharded.vector), (
        f"{algorithm}/{kernel} on {backend}: default run diverged from "
        "the sharded run"
    )
    assert default.iterations == sharded.iterations


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_default_run_builds_no_kernel_until_its_cost_is_read(
    graph, unsharded, algorithm
):
    run, _ = ALGORITHMS[algorithm]
    adjacency = fresh(graph)
    result = run(adjacency, max_iter=5)
    assert entry(adjacency, algorithm).kernels == {}
    assert result.total_cost.time_seconds > 0
    assert len(entry(adjacency, algorithm).kernels) == 1


def test_inapplicable_kernel_fails_on_the_first_cost_read(unsharded):
    # One hub row of 2000 edges: ELL would pad every row to its width.
    rows = np.concatenate([np.zeros(2000, dtype=np.int64), np.arange(1, 2000)])
    cols = np.concatenate([np.arange(2000), np.zeros(1999, dtype=np.int64)])
    skewed = COOMatrix.from_edges(rows, cols, (2000, 2000))
    result = pagerank(skewed, kernel="ell", max_iter=5)
    assert np.array_equal(
        result.vector, pagerank(fresh(skewed), max_iter=5).vector
    )
    with pytest.raises(FormatNotApplicableError):
        result.total_cost


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_caller_kernel_must_be_built_on_the_run_operator(graph, algorithm):
    run, build = ALGORITHMS[algorithm]
    other = rmat_graph(2048, 24576, seed=14)  # same shape, other graph
    with pytest.raises(ValidationError, match="another matrix"):
        run(fresh(graph), kernel=create("cpu-csr", build(other.to_coo())))
    smaller = rmat_graph(1024, 8192, seed=13)
    with pytest.raises(ValidationError, match="another matrix"):
        run(fresh(graph), kernel=create("cpu-csr", build(smaller.to_coo())))
    own = create("cpu-csr", build(graph.to_coo()))
    result = run(fresh(graph), kernel=own, max_iter=10)
    reference = run(fresh(graph), kernel="cpu-csr", max_iter=10)
    assert np.array_equal(result.vector, reference.vector)
    assert result.total_cost == reference.total_cost


def test_caller_kernel_matches_a_cold_source_major_run(graph, unsharded):
    own = create("cpu-csr", pagerank_operator(graph.to_coo()))
    adjacency = fresh(graph)
    result = pagerank(adjacency, kernel=own, n_shards="auto", max_iter=10)
    reference = pagerank(fresh(graph), kernel="cpu-csr", max_iter=10)
    assert np.array_equal(result.vector, reference.vector)
    assert result.total_cost == reference.total_cost
