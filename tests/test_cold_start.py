"""Source-major cold starts: the CSC form of ``W^T`` and its engines.

A cold ``pagerank(n_shards="auto")`` runs on ``W^T`` stored by columns
(the adjacency's own arrays, no sort) on a backend that scatters a CSC
without sorting it; the entry's first hit switches to the row-sorted
gather operator.  The contracts pinned here:

* the CSC plan and the CSR plan are bitwise equal on every
  scenario-corpus graph, under every available backend;
* the source-major and row-sorted PageRank operators hold the same
  entries, and RWR's sort-free build equals the CSC round trip it
  replaces;
* a run that switches engines at an iteration boundary equals one that
  does not, and the two layouts fingerprint equal;
* costs priced on first read equal the eager ones, and a run whose cost
  nobody reads builds no cost-model kernel.
"""

import importlib

import numpy as np
import pytest

from repro.exec import available_backends
from repro.exec.backends import get_backend, set_default_backend
from repro.exec.plan import COOPlan
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.graphs.rmat import rmat_graph
from repro.kernels.base import create
from repro.mining.hits import hits
from repro.mining.pagerank import pagerank, pagerank_csc, pagerank_operator
from repro.mining.rwr import random_walk_with_restart, rwr_operator
from repro.mining.vector_kernels import axpy_cost, reduction_cost
from repro.resilience import CheckpointConfig
from repro.tuner.fingerprint import matrix_fingerprint
from tests.test_mining_cache import assert_same, entry, fresh
from tests.test_scenario_corpus import SCENARIOS, scenario_matrix

BACKENDS = available_backends()
SCATTER_BACKENDS = [b for b in BACKENDS if get_backend(b).sort_free_csc]
WIDTHS = [1, 3, 8]


def square_scenarios():
    return [n for n in SCENARIOS if scenario_matrix(n).shape[0]
            == scenario_matrix(n).shape[1]]


@pytest.fixture
def graph():
    return rmat_graph(2048, 16384, seed=21)


@pytest.fixture
def scatter(monkeypatch):
    """A default backend that runs a CSC without sorting it, and no
    ``REPRO_SPMV_SHARDS``: the conditions of a source-major miss."""
    if not SCATTER_BACKENDS:
        pytest.skip("no backend runs a CSC without sorting it")
    monkeypatch.delenv("REPRO_SPMV_SHARDS", raising=False)
    prior = set_default_backend(SCATTER_BACKENDS[0])
    yield
    set_default_backend(prior)


# ----------------------------------------------------------------------
# CSC plan == CSR plan
# ----------------------------------------------------------------------


def _products(matrix, backend, x, Xs):
    plan = matrix.spmv_plan(backend)
    return plan.execute(x), [plan.execute_many(X) for X in Xs]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_csc_plan_equals_csr_plan_bitwise(name, backend):
    coo = scenario_matrix(name)
    rng = np.random.default_rng(SCENARIOS.index(name) + 77)
    x = rng.standard_normal(coo.n_cols)
    Xs = [rng.standard_normal((coo.n_cols, k)) for k in WIDTHS]
    csc_v, csc_m = _products(CSCMatrix.from_coo(coo), backend, x, Xs)
    csr_v, csr_m = _products(CSRMatrix.from_coo(coo), backend, x, Xs)
    assert np.array_equal(csc_v, csr_v)
    for k, got, want in zip(WIDTHS, csc_m, csr_m):
        assert np.array_equal(got, want), f"spmm k={k} diverged"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", square_scenarios())
def test_source_major_operator_runs_like_the_gather_operator(name, backend):
    adjacency = scenario_matrix(name)
    rng = np.random.default_rng(SCENARIOS.index(name) + 91)
    x = rng.random(adjacency.n_cols)
    Xs = [rng.random((adjacency.n_cols, k)) for k in WIDTHS]
    csc_v, csc_m = _products(pagerank_csc(adjacency), backend, x, Xs)
    csr = CSRMatrix.from_coo(pagerank_operator(adjacency))
    csr_v, csr_m = _products(csr, backend, x, Xs)
    assert np.array_equal(csc_v, csr_v)
    for got, want in zip(csc_m, csr_m):
        assert np.array_equal(got, want)


def test_numpy_keeps_the_sorted_gather_for_a_csc():
    """On numpy a CSC runs the one canonical plan: the gather/reduce of
    its row-sorted COO, bitwise the CSR plan of the same operator."""
    adjacency = rmat_graph(256, 2048, seed=3)
    csc = pagerank_csc(adjacency)
    plan = csc.spmv_plan("numpy")
    assert type(plan) is COOPlan
    assert not get_backend("numpy").sort_free_csc
    x = np.random.default_rng(5).random(csc.n_cols)
    csr = CSRMatrix.from_coo(pagerank_operator(adjacency))
    assert np.array_equal(plan.execute(x), csr.spmv_plan("numpy").execute(x))


# ----------------------------------------------------------------------
# Sort-free builds equal the formulations they replace
# ----------------------------------------------------------------------


def _round_trip_rwr_operator(adjacency):
    """RWR's operator through a CSC normalisation and back."""
    sym = COOMatrix.from_edges(
        np.concatenate([adjacency.rows, adjacency.cols]),
        np.concatenate([adjacency.cols, adjacency.rows]),
        adjacency.shape,
    )
    return CSCMatrix.from_coo(sym).normalize_cols().to_coo()


def assert_same_arrays(got, want):
    assert got.shape == want.shape
    for name in ("rows", "cols", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("name", square_scenarios())
def test_pagerank_operator_is_the_csc_transposed(name):
    """The first hit swaps the CSC for the gather operator: the two
    builders must give the same matrix, entry for entry."""
    adjacency = scenario_matrix(name)
    assert_same_arrays(
        pagerank_operator(adjacency), pagerank_csc(adjacency).to_coo()
    )


@pytest.mark.parametrize("name", square_scenarios())
def test_rwr_operator_equals_the_csc_round_trip(name):
    adjacency = scenario_matrix(name)
    assert_same_arrays(
        rwr_operator(adjacency), _round_trip_rwr_operator(adjacency)
    )


@pytest.mark.parametrize("name", square_scenarios())
def test_the_csc_fingerprints_like_its_row_sorted_form(name):
    adjacency = scenario_matrix(name)
    csc = pagerank_csc(adjacency)
    coo = pagerank_operator(adjacency)
    assert np.array_equal(csc.row_lengths(), coo.row_lengths())
    assert matrix_fingerprint(csc) == matrix_fingerprint(coo)


# ----------------------------------------------------------------------
# The "auto" miss rule
# ----------------------------------------------------------------------


def test_cold_auto_runs_single_shard_on_the_csc(graph, scatter):
    cold = pagerank(graph, n_shards="auto")
    assert cold.extra["n_shards"] == 1
    assert entry(graph).source_major
    assert isinstance(entry(graph).operator, CSCMatrix)
    assert entry(graph).executors == {}
    assert_same(cold, pagerank(fresh(graph), n_shards=1))


def test_first_hit_switches_to_the_gather_operator(graph, scatter):
    pagerank(graph, n_shards="auto")
    warm = pagerank(graph, n_shards="auto")
    assert not entry(graph).source_major
    assert isinstance(entry(graph).operator, COOMatrix)
    assert "auto" in entry(graph).executors
    assert_same_arrays(entry(graph).operator, pagerank_operator(graph))
    assert_same(warm, pagerank(fresh(graph), n_shards=1))


@pytest.mark.parametrize("kwargs", [
    {}, {"n_shards": 1}, {"n_shards": 2}, {"tune": True, "tol": 1e-6},
])
def test_other_requests_miss_on_the_gather_operator(graph, scatter, kwargs):
    pagerank(graph, **kwargs)
    assert not entry(graph).source_major
    assert isinstance(entry(graph).operator, COOMatrix)


def test_forced_shards_keep_the_gather_path(graph, scatter, monkeypatch):
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "2")
    result = pagerank(graph, n_shards="auto")
    assert result.extra["n_shards"] == 2
    assert not entry(graph).source_major


def test_numpy_auto_miss_takes_the_gather_path(graph, monkeypatch):
    monkeypatch.delenv("REPRO_SPMV_SHARDS", raising=False)
    prior = set_default_backend("numpy")
    try:
        result = pagerank(graph, n_shards="auto")
        reference = pagerank(fresh(graph), n_shards=1)
    finally:
        set_default_backend(prior)
    assert not entry(graph).source_major
    assert isinstance(entry(graph).operator, COOMatrix)
    assert "auto" in entry(graph).executors
    assert_same(result, reference)


def test_hits_and_rwr_never_take_the_source_major_path(graph, scatter):
    hits(graph, n_shards="auto", max_iter=3)
    random_walk_with_restart(graph, n_shards="auto", n_queries=2, max_iter=3)
    for algorithm in ("hits", "rwr"):
        assert not entry(graph, algorithm).source_major


# ----------------------------------------------------------------------
# Switching engines mid-run
# ----------------------------------------------------------------------


def test_cold_checkpoint_resumed_on_a_warm_sharded_hit(graph, scatter):
    config = CheckpointConfig(every=4)
    cold = pagerank(graph, n_shards="auto", tol=0.0, max_iter=8,
                    checkpoint=config)
    assert cold.extra["n_shards"] == 1 and entry(graph).source_major
    resumed = pagerank(graph, n_shards=2, tol=0.0, max_iter=20,
                       resume_from=config.store.at(4))
    assert resumed.extra["n_shards"] == 2
    assert not entry(graph).source_major
    uninterrupted = pagerank(fresh(graph), tol=0.0, max_iter=20)
    assert_same(resumed, uninterrupted)
    # The cold run's own tail is the uninterrupted one's prefix.
    assert np.array_equal(
        cold.vector, pagerank(fresh(graph), tol=0.0, max_iter=8).vector
    )


def test_miss_and_hit_fingerprints_are_equal(graph, scatter):
    cold = pagerank(graph, n_shards="auto")
    stamped = cold.extra["operator_fingerprint"]
    assert stamped == matrix_fingerprint(pagerank_operator(graph))
    # warm_start checks the fingerprint: both directions pass.
    warm = pagerank(graph, n_shards="auto", warm_start=cold)
    assert warm.extra["operator_fingerprint"] == stamped
    assert warm.extra["warm_start"]
    again = pagerank(fresh(graph), n_shards="auto", warm_start=warm)
    assert again.extra["n_shards"] == 1
    assert again.extra["operator_fingerprint"] == stamped


# ----------------------------------------------------------------------
# Lazy pricing
# ----------------------------------------------------------------------


def _eager_costs(adjacency, iterations):
    """``per_iteration``/``total_cost`` as priced eagerly on the gather
    operator's HYB kernel."""
    kernel = create("hyb", pagerank_operator(adjacency))
    n, dev = adjacency.n_rows, kernel.device
    per = (
        kernel.cost() + axpy_cost(n, dev) + reduction_cost(n, dev)
    ).relabel("pagerank/hyb")
    return per, per.scaled(iterations).relabel(per.label)


@pytest.mark.parametrize("kwargs", [
    {"n_shards": "auto"}, {}, {"n_shards": 2},
])
def test_lazy_costs_equal_the_eager_ones(graph, scatter, kwargs):
    result = pagerank(graph, **kwargs)
    per, total = _eager_costs(graph, result.iterations)
    assert result.per_iteration == per
    assert result.total_cost == total
    assert result.seconds == total.time_seconds


def test_unread_costs_build_no_kernel(graph, scatter, monkeypatch):
    created = []

    def counting(*args, **kwargs):
        created.append(args[0])
        return create(*args, **kwargs)

    # pagerank() resolves create in its own module at call time.
    module = importlib.import_module("repro.mining.pagerank")
    monkeypatch.setattr(module, "create", counting)
    for kwargs in ({"n_shards": "auto"}, {"n_shards": "auto"},
                   {"n_shards": 2}):
        result = pagerank(graph, **kwargs)
    assert created == []
    result.per_iteration
    result.total_cost
    assert created == ["hyb"]


def test_unknown_kernel_names_fail_before_the_run(graph, scatter):
    from repro.errors import ValidationError

    with pytest.raises(ValidationError, match="unknown kernel"):
        pagerank(graph, kernel="no-such-kernel", n_shards="auto")
