"""The mining setup cache: operator, fingerprint, kernel and engines are
built once per adjacency and reused across runs.

Every test compares against a run on a *fresh copy* of the graph — a
matrix object the cache has never seen — bit for bit: a cached run must
be indistinguishable from a cold one.  Beyond equality the tests pin
the invalidation contract: a moved ``data_version`` rebuilds and closes
the old executor, a changed shard resolution replaces the executor,
kernel entries are keyed by name, device and options, a caller's kernel
instance bypasses the cache, and the cache dies with its adjacency.
"""

import gc
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import ExecutorClosedError, ValidationError
from repro.exec.backends import available_backends, set_default_backend
from repro.formats.coo import COOMatrix
from repro.gpu.spec import DeviceSpec
from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream
from repro.graphs.rmat import rmat_graph
from repro.kernels.base import create
from repro.mining.hits import hits
from repro.mining.pagerank import pagerank, pagerank_operator
from repro.mining.rwr import random_walk_with_restart
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import METRICS
from repro.resilience import CheckpointConfig
from tests.test_checkpoint_golden import (
    ALGORITHMS,
    full_runs,
    records_of,
    resume_points,
)


def fresh(graph: COOMatrix) -> COOMatrix:
    """Same contents, new object: nothing cached on it."""
    return COOMatrix(
        graph.rows.copy(), graph.cols.copy(), graph.data.copy(), graph.shape
    )


def entry(adjacency, algorithm="pagerank"):
    """The setup cache entry of one algorithm on one adjacency."""
    return adjacency.__dict__["_mining_setup"][algorithm]


def assert_same(result, reference):
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert np.array_equal(result.vector, reference.vector)


@pytest.fixture
def graph():
    return rmat_graph(2048, 16384, seed=21)


# ----------------------------------------------------------------------
# Reuse
# ----------------------------------------------------------------------


def test_repeat_runs_reuse_operator_kernel_and_executor(graph):
    first = pagerank(graph, n_shards=2)
    cached = entry(graph)
    operator, executor = cached.operator, cached.executors[2]
    first.per_iteration  # a sharded run builds its kernel when priced
    (kernel,) = cached.kernels.values()
    second = pagerank(graph, n_shards=2)
    second.per_iteration
    assert cached.operator is operator
    assert list(cached.kernels.values()) == [kernel]
    assert cached.executors[2] is executor
    assert executor.executions == first.iterations + second.iterations
    assert_same(second, first)
    assert_same(second, pagerank(fresh(graph), n_shards=2))


def test_each_algorithm_has_its_own_entry(graph):
    pagerank(graph)
    hits(graph)
    random_walk_with_restart(graph, n_queries=2)
    cache = graph.__dict__["_mining_setup"]
    assert sorted(cache) == ["hits", "pagerank", "rwr"]
    assert cache["hits"].operator.shape == (2 * graph.n_rows,) * 2


def test_tune_reuses_the_operators_tuned_engine(graph):
    first = pagerank(graph, tune=True, tol=1e-6)
    engine = entry(graph).tuned
    assert engine is entry(graph).operator.tuned_plan()
    second = pagerank(graph, tune=True, tol=1e-6)
    assert entry(graph).tuned is engine
    assert_same(second, first)


# ----------------------------------------------------------------------
# Concurrency: runs on one adjacency queue on the entry's lock
# ----------------------------------------------------------------------


@pytest.fixture(params=["default", "numpy"])
def backend(request):
    """The default backend, and the numpy backend, whose plans compute
    through pooled workspaces that concurrent runs would race on."""
    if request.param == "default":
        yield
        return
    prior = set_default_backend(request.param)
    try:
        yield
    finally:
        set_default_backend(prior)


@pytest.mark.parametrize("n_shards", [None, 2])
def test_concurrent_runs_on_a_shared_adjacency_are_bitwise(
    graph, n_shards, backend
):
    solo_pr = pagerank(fresh(graph), n_shards=n_shards)
    solo_rwr = random_walk_with_restart(
        fresh(graph), n_shards=n_shards, n_queries=3
    )
    shared = fresh(graph)

    def run_pagerank(_):
        return pagerank(shared, n_shards=n_shards)

    def run_rwr(_):
        return random_walk_with_restart(
            shared, n_shards=n_shards, n_queries=3
        )

    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            pr_futures = [pool.submit(run_pagerank, i) for i in range(8)]
            rwr_futures = [pool.submit(run_rwr, i) for i in range(8)]
            pr_results = [f.result() for f in pr_futures]
            rwr_results = [f.result() for f in rwr_futures]
    finally:
        sys.setswitchinterval(prior)
    for result in pr_results:
        assert_same(result, solo_pr)
    for result in rwr_results:
        assert_same(result, solo_rwr)
        assert (
            result.extra["per_query_iterations"]
            == solo_rwr.extra["per_query_iterations"]
        )


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------


def test_dynamic_update_rebuilds_and_closes_the_old_executor(graph):
    dyn = DynamicMatrix(fresh(graph))
    pagerank(dyn, n_shards=2)
    old = entry(dyn).executors[2]
    old_operator = entry(dyn).operator
    dyn.apply_updates(seeded_update_stream(dyn, 64, seed=3))
    warm = pagerank(dyn, n_shards=2)
    assert entry(dyn).operator is not old_operator
    assert entry(dyn).version == dyn.data_version
    with pytest.raises(ExecutorClosedError):
        old.spmv(np.ones(old.n_cols))
    rebuilt = fresh(dyn.to_coo())
    assert_same(warm, pagerank(rebuilt, n_shards=2))
    assert warm.extra["operator_fingerprint"] == pagerank(
        rebuilt
    ).extra["operator_fingerprint"]


def test_shard_env_change_replaces_the_executor(graph, monkeypatch):
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "1")
    one = pagerank(graph)
    old = entry(graph).executors[None]
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "3")
    three = pagerank(graph)
    assert one.extra["n_shards"] == 1
    assert three.extra["n_shards"] == 3
    with pytest.raises(ExecutorClosedError):
        old.spmv(np.ones(old.n_cols))
    assert_same(three, one)
    assert_same(three, pagerank(fresh(graph)))


def test_auto_and_backend_resolve_per_run(graph, monkeypatch):
    import repro.exec.sharded as sharded

    monkeypatch.delenv("REPRO_SPMV_SHARDS", raising=False)
    # Small enough shards that "auto" follows the affinity mask here.
    monkeypatch.setattr(sharded, "AUTO_MIN_NNZ_PER_SHARD", 1000)
    monkeypatch.setattr(sharded, "available_cpu_count", lambda: 1)
    one = pagerank(graph, n_shards="auto")
    monkeypatch.setattr(sharded, "available_cpu_count", lambda: 2)
    two = pagerank(graph, n_shards="auto")
    assert (one.extra["n_shards"], two.extra["n_shards"]) == (1, 2)
    assert_same(two, one)
    executor = entry(graph).executors["auto"]
    others = [b for b in available_backends() if b != executor.backend]
    if not others:
        pytest.skip("only one backend is available")
    prior = set_default_backend(others[0])
    try:
        switched = pagerank(graph, n_shards="auto")
        # Backends may differ in reduction order: a same-backend
        # reference.
        reference = pagerank(fresh(graph), n_shards=1)
    finally:
        set_default_backend(prior)
    assert entry(graph).executors["auto"].backend == others[0]
    with pytest.raises(ExecutorClosedError):
        executor.spmv(np.ones(executor.n_cols))
    assert_same(switched, reference)


def test_explicit_shard_counts_keep_their_own_executors(
    graph, monkeypatch
):
    """Two users of one matrix asking for different shard counts (a
    service registered with ``n_shards=2`` beside ``pagerank(...,
    n_shards=3)``) reuse one executor each instead of rebuilding on
    every switch."""
    import repro.exec.sharded as sharded

    monkeypatch.delenv("REPRO_SPMV_SHARDS", raising=False)
    builds = []
    build = sharded.ShardedExecutor.__init__

    def counting(self, matrix, n_shards, **kwargs):
        builds.append(n_shards)
        build(self, matrix, n_shards, **kwargs)

    monkeypatch.setattr(sharded.ShardedExecutor, "__init__", counting)
    runs = [
        pagerank(graph, n_shards=n) for _ in range(3) for n in (2, 3)
    ]
    assert builds == [2, 3]
    assert sorted(entry(graph).executors) == [2, 3]
    for result in runs[1:]:
        assert_same(result, runs[0])


def test_kernel_entries_are_keyed_by_options_and_device(graph):
    small = DeviceSpec.tesla_c1060().scaled(texture_cache_bytes=1024)
    runs = {
        "default": pagerank(graph),
        "ell_width": pagerank(graph, ell_width=2),
        "device": pagerank(graph, device=small),
    }
    for run in runs.values():
        run.per_iteration  # a sharded engine builds kernels when priced
    assert len(entry(graph).kernels) == 3
    pagerank(graph, ell_width=2).per_iteration
    assert len(entry(graph).kernels) == 3
    references = {
        "default": pagerank(fresh(graph)),
        "ell_width": pagerank(fresh(graph), ell_width=2),
        "device": pagerank(fresh(graph), device=small),
    }
    for name, result in runs.items():
        assert_same(result, references[name])
        assert (
            result.per_iteration.time_seconds
            == references[name].per_iteration.time_seconds
        )
    assert (
        runs["device"].per_iteration.time_seconds
        != runs["default"].per_iteration.time_seconds
    )


def test_prebuilt_kernel_instance_bypasses_the_kernel_cache(graph):
    kernel = create("cpu-csr", pagerank_operator(graph))
    result = pagerank(graph, kernel=kernel)
    assert entry(graph).kernels == {}
    assert result.kernel_name == "cpu-csr"
    assert_same(result, pagerank(fresh(graph), kernel="cpu-csr"))


def test_failed_run_drops_the_entry(graph):
    pagerank(graph)
    with pytest.raises(ValidationError):
        pagerank(graph, warm_start=np.ones(3))
    assert entry(graph).operator is None
    assert_same(pagerank(graph), pagerank(fresh(graph)))


def test_cache_dies_with_the_adjacency(graph):
    before = set(threading.enumerate())
    adjacency = fresh(graph)
    pagerank(adjacency, n_shards=2)
    workers = [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith("repro-shard")
    ]
    assert workers
    del adjacency
    gc.collect()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()


# ----------------------------------------------------------------------
# The checkpoint and warm-start contracts on a warm cache
# ----------------------------------------------------------------------


def _run_on(graph, algorithm, **kwargs):
    prior = metrics_mod.enabled()
    metrics_mod.enable()
    try:
        if algorithm == "pagerank":
            return pagerank(
                graph, kernel="cpu-csr", tol=1e-8, max_iter=200, **kwargs
            )
        if algorithm == "hits":
            return hits(
                graph, kernel="cpu-csr", tol=1e-8, max_iter=200, **kwargs
            )
        return random_walk_with_restart(
            graph, kernel="cpu-csr", tol=1e-8, max_iter=200,
            n_queries=3, seed=13, **kwargs
        )
    finally:
        if not prior:
            metrics_mod.disable()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_checkpoint_and_resume_on_a_warm_cache(algorithm):
    reference, _ = full_runs()[algorithm]
    graph = rmat_graph(128, 1024, seed=13)
    _run_on(graph, algorithm)  # warm the cache
    config = CheckpointConfig(every=1)
    full = _run_on(graph, algorithm, checkpoint=config)
    assert_same(full, reference)
    assert records_of(full) == records_of(reference)
    for k in resume_points(full):
        resumed = _run_on(graph, algorithm, resume_from=config.store.at(k))
        assert_same(resumed, reference)
        assert records_of(resumed) == [
            r for r in records_of(reference) if r["iteration"] > k
        ]


@pytest.mark.parametrize("run", [pagerank, hits])
def test_warm_start_after_update_on_a_warm_cache(run):
    base = rmat_graph(128, 1024, seed=13)
    dyn = DynamicMatrix(fresh(base))
    before = run(dyn, kernel="cpu-csr", tol=1e-8)
    dyn.apply_updates(seeded_update_stream(dyn, 24, seed=5))
    cold = run(dyn, kernel="cpu-csr", tol=1e-8)
    warm = run(
        dyn, kernel="cpu-csr", tol=1e-8, warm_start=before,
        warm_start_check=False,
    )
    updated = fresh(dyn.to_coo())
    assert_same(cold, run(fresh(updated), kernel="cpu-csr", tol=1e-8))
    assert_same(warm, run(
        fresh(updated), kernel="cpu-csr", tol=1e-8,
        warm_start=run(fresh(base), kernel="cpu-csr", tol=1e-8),
        warm_start_check=False,
    ))
    assert warm.iterations < cold.iterations


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


def test_setup_counters_count_hits_and_misses(graph):
    prior = metrics_mod.enabled()
    metrics_mod.enable()
    METRICS.reset()
    try:
        pagerank(graph)
        pagerank(graph)
        hits(graph)
        assert METRICS.counter(
            "mining.setup", algorithm="pagerank", result="miss"
        ) == 1
        assert METRICS.counter(
            "mining.setup", algorithm="pagerank", result="hit"
        ) == 1
        assert METRICS.counter(
            "mining.setup", algorithm="hits", result="miss"
        ) == 1
        metrics_mod.disable()
        METRICS.reset()
        pagerank(graph)
        assert METRICS.counter_total("mining.setup") == 0
    finally:
        (metrics_mod.enable if prior else metrics_mod.disable)()
        METRICS.reset()
