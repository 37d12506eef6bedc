"""Tests of the observability layer (``repro.obs``).

Two contracts matter and both are property-shaped:

* **Enabled ⇒ exact.**  Counters are not approximations: N executions
  of a cached plan are exactly one build plus N−1 cache hits; a
  fixed-shape pool workload misses exactly once per distinct buffer
  name; the sharded executor reports exactly one ``sharded.calls`` per
  external call.
* **Disabled ⇒ invisible.**  No events, no series, no allocations —
  the null trace and the ``_ENABLED`` guards keep the hot path
  untouched.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import PLAN_CACHE_STATS, ShardedExecutor
from repro.exec.workspace import WorkspacePool
from repro.graphs.rmat import rmat_graph
from repro.mining.pagerank import pagerank
from repro.obs import metrics as metrics_mod
from repro.obs.convergence import NULL_TRACE, ConvergenceTrace, convergence_trace
from repro.obs.metrics import METRICS, Metrics
from repro.obs.trace import TRACE, trace
from tests.test_exec_engine import random_coo


@contextmanager
def obs(enabled: bool):
    """Force the observability switch, clean registries, restore after."""
    prior = metrics_mod.enabled()
    (metrics_mod.enable if enabled else metrics_mod.disable)()
    METRICS.reset()
    TRACE.reset()
    try:
        yield
    finally:
        (metrics_mod.enable if prior else metrics_mod.disable)()
        METRICS.reset()
        TRACE.reset()


# ----------------------------------------------------------------------
# Metric key and registry mechanics
# ----------------------------------------------------------------------


def test_series_keys_are_prometheus_style_and_sorted():
    assert Metrics.key("pool.hits", {}) == "pool.hits"
    assert (
        Metrics.key("spmv.calls", {"backend": "scipy", "plan": "CSRPlan"})
        == "spmv.calls{backend=scipy,plan=CSRPlan}"
    )
    assert Metrics.key("x", {"b": 1, "a": 2}) == "x{a=2,b=1}"


def test_registry_counter_gauge_histogram_roundtrip():
    reg = Metrics()
    reg.inc("c", 2, side="left")
    reg.inc("c", 3, side="left")
    reg.inc("c", 5, side="right")
    assert reg.counter("c", side="left") == 5
    assert reg.counter_total("c") == 10
    assert reg.counter("missing") == 0
    reg.set_gauge("g", 1.5)
    assert reg.gauge("g") == 1.5
    assert reg.gauge("absent") is None
    for v in (1.0, 3.0, 2.0):
        reg.observe("h", v, algorithm="pr")
    summary = reg.histogram("h", algorithm="pr")
    assert summary == {
        "count": 3, "total": 6.0, "mean": 2.0, "min": 1.0, "max": 3.0,
        "p50": 2.0, "p99": 3.0,
    }
    assert list(reg.histogram_series("h")) == ["h{algorithm=pr}"]
    assert len(reg) == 4
    snap = reg.snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    json.dumps(snap)  # JSON-ready
    reg.reset()
    assert len(reg) == 0


def test_histogram_percentiles_use_sliding_reservoir():
    """p50/p99 cover the recent window; min/max/count are lifetime."""
    from repro.obs.metrics import RESERVOIR_SIZE

    reg = Metrics()
    for _ in range(RESERVOIR_SIZE):
        reg.observe("h", 100.0)
    for _ in range(RESERVOIR_SIZE):
        reg.observe("h", 1.0)
    summary = reg.histogram("h")
    assert summary["count"] == 2 * RESERVOIR_SIZE
    # Every old sample aged out of the ring: quantiles see only 1.0.
    assert summary["p50"] == 1.0
    assert summary["p99"] == 1.0
    assert summary["max"] == 100.0
    assert summary["min"] == 1.0


def test_env_switch_parsing(monkeypatch):
    for value, expected in [
        ("1", True), ("true", True), ("ON", True), ("yes", True),
        ("0", False), ("", False), ("off", False),
    ]:
        monkeypatch.setenv("REPRO_OBS", value)
        assert metrics_mod._env_enabled() is expected


# ----------------------------------------------------------------------
# Enabled ⇒ exact counters
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 20), seed=st.integers(0, 2**16))
def test_cached_plan_is_one_build_and_n_minus_one_hits(n, seed):
    matrix = random_coo(seed=seed)
    with obs(True):
        builds, hits = PLAN_CACHE_STATS.builds, PLAN_CACHE_STATS.hits
        for _ in range(n):
            matrix.spmv_plan()
        assert PLAN_CACHE_STATS.builds - builds == 1
        assert PLAN_CACHE_STATS.hits - hits == n - 1
        assert METRICS.counter_total("plan.builds") == 1


@settings(max_examples=25, deadline=None)
@given(
    shapes=st.dictionaries(
        st.sampled_from(["gather", "products", "rows"]),
        st.integers(1, 16),
        min_size=1,
    ),
    data=st.data(),
)
def test_pool_misses_exactly_once_per_name_on_fixed_shapes(shapes, data):
    """A fixed-shape workload: misses == distinct names, rest are hits."""
    names = sorted(shapes)
    requests = data.draw(
        st.lists(st.sampled_from(names), min_size=len(names), max_size=60)
    )
    requests += names  # every name requested at least once
    with obs(True):
        pool = WorkspacePool()
        for name in requests:
            buf = pool.buffer(name, shapes[name])
            assert buf.shape == (shapes[name],)
        assert pool.allocations == len(names)
        assert METRICS.counter("pool.misses") == len(names)
        assert METRICS.counter("pool.hits") == len(requests) - len(names)
        assert METRICS.counter("pool.alloc.bytes") == pool.nbytes


def test_pool_reallocates_on_shape_change_only():
    with obs(True):
        pool = WorkspacePool()
        first = pool.buffer("a", 4)
        assert pool.buffer("a", 4) is first
        assert pool.buffer("a", 5) is not first
        assert pool.allocations == 2


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 10))
def test_plan_execution_counters_are_exact(n):
    matrix = random_coo(seed=7)
    x = np.ones(matrix.n_cols)
    X = np.ones((matrix.n_cols, 2))
    with obs(True):
        plan = matrix.spmv_plan()
        METRICS.reset()  # drop the build/cache events
        for _ in range(n):
            plan.execute(x)
        for _ in range(n):
            plan.execute_many(X)
        assert METRICS.counter_total("spmv.calls") == n
        assert METRICS.counter_total("spmm.calls") == n
        assert METRICS.histogram_series("spmv.seconds")
        key = next(iter(METRICS.histogram_series("spmv.seconds")))
        assert METRICS.histogram_series("spmv.seconds")[key]["count"] == n


def test_sharded_call_counters_are_exact():
    matrix = random_coo(seed=8)
    x = np.ones(matrix.n_cols)
    X = np.ones((matrix.n_cols, 2))
    with obs(True):
        with ShardedExecutor(matrix, 2) as ex:
            for _ in range(3):
                ex.spmv(x)
            ex.spmm(X)
        assert METRICS.counter("sharded.calls", kind="spmv", n_shards=2) == 3
        assert METRICS.counter("sharded.calls", kind="spmm", n_shards=2) == 1
        per_shard = METRICS.histogram_series("sharded.shard.seconds")
        assert len(per_shard) == 2
        assert all(s["count"] == 4 for s in per_shard.values())
        assert METRICS.gauge("sharded.imbalance") >= 1.0


# ----------------------------------------------------------------------
# Trace spans
# ----------------------------------------------------------------------


def test_trace_spans_nest_and_complete_post_order():
    with obs(True):
        with trace("outer", layer=1) as outer:
            with trace("inner") as inner:
                assert inner["parent"] == outer["id"]
        events = TRACE.events()
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert events[1]["parent"] is None
        assert all(e["seconds"] >= 0.0 for e in events)
        assert events[1]["attrs"] == {"layer": 1}


def test_trace_export_json_roundtrip(tmp_path):
    with obs(True):
        with trace("a"):
            pass
        path = tmp_path / "trace.json"
        payload = TRACE.export_json(str(path))
        assert json.loads(payload)["events"] == TRACE.events()
        assert json.loads(path.read_text()) == json.loads(payload)


def test_live_span_attrs_can_be_amended():
    with obs(True):
        with trace("loop") as span:
            span["attrs"]["iterations"] = 17
        assert TRACE.find("loop")[0]["attrs"]["iterations"] == 17


# ----------------------------------------------------------------------
# Convergence traces
# ----------------------------------------------------------------------


def test_convergence_trace_records_columns_and_metrics():
    with obs(True):
        tr = convergence_trace("pagerank", damping=0.85)
        assert isinstance(tr, ConvergenceTrace)
        tr.tick()
        tr.record(1, 0.5, dangling_mass=0.1)
        tr.record(2, 0.25, dangling_mass=0.05)
        assert tr.iterations == 2
        assert tr.residuals() == [0.5, 0.25]
        assert tr.column("dangling_mass") == [0.1, 0.05]
        dump = tr.to_dict()
        assert dump["algorithm"] == "pagerank"
        assert dump["attrs"] == {"damping": 0.85}
        assert [r["iteration"] for r in dump["records"]] == [1, 2]
        assert METRICS.gauge("mining.residual", algorithm="pagerank") == 0.25
        hist = METRICS.histogram(
            "mining.iteration.seconds", algorithm="pagerank"
        )
        assert hist["count"] == 2


def test_mining_result_carries_convergence_trace():
    graph = rmat_graph(64, 256, seed=9)
    with obs(True):
        result = pagerank(graph, kernel="cpu-csr", tol=1e-6)
        conv = result.convergence
        assert conv is not None
        assert conv["iterations"] == result.iterations
        residuals = [r["residual"] for r in conv["records"]]
        assert residuals[-1] < 1e-6
        assert all(r["dangling_mass"] >= 0.0 for r in conv["records"])
        assert METRICS.counter("mining.runs", algorithm="pagerank") == 1


# ----------------------------------------------------------------------
# Disabled ⇒ invisible
# ----------------------------------------------------------------------


def test_disabled_mode_records_nothing_anywhere():
    matrix = random_coo(seed=10)
    graph = rmat_graph(64, 256, seed=10)
    x = np.ones(matrix.n_cols)
    with obs(False):
        assert convergence_trace("pagerank") is NULL_TRACE
        with trace("invisible") as span:
            assert span is None
        plan = matrix.spmv_plan()
        for _ in range(3):
            plan.execute(x)
        with ShardedExecutor(matrix, 2) as ex:
            ex.spmv(x)
        result = pagerank(graph, kernel="cpu-csr", tol=1e-6)
        assert result.convergence is None
        assert len(METRICS) == 0
        assert len(TRACE) == 0
        assert METRICS.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


def test_disabled_mode_adds_no_pool_allocations():
    """Warm steady state stays zero-allocation with the layer merged."""
    matrix = random_coo(seed=11)
    x = np.ones(matrix.n_cols)
    y = np.empty(matrix.n_rows)
    with obs(False):
        plan = matrix.spmv_plan("numpy")
        plan.execute(x, out=y)  # warm-up
        warm = plan.pool.allocations
        for _ in range(5):
            plan.execute(x, out=y)
        assert plan.pool.allocations == warm


def test_null_trace_is_shared_and_inert():
    assert convergence_trace("x") is convergence_trace("y") or (
        metrics_mod.enabled()
    )
    NULL_TRACE.tick()
    NULL_TRACE.record(1, 0.5, extra=1.0)
    assert NULL_TRACE.active is False


# ----------------------------------------------------------------------
# The profile runner and its CLI
# ----------------------------------------------------------------------


def test_run_profile_report_has_the_acceptance_fields():
    from repro.obs import run_profile

    prior = metrics_mod.enabled()
    report = run_profile(
        n_nodes=64, n_edges=256, shards=2, tol=1e-6, max_iter=60,
        n_queries=2, quick=True,
    )
    assert metrics_mod.enabled() is prior  # switch restored
    derived = report["derived"]
    assert 0.0 < derived["plan_cache_hit_rate"] <= 1.0
    assert 0.0 < derived["pool_hit_rate"] <= 1.0
    assert derived["pool_bytes_allocated"] > 0
    assert derived["per_shard_seconds"]
    for summary in derived["per_shard_seconds"].values():
        assert summary["p50"] <= summary["p99"]
        assert summary["mean"] > 0.0
    assert derived["shard_imbalance"] >= 1.0
    assert derived["shard_imbalance_p99"] >= 1.0
    for name in ("pagerank", "hits", "rwr"):
        section = report["algorithms"][name]
        assert section["residuals"], name
        assert section["convergence"]["records"]
    names = [e["name"] for e in report["trace"]]
    assert {"profile", "profile.pagerank"} <= set(names)
    json.dumps(report)  # artifact-ready


def test_cli_profile_writes_json_report(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "profile.json"
    rc = main([
        "profile", "--quick", "--nodes", "64", "--edges", "256",
        "--tol", "1e-6", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["config"]["quick"] is True
    assert report["config"]["n_nodes"] == 64
    printed = capsys.readouterr().out
    assert "plan-cache hit rate" in printed
    assert str(out) in printed


def test_enable_disable_roundtrip():
    prior = metrics_mod.enabled()
    try:
        metrics_mod.enable()
        assert metrics_mod.enabled()
        metrics_mod.disable()
        assert not metrics_mod.enabled()
    finally:
        (metrics_mod.enable if prior else metrics_mod.disable)()
