"""Unit tests for ``repro.resilience``: injector, recovery, checkpoints,
node failure, and the chaos runner.

The contracts under test:

* **Deterministic chaos.**  The injector's fire/no-fire sequence is a
  pure function of (seed, site, call ordinal) — same seed, same faults.
* **Recovery is invisible in the result.**  Whatever the injector does,
  ``spmv``/``spmm`` return bit-identical outputs or raise loudly; silent
  wrong answers are the one forbidden outcome.
* **Disarmed ⇒ free.**  With ``REPRO_FAULTS`` off the engine keeps the
  zero-allocation steady state of PR 1/PR 3.
* **One path.**  Armed or not, every call runs the same shard task, so
  the armed steady state allocates nothing either.
"""

import gc
import os
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    InjectedFault,
    ValidationError,
)
from repro.exec.sharded import ShardedExecutor
from repro.graphs.rmat import rmat_graph
from repro.multigpu.bitonic import bitonic_partition
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import METRICS, Metrics
from repro.resilience import (
    Checkpoint,
    CheckpointConfig,
    CheckpointStore,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    normalize_checkpoint,
)
from repro.resilience import faults as faults_mod
from repro.resilience.faults import (
    INJECTOR,
    configure_from_env,
    parse_fault_spec,
)


@contextmanager
def chaos(*specs, seed=0, metrics=True):
    """Arm the injector with ``specs``; restore everything after."""
    prior_metrics = metrics_mod.enabled()
    if metrics:
        metrics_mod.enable()
    METRICS.reset()
    INJECTOR.configure(*specs, seed=seed)
    faults_mod.arm()
    try:
        yield
    finally:
        faults_mod.disarm()
        INJECTOR.clear()
        METRICS.reset()
        if not prior_metrics:
            metrics_mod.disable()


def graph_and_operator(seed=13):
    from repro.mining.pagerank import pagerank_operator

    graph = rmat_graph(128, 1024, seed=seed)
    return graph, pagerank_operator(graph.to_coo())


# ----------------------------------------------------------------------
# FaultSpec / parsing / env arming
# ----------------------------------------------------------------------


class TestFaultSpec:
    def test_validates_fields(self):
        with pytest.raises(ValidationError):
            FaultSpec("", "error")
        with pytest.raises(ValidationError):
            FaultSpec("site", "explode")
        with pytest.raises(ValidationError):
            FaultSpec("site", "error", probability=1.5)
        with pytest.raises(ValidationError):
            FaultSpec("site", "error", max_fires=-1)
        with pytest.raises(ValidationError):
            FaultSpec("site", "delay", delay_seconds=-0.1)

    def test_parse_fault_spec(self):
        spec = parse_fault_spec("shard.task:error:0.25")
        assert spec.site == "shard.task"
        assert spec.mode == "error"
        assert spec.probability == 0.25
        assert parse_fault_spec("a.b:corrupt").probability == 1.0
        for bad in ("justasite", "a:b:c:d", ":error", "a.b:error:lots"):
            with pytest.raises(ValidationError):
                parse_fault_spec(bad)

    def test_configure_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "shard.task:error:0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "3")
        try:
            assert configure_from_env() is True
            assert faults_mod.armed()
            assert INJECTOR.seed == 3
            assert INJECTOR.spec("shard.task").probability == 0.5
        finally:
            faults_mod.disarm()
            INJECTOR.clear()

    def test_configure_from_env_truthy_arms_without_specs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
        try:
            assert configure_from_env() is True
            assert INJECTOR.sites == ()
        finally:
            faults_mod.disarm()
            INJECTOR.clear()

    def test_configure_from_env_malformed_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "nonsense-spec")
        with pytest.raises(ValidationError):
            configure_from_env()
        monkeypatch.setenv("REPRO_FAULTS", "a.b:error")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "not-an-int")
        try:
            with pytest.raises(ValidationError):
                configure_from_env()
        finally:
            faults_mod.disarm()
            INJECTOR.clear()

    def test_unset_env_stays_disarmed(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert configure_from_env() is False


# ----------------------------------------------------------------------
# FaultInjector decision engine
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        def sequence(seed):
            inj = FaultInjector(seed=seed)
            inj.configure(FaultSpec("s", "delay", probability=0.5,
                                    delay_seconds=0.0))
            return [inj.fire("s") for _ in range(64)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_error_mode_raises_injected_fault(self):
        inj = FaultInjector()
        inj.configure(FaultSpec("s", "error"))
        with pytest.raises(InjectedFault):
            inj.fire("s")

    def test_max_fires_caps_total(self):
        inj = FaultInjector()
        inj.configure(FaultSpec("s", "delay", delay_seconds=0.0,
                                max_fires=3))
        fired = sum(inj.fire("s") for _ in range(10))
        assert fired == 3
        assert inj.injected("s") == 3
        assert inj.snapshot()["calls"]["s"] == 10

    def test_suppressed_context_blocks_fires(self):
        inj = FaultInjector()
        inj.configure(FaultSpec("s", "error"))
        with inj.suppressed():
            assert inj.fire("s") is False
        with pytest.raises(InjectedFault):
            inj.fire("s")

    def test_corrupt_poisons_exactly_one_element(self):
        inj = FaultInjector(seed=5)
        inj.configure(FaultSpec("c", "corrupt"))
        a = np.zeros(16)
        assert inj.corrupt("c", a) is True
        assert np.isnan(a).sum() == 1
        # ``fire`` never fires corrupt-mode specs; ``corrupt`` never
        # fires error-mode specs.
        assert inj.fire("c") is False
        inj.configure(FaultSpec("e", "error"))
        b = np.zeros(4)
        assert inj.corrupt("e", b) is False
        assert np.all(b == 0.0)

    def test_reset_replays_the_stream(self):
        inj = FaultInjector(seed=11)
        inj.configure(FaultSpec("s", "delay", probability=0.3,
                                delay_seconds=0.0))
        first = [inj.fire("s") for _ in range(32)]
        inj.reset()
        assert [inj.fire("s") for _ in range(32)] == first


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            backoff_seconds=0.001, backoff_multiplier=2.0,
            backoff_max_seconds=0.003,
        )
        assert policy.backoff(1) == 0.001
        assert policy.backoff(2) == 0.002
        assert policy.backoff(3) == 0.003  # capped
        assert policy.max_attempts == policy.max_retries + 1
        with pytest.raises(ValidationError):
            policy.backoff(0)

    def test_validates_fields(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(timeout_seconds=0.0)


# ----------------------------------------------------------------------
# Sharded recovery
# ----------------------------------------------------------------------


class TestShardedRecovery:
    def test_error_faults_recover_bit_identically(self):
        _, operator = graph_and_operator()
        x = np.random.default_rng(0).random(operator.n_cols)
        reference = operator.spmv(x)
        with chaos(FaultSpec("shard.task", "error", probability=0.5),
                   seed=3):
            with ShardedExecutor(operator, 4) as engine:
                out = np.empty(operator.n_rows)
                for _ in range(10):
                    engine.spmv(x, out=out)
                    assert np.array_equal(out, reference)
                stats = engine.resilience_stats
        assert stats["failures"] > 0
        assert stats["degraded"] + stats["retries"] >= stats["failures"]

    def test_corruption_is_detected_and_recomputed(self):
        _, operator = graph_and_operator()
        x = np.random.default_rng(1).random(operator.n_cols)
        reference = operator.spmv(x)
        with chaos(FaultSpec("shard.corrupt", "corrupt", probability=1.0,
                             max_fires=6)):
            with ShardedExecutor(operator, 2) as engine:
                out = engine.spmv(x)
                assert np.array_equal(out, reference)
                assert engine.resilience_stats["corruption_detected"] > 0
        assert METRICS.counter_total("resilience.corruption.detected") == 0

    def test_delay_faults_do_not_corrupt(self):
        """Without a timeout a delay is just a slow success."""
        _, operator = graph_and_operator()
        x = np.random.default_rng(2).random(operator.n_cols)
        reference = operator.spmv(x)
        with chaos(FaultSpec("shard.task", "delay", probability=1.0,
                             delay_seconds=0.001)):
            with ShardedExecutor(operator, 4) as engine:
                out = engine.spmv(x)
                stats = engine.resilience_stats
        assert np.array_equal(out, reference)
        assert stats.get("timeouts", 0) == 0
        assert stats.get("failures", 0) == 0

    def test_slow_shard_times_out_and_degrades(self):
        """A piece held by a straggling pool thread is detected, drained
        and recomputed serially.  The spy makes the first piece a pool
        thread takes the slow one, and holds the caller's thread back
        until then, so which thread pulls first decides nothing."""
        import threading
        import time

        _, operator = graph_and_operator()
        x = np.random.default_rng(2).random(operator.n_cols)
        reference = operator.spmv(x)
        retry = RetryPolicy(timeout_seconds=0.02)
        caller = threading.current_thread()
        lock = threading.Lock()
        taken = threading.Event()
        slow = []
        with chaos():  # armed, no specs: the resilient path, no fires
            with ShardedExecutor(operator, 3, retry=retry) as engine:
                task = engine._shard_task

                def spy(piece, *args, _task=task):
                    if threading.current_thread() is caller:
                        taken.wait(10.0)
                    else:
                        with lock:
                            first = not slow
                            if first:
                                slow.append(piece)
                        if first:
                            taken.set()
                            time.sleep(0.2)
                    return _task(piece, *args)

                engine._shard_task = spy
                out = engine.spmv(x)
                stats = engine.resilience_stats
        assert taken.is_set()
        assert np.array_equal(out, reference)
        assert stats["timeouts"] == 1
        assert stats["degraded"] == 1

    def test_spmm_recovers_too(self):
        _, operator = graph_and_operator()
        X = np.random.default_rng(3).random((operator.n_cols, 3))
        reference = operator.spmv_plan().execute_many(X)
        with chaos(FaultSpec("backend.spmm", "error", probability=0.6),
                   seed=9):
            with ShardedExecutor(operator, 4) as engine:
                out = engine.spmm(X)
        assert np.array_equal(out, reference)

    def test_unsharded_plan_raises_injected_fault(self):
        """Without an executor there is no retry loop: the fault is loud."""
        _, operator = graph_and_operator()
        x = np.ones(operator.n_cols)
        with chaos(FaultSpec("backend.spmv", "error", probability=1.0)):
            plan = operator.spmv_plan()
            with pytest.raises(InjectedFault):
                plan.execute(x)

    def test_silent_corruption_is_caught_by_the_next_check(self):
        """Unsharded corruption must never propagate silently: the next
        consumer's ``check_vector`` refuses the poisoned vector."""
        _, operator = graph_and_operator()
        x = np.ones(operator.n_cols)
        with chaos(FaultSpec("backend.corrupt", "corrupt",
                             probability=1.0, max_fires=1)):
            plan = operator.spmv_plan()
            y = plan.execute(x)
            assert not np.isfinite(y).all()
            with pytest.raises(ValidationError):
                plan.execute(y[: operator.n_cols])

    def test_retry_exhaustion_still_degrades_gracefully(self):
        _, operator = graph_and_operator()
        x = np.ones(operator.n_cols)
        reference = operator.spmv(x)
        with chaos(FaultSpec("shard.task", "error", probability=1.0)):
            with ShardedExecutor(operator, 2) as engine:
                out = engine.spmv(x)
                stats = engine.resilience_stats
        assert np.array_equal(out, reference)
        # Every shard exhausted its attempts, then recovered serially.
        assert stats["degraded"] == 2
        assert stats["failures"] == 2 * RetryPolicy().max_attempts


# ----------------------------------------------------------------------
# Executor lifecycle (the close() regression)
# ----------------------------------------------------------------------


class TestExecutorLifecycle:
    def test_close_is_idempotent(self):
        _, operator = graph_and_operator()
        engine = ShardedExecutor(operator, 2)
        engine.close()
        engine.close()  # second close is a no-op
        with pytest.raises(ValidationError):
            engine.spmv(np.ones(operator.n_cols))

    def test_close_safe_on_partially_constructed_instance(self):
        """``close``/``__del__`` must not throw on an instance whose
        ``__init__`` never ran (or died before ``_pool`` existed)."""
        bare = object.__new__(ShardedExecutor)
        bare.close()  # must not raise
        bare.__del__()

    def test_init_failure_leaves_no_broken_finalizer(self):
        """A fault during plan construction aborts ``__init__`` partway;
        the half-built instance must still finalise cleanly."""
        _, operator = graph_and_operator()
        with chaos(FaultSpec("backend.build", "error", probability=1.0)):
            with pytest.raises(InjectedFault):
                ShardedExecutor(operator, 2)
        gc.collect()  # the abandoned instance's __del__ must not blow up
        # And a fresh construction works once the chaos is gone.
        with ShardedExecutor(operator, 2) as engine:
            engine.spmv(np.ones(operator.n_cols))


# ----------------------------------------------------------------------
# Disarmed ⇒ zero-allocation steady state
# ----------------------------------------------------------------------


@pytest.fixture
def disarmed():
    """Force the disarmed steady state even when CI exports
    ``REPRO_FAULTS`` for the chaos job; restore after."""
    prior = faults_mod.armed()
    faults_mod.disarm()
    try:
        yield
    finally:
        if prior:
            faults_mod.arm()


class TestDisarmedSteadyState:
    def test_disarmed_keeps_pool_allocations_flat(self, disarmed):
        assert not faults_mod.armed()
        _, operator = graph_and_operator()
        x = np.ones(operator.n_cols)
        y = np.empty(operator.n_rows)
        plan = operator.spmv_plan("numpy")
        plan.execute(x, out=y)  # warm-up
        warm = plan.pool.allocations
        for _ in range(5):
            plan.execute(x, out=y)
        assert plan.pool.allocations == warm

    def test_disarmed_sharded_path_keeps_shard_pools_flat(self, disarmed):
        assert not faults_mod.armed()
        _, operator = graph_and_operator()
        x = np.ones(operator.n_cols)
        y = np.empty(operator.n_rows)
        # The default ranges write through views of ``y``; bitonic
        # shards compute into pooled buffers and scatter.
        bitonic = bitonic_partition(operator.row_lengths(), 4)
        for assignment in (None, bitonic):
            with ShardedExecutor(
                operator, 4, assignment=assignment
            ) as engine:
                engine.spmv(x, out=y)  # warm-up
                warm = [p.pool.allocations for p in engine._pieces]
                assert all(
                    p.pool.allocations > 0
                    for p in engine._pieces if not p.contiguous
                )
                for _ in range(5):
                    engine.spmv(x, out=y)
                assert [p.pool.allocations for p in engine._pieces] == warm
                assert engine.resilience_stats == {}


class TestOneDispatchPath:
    """Armed and disarmed calls run the same fan-out: the chaos suite
    certifies the path that serves real calls."""

    def test_armed_sharded_path_keeps_pools_flat(self):
        """The disarmed zero-allocation contract, with faults armed: no
        fresh buffer per attempt, only the warm pooled ones."""
        import tracemalloc

        from repro.mining.pagerank import pagerank_operator

        operator = pagerank_operator(
            rmat_graph(8192, 65536, seed=13).to_coo()
        )
        x = np.ones(operator.n_cols)
        y = np.empty(operator.n_rows)
        X = np.asfortranarray(np.ones((operator.n_cols, 4)))
        Y = np.empty((operator.n_rows, 4))
        # The default ranges write through views of ``y``; bitonic
        # shards compute into pooled buffers and scatter.
        bitonic = bitonic_partition(operator.row_lengths(), 3)
        for assignment in (None, bitonic):
            with chaos():  # armed, no specs: nothing fires
                with ShardedExecutor(
                    operator, 3, assignment=assignment
                ) as engine:
                    scattering = [
                        p for p in engine._pieces if not p.contiguous
                    ]
                    assert bool(scattering) == (assignment is not None)
                    engine.spmv(x, out=y)  # warm-up grows the pooled buffers
                    engine.spmm(X, out=Y)
                    warm = [p.pool.allocations for p in engine._pieces]
                    warm_ws = engine._workspace.allocations
                    assert all(s.pool.allocations > 0 for s in scattering)
                    tracemalloc.start()
                    try:
                        base = tracemalloc.get_traced_memory()[0]
                        for _ in range(5):
                            engine.spmv(x, out=y)
                            engine.spmm(X, out=Y)
                        peak = tracemalloc.get_traced_memory()[1] - base
                    finally:
                        tracemalloc.stop()
                    assert [
                        p.pool.allocations for p in engine._pieces
                    ] == warm
                    assert engine._workspace.allocations == warm_ws
                    assert engine.resilience_stats == {}
            # A fresh buffer per attempt costs a shard's rows at least:
            # ~22 KB per spmv and ~87 KB per spmm here.  The pooled path
            # allocates only small per-call bookkeeping, well under half
            # of ``y``.
            assert peak < operator.n_rows * 8 // 2

    @pytest.mark.parametrize("armed", [False, True])
    def test_one_shard_task_serves_every_shard(self, armed, disarmed):
        """Every piece runs through ``_shard_task`` once per call, armed
        or not."""
        _, operator = graph_and_operator()
        x = np.ones(operator.n_cols)
        reference = operator.spmv(x)
        seen = []
        with chaos() if armed else nullcontext():
            with ShardedExecutor(operator, 3) as engine:
                task = engine._shard_task

                def spy(piece, *args, _task=task):
                    seen.append(piece.number)
                    return _task(piece, *args)

                engine._shard_task = spy
                for _ in range(2):
                    assert np.array_equal(engine.spmv(x), reference)
                engine.spmm(np.ones((operator.n_cols, 2)))
                pieces = [p.number for p in engine._pieces]
                shards = {p.shard for p in engine._pieces}
        assert shards == {0, 1, 2}
        assert sorted(seen) == sorted(pieces * 3)


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------


class TestCheckpoint:
    def test_validates_state(self):
        with pytest.raises(ValidationError):
            Checkpoint("", 1, {"p": np.ones(2)}, {})
        with pytest.raises(ValidationError):
            Checkpoint("pagerank", -1, {"p": np.ones(2)}, {})
        with pytest.raises(ValidationError):
            Checkpoint("pagerank", 1, {}, {})
        with pytest.raises(CheckpointError):
            Checkpoint("pagerank", 1, {"p": np.array([1.0, np.nan])}, {})

    def test_require_checks_algorithm_and_params(self):
        ck = Checkpoint("pagerank", 3, {"p": np.ones(4)},
                        {"n": 4, "damping": 0.85})
        ck.require("pagerank", n=4, damping=0.85)
        with pytest.raises(CheckpointError):
            ck.require("hits", n=4)
        with pytest.raises(CheckpointError):
            ck.require("pagerank", n=4, damping=0.9)
        with pytest.raises(CheckpointError):
            ck.array("missing")

    def test_npz_roundtrip(self, tmp_path):
        path = tmp_path / "ck.npz"
        ck = Checkpoint("hits", 7, {"v": np.arange(6.0)},
                        {"n": 3, "tol": 1e-8})
        ck.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.algorithm == "hits"
        assert loaded.iteration == 7
        assert np.array_equal(loaded.array("v"), ck.array("v"))
        assert loaded.params == ck.params

    def test_load_missing_or_garbage_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpoint.load(tmp_path / "absent.npz")
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a zipfile")
        with pytest.raises(CheckpointError):
            Checkpoint.load(garbage)

    def test_store_at_and_latest(self):
        store = CheckpointStore()
        for k in (1, 2, 3):
            store.add(Checkpoint("pagerank", k, {"p": np.ones(2)}, {}))
        assert store.latest().iteration == 3
        assert store.at(2).iteration == 2
        assert store.iterations == (1, 2, 3)
        with pytest.raises(CheckpointError):
            store.at(99)

    def test_config_and_normalize(self, tmp_path):
        assert normalize_checkpoint(None) is None
        config = normalize_checkpoint(5)
        assert isinstance(config, CheckpointConfig)
        assert config.due(10) and not config.due(11)
        with pytest.raises(ValidationError):
            normalize_checkpoint(0)
        with pytest.raises(ValidationError):
            normalize_checkpoint(True)
        with pytest.raises(ValidationError):
            normalize_checkpoint("every-10")
        on_disk = CheckpointConfig(every=1, path=tmp_path / "pr.npz")
        on_disk.save(Checkpoint("pagerank", 1, {"p": np.ones(2)}, {}))
        assert (tmp_path / "pr.npz").exists()
        assert len(on_disk.store) == 1

    def test_resume_validates_against_run_params(self):
        from repro.mining.pagerank import pagerank

        graph = rmat_graph(64, 256, seed=5)
        config = CheckpointConfig(every=1)
        pagerank(graph, kernel="cpu-csr", tol=0.0, max_iter=3,
                 checkpoint=config)
        snapshot = config.store.at(2)
        with pytest.raises(CheckpointError):
            pagerank(graph, kernel="cpu-csr", tol=0.0, max_iter=3,
                     damping=0.5, resume_from=snapshot)

    def test_rwr_sequential_refuses_checkpointing(self):
        from repro.mining.rwr import random_walk_with_restart

        graph = rmat_graph(64, 256, seed=5)
        with pytest.raises(ValidationError):
            random_walk_with_restart(
                graph, kernel="cpu-csr", batched=False, checkpoint=1
            )


# ----------------------------------------------------------------------
# Node failure in the cluster simulation
# ----------------------------------------------------------------------


class TestNodeFailure:
    def test_repartition_covers_survivors(self):
        from repro.multigpu.bitonic import (
            bitonic_partition,
            repartition_after_failure,
        )

        graph, _ = graph_and_operator()
        lengths = graph.row_lengths()
        assignment = bitonic_partition(lengths, 4)
        new_assignment, moved = repartition_after_failure(
            lengths, assignment, 1, 4
        )
        assert new_assignment.max() == 2
        # Everything the dead node held had to move.
        dead_nnz = int(lengths[assignment == 1].sum())
        assert moved >= dead_nnz
        with pytest.raises(ValidationError):
            repartition_after_failure(lengths, assignment, 5, 4)
        with pytest.raises(ValidationError):
            repartition_after_failure(lengths, assignment, 0, 1)

    def test_recovery_cost_model(self):
        from repro.multigpu.cluster import recovery_cost_seconds
        from repro.multigpu.network import NetworkSpec

        net = NetworkSpec()
        assert recovery_cost_seconds(0, net) == 0.0
        assert recovery_cost_seconds(1000, net) > 0.0
        assert (recovery_cost_seconds(2000, net)
                > recovery_cost_seconds(1000, net))
        with pytest.raises(ValidationError):
            recovery_cost_seconds(-1, net)

    def test_node_failure_is_bit_identical_and_reported(self):
        from repro.multigpu.cluster import ClusterSpec, distributed_pagerank

        graph = rmat_graph(128, 1024, seed=13)
        cluster = ClusterSpec(4)
        reference, base = distributed_pagerank(
            graph, cluster, tol=0.0, max_iter=20
        )
        vector, report = distributed_pagerank(
            graph, cluster, tol=0.0, max_iter=20,
            fail_node=2, fail_at_iteration=8,
        )
        assert np.array_equal(vector, reference)
        assert report.failed_node == 2
        assert report.failed_at_iteration == 8
        assert report.moved_nnz > 0
        assert report.recovery_seconds > 0.0
        assert report.recovery_wall_seconds > 0.0
        assert len(report.post_failure_node_reports) == 3
        assert report.post_failure_comm_seconds is not None
        assert report.post_failure_iteration_seconds > 0.0
        assert report.total_seconds != base.total_seconds
        assert base.post_failure_node_reports is None
        assert base.total_seconds == (
            base.iteration_seconds * base.iterations
        )

    def test_node_failure_validation(self):
        from repro.multigpu.cluster import ClusterSpec, distributed_pagerank

        graph = rmat_graph(64, 256, seed=5)
        with pytest.raises(ValidationError):
            distributed_pagerank(graph, ClusterSpec(1), max_iter=2,
                                 fail_node=0)
        with pytest.raises(ValidationError):
            distributed_pagerank(graph, ClusterSpec(4), max_iter=2,
                                 fail_node=4)
        with pytest.raises(ValidationError):
            distributed_pagerank(graph, ClusterSpec(4), max_iter=2,
                                 fail_at_iteration=3)

    def test_measured_failure_run_matches_measured_reference(self):
        from repro.multigpu.cluster import ClusterSpec, distributed_pagerank

        graph = rmat_graph(128, 1024, seed=13)
        cluster = ClusterSpec(3)
        reference, _ = distributed_pagerank(
            graph, cluster, tol=0.0, max_iter=10, measure=True,
            measure_backend="numpy",
        )
        vector, report = distributed_pagerank(
            graph, cluster, tol=0.0, max_iter=10, measure=True,
            measure_backend="numpy", fail_node=0, fail_at_iteration=4,
        )
        assert np.array_equal(vector, reference)
        # Post-failure the measured engine runs on the survivors.
        assert report.measured_shard_seconds.shape == (2,)


# ----------------------------------------------------------------------
# Metrics additions and the chaos runner
# ----------------------------------------------------------------------


class TestChaosRunner:
    def test_counter_series(self):
        reg = Metrics()
        reg.inc("resilience.retries", 2, shard=0)
        reg.inc("resilience.retries", 1, shard=1)
        reg.inc("resilience.retries.other", 5)
        series = reg.counter_series("resilience.retries")
        assert series == {
            "resilience.retries{shard=0}": 2.0,
            "resilience.retries{shard=1}": 1.0,
        }

    def test_run_chaos_quick_survives_everything(self):
        import json

        from repro.resilience import run_chaos

        prior_metrics = metrics_mod.enabled()
        was_armed = faults_mod.armed()
        report = run_chaos(quick=True)
        assert metrics_mod.enabled() is prior_metrics
        assert faults_mod.armed() is was_armed
        assert report["summary"]["all_survived"] is True
        names = {s["name"] for s in report["scenarios"]}
        assert "pagerank-shard-failures" in names
        assert "pagerank-checkpoint-resume" in names
        assert "distributed-pagerank-node-failure" in names
        acceptance = next(
            s for s in report["scenarios"]
            if s["name"] == "pagerank-shard-failures"
        )
        assert acceptance["injected"] > 0
        assert acceptance["metrics"]["retries"] > 0
        json.dumps(report)  # artifact-ready


REPRO_FAULTS_SET = bool(os.environ.get("REPRO_FAULTS", "").strip())

# Captured at collection time, before any test's arm/disarm churn.
ARMED_AT_IMPORT = faults_mod.armed()


@pytest.mark.skipif(
    not REPRO_FAULTS_SET,
    reason="env arming only observable when CI exports REPRO_FAULTS",
)
def test_env_armed_session_is_armed():
    """The chaos CI job exports REPRO_FAULTS; import-time arming must
    have latched."""
    assert ARMED_AT_IMPORT
