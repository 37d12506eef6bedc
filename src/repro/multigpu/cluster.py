"""Multi-GPU cluster simulation (§3.2, §4.3).

Each node holds a row-slice of the matrix (all columns — it needs the
whole ``x``), runs a single-GPU SpMV kernel on it, then all nodes
allgather their ``y`` slices.  "Any SpMV kernel can be plugged into this
multi-GPU framework"; the rows and columns of each partition of a
power-law matrix also follow a power law, so the tile-composite kernel
remains a good local kernel.

With ``measure=True`` the simulation also *runs* the partitioned
compute for real: the exact same row assignment drives a
:class:`~repro.exec.ShardedExecutor` on the host, and the measured
per-shard wall times land on the report next to the modeled GPU costs —
so the partitioner's balance claim is checked against a clock, not just
against nnz counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.errors import DeviceMemoryError, ValidationError
from repro.formats.base import SparseMatrix
from repro.gpu.costs import CostReport
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import create
from repro.mining.pagerank import pagerank_operator
from repro.mining.power_method import Walk, damped_step, power_iterate
from repro.mining.vector_kernels import axpy_cost, reduction_cost
from repro.multigpu.bitonic import (
    bitonic_partition,
    contiguous_partition,
    repartition_after_failure,
)
from repro.multigpu.network import NetworkSpec, allgather_seconds
from repro.obs import metrics as _metrics
from repro.obs.trace import trace as _span

__all__ = [
    "ClusterSpec",
    "MultiGPUReport",
    "distributed_pagerank",
    "recovery_cost_seconds",
    "simulate_spmv",
]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous multi-GPU cluster (one GPU used per node, as in
    the paper's experiments)."""

    n_gpus: int
    device: DeviceSpec = field(default_factory=DeviceSpec.tesla_c1060)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    #: Override of per-GPU usable memory (bytes); ``None`` uses the
    #: device sheet.  The Figure 4 bench scales this down with the
    #: datasets so the "fits only on >= k GPUs" constraint carries over.
    gpu_memory_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValidationError("n_gpus must be >= 1")

    @property
    def memory_limit(self) -> int:
        if self.gpu_memory_bytes is not None:
            return self.gpu_memory_bytes
        return self.device.global_memory_bytes


@dataclass
class MultiGPUReport:
    """Per-iteration profile of a distributed SpMV (or PageRank)."""

    n_gpus: int
    kernel_name: str
    nnz: int
    n_rows: int
    #: Per-node simulated SpMV reports.
    node_reports: list[CostReport]
    #: Exposed allgather time per iteration.
    comm_seconds: float
    #: Extra per-iteration vector-kernel time (PageRank updates etc.).
    vector_seconds: float = 0.0
    iterations: int = 1
    #: Mean measured per-shard host wall seconds per iteration, filled
    #: when the local compute also ran for real (``measure=True``).
    measured_shard_seconds: np.ndarray | None = None
    #: Node-failure simulation results (``distributed_pagerank`` with
    #: ``fail_node=``): which node died, when, what recovery cost.
    failed_node: int | None = None
    failed_at_iteration: int | None = None
    #: Modeled redistribution time: the moved rows' COO triples crossing
    #: the network to their new owners.
    recovery_seconds: float = 0.0
    #: Measured host wall time of the recovery (repartition + rebuild).
    recovery_wall_seconds: float = 0.0
    #: Non-zeros whose owner changed in the survivor repartition.
    moved_nnz: int = 0
    #: Per-survivor simulated SpMV reports after the failure.
    post_failure_node_reports: list[CostReport] | None = None
    #: Allgather time per iteration over the survivors.
    post_failure_comm_seconds: float | None = None

    @property
    def compute_seconds(self) -> float:
        """Slowest node's kernel time (the iteration barrier)."""
        return max(r.time_seconds for r in self.node_reports)

    @property
    def measured_compute_seconds(self) -> float | None:
        """Slowest shard's *measured* wall time (the real barrier)."""
        if self.measured_shard_seconds is None:
            return None
        return float(np.max(self.measured_shard_seconds))

    @property
    def measured_imbalance(self) -> float | None:
        """``max / mean`` of the measured shard times (1.0 = perfectly
        balanced); ``None`` without a measurement."""
        if self.measured_shard_seconds is None:
            return None
        mean = float(np.mean(self.measured_shard_seconds))
        if mean <= 0.0:
            return None
        return float(np.max(self.measured_shard_seconds)) / mean

    @property
    def iteration_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds + self.vector_seconds

    @property
    def post_failure_compute_seconds(self) -> float | None:
        """Slowest *survivor*'s kernel time; ``None`` without a failure."""
        if not self.post_failure_node_reports:
            return None
        return max(r.time_seconds for r in self.post_failure_node_reports)

    @property
    def post_failure_iteration_seconds(self) -> float | None:
        """Per-iteration time at the survivor configuration."""
        compute = self.post_failure_compute_seconds
        if compute is None:
            return None
        comm = (
            self.comm_seconds
            if self.post_failure_comm_seconds is None
            else self.post_failure_comm_seconds
        )
        return compute + comm + self.vector_seconds

    @property
    def total_seconds(self) -> float:
        """Modeled wall time of the whole run.

        Without a failure this is ``iteration_seconds * iterations``.
        With one, iterations before ``failed_at_iteration`` run at the
        full-cluster rate, then the recovery redistribution is paid
        once, and the remaining iterations (including the one the
        failure interrupted) run at the survivor rate.
        """
        post = self.post_failure_iteration_seconds
        if self.failed_at_iteration is None or post is None:
            return self.iteration_seconds * self.iterations
        pre_iters = min(self.failed_at_iteration - 1, self.iterations)
        post_iters = max(self.iterations - pre_iters, 0)
        return (
            pre_iters * self.iteration_seconds
            + self.recovery_seconds
            + post_iters * post
        )

    @property
    def gflops(self) -> float:
        if self.iteration_seconds <= 0:
            return 0.0
        return 2 * self.nnz / self.iteration_seconds / 1e9

    def speedup_over(self, baseline: "MultiGPUReport") -> float:
        """Wall-clock speedup of this run over a baseline run."""
        return baseline.iteration_seconds / self.iteration_seconds

    def parallel_efficiency(self, baseline: "MultiGPUReport") -> float:
        """Efficiency relative to ideal scaling from the baseline GPU
        count (the paper quotes efficiency from the smallest feasible
        configuration)."""
        ideal = self.n_gpus / baseline.n_gpus
        return self.speedup_over(baseline) / ideal


def required_device_bytes(n_rows: int, n_cols: int, nnz: int) -> int:
    """Bytes a node's local problem occupies on one GPU.

    The raw edge staging (12 bytes per non-zero: row, column, value)
    plus the full ``x`` and the local ``y``.  Feasibility is judged on
    this format-independent footprint so every kernel's scaling line
    starts at the same GPU count, as in the paper's Figure 4.
    """
    return int(12 * nnz + 4 * n_cols + 4 * n_rows)


def _measure_local_spmv(
    coo,
    assignment: np.ndarray,
    n_shards: int,
    *,
    backend: str | None = None,
    repeats: int = 3,
) -> np.ndarray:
    """Run the partitioned SpMV for real; mean per-shard wall seconds.

    The executor reuses the *exact* simulation assignment, so what the
    clock sees is the partition the model priced.  One warm-up call
    builds the per-shard plans and grows the scratch pools before
    anything is timed.
    """
    from repro.exec.sharded import ShardedExecutor

    if repeats < 1:
        raise ValidationError(f"measure_repeats must be >= 1, got {repeats}")
    x = np.random.default_rng(0).random(coo.n_cols)
    out = np.empty(coo.n_rows)
    acc = np.zeros(n_shards)
    with ShardedExecutor(
        coo, n_shards, assignment=assignment, backend=backend
    ) as executor:
        executor.spmv(x, out=out)  # warm-up: plan build + pool growth
        for _ in range(repeats):
            executor.spmv(x, out=out)
            acc += executor.last_shard_seconds
    return acc / repeats


def _node_reports(
    coo,
    assignment: np.ndarray,
    n_parts: int,
    cluster: ClusterSpec,
    kernel: str,
    *,
    check_memory: bool,
    **kernel_options,
) -> list[CostReport]:
    """Build every node's local kernel and collect its simulated cost.

    Raises :class:`DeviceMemoryError` when a node's slice exceeds the
    per-GPU limit and ``check_memory`` is set.
    """
    node_reports: list[CostReport] = []
    for node in range(n_parts):
        local_rows = np.nonzero(assignment == node)[0]
        local = coo.select_rows(local_rows)
        if check_memory:
            needed = required_device_bytes(
                local.n_rows, local.n_cols, local.nnz
            )
            if needed > cluster.memory_limit:
                raise DeviceMemoryError(
                    f"node {node} needs {needed / 1e6:.1f} MB but the GPU "
                    f"limit is {cluster.memory_limit / 1e6:.1f} MB; use "
                    "more GPUs"
                )
        node_kernel = create(
            kernel, local, device=cluster.device, **kernel_options
        )
        node_reports.append(node_kernel.cost())
    return node_reports


def simulate_spmv(
    matrix: SparseMatrix,
    cluster: ClusterSpec,
    *,
    kernel: str = "tile-composite",
    partition: str = "bitonic",
    check_memory: bool = True,
    measure: bool = False,
    measure_backend: str | None = None,
    measure_repeats: int = 3,
    **kernel_options,
) -> MultiGPUReport:
    """Partition the matrix and simulate one distributed SpMV iteration.

    Raises :class:`DeviceMemoryError` when any node's slice exceeds the
    per-GPU memory limit — the constraint that forces sk-2005 onto >= 3
    and uk-union onto >= 6 GPUs in the paper.

    ``measure=True`` additionally executes the partitioned SpMV on the
    host through a :class:`~repro.exec.ShardedExecutor` built on the
    same row assignment, filling ``report.measured_shard_seconds`` (the
    mean over ``measure_repeats`` timed calls, after one warm-up) so
    modeled balance can be validated against measured wall time.
    ``measure_backend`` picks the execution backend for the measured
    run (default: the registry default).
    """
    coo = matrix.to_coo()
    row_lengths = coo.row_lengths()
    if partition == "bitonic":
        assignment = bitonic_partition(row_lengths, cluster.n_gpus)
    elif partition == "contiguous":
        assignment = contiguous_partition(coo.n_rows, cluster.n_gpus)
    else:
        raise ValidationError(
            f"unknown partition scheme {partition!r}; "
            "expected 'bitonic' or 'contiguous'"
        )
    node_reports = _node_reports(
        coo, assignment, cluster.n_gpus, cluster, kernel,
        check_memory=check_memory, **kernel_options,
    )
    comm = allgather_seconds(
        4 * coo.n_rows, cluster.n_gpus, cluster.network
    )
    measured = None
    if measure:
        with _span(
            "multigpu.measure_spmv",
            n_gpus=cluster.n_gpus, partition=partition,
        ):
            measured = _measure_local_spmv(
                coo,
                assignment,
                cluster.n_gpus,
                backend=measure_backend,
                repeats=measure_repeats,
            )
        _report_measurement(measured)
    return MultiGPUReport(
        n_gpus=cluster.n_gpus,
        kernel_name=kernel,
        nnz=coo.nnz,
        n_rows=coo.n_rows,
        node_reports=node_reports,
        comm_seconds=comm,
        measured_shard_seconds=measured,
    )


def _report_measurement(measured: np.ndarray | None) -> None:
    """Feed measured per-shard seconds to the metrics registry."""
    if not _metrics._ENABLED or measured is None or measured.size == 0:
        return
    for shard, seconds in enumerate(measured):
        _metrics.METRICS.observe(
            "multigpu.shard.seconds", float(seconds), shard=shard
        )
    mean = float(np.mean(measured))
    if mean > 0.0:
        _metrics.METRICS.set_gauge(
            "multigpu.measured_imbalance", float(np.max(measured)) / mean
        )


def recovery_cost_seconds(moved_nnz: int, network: NetworkSpec) -> float:
    """Modeled redistribution time after a node failure.

    The moved rows' COO triples (12 bytes each) cross the network once,
    point to point, fully exposed — recovery happens while the iteration
    is stalled, so no compute hides it.
    """
    if moved_nnz < 0:
        raise ValidationError("moved_nnz must be non-negative")
    if moved_nnz == 0:
        return 0.0
    return network.latency + 12 * moved_nnz / network.bandwidth


def distributed_pagerank(
    adjacency: SparseMatrix,
    cluster: ClusterSpec,
    *,
    kernel: str = "tile-composite",
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 200,
    check_memory: bool = True,
    measure: bool = False,
    measure_backend: str | None = None,
    fail_node: int | None = None,
    fail_at_iteration: int | None = None,
    **kernel_options,
) -> tuple[np.ndarray, MultiGPUReport]:
    """PageRank on the cluster: returns the converged vector and the
    per-iteration profile with the realised iteration count.

    ``measure=True`` drives the whole power loop through a
    :class:`~repro.exec.ShardedExecutor` on the simulation's bitonic
    assignment — the iterates are bit-identical to the sequential
    recurrence, and ``report.measured_shard_seconds`` holds the mean
    per-shard wall time over the realised iterations.

    ``fail_node`` simulates that node dropping out at the start of
    iteration ``fail_at_iteration`` (default 1): the bitonic deal is
    re-run over the survivors, the moved rows' redistribution cost is
    modeled on the network spec, and the report carries the survivor
    configuration (``post_failure_*`` fields, ``recovery_seconds``,
    ``moved_nnz``).  Row partitioning is a pure data layout, so the
    returned vector is **bit-identical** to the failure-free run.
    """
    coo = adjacency.to_coo()
    operator = pagerank_operator(coo)
    if fail_node is None:
        if fail_at_iteration is not None:
            raise ValidationError(
                "fail_at_iteration requires fail_node"
            )
    else:
        if cluster.n_gpus < 2:
            raise ValidationError(
                "node-failure simulation needs n_gpus >= 2"
            )
        if not 0 <= fail_node < cluster.n_gpus:
            raise ValidationError(
                f"fail_node must be in [0, {cluster.n_gpus}), "
                f"got {fail_node}"
            )
        if fail_at_iteration is None:
            fail_at_iteration = 1
        elif fail_at_iteration < 1:
            raise ValidationError(
                f"fail_at_iteration must be >= 1, got {fail_at_iteration}"
            )
    report = simulate_spmv(
        operator,
        cluster,
        kernel=kernel,
        check_memory=check_memory,
        **kernel_options,
    )
    # The distributed iteration is numerically identical to the
    # single-node one (row partitioning is a pure data layout), so the
    # vector/iteration count come from the exact host recurrence —
    # run sequentially, or sharded when a measurement is requested.
    n = operator.n_rows
    op_coo = operator.to_coo()
    row_lengths = op_coo.row_lengths()
    assignment = bitonic_partition(row_lengths, cluster.n_gpus)
    p0 = np.full(n, 1.0 / n)
    engine = None
    n_shards = cluster.n_gpus
    measured = np.zeros(cluster.n_gpus)
    measured_post = np.zeros(max(cluster.n_gpus - 1, 1))
    pre_iters = 0
    post_iters = 0
    failed = False

    def _build_engine(shards: int, shard_assignment: np.ndarray):
        from repro.exec.sharded import ShardedExecutor

        return ShardedExecutor(
            operator,
            shards,
            assignment=shard_assignment,
            backend=measure_backend,
        )

    def _fail(iteration: int) -> None:
        nonlocal failed, assignment, engine, n_shards
        failed = True
        wall = time.perf_counter()
        survivors = cluster.n_gpus - 1
        assignment, moved_nnz = repartition_after_failure(
            row_lengths, assignment, fail_node, cluster.n_gpus,
        )
        report.post_failure_node_reports = _node_reports(
            op_coo, assignment, survivors, cluster, kernel,
            check_memory=check_memory, **kernel_options,
        )
        report.post_failure_comm_seconds = allgather_seconds(
            4 * n, survivors, cluster.network
        )
        report.failed_node = fail_node
        report.failed_at_iteration = iteration
        report.moved_nnz = moved_nnz
        report.recovery_seconds = recovery_cost_seconds(
            moved_nnz, cluster.network
        )
        if engine is not None:
            engine.close()
            n_shards = survivors
            engine = _build_engine(n_shards, assignment)
        report.recovery_wall_seconds = time.perf_counter() - wall
        if _metrics._ENABLED:
            _metrics.METRICS.inc("resilience.node_failures", node=fail_node)
            _metrics.METRICS.observe(
                "resilience.recovery.seconds", report.recovery_wall_seconds
            )

    def _spmv(p: np.ndarray, out: np.ndarray) -> None:
        # Called once per iteration, so the call count is the iteration.
        nonlocal pre_iters, post_iters, measured, measured_post
        iteration = pre_iters + post_iters + 1
        if (
            fail_node is not None
            and not failed
            and iteration >= fail_at_iteration
        ):
            _fail(iteration)
        if failed:
            post_iters += 1
        else:
            pre_iters += 1
        if engine is None:
            operator.spmv(p, out=out)
            return
        engine.spmv(p, out=out)
        if failed:
            measured_post += engine.last_shard_seconds
        else:
            measured += engine.last_shard_seconds

    if measure:
        engine = _build_engine(n_shards, assignment)
    walk = Walk(p0.copy())
    try:
        with _span(
            "multigpu.distributed_pagerank",
            n_gpus=cluster.n_gpus, measure=measure,
        ) as span:
            power_iterate(
                walk,
                damped_step(
                    SimpleNamespace(spmv=_spmv), damping,
                    ((1.0 - damping) * p0)[:, None],
                ),
                tol=tol, max_iter=max_iter,
            )
            iterations = int(walk.counts[0])
            if span is not None:
                span["attrs"]["iterations"] = iterations
                if failed:
                    span["attrs"]["failed_node"] = fail_node
                    span["attrs"]["moved_nnz"] = report.moved_nnz
    finally:
        if engine is not None:
            engine.close()
    if measure and iterations:
        # Report the configuration that ran the bulk of the iterations:
        # the survivors after a failure, the full cluster otherwise.
        if failed and post_iters:
            report.measured_shard_seconds = measured_post / post_iters
        elif pre_iters:
            report.measured_shard_seconds = measured / pre_iters
        _report_measurement(report.measured_shard_seconds)
    device = cluster.device
    vector = (
        axpy_cost(n // cluster.n_gpus + 1, device)
        + reduction_cost(n // cluster.n_gpus + 1, device)
    )
    report.vector_seconds = vector.time_seconds
    report.iterations = iterations
    return walk.frozen[:, 0], report
