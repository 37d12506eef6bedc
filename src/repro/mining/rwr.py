"""Random Walk with Restart (paper Appendix F, Equation 9).

.. math:: r_i^{(k+1)} = c\\,W r_i^{(k)} + (1 - c)\\,e_i

``W`` is the column-normalised adjacency of the *undirected* graph
("since RWR operates on undirected graphs, we treat each link in our
directed graph datasets as an undirected link"); ``c = 0.9`` and the
experiment averages 25 random query nodes — "the number of computations
per iteration is the same whichever node is selected as query".
"""

from __future__ import annotations

import numpy as np

from repro.errors import CheckpointError, ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import SpMVKernel, create
from repro.mining.power_method import (
    MiningResult,
    convergence_trace,
    finish_run,
    l1_delta,
    mining_setup,
    resolve_checkpoint,
    resolve_warm_start,
    resume_checkpoint,
)
from repro.mining.vector_kernels import axpy_cost, reduction_cost
from repro.tuner.fingerprint import matrix_fingerprint

__all__ = ["RWRResult", "random_walk_with_restart", "rwr_operator"]

RWRResult = MiningResult


def rwr_operator(adjacency: COOMatrix) -> COOMatrix:
    """Column-normalised adjacency of the symmetrised graph."""
    if adjacency.n_rows != adjacency.n_cols:
        raise ValidationError("RWR needs a square adjacency matrix")
    sym = COOMatrix.from_edges(
        np.concatenate([adjacency.rows, adjacency.cols]),
        np.concatenate([adjacency.cols, adjacency.rows]),
        adjacency.shape,
    )
    return CSCMatrix.from_coo(sym).normalize_cols().to_coo()


def random_walk_with_restart(
    adjacency: SparseMatrix,
    *,
    kernel: str | SpMVKernel = "hyb",
    device: DeviceSpec | None = None,
    restart: float = 0.9,
    queries: np.ndarray | None = None,
    n_queries: int = 25,
    seed: int = 11,
    tol: float = 1e-8,
    max_iter: int = 200,
    batched: bool = True,
    executor=None,
    n_shards: int | str | None = None,
    tune: bool = False,
    checkpoint=None,
    resume_from=None,
    warm_start=None,
    warm_start_check: bool = True,
    **kernel_options,
) -> MiningResult:
    """Run RWR for each query node and average the simulated cost.

    The returned ``vector`` is the relevance vector of the *last* query;
    ``extra['per_query_iterations']`` holds all iteration counts and
    ``total_cost`` is the **mean** cost over queries (what Table 5
    reports: "the performance is reported by averaging").

    With ``batched`` (the default) all query walks advance together
    through one SpMM per iteration — the matrix structure is gathered
    once per step for every seed instead of once per seed per step.
    Each column evolves independently and its convergence is judged on
    a contiguous copy with the same reduction the sequential path uses,
    so per-query iteration counts and vectors are bit-identical to
    running the seeds one at a time.

    ``executor``/``n_shards`` route each step's SpMV/SpMM through a
    :class:`~repro.exec.ShardedExecutor` built on the column-normalised
    operator; walks stay bit-identical to the single-shard run.

    ``checkpoint``/``resume_from`` snapshot and restore the full batched
    walk state (``R``/``frozen``/``active``/``iteration_counts`` plus
    the query set — the checkpoint's queries *are* the resumed run's
    queries); only the ``batched`` path supports them, the sequential
    path raises :class:`ValidationError`.

    ``warm_start`` seeds the batched walk matrix of a fresh run — an
    ``(n, len(queries))`` array or a checkpoint / ``.npz`` path (its
    ``"R"`` array) from a previous run over the *same query set* —
    iteration counting restarts at zero; batched-only, mutually
    exclusive with ``resume_from``.
    """
    if not 0 < restart < 1:
        raise ValidationError(f"restart must be in (0, 1), got {restart}")
    if not batched and (
        checkpoint is not None
        or resume_from is not None
        or warm_start is not None
    ):
        raise ValidationError(
            "checkpoint/resume_from/warm_start require batched=True (the "
            "sequential path interleaves per-query loops and has no single "
            "resumable iteration state)"
        )
    with mining_setup(
        adjacency, "rwr", rwr_operator, kernel, device=device,
        kernel_options=kernel_options, executor=executor,
        n_shards=n_shards, tune=tune,
        create=create, fingerprint=matrix_fingerprint,
    ) as run:
        spmv, engine, fingerprint = run.kernel, run.engine, run.fingerprint
        n = run.operator.n_rows
        ckpt_config = resolve_checkpoint(checkpoint)
        if warm_start is not None and resume_from is not None:
            # The full resolution needs the finalised query set (for the
            # expected shape), but the contradiction is reportable now,
            # before any checkpoint file is touched.
            resolve_warm_start(
                warm_start, resume_from, (n, 0), key="R", algorithm="rwr"
            )
        snapshot = resume_checkpoint(
            resume_from, "rwr", n=n, restart=restart
        )
        if snapshot is not None:
            resumed_queries = np.asarray(
                snapshot.array("queries"), dtype=np.int64
            )
            if queries is not None and not np.array_equal(
                np.asarray(queries, dtype=np.int64), resumed_queries
            ):
                raise CheckpointError(
                    "queries passed alongside resume_from do not match "
                    "the checkpoint's query set"
                )
            queries = resumed_queries
        rng = np.random.default_rng(seed)
        if queries is None:
            queries = rng.choice(n, size=min(n_queries, n), replace=False)
        queries = np.asarray(queries, dtype=np.int64)
        if queries.size == 0:
            raise ValidationError("at least one query node is required")
        if queries.min() < 0 or queries.max() >= n:
            raise ValidationError("query node out of range")
        warm = resolve_warm_start(
            warm_start, resume_from, (n, queries.size), key="R",
            algorithm="rwr", fingerprint=fingerprint,
            check=warm_start_check,
        )

        dev = spmv.device
        per_iteration = (
            spmv.cost()
            + axpy_cost(n, dev)       # restart update
            + reduction_cost(n, dev)  # convergence check
        ).relabel(f"rwr/{spmv.name}")

        trace = convergence_trace(
            "rwr", restart=restart, tol=tol, batched=batched
        )
        trace.tick()
        if batched:
            iteration_counts, all_converged, r = _run_batched(
                engine, queries, n, restart, tol, max_iter, trace,
                ckpt_config=ckpt_config, snapshot=snapshot, warm=warm,
            )
        else:
            iteration_counts, all_converged, r = _run_sequential(
                engine, queries, n, restart, tol, max_iter, trace
            )
        shards_used = getattr(engine, "n_shards", 1)
    mean_iterations = float(np.mean(iteration_counts))
    total = per_iteration.scaled(mean_iterations).relabel(per_iteration.label)
    extra = {
        "restart": restart,
        "queries": queries,
        "per_query_iterations": iteration_counts,
        "batched": batched,
        "n_shards": shards_used,
        "operator_fingerprint": fingerprint,
    }
    if snapshot is not None:
        extra["resume_iteration"] = snapshot.iteration
    if warm is not None:
        extra["warm_start"] = True
    return finish_run(trace, MiningResult(
        algorithm="rwr",
        kernel_name=spmv.name,
        vector=r,
        iterations=int(round(mean_iterations)),
        converged=all_converged,
        per_iteration=per_iteration,
        total_cost=total,
        extra=extra,
    ))


def _run_sequential(
    spmv,  # SpMVKernel or ShardedExecutor: anything with spmv(x, out=)
    queries: np.ndarray,
    n: int,
    restart: float,
    tol: float,
    max_iter: int,
    trace,
) -> tuple[list[int], bool, np.ndarray]:
    """One power-method run per query (double-buffered)."""
    iteration_counts: list[int] = []
    all_converged = True
    r = np.zeros(n)
    new_r = np.empty(n)
    scratch = np.empty(n)
    base = np.empty(n)
    for query in queries:
        e = np.zeros(n)
        e[query] = 1.0
        np.multiply(e, 1.0 - restart, out=base)
        r = e.copy()
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            spmv.spmv(r, out=new_r)
            np.multiply(new_r, restart, out=new_r)
            new_r += base
            delta = l1_delta(new_r, r, scratch=scratch)
            r, new_r = new_r, r
            if trace.active:
                trace.record(iterations, delta, query=float(query))
            if delta < tol:
                converged = True
                break
        iteration_counts.append(iterations)
        all_converged &= converged
    return iteration_counts, all_converged, r


def _run_batched(
    spmv,  # SpMVKernel or ShardedExecutor: anything with spmm(X, out=)
    queries: np.ndarray,
    n: int,
    restart: float,
    tol: float,
    max_iter: int,
    trace,
    ckpt_config=None,
    snapshot=None,
    warm=None,
) -> tuple[list[int], bool, np.ndarray]:
    """All query walks in lock step, one SpMM per iteration.

    A column that converges is snapshotted (the sequential run would
    have stopped there) and thereafter only rides along in the batch;
    its extra multiplications cannot perturb the other columns because
    each SpMM column depends only on its own right-hand side.

    The checkpoint state is everything the loop body reads across
    iterations (``R``/``frozen``/``active``/``iteration_counts``);
    ``E``/``base`` are pure functions of the queries, so resuming from
    a snapshot replays the remaining iterations bitwise.
    """
    k = queries.size
    E = np.zeros((n, k))
    E[queries, np.arange(k)] = 1.0
    base = (1.0 - restart) * E
    start_iteration = 0
    if snapshot is None:
        R = E.copy() if warm is None else warm
        frozen = E.copy()
        active = np.ones(k, dtype=bool)
        iteration_counts = np.zeros(k, dtype=np.int64)
    else:
        R = np.array(snapshot.array("R"), dtype=np.float64)
        frozen = np.array(snapshot.array("frozen"), dtype=np.float64)
        active = np.array(snapshot.array("active"), dtype=bool)
        iteration_counts = np.array(
            snapshot.array("iteration_counts"), dtype=np.int64
        )
        for name, array, shape in (
            ("R", R, (n, k)),
            ("frozen", frozen, (n, k)),
            ("active", active, (k,)),
            ("iteration_counts", iteration_counts, (k,)),
        ):
            if array.shape != shape:
                raise CheckpointError(
                    f"checkpoint array {name!r} has shape {array.shape}, "
                    f"expected {shape}"
                )
        start_iteration = snapshot.iteration
    R_new = np.empty((n, k))
    col_new = np.empty(n)
    col_old = np.empty(n)
    scratch = np.empty(n)
    for iteration in range(start_iteration + 1, max_iter + 1):
        if not active.any():
            break
        spmv.spmm(R, out=R_new)
        np.multiply(R_new, restart, out=R_new)
        R_new += base
        for j in np.nonzero(active)[0]:
            np.copyto(col_new, R_new[:, j])
            np.copyto(col_old, R[:, j])
            delta = l1_delta(col_new, col_old, scratch=scratch)
            iteration_counts[j] = iteration
            if trace.active:
                trace.record(iteration, delta, query=float(queries[j]))
            if delta < tol:
                active[j] = False
                frozen[:, j] = R_new[:, j]
        R, R_new = R_new, R
        if ckpt_config is not None and ckpt_config.due(iteration):
            from repro.resilience.checkpoint import Checkpoint

            ckpt_config.save(Checkpoint(
                algorithm="rwr",
                iteration=iteration,
                arrays={
                    "R": R.copy(),
                    "frozen": frozen.copy(),
                    "active": active.copy(),
                    "iteration_counts": iteration_counts.copy(),
                    "queries": queries.copy(),
                },
                params={"n": n, "restart": restart, "tol": tol},
            ))
    for j in np.nonzero(active)[0]:
        frozen[:, j] = R[:, j]
    all_converged = not active.any()
    return (
        iteration_counts.tolist(),
        all_converged,
        np.ascontiguousarray(frozen[:, -1]),
    )
