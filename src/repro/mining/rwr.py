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
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import SpMVKernel, create
from repro.mining.power_method import (
    MiningResult,
    check_seed,
    checkpointer,
    convergence_trace,
    finish_run,
    mining_setup,
    resolve_warm_start,
    resume_checkpoint,
    seeded_walk,
)
from repro.mining.vector_kernels import axpy_cost, reduction_cost
from repro.tuner.fingerprint import matrix_fingerprint

__all__ = ["RWRResult", "random_walk_with_restart", "rwr_operator"]

RWRResult = MiningResult


def rwr_operator(adjacency: COOMatrix) -> COOMatrix:
    """Column-normalised adjacency of the symmetrised graph.

    The symmetrised graph's unit entries are scaled in place by
    ``1 / colsum`` of their column: the arrays of
    ``CSCMatrix.from_coo(sym).normalize_cols().to_coo()`` without its
    two sorts (every stored column sums to at least one).
    """
    if adjacency.n_rows != adjacency.n_cols:
        raise ValidationError("RWR needs a square adjacency matrix")
    sym = COOMatrix.from_edges(
        np.concatenate([adjacency.rows, adjacency.cols]),
        np.concatenate([adjacency.cols, adjacency.rows]),
        adjacency.shape,
    )
    colsum = np.bincount(sym.cols, weights=sym.data, minlength=sym.n_cols)
    sym.data *= (1.0 / np.maximum(colsum, 1.0))[sym.cols]
    return sym


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

    ``n_shards`` routes each step's SpMV/SpMM through a
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
        kernel_options=kernel_options, n_shards=n_shards, tune=tune,
        create=create, fingerprint=matrix_fingerprint,
    ) as run:
        n = run.operator.n_rows
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
            resumed_queries = snapshot.array("queries")
            if queries is not None and not np.array_equal(
                [check_seed(q, n) for q in queries], resumed_queries
            ):
                raise CheckpointError(
                    "queries passed alongside resume_from do not match "
                    "the checkpoint's query set"
                )
            queries = resumed_queries
        rng = np.random.default_rng(seed)
        if queries is None:
            queries = rng.choice(n, size=min(n_queries, n), replace=False)
        queries = np.array([check_seed(q, n) for q in queries], dtype=np.int64)
        if queries.size == 0:
            raise ValidationError("at least one query node is required")
        warm = resolve_warm_start(
            warm_start, resume_from, (n, queries.size), key="R",
            algorithm="rwr", fingerprint=run.fingerprint,
            check=warm_start_check,
        )
        trace = convergence_trace(
            "rwr", restart=restart, tol=tol, batched=batched
        )
        save = checkpointer(
            checkpoint, "rwr",
            {"n": n, "restart": restart, "tol": tol}, "R",
            fixed={"queries": queries.copy()},
        )
        iteration_counts, all_converged = [], True
        # Batched: every query walk in lockstep, one SpMM per iteration.
        # Sequential: one walk, one SpMV per iteration, per query.
        for group in [queries] if batched else queries[:, None]:
            walk = seeded_walk(
                run.engine, n, group, alpha=restart, tol=tol,
                max_iter=max_iter, warm=warm, snapshot=snapshot,
                trace=trace, checkpoint=save,
                fields=lambda walk, j, group=group: {
                    "query": float(group[j])
                },
            )
            iteration_counts += walk.counts.tolist()
            all_converged &= bool(walk.converged.all())

    def price(kernel):
        dev = kernel.device
        return (
            kernel.cost()
            + axpy_cost(n, dev)       # restart update
            + reduction_cost(n, dev)  # convergence check
        )

    return finish_run(
        trace, "rwr", run, price,
        vector=np.ascontiguousarray(walk.frozen[:, -1]),
        iterations=float(np.mean(iteration_counts)),
        converged=all_converged, snapshot=snapshot, warm=warm,
        restart=restart, queries=queries,
        per_query_iterations=iteration_counts, batched=batched,
    )
