"""PageRank via the power method (paper Appendix F, Equation 6).

.. math:: p^{(k+1)} = c\\,W^T p^{(k)} + (1 - c)\\,p^{(0)}

``W`` is the row-normalised adjacency matrix; the SpMV kernel computes
``W^T p`` and two small vector kernels apply the damping update and the
convergence check.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import SpMVKernel, create
from repro.mining.power_method import (
    MiningResult,
    checkpointer,
    convergence_trace,
    damped_step,
    finish_run,
    mining_setup,
    power_iterate,
    resolve_warm_start,
    resume_checkpoint,
    start_walk,
)
from repro.mining.vector_kernels import axpy_cost, reduction_cost
from repro.tuner.fingerprint import matrix_fingerprint

__all__ = ["PageRankResult", "pagerank", "pagerank_csc", "pagerank_operator"]

PageRankResult = MiningResult


def _out_weights(adjacency: COOMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Out-degrees and the surfer's step weights ``1 / outdeg`` (every
    stored source has out-degree at least one)."""
    if adjacency.n_rows != adjacency.n_cols:
        raise ValidationError("PageRank needs a square adjacency matrix")
    lengths = adjacency.row_lengths()
    return lengths, 1.0 / np.maximum(lengths, 1).astype(np.float64)


def pagerank_csc(adjacency: COOMatrix) -> CSCMatrix:
    """``W^T`` stored by columns, built without a sort.

    Entry ``(v, u)`` of the operator is ``1 / outdeg(u)`` for each edge
    ``u -> v`` — a random surfer on ``u`` moves to ``v`` with that
    probability.  Column ``u`` of ``W^T`` is row ``u`` of the
    adjacency, so the adjacency's own row-major arrays are the CSC: the
    out-degree offsets become ``indptr``, its column indices the row
    indices, and each source's weight repeats over its out-edges.
    """
    lengths, inv_deg = _out_weights(adjacency)
    return CSCMatrix(
        adjacency.row_pointer(), adjacency.cols, np.repeat(inv_deg, lengths),
        (adjacency.n_cols, adjacency.n_rows),
    )


def pagerank_operator(adjacency: COOMatrix) -> COOMatrix:
    """Build ``W^T`` row-sorted: the arrays of
    ``pagerank_csc(adjacency).to_coo()``.

    Built as the adjacency's transpose in
    :meth:`~repro.formats.coo.COOMatrix.column_order`, gathering each
    weight from the O(rows) table ``1 / outdeg`` rather than from the
    CSC's O(nnz) ``data`` (DESIGN.md §7, "Cold starts").
    """
    _, inv_deg = _out_weights(adjacency)
    order = adjacency.column_order()
    src = adjacency.rows[order]
    return COOMatrix(
        adjacency.cols[order],
        src,
        inv_deg[src],
        (adjacency.n_cols, adjacency.n_rows),
    )


def pagerank(
    adjacency: SparseMatrix,
    *,
    kernel: str | SpMVKernel = "hyb",
    device: DeviceSpec | None = None,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 200,
    n_shards: int | str | None = None,
    tune: bool = False,
    checkpoint=None,
    resume_from=None,
    warm_start=None,
    warm_start_check: bool = True,
    **kernel_options,
) -> MiningResult:
    """Run PageRank and report the converged vector plus simulated cost.

    Parameters
    ----------
    adjacency:
        Directed adjacency matrix ``A(u, v) = 1`` for edge ``u -> v``.
    kernel:
        Kernel name (built on ``W^T``) or a pre-built kernel instance.
    damping:
        The paper sets ``c = 0.85``.
    n_shards:
        Run the per-iteration SpMV through a
        :class:`~repro.exec.ShardedExecutor` with ``n_shards`` shards
        (``"auto"`` for the nnz/cores policy), built on the first such
        run and cached on ``adjacency`` for later ones.  The iterates
        are bit-identical to the single-shard run.
    tune:
        Let the measured auto-tuner (:func:`repro.tuner.tune`) decide
        the execution configuration for the PageRank operator —
        mutually exclusive with ``n_shards``.  Decisions
        are persisted in the tuning cache, so only the first run on a
        matrix pays for measurement.
    checkpoint:
        ``None``, an iteration period (int), or a
        :class:`~repro.resilience.CheckpointConfig` — snapshot the
        iterate every ``every`` iterations (in memory, plus an ``.npz``
        when the config carries a path).
    resume_from:
        A :class:`~repro.resilience.Checkpoint` (or ``.npz`` path) from
        a previous run: iterations continue at ``iteration + 1`` and
        replay the uninterrupted trajectory **bitwise** — same operator,
        same recurrence, same reduction order.
    warm_start:
        Seed the initial iterate of a *fresh* run (iteration count
        restarts at zero) with a previous result — an array of length
        ``n``, a :class:`~repro.mining.MiningResult`, or a checkpoint /
        ``.npz`` path (its ``"p"`` array).  The dynamic-graph idiom:
        after a small update the old vector is near the new fixed point
        and convergence takes a fraction of the cold iterations.  The
        teleport base stays the uniform ``p0`` regardless.  Mutually
        exclusive with ``resume_from``.  A ``MiningResult`` seed is
        checked against this run's operator fingerprint — a result
        from a different graph raises unless ``warm_start_check=False``
        (the dynamic-update idiom, where the structure legitimately
        changed).
    """
    if not 0 < damping < 1:
        raise ValidationError(f"damping must be in (0, 1), got {damping}")
    with mining_setup(
        adjacency, "pagerank", pagerank_operator, kernel, device=device,
        kernel_options=kernel_options, n_shards=n_shards, tune=tune,
        create=create, fingerprint=matrix_fingerprint,
        source_major=pagerank_csc,
    ) as run:
        n = run.operator.n_rows
        warm = resolve_warm_start(
            warm_start, resume_from, (n,), key="p", algorithm="pagerank",
            fingerprint=run.fingerprint, check=warm_start_check,
        )
        snapshot = resume_checkpoint(
            resume_from, "pagerank", n=n, damping=damping
        )
        p0 = np.full(n, 1.0 / n)
        walk = start_walk(p0, warm, snapshot, "p")
        # Per-iteration residual / dangling-mass / wall-time record.
        trace = convergence_trace("pagerank", damping=damping, tol=tol)
        lost = {}

        def observe(p, product):
            # Probability mass the operator lost at dangling nodes
            # (rows of W^T with no incoming weight): in minus out.
            lost["dangling_mass"] = float(p.sum() - product.sum())

        power_iterate(
            walk,
            damped_step(run.engine, damping, ((1.0 - damping) * p0)[:, None],
                        observe if trace.active else None),
            tol=tol, max_iter=max_iter, trace=trace,
            fields=lambda walk, j: {**lost, "mass": float(walk.X[:, 0].sum())},
            checkpoint=checkpointer(
                checkpoint, "pagerank",
                {"n": n, "damping": damping, "tol": tol}, "p",
            ),
        )

    def price(kernel):
        dev = kernel.device
        return (
            kernel.cost()
            + axpy_cost(n, dev)       # damping update
            + reduction_cost(n, dev)  # convergence check
        )

    return finish_run(
        trace, "pagerank", run, price,
        vector=walk.frozen[:, 0], iterations=int(walk.counts[0]),
        converged=bool(walk.converged[0]), snapshot=snapshot, warm=warm,
        damping=damping, tol=tol,
    )
