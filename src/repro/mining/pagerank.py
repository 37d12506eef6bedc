"""PageRank via the power method (paper Appendix F, Equation 6).

.. math:: p^{(k+1)} = c\\,W^T p^{(k)} + (1 - c)\\,p^{(0)}

``W`` is the row-normalised adjacency matrix; the SpMV kernel computes
``W^T p`` and two small vector kernels apply the damping update and the
convergence check.
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

__all__ = ["PageRankResult", "pagerank", "pagerank_operator"]

PageRankResult = MiningResult


def pagerank_operator(adjacency: COOMatrix) -> COOMatrix:
    """Build ``W^T`` (transposed row-normalised adjacency) directly.

    Entry ``(v, u)`` of the operator is ``1 / outdeg(u)`` for each edge
    ``u -> v`` — a random surfer on ``u`` moves to ``v`` with that
    probability.  Built as a transpose in
    :meth:`~repro.formats.coo.COOMatrix.column_order`, gathering the
    weights ``1 / outdeg(src)`` directly instead of the adjacency data
    (every stored source has out-degree at least one).
    """
    if adjacency.n_rows != adjacency.n_cols:
        raise ValidationError("PageRank needs a square adjacency matrix")
    inv_deg = 1.0 / np.maximum(adjacency.row_lengths(), 1).astype(np.float64)
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
    executor=None,
    n_shards: int | str | None = None,
    shard_mode: str | None = None,
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
    executor, n_shards:
        Run the per-iteration SpMV through a
        :class:`~repro.exec.ShardedExecutor` — either a caller-owned one
        (built on the PageRank operator) or one with ``n_shards`` shards
        (``"auto"`` for the nnz/cores policy), built on the first such
        run and cached on ``adjacency`` for later ones.  The iterates
        are bit-identical to the single-shard run.
    shard_mode:
        ``"thread"`` or ``"process"`` fan-out for the sharded run (see
        :class:`~repro.exec.ShardedExecutor`); needs ``n_shards``.
    tune:
        Let the measured auto-tuner (:func:`repro.tuner.tune`) decide
        the execution configuration for the PageRank operator —
        mutually exclusive with ``executor``/``n_shards``.  Decisions
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
        kernel_options=kernel_options, executor=executor,
        n_shards=n_shards, shard_mode=shard_mode, tune=tune,
        create=create, fingerprint=matrix_fingerprint,
    ) as run:
        spmv, engine, fingerprint = run.kernel, run.engine, run.fingerprint
        n = run.operator.n_rows
        ckpt_config = resolve_checkpoint(checkpoint)
        warm = resolve_warm_start(
            warm_start, resume_from, (n,), key="p", algorithm="pagerank",
            fingerprint=fingerprint, check=warm_start_check,
        )
        snapshot = resume_checkpoint(
            resume_from, "pagerank", n=n, damping=damping
        )
        p0 = np.full(n, 1.0 / n)
        start_iteration = 0
        if snapshot is None:
            p = p0.copy() if warm is None else warm
        else:
            p = np.array(snapshot.array("p"), dtype=np.float64)
            if p.shape != (n,):
                raise CheckpointError(
                    f"checkpoint vector has shape {p.shape}, expected ({n},)"
                )
            start_iteration = snapshot.iteration
        # Double-buffered power method: after the plan is built on the
        # first call, each iteration is one SpMV into a reused buffer
        # plus in-place vector ops — no per-iteration heap allocation.
        new_p = np.empty(n)
        scratch = np.empty(n)
        base = (1.0 - damping) * p0
        iterations = start_iteration
        converged = False
        # Per-iteration residual / dangling-mass / wall-time record; the
        # shared NULL_TRACE (obs disabled) reduces every hook below to
        # one attribute test, keeping the loop allocation-free.
        trace = convergence_trace("pagerank", damping=damping, tol=tol)
        trace.tick()
        for iterations in range(start_iteration + 1, max_iter + 1):
            engine.spmv(p, out=new_p)
            if trace.active:
                # Probability mass the operator lost at dangling nodes
                # (rows of W^T with no incoming weight): in minus out.
                dangling = float(p.sum() - new_p.sum())
            np.multiply(new_p, damping, out=new_p)
            new_p += base
            delta = l1_delta(new_p, p, scratch=scratch)
            p, new_p = new_p, p
            if trace.active:
                trace.record(
                    iterations, delta,
                    dangling_mass=dangling, mass=float(p.sum()),
                )
            if ckpt_config is not None and ckpt_config.due(iterations):
                from repro.resilience.checkpoint import Checkpoint

                ckpt_config.save(Checkpoint(
                    algorithm="pagerank",
                    iteration=iterations,
                    arrays={"p": p.copy()},
                    params={"n": n, "damping": damping, "tol": tol},
                ))
            if delta < tol:
                converged = True
                break
        shards_used = getattr(engine, "n_shards", 1)
    dev = spmv.device
    per_iteration = (
        spmv.cost()
        + axpy_cost(n, dev)          # damping update
        + reduction_cost(n, dev)     # convergence check
    ).relabel(f"pagerank/{spmv.name}")
    total = per_iteration.scaled(iterations).relabel(per_iteration.label)
    extra = {
        "damping": damping,
        "tol": tol,
        "n_shards": shards_used,
        "operator_fingerprint": fingerprint,
    }
    if start_iteration:
        extra["resume_iteration"] = start_iteration
    if warm is not None:
        extra["warm_start"] = True
    return finish_run(trace, MiningResult(
        algorithm="pagerank",
        kernel_name=spmv.name,
        vector=p,
        iterations=iterations,
        converged=converged,
        per_iteration=per_iteration,
        total_cost=total,
        extra=extra,
    ))
