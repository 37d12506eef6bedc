"""HITS via the power method (paper Appendix F, Equations 7–8).

The two coupled updates are rewritten as one SpMV on the combined
``2|V| x 2|V|`` matrix

.. math:: \\begin{bmatrix} 0 & A^T \\\\ A & 0 \\end{bmatrix}

"Combining the two matrices into one ... results in a larger and
sparser matrix making it more amenable to our optimizations" — the
paper's explanation for why even Youtube speeds up under HITS.
Each iteration runs one SpMV, two half-vector normalisations (one
reduction + one scale each) and one convergence reduction.
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
from repro.mining.vector_kernels import reduction_cost, scale_cost
from repro.tuner.fingerprint import matrix_fingerprint

__all__ = ["HITSResult", "hits", "hits_operator"]

HITSResult = MiningResult


def hits_operator(adjacency: COOMatrix) -> COOMatrix:
    """The combined ``[[0, A^T], [A, 0]]`` block matrix."""
    if adjacency.n_rows != adjacency.n_cols:
        raise ValidationError("HITS needs a square adjacency matrix")
    n = adjacency.n_rows
    # Top-right block: A^T at rows [0, n), columns [n, 2n), already in
    # (row, col) order.  Bottom-left block: A at rows [n, 2n), columns
    # [0, n); ``from_unsorted`` only sorts if A's columns are out of
    # order within a row.
    top = adjacency.transpose()
    return COOMatrix.from_unsorted(
        np.concatenate([top.rows, adjacency.rows + n]),
        np.concatenate([top.cols + n, adjacency.cols]),
        np.concatenate([top.data, adjacency.data]),
        (2 * n, 2 * n),
        sum_duplicates=False,
    )


def hits(
    adjacency: SparseMatrix,
    *,
    kernel: str | SpMVKernel = "hyb",
    device: DeviceSpec | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    multi_vector: bool = True,
    executor=None,
    n_shards: int | str | None = None,
    tune: bool = False,
    checkpoint=None,
    resume_from=None,
    warm_start=None,
    warm_start_check: bool = True,
    **kernel_options,
) -> MiningResult:
    """Run HITS; the result vector holds authorities then hubs.

    Authority scores are ``vector[:n]``, hub scores ``vector[n:]``; each
    half is normalised to sum to 1 every iteration, as in the paper.

    With ``multi_vector`` (the default) the paired hub/authority updates
    run as one batched SpMM on the block operator: the right-hand sides
    ``[a; 0]`` and ``[0; h]`` share a single structure gather, and
    summing the two result columns reconstructs exactly ``B @ v``
    (each half of each column is either the wanted product or exact
    zeros, so the sum is bit-identical to the single-vector path).

    ``executor``/``n_shards`` route the per-iteration SpMV/SpMM through
    a :class:`~repro.exec.ShardedExecutor` built on the block operator
    (the combined matrix is exactly the kind of larger, sparser matrix
    shard balance pays off on); iterates stay bit-identical.

    ``checkpoint``/``resume_from`` snapshot and restore the stacked
    iterate ``v`` (see :func:`repro.mining.pagerank.pagerank`); resumed
    runs replay the uninterrupted trajectory bitwise.

    ``warm_start`` seeds the stacked ``[authorities; hubs]`` iterate of
    a fresh run (length ``2n`` array, a previous HITS
    :class:`~repro.mining.MiningResult`, or a checkpoint / ``.npz``
    path) — iteration counting restarts at zero; mutually exclusive
    with ``resume_from``.  A ``MiningResult`` seed is checked against
    this run's block-operator fingerprint; a result from a different
    graph raises unless ``warm_start_check=False``.
    """
    with mining_setup(
        adjacency, "hits", hits_operator, kernel, device=device,
        kernel_options=kernel_options, executor=executor,
        n_shards=n_shards, tune=tune,
        create=create, fingerprint=matrix_fingerprint,
    ) as run:
        spmv, engine, fingerprint = run.kernel, run.engine, run.fingerprint
        n = run.operator.n_rows // 2
        ckpt_config = resolve_checkpoint(checkpoint)
        warm = resolve_warm_start(
            warm_start, resume_from, (2 * n,), key="v", algorithm="hits",
            fingerprint=fingerprint, check=warm_start_check,
        )
        snapshot = resume_checkpoint(resume_from, "hits", n=n)
        start_iteration = 0
        if snapshot is None:
            v = np.full(2 * n, 1.0 / n) if warm is None else warm
        else:
            v = np.array(snapshot.array("v"), dtype=np.float64)
            if v.shape != (2 * n,):
                raise CheckpointError(
                    f"checkpoint vector has shape {v.shape}, "
                    f"expected ({2 * n},)"
                )
            start_iteration = snapshot.iteration
        new_v = np.empty(2 * n)
        scratch = np.empty(2 * n)
        if multi_vector:
            X = np.zeros((2 * n, 2))
            Y = np.empty((2 * n, 2))
        iterations = start_iteration
        converged = False
        trace = convergence_trace("hits", tol=tol, multi_vector=multi_vector)
        trace.tick()
        for iterations in range(start_iteration + 1, max_iter + 1):
            if multi_vector:
                X[:n, 0] = v[:n]
                X[n:, 1] = v[n:]
                engine.spmm(X, out=Y)
                np.add(Y[:, 0], Y[:, 1], out=new_v)
            else:
                engine.spmv(v, out=new_v)
            if trace.active:
                # Pre-normalisation mass of each half: the quantities
                # the per-iteration normalisations divide away.
                auth_mass = float(new_v[:n].sum())
                hub_mass = float(new_v[n:].sum())
            for half in (slice(0, n), slice(n, 2 * n)):
                total = new_v[half].sum()
                if total > 0:
                    new_v[half] /= total
            delta = l1_delta(new_v, v, scratch=scratch)
            v, new_v = new_v, v
            if trace.active:
                trace.record(
                    iterations, delta,
                    authority_mass=auth_mass, hub_mass=hub_mass,
                )
            if ckpt_config is not None and ckpt_config.due(iterations):
                from repro.resilience.checkpoint import Checkpoint

                ckpt_config.save(Checkpoint(
                    algorithm="hits",
                    iteration=iterations,
                    arrays={"v": v.copy()},
                    params={"n": n, "tol": tol},
                ))
            if delta < tol:
                converged = True
                break
        shards_used = getattr(engine, "n_shards", 1)
    dev = spmv.device
    per_iteration = (
        spmv.cost()
        + reduction_cost(n, dev)  # authority normalisation sum
        + reduction_cost(n, dev)  # hub normalisation sum
        + scale_cost(n, dev)      # authority division
        + scale_cost(n, dev)      # hub division
        + reduction_cost(2 * n, dev)  # convergence check
    ).relabel(f"hits/{spmv.name}")
    total_cost = per_iteration.scaled(iterations).relabel(per_iteration.label)
    extra = {
        "n": n,
        "tol": tol,
        "multi_vector": multi_vector,
        "n_shards": shards_used,
        "operator_fingerprint": fingerprint,
    }
    if start_iteration:
        extra["resume_iteration"] = start_iteration
    if warm is not None:
        extra["warm_start"] = True
    return finish_run(trace, MiningResult(
        algorithm="hits",
        kernel_name=spmv.name,
        vector=v,
        iterations=iterations,
        converged=converged,
        per_iteration=per_iteration,
        total_cost=total_cost,
        extra=extra,
    ))
