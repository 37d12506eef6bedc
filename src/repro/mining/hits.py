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

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix, index_dtype
from repro.formats.coo import COOMatrix
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import SpMVKernel, create
from repro.mining.power_method import (
    MiningResult,
    checkpointer,
    convergence_trace,
    finish_run,
    mining_setup,
    power_iterate,
    resolve_warm_start,
    resume_checkpoint,
    start_walk,
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
    # Offsets are added in the block matrix's own index dtype, which
    # may be wider than the adjacency's.
    index = index_dtype(2 * n, 2 * adjacency.nnz)
    bottom_rows = adjacency.rows.astype(index, copy=False) + n
    top_cols = top.cols.astype(index, copy=False) + n
    return COOMatrix.from_unsorted(
        np.concatenate([top.rows, bottom_rows]),
        np.concatenate([top_cols, adjacency.cols]),
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

    ``n_shards`` routes the per-iteration SpMV/SpMM through
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
        kernel_options=kernel_options, n_shards=n_shards, tune=tune,
        create=create, fingerprint=matrix_fingerprint,
    ) as run:
        engine, n = run.engine, run.operator.n_rows // 2
        warm = resolve_warm_start(
            warm_start, resume_from, (2 * n,), key="v", algorithm="hits",
            fingerprint=run.fingerprint, check=warm_start_check,
        )
        snapshot = resume_checkpoint(resume_from, "hits", n=n)
        walk = start_walk(np.full(2 * n, 1.0 / n), warm, snapshot, "v")
        if multi_vector:
            X = np.zeros((2 * n, 2))
            Y = np.empty((2 * n, 2))
        trace = convergence_trace("hits", tol=tol, multi_vector=multi_vector)
        masses = {}

        def step(v, new_v):
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
                masses["authority_mass"] = float(new_v[:n].sum())
                masses["hub_mass"] = float(new_v[n:].sum())
            for half in (slice(0, n), slice(n, 2 * n)):
                total = new_v[half].sum()
                if total > 0:
                    new_v[half] /= total

        power_iterate(
            walk, step, tol=tol, max_iter=max_iter, trace=trace,
            fields=lambda walk, j: masses,
            checkpoint=checkpointer(
                checkpoint, "hits", {"n": n, "tol": tol}, "v"
            ),
        )

    def price(kernel):
        dev = kernel.device
        return (
            kernel.cost()
            + reduction_cost(n, dev)  # authority normalisation sum
            + reduction_cost(n, dev)  # hub normalisation sum
            + scale_cost(n, dev)      # authority division
            + scale_cost(n, dev)      # hub division
            + reduction_cost(2 * n, dev)  # convergence check
        )

    return finish_run(
        trace, "hits", run, price,
        vector=walk.frozen[:, 0], iterations=int(walk.counts[0]),
        converged=bool(walk.converged[0]), snapshot=snapshot, warm=warm,
        n=n, tol=tol, multi_vector=multi_vector,
    )
