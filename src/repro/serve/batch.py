"""Seeded walks for the query service: personalized PageRank and RWR.

Both are the damped recurrence ``r <- alpha * (A @ r) + (1 - alpha) *
e_seed`` on a normalised operator (``pagerank_operator`` for PPR,
``rwr_operator`` for RWR), run by the one power loop of
:mod:`repro.mining.power_method`.  A batch advances its walks in
lockstep, one SpMM per iteration; a batch of one runs the solo SpMV
path.  Every column is bit-identical to :func:`seeded_solo` on the same
engine; DESIGN.md §7 ("One power loop") gives the argument.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.mining.power_method import check_seed, seeded_walk

__all__ = ["WalkResult", "seeded_batch", "seeded_solo"]


@dataclass
class WalkResult:
    """One seed's walk outcome (a column of the batch, or a solo run)."""

    seed: int
    vector: np.ndarray
    iterations: int
    converged: bool
    expired: bool  # the per-query deadline fired before convergence


def seeded_batch(
    engine,
    n: int,
    seeds,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    deadlines=None,
    clock=time.monotonic,
) -> list[WalkResult]:
    """Advance ``len(seeds)`` personalized walks in lockstep.

    ``deadlines`` is an optional per-seed list of absolute ``clock()``
    instants (or ``None`` entries); a column whose instant passes is
    frozen at its current iterate and marked ``expired`` without
    touching the rest of the batch.
    """
    seeds = [check_seed(s, n) for s in seeds]
    if not seeds:
        return []
    walk = seeded_walk(
        engine, n, seeds, alpha=alpha, tol=tol, max_iter=max_iter,
        deadlines=deadlines, clock=clock,
    )
    return [
        WalkResult(
            seed=seed,
            vector=walk.frozen[:, j].copy(),
            iterations=int(walk.counts[j]),
            converged=bool(walk.converged[j]),
            expired=bool(walk.expired[j]),
        )
        for j, seed in enumerate(seeds)
    ]


def seeded_solo(
    engine,
    n: int,
    seed: int,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    deadline: float | None = None,
    clock=time.monotonic,
) -> WalkResult:
    """The reference single-seed walk a batched column must reproduce."""
    return seeded_batch(
        engine, n, [seed], alpha=alpha, tol=tol, max_iter=max_iter,
        deadlines=[deadline], clock=clock,
    )[0]
