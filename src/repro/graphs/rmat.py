"""R-MAT (recursive matrix) power-law graph generator.

The classic Chakrabarti–Zhan–Faloutsos generator: each edge picks one of
the four quadrants of the adjacency matrix with probabilities
``(a, b, c, d)`` and recurses.  With the default skewed probabilities the
in/out degree distributions follow a power law — the structure the
paper's Observations 2 and 5 rely on.

Everything is vectorised: one ``(m, scale)`` random draw decides every
bit of every edge at once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import index_dtype
from repro.formats.coo import COOMatrix

__all__ = ["rmat_edges", "rmat_graph"]

#: Default R-MAT quadrant probabilities (Graph500 uses 0.57/0.19/0.19/0.05).
DEFAULT_PROBS = (0.57, 0.19, 0.19, 0.05)


def rmat_edges(
    scale: int,
    n_edges: int,
    *,
    probs: tuple[float, float, float, float] = DEFAULT_PROBS,
    noise: float = 0.05,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``n_edges`` directed edges over ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        ``log2`` of the vertex count.
    n_edges:
        Number of edges to draw (duplicates possible; dedupe happens at
        matrix construction).
    probs:
        Quadrant probabilities ``(a, b, c, d)``; must sum to 1.
    noise:
        Per-level multiplicative jitter that breaks the exact
        self-similarity of pure R-MAT (standard practice).
    seed:
        RNG seed; generation is deterministic given the seed.
    """
    if scale < 1 or scale > 40:
        raise ValidationError(f"scale must be in [1, 40], got {scale}")
    if n_edges < 0:
        raise ValidationError("n_edges must be non-negative")
    a, b, c, d = probs
    if not np.isclose(a + b + c + d, 1.0):
        raise ValidationError(f"probs must sum to 1, got {probs}")
    rng = np.random.default_rng(seed)
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for level in range(scale):
        # Jitter the quadrant probabilities per level.
        jitter = 1.0 + noise * (rng.random(4) - 0.5)
        pa, pb, pc, pd = np.array([a, b, c, d]) * jitter
        total = pa + pb + pc + pd
        pa, pb, pc = pa / total, pb / total, pc / total
        draw = rng.random(n_edges)
        # Quadrant decision: bit of src is 1 for quadrants c, d;
        # bit of dst is 1 for quadrants b, d.
        src_bit = draw >= pa + pb
        dst_bit = (draw >= pa) & (draw < pa + pb) | (draw >= pa + pb + pc)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    return src, dst


def rmat_graph(
    n_nodes: int,
    n_edges: int,
    *,
    probs: tuple[float, float, float, float] = DEFAULT_PROBS,
    seed: int = 0,
    allow_self_loops: bool = False,
) -> COOMatrix:
    """Adjacency matrix of an R-MAT graph with exactly ``n_nodes`` nodes.

    ``n_nodes`` need not be a power of two: vertices are folded with a
    modulo, which preserves the degree skew.  Duplicate edges collapse
    to single unit entries.
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    scale = max(1, int(np.ceil(np.log2(n_nodes))))
    src, dst = rmat_edges(scale, n_edges, probs=probs, seed=seed)
    # Folded ids lie below ``n_nodes``: they narrow to the matrix's
    # index dtype here, where their range is known.
    index = index_dtype(n_nodes, n_edges)
    src = (src % n_nodes).astype(index)
    dst = (dst % n_nodes).astype(index)
    if not allow_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    return COOMatrix.from_edges(src, dst, (n_nodes, n_nodes))
