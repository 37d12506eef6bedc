"""Partial column tiling (§3.1 Solutions 1 & 2, Algorithm 1).

After reordering columns by decreasing length, the head of the matrix is
cut into fixed-width tiles (64K columns on the C1060 — exactly one
texture cache of ``x``).  Tiles are only worth their kernel-launch and
write-back overhead while their columns still have reuse; following the
paper's Algorithm 1, tiling stops at the first tile whose leading column
has one non-zero or fewer, and everything after it becomes the *sparse
remainder* sub-matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.core.reorder import order_by_length

__all__ = ["TilePlan", "plan_tiles", "slice_into_tiles"]


@dataclass(frozen=True)
class TilePlan:
    """Where the reordered matrix is cut into tiles.

    ``col_order`` maps reordered position -> original column index, so
    tile *t* covers original columns ``col_order[t*w : (t+1)*w]`` and
    its ``x`` segment is ``x[col_order[t*w : (t+1)*w]]``.
    """

    col_order: np.ndarray
    tile_width: int
    n_tiles: int
    n_cols: int

    @property
    def dense_cols(self) -> int:
        """Columns covered by tiles (the dense sub-matrix)."""
        return min(self.n_tiles * self.tile_width, self.n_cols)

    @property
    def remainder_cols(self) -> int:
        """Columns of the sparse remainder sub-matrix."""
        return self.n_cols - self.dense_cols

    def tile_range(self, t: int) -> tuple[int, int]:
        """Reordered-column range ``[start, stop)`` of tile ``t``."""
        if not 0 <= t < self.n_tiles:
            raise ValidationError(f"tile {t} out of range")
        start = t * self.tile_width
        return start, min(start + self.tile_width, self.n_cols)


def plan_tiles(
    col_lengths: np.ndarray,
    *,
    tile_width: int,
    n_tiles: int | None = None,
    min_leading_length: int = 2,
) -> TilePlan:
    """Choose the number of tiles (Algorithm 1's greedy rule).

    A tile is added while the *first* (longest) column it would contain
    has at least ``min_leading_length`` non-zeros — i.e. while there is
    any reuse of ``x`` left to exploit.  Pass ``n_tiles`` to override
    (the exhaustive-search benchmarks do).
    """
    lengths = np.asarray(col_lengths)
    if tile_width < 1:
        raise ValidationError("tile_width must be >= 1")
    order = order_by_length(lengths)
    n_cols = lengths.size
    max_tiles = -(-n_cols // tile_width)
    if n_tiles is None:
        n_tiles = 0
        sorted_lengths = lengths[order]
        while n_tiles < max_tiles:
            leading = sorted_lengths[n_tiles * tile_width]
            if leading < min_leading_length:
                break
            n_tiles += 1
    else:
        if n_tiles < 0 or n_tiles > max_tiles:
            raise ValidationError(
                f"n_tiles must be in [0, {max_tiles}], got {n_tiles}"
            )
    return TilePlan(
        col_order=order,
        tile_width=tile_width,
        n_tiles=int(n_tiles),
        n_cols=n_cols,
    )


def slice_into_tiles(
    matrix: SparseMatrix, plan: TilePlan
) -> tuple[list[COOMatrix], COOMatrix]:
    """Materialise the tiles and the sparse remainder as local matrices.

    Each returned tile is an ``n_rows x tile_cols`` matrix whose columns
    are renumbered to its own ``x`` segment; the remainder covers all
    columns past the last tile.
    """
    csc = CSCMatrix.from_coo(matrix.to_coo())
    reordered = csc.select_cols(plan.col_order)
    tiles: list[COOMatrix] = []
    for t in range(plan.n_tiles):
        start, stop = plan.tile_range(t)
        tiles.append(
            reordered.select_cols(np.arange(start, stop)).to_coo()
        )
    rem_cols = np.arange(plan.dense_cols, plan.n_cols)
    remainder = reordered.select_cols(rem_cols).to_coo()
    return tiles, remainder
