"""Adaptive row-grouped CSR (Heller & Oberhuber, arXiv:1203.5737).

Rows are sorted by length and bucketed into **groups of similar
length**; each group stores a padded ``(rows, width)`` block whose
width is the group's longest row.  Group boundaries follow a
**target-occupancy heuristic**: a row joins the current group only
while the block stays at least :data:`OCCUPANCY_TARGET` full, so the
padding blow-up that kills plain ELL on skewed degree distributions is
bounded by ``1 / OCCUPANCY_TARGET`` per group — hub rows land in their
own narrow-and-tall... rather wide-and-short blocks instead of
inflating everyone's width.

Reduction-order contract: within a block each row's entries are a
contiguous ascending-column prefix, so one stable pass on the row key
restores the canonical COO (:meth:`RGCSRMatrix.to_coo`), which the
numpy and SciPy backends run as they run every canonical format; the
native kernel accumulates each group row serially in storage order —
both are bitwise members of the differential matrix's canonical class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix, check_shape
from repro.formats.coo import COOMatrix
from repro.formats.radix import stable_argsort

__all__ = [
    "OCCUPANCY_TARGET",
    "RGCSRMatrix",
    "RowGroup",
    "group_boundaries",
    "native_rgcsr_plan",
    "rgcsr_tune_candidate",
]

#: Minimum fraction of useful (non-padding) slots a group block must
#: keep.  0.625 bounds per-group padding at 1.6x while still merging
#: rows whose lengths differ by up to a third.
OCCUPANCY_TARGET = 0.625


def group_boundaries(
    sorted_lengths: np.ndarray, target: float = OCCUPANCY_TARGET
) -> np.ndarray:
    """Group start offsets over descending-sorted row lengths.

    A row opens a new group when padding it to the current group width
    would drop that row below the occupancy target, i.e. when
    ``length < width * target``.  Returns the start index of each
    group; shared by the format builder and the §5 cost model so the
    predicted and built layouts are the same layout.
    """
    lengths = np.asarray(sorted_lengths, dtype=np.int64)
    if lengths.size == 0:
        return np.zeros(0, dtype=np.int64)
    starts = [0]
    width = int(lengths[0])
    # Boundaries are where the length first drops below width * target;
    # widths shrink geometrically so this loop runs O(#groups) times.
    i = 0
    n = lengths.size
    while True:
        # First index whose length drops below width * target, found on
        # the negated (ascending) lengths; side="right" keeps rows with
        # length == width * target in the group.
        cut = int(
            np.searchsorted(-lengths, -float(width) * target, "right")
        )
        cut = max(cut, i + 1)
        if cut >= n:
            break
        starts.append(cut)
        i = cut
        width = int(lengths[cut])
    return np.asarray(starts, dtype=np.int64)


@dataclass(frozen=True)
class RowGroup:
    """One padded block of similar-length rows."""

    #: Global row index of each block row.
    row_ids: np.ndarray
    #: True entry count of each block row (entries form a prefix).
    lengths: np.ndarray
    #: ``(rows, width)`` padded column indices (pad: column 0).
    indices: np.ndarray
    #: ``(rows, width)`` padded values (pad: 0.0).
    data: np.ndarray

    @property
    def width(self) -> int:
        return self.indices.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.lengths.sum())


class RGCSRMatrix(SparseMatrix):
    """Row-grouped CSR storage: a list of :class:`RowGroup` blocks.

    Empty rows belong to no group (their output is the zero fill);
    every non-empty row belongs to exactly one group.
    """

    def __init__(
        self, groups: list[RowGroup], shape: tuple[int, int]
    ) -> None:
        self.shape = check_shape(shape)
        self.groups = list(groups)
        for g in self.groups:
            if g.indices.shape != g.data.shape or g.indices.ndim != 2:
                raise ValidationError(
                    "RGCSR group blocks must share one 2-D shape"
                )
            if g.row_ids.size != g.indices.shape[0] or (
                g.lengths.size != g.row_ids.size
            ):
                raise ValidationError(
                    "RGCSR group rows/lengths mismatch the block"
                )
            if g.row_ids.size and (
                g.row_ids.min() < 0 or g.row_ids.max() >= self.n_rows
            ):
                raise ValidationError("RGCSR row id out of range")
            if g.lengths.size and (
                g.lengths.min() < 1 or g.lengths.max() > g.width
            ):
                raise ValidationError(
                    "RGCSR row length outside its block width"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_coo(
        cls, coo: COOMatrix, *, target: float = OCCUPANCY_TARGET
    ) -> "RGCSRMatrix":
        """Build from a (row-sorted) COO matrix."""
        if not 0.0 < target <= 1.0:
            raise ValidationError(
                f"occupancy target must be in (0, 1], got {target}"
            )
        lengths = np.bincount(coo.rows, minlength=coo.n_rows).astype(
            np.int64
        )
        nonempty = np.nonzero(lengths)[0]
        if nonempty.size == 0:
            return cls([], coo.shape)
        # Stable descending length sort: deterministic layout.
        order = nonempty[
            np.argsort(-lengths[nonempty], kind="stable")
        ]
        sorted_lengths = lengths[order]
        starts = np.zeros(coo.n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        bounds = group_boundaries(sorted_lengths, target)
        groups: list[RowGroup] = []
        for gi in range(bounds.size):
            lo = int(bounds[gi])
            hi = int(
                bounds[gi + 1] if gi + 1 < bounds.size else order.size
            )
            row_ids = order[lo:hi]
            row_lens = sorted_lengths[lo:hi]
            width = int(row_lens[0])
            n_g = row_ids.size
            idx = np.zeros((n_g, width), dtype=np.int64)
            val = np.zeros((n_g, width), dtype=np.float64)
            # Gather each row's ascending-column slice into its padded
            # prefix (the CSR select_rows gather idiom).
            total = int(row_lens.sum())
            flat_dst = np.arange(total) - np.repeat(
                np.concatenate([[0], np.cumsum(row_lens[:-1])]), row_lens
            )
            src = np.repeat(starts[row_ids], row_lens) + flat_dst
            dst_row = np.repeat(np.arange(n_g), row_lens)
            idx[dst_row, flat_dst] = coo.cols[src]
            val[dst_row, flat_dst] = coo.data[src]
            groups.append(RowGroup(row_ids, row_lens, idx, val))
        return cls(groups, coo.shape)

    # ------------------------------------------------------------------
    # SparseMatrix interface
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(sum(g.nnz for g in self.groups))

    @property
    def padded_entries(self) -> int:
        """Total block slots including padding."""
        return int(sum(g.indices.size for g in self.groups))

    @property
    def occupancy(self) -> float:
        """Useful fraction of the padded storage."""
        padded = self.padded_entries
        return self.nnz / padded if padded else 1.0

    @property
    def nbytes(self) -> int:
        return self._array_bytes(
            *(
                arr
                for g in self.groups
                for arr in (g.row_ids, g.lengths, g.indices, g.data)
            )
        )

    def _entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, data) of every stored entry, block order."""
        rows_parts, cols_parts, data_parts = [], [], []
        for g in self.groups:
            mask = (
                np.arange(g.width, dtype=np.int64)[None, :]
                < g.lengths[:, None]
            )
            block_rows, block_slots = np.nonzero(mask)
            rows_parts.append(g.row_ids[block_rows])
            cols_parts.append(g.indices[block_rows, block_slots])
            data_parts.append(g.data[block_rows, block_slots])
        if not rows_parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), np.zeros(0, dtype=np.float64)
        return (
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(data_parts),
        )

    def to_coo(self) -> COOMatrix:
        # Each row is one contiguous ascending-column run, so one stable
        # pass on the row key yields the (row, col) order.
        rows, cols, data = self._entry_arrays()
        order = stable_argsort(rows, self.n_rows)
        return COOMatrix(rows[order], cols[order], data[order], self.shape)

    def _compute_row_lengths(self) -> np.ndarray:
        lengths = np.zeros(self.n_rows, dtype=np.int64)
        for g in self.groups:
            lengths[g.row_ids] = g.lengths
        return lengths


def rgcsr_tune_candidate(matrix) -> bool:
    """Tuner-grid predicate: grouped padding pays exactly where one
    global ELL width would explode — a skewed length distribution."""
    if matrix.nnz == 0 or matrix.n_rows == 0:
        return False
    lengths = matrix.row_lengths()
    mean = matrix.nnz / matrix.n_rows
    return bool(int(lengths.max()) >= 4 * max(1.0, mean))


def native_rgcsr_plan(matrix):
    """Registry hook: the numba row-group kernel plan for this format."""
    from repro.exec.native import NativeRGCSRPlan

    return NativeRGCSRPlan(matrix)
