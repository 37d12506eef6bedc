"""Bitonic row partitioning (§3.2).

"The matrix rows are first sorted by length.  Each iteration of the
algorithm processes P rows and assigns them to P processors.  The
processor that got the longest row in the previous iteration will get
the shortest row in the current iteration."  The serpentine deal yields
partitions with (almost exactly) equal row counts *and* near-equal
non-zero counts — balanced communication and balanced compute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reorder import order_by_length
from repro.errors import ValidationError

__all__ = [
    "PartitionBalance",
    "balanced_partition",
    "bitonic_partition",
    "contiguous_partition",
    "nnz_cuts",
    "partition_balance",
    "repartition_after_failure",
]


def bitonic_partition(row_lengths: np.ndarray, n_parts: int) -> np.ndarray:
    """Assign each row to a processor with the serpentine deal.

    Returns ``assignment`` with ``assignment[i]`` the processor of row
    ``i``.
    """
    lengths = np.asarray(row_lengths)
    if n_parts < 1:
        raise ValidationError("n_parts must be >= 1")
    order = order_by_length(lengths)  # longest first
    n = lengths.size
    position = np.arange(n)
    round_id = position // n_parts
    slot = position % n_parts
    # Odd rounds deal in reverse order.
    dealt = np.where(round_id % 2 == 0, slot, n_parts - 1 - slot)
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = dealt
    return assignment


def repartition_after_failure(
    row_lengths: np.ndarray,
    assignment: np.ndarray,
    failed_part: int,
    n_parts: int,
) -> tuple[np.ndarray, int]:
    """Re-run the serpentine deal over the survivors of a node failure.

    Returns ``(new_assignment, moved_nnz)``: the bitonic assignment of
    every row onto the ``n_parts - 1`` surviving parts (numbered
    ``0..n_parts-2``), and the number of non-zeros whose owner changed —
    the data that has to cross the network during recovery.  Survivor
    part ``s`` in the old numbering corresponds to ``s`` if
    ``s < failed_part`` else ``s - 1`` in the new numbering; rows that
    keep their (renumbered) owner move nothing.
    """
    lengths = np.asarray(row_lengths)
    old = np.asarray(assignment)
    if n_parts < 2:
        raise ValidationError(
            "node failure needs n_parts >= 2 (no survivors otherwise)"
        )
    if not 0 <= failed_part < n_parts:
        raise ValidationError(
            f"failed_part must be in [0, {n_parts}), got {failed_part}"
        )
    if lengths.shape != old.shape:
        raise ValidationError("lengths and assignment must align")
    new_assignment = bitonic_partition(lengths, n_parts - 1)
    # Old owners mapped onto the survivors' renumbering; the failed
    # part maps nowhere, so all of its rows count as moved.
    old_mapped = np.where(old > failed_part, old - 1, old)
    moved = (old == failed_part) | (old_mapped != new_assignment)
    moved_nnz = int(lengths[moved].sum())
    return new_assignment, moved_nnz


def balanced_partition(row_lengths: np.ndarray, n_parts: int) -> np.ndarray:
    """Contiguous row ranges with near-equal non-zero counts.

    Part ``k`` starts at the first row whose non-zero prefix reaches
    ``k * nnz / n_parts`` (a ``searchsorted`` over the CSR ``indptr``),
    so every part is one row range: a zero-copy slice of a CSR matrix
    whose output rows are one contiguous slice of ``y``.  Balance is
    within one row of even; a row longer than ``nnz / n_parts`` leaves
    a neighbouring part empty rather than split.
    """
    lengths = np.asarray(row_lengths)
    if n_parts < 1:
        raise ValidationError("n_parts must be >= 1")
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return np.repeat(np.arange(n_parts), np.diff(nnz_cuts(indptr, n_parts)))


def nnz_cuts(indptr: np.ndarray, n_parts: int) -> np.ndarray:
    """Row boundaries of ``n_parts`` contiguous ranges of near-equal
    non-zero count: range ``k`` starts at the first row whose non-zero
    prefix reaches ``k / n_parts`` of the total.

    ``indptr`` may be a slice ``indptr[lo:hi + 1]`` of a larger CSR's;
    the boundaries are then relative to ``lo``.  Both the executor's
    shards (:func:`balanced_partition`) and the pieces it cuts them
    into are such ranges.
    """
    first = indptr[0]
    targets = first + np.arange(1, n_parts) * ((indptr[-1] - first) / n_parts)
    return np.concatenate(
        [[0], np.searchsorted(indptr, targets), [indptr.size - 1]]
    )


def contiguous_partition(n_rows: int, n_parts: int) -> np.ndarray:
    """Naive equal-row-count blocks (the unbalanced baseline)."""
    if n_parts < 1:
        raise ValidationError("n_parts must be >= 1")
    block = -(-n_rows // n_parts)
    return np.minimum(np.arange(n_rows) // block, n_parts - 1)


@dataclass(frozen=True)
class PartitionBalance:
    """Balance diagnostics of a row partition."""

    rows_per_part: np.ndarray
    nnz_per_part: np.ndarray

    @property
    def row_imbalance(self) -> float:
        """Max over mean row count (1.0 = perfect)."""
        mean = self.rows_per_part.mean()
        return float(self.rows_per_part.max() / mean) if mean else 1.0

    @property
    def nnz_imbalance(self) -> float:
        """Max over mean non-zero count (1.0 = perfect)."""
        mean = self.nnz_per_part.mean()
        return float(self.nnz_per_part.max() / mean) if mean else 1.0


def partition_balance(
    row_lengths: np.ndarray, assignment: np.ndarray, n_parts: int
) -> PartitionBalance:
    """Measure a partition's row/non-zero balance."""
    lengths = np.asarray(row_lengths)
    assignment = np.asarray(assignment)
    if lengths.shape != assignment.shape:
        raise ValidationError("lengths and assignment must align")
    rows = np.bincount(assignment, minlength=n_parts)
    nnz = np.bincount(assignment, weights=lengths, minlength=n_parts)
    return PartitionBalance(rows_per_part=rows, nnz_per_part=nnz)
