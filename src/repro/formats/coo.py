"""Coordinate (COO) format.

All non-zeros as ``(row, col, value)`` triples, sorted by row (the order
NVIDIA's COO kernel requires for its segmented reduction, Appendix B).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import (
    SparseMatrix,
    as_index,
    check_shape,
    index_dtype,
)
from repro.formats.radix import stable_argsort

__all__ = ["COOMatrix"]


class COOMatrix(SparseMatrix):
    """Row-sorted coordinate storage.

    Parameters
    ----------
    rows, cols, data:
        Parallel arrays of equal length.  ``rows`` must be sorted
        non-decreasing (use :meth:`from_unsorted` otherwise).
    shape:
        ``(n_rows, n_cols)``.

    ``rows`` and ``cols`` are stored in :func:`~repro.formats.base.index_dtype`
    of the shape and nnz: int32 below ``2**31``.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.shape = check_shape(shape)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        index = index_dtype(*self.shape, self.data.size)
        self.rows = as_index(rows, index)
        self.cols = as_index(cols, index)
        self._validate()

    def _validate(self) -> None:
        n = self.rows.size
        if self.cols.size != n or self.data.size != n:
            raise ValidationError(
                "rows, cols and data must have equal lengths "
                f"({self.rows.size}, {self.cols.size}, {self.data.size})"
            )
        if n == 0:
            return
        if self.rows.min() < 0 or self.rows.max() >= self.n_rows:
            raise ValidationError("row index out of range")
        if self.cols.min() < 0 or self.cols.max() >= self.n_cols:
            raise ValidationError("column index out of range")
        if np.any(np.diff(self.rows) < 0):
            raise ValidationError(
                "rows must be sorted; use COOMatrix.from_unsorted"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_unsorted(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        *,
        sum_duplicates: bool = True,
    ) -> "COOMatrix":
        """Build from unsorted (and possibly duplicated) triples.

        Triples are ordered by (row, col) with a linear-time radix sort
        (ties keep their input order: a stable lexicographic sort); input
        already in that order skips the sort.  The result never shares
        memory with the inputs.
        """
        n_rows, n_cols = check_shape(shape)
        data = np.asarray(data, dtype=np.float64)
        index = index_dtype(n_rows, n_cols, data.size)
        rows = as_index(rows, index)
        cols = as_index(cols, index)
        if not rows.size == cols.size == data.size:
            raise ValidationError(
                "rows, cols and data must have equal lengths "
                f"({rows.size}, {cols.size}, {data.size})"
            )
        if _is_lexsorted(rows, cols):
            rows, cols, data = rows.copy(), cols.copy(), data.copy()
        else:
            # LSD: column key first, then a stable pass on the row key.
            order = stable_argsort(cols, n_cols)
            order = order[stable_argsort(rows[order], n_rows)]
            rows, cols, data = rows[order], cols[order], data[order]
        if sum_duplicates and rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
            if not keep.all():
                group = np.cumsum(keep) - 1
                data = np.bincount(group, weights=data)
                rows, cols = rows[keep], cols[keep]
        return cls(rows, cols, data, shape)

    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        shape: tuple[int, int],
        *,
        dedupe: bool = True,
    ) -> "COOMatrix":
        """Adjacency matrix of a directed edge list with unit weights.

        Duplicate edges collapse to a single entry of value 1.0 when
        ``dedupe`` is set (the graph-mining convention: ``A(u, v) = 1``
        iff the edge exists).
        """
        src = np.asarray(src)
        data = np.ones(src.size, dtype=np.float64)
        matrix = cls.from_unsorted(src, dst, data, shape, sum_duplicates=dedupe)
        if dedupe:
            matrix.data[:] = 1.0
        return matrix

    # ------------------------------------------------------------------
    # SparseMatrix interface
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self._array_bytes(self.rows, self.cols, self.data)

    def to_coo(self) -> "COOMatrix":
        return self

    def _compute_row_lengths(self) -> np.ndarray:
        # Rows are sorted, so a row's length is the length of its run:
        # one comparison pass, where ``bincount`` would first cast the
        # 32-bit rows to a fresh intp copy.
        rows = self.rows
        lengths = np.zeros(self.n_rows, dtype=np.intp)
        if rows.size:
            bounds = np.concatenate(
                [[0], np.flatnonzero(rows[1:] != rows[:-1]) + 1, [rows.size]]
            )
            lengths[rows[bounds[:-1]]] = np.diff(bounds)
        return lengths

    def _compute_col_lengths(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.n_cols)

    def row_pointer(self) -> np.ndarray:
        """The CSR ``indptr`` of these row-sorted entries, in the dtype
        of the column indices (one width: see ``index_dtype``)."""
        indptr = np.zeros(self.n_rows + 1, dtype=self.cols.dtype)
        np.cumsum(self.row_lengths(), out=indptr[1:])
        return indptr

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def column_order(self) -> np.ndarray:
        """Permutation ordering the entries by (col, row), stably.

        Rows are sorted by invariant, so one linear-time stable pass on
        the column key yields the order of a full two-key sort.
        """
        return stable_argsort(self.cols, self.n_cols)

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (row-sorted)."""
        order = self.column_order()
        return COOMatrix(
            self.cols[order], self.rows[order], self.data[order],
            (self.n_cols, self.n_rows),
        )

    def permute(
        self,
        row_perm: np.ndarray | None = None,
        col_perm: np.ndarray | None = None,
    ) -> "COOMatrix":
        """Relabel rows/columns.

        ``row_perm[i]`` is the *new* index of old row ``i`` (and likewise
        for columns) — the relabelling convention of the paper's column
        reordering step.
        """
        rows = self.rows if row_perm is None else np.asarray(row_perm)[self.rows]
        cols = self.cols if col_perm is None else np.asarray(col_perm)[self.cols]
        return COOMatrix.from_unsorted(
            rows, cols, self.data, self.shape, sum_duplicates=False
        )

    def select_rows(self, row_ids: np.ndarray) -> "COOMatrix":
        """Extract a sub-matrix of the given rows, renumbered 0..k-1.

        Used by the multi-GPU row partitioner: each node keeps a local
        slice of rows but the full column space (it needs all of ``x``).
        Ascending ``row_ids`` keep a (row, col)-ordered matrix in order,
        so the slice is built without a sort.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        lookup = np.full(self.n_rows, -1, dtype=self.rows.dtype)
        lookup[row_ids] = np.arange(row_ids.size)
        mask = lookup[self.rows] >= 0
        return COOMatrix.from_unsorted(
            lookup[self.rows[mask]],
            self.cols[mask],
            self.data[mask],
            (row_ids.size, self.n_cols),
            sum_duplicates=False,
        )

    def select_col_range(self, start: int, stop: int) -> "COOMatrix":
        """Extract columns ``[start, stop)`` renumbered from 0.

        This is the tiling primitive: a tile of fixed column width only
        needs the matching segment of ``x``.
        """
        if not 0 <= start <= stop <= self.n_cols:
            raise ValidationError(
                f"column range [{start}, {stop}) out of bounds for "
                f"{self.n_cols} columns"
            )
        mask = (self.cols >= start) & (self.cols < stop)
        return COOMatrix(
            self.rows[mask],
            self.cols[mask] - start,
            self.data[mask],
            (self.n_rows, stop - start),
        )


def _is_lexsorted(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the pairs are in non-decreasing (row, col) order."""
    if rows.size < 2:
        return True
    row_step = np.diff(rows)
    if (row_step < 0).any():
        return False
    return not ((row_step == 0) & (np.diff(cols) < 0)).any()
