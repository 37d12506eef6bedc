"""Compressed sparse column (CSC) format.

Column-oriented twin of CSR.  The paper's tiling transform works on
columns (reorder by column length, slice into 64K-column tiles), for
which CSC is the natural layout.
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
from repro.formats.coo import COOMatrix
from repro.formats.radix import stable_argsort

__all__ = ["CSCMatrix"]


class CSCMatrix(SparseMatrix):
    """Compressed sparse column storage.

    ``indptr`` has length ``n_cols + 1``; column *j* owns
    ``indices[indptr[j]:indptr[j+1]]`` (row indices) and the matching
    slice of ``data``.  ``indptr`` and ``indices`` share one
    :func:`~repro.formats.base.index_dtype`: int32 below ``2**31``.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.shape = check_shape(shape)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        index = index_dtype(*self.shape, self.data.size)
        self.indptr = as_index(indptr, index)
        self.indices = as_index(indices, index)
        self._validate()

    def _validate(self) -> None:
        if self.indptr.size != self.n_cols + 1:
            raise ValidationError(
                f"indptr has length {self.indptr.size}, expected "
                f"{self.n_cols + 1}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValidationError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValidationError("indices and data must have equal lengths")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_rows
        ):
            raise ValidationError("row index out of range")

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSCMatrix":
        """Build from a COO matrix."""
        order = coo.column_order()
        cols = coo.cols[order]
        counts = np.bincount(cols, minlength=coo.n_cols)
        indptr = np.zeros(coo.n_cols + 1, dtype=cols.dtype)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, coo.rows[order], coo.data[order], coo.shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self._array_bytes(self.indptr, self.indices, self.data)

    def to_coo(self) -> COOMatrix:
        # Columns are stored in order, so one stable pass on the row key
        # yields the (row, col) order.
        col_of = np.repeat(
            np.arange(self.n_cols, dtype=self.indices.dtype),
            np.diff(self.indptr),
        )
        order = stable_argsort(self.indices, self.n_rows)
        return COOMatrix(
            self.indices[order], col_of[order], self.data[order], self.shape
        )

    def _compute_row_lengths(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.n_rows)

    def _compute_col_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def select_cols(self, col_ids: np.ndarray) -> "CSCMatrix":
        """Sub-matrix of the given columns in the given order, renumbered.

        The workhorse of the column-reordering step: passing a
        permutation of all columns reorders the matrix, passing a subset
        slices out a tile.
        """
        col_ids = np.asarray(col_ids, dtype=np.int64)
        lengths = np.diff(self.indptr)[col_ids]
        index = self.indices.dtype
        indptr = np.zeros(col_ids.size + 1, dtype=index)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=index)
        data = np.empty(total, dtype=np.float64)
        starts = self.indptr[col_ids]
        if total:
            offsets = np.arange(total) - np.repeat(indptr[:-1], lengths)
            src = np.repeat(starts, lengths) + offsets
            indices[:] = self.indices[src]
            data[:] = self.data[src]
        return CSCMatrix(indptr, indices, data, (self.n_rows, col_ids.size))

    def normalize_cols(self) -> "CSCMatrix":
        """Column-stochastic copy (columns summing to 1).

        This is the ``W`` of the RWR formulation (Appendix F).
        """
        lengths = np.diff(self.indptr)
        col_ids = np.repeat(np.arange(self.n_cols), lengths)
        sums = np.bincount(col_ids, weights=self.data, minlength=self.n_cols)
        scale = np.ones(self.n_cols)
        nonzero = sums != 0
        scale[nonzero] = 1.0 / sums[nonzero]
        col_of = col_ids
        return CSCMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            self.data * scale[col_of],
            self.shape,
        )
