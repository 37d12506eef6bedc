"""Compressed sparse row (CSR) format.

Non-zeros of each row stored contiguously; ``indptr`` marks row
boundaries.  The format behind the CSR (scalar), CSR-vector and
Baskaran & Bordawekar kernels, and the layout the paper's composite
storage uses for wide workloads.
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

__all__ = ["CSRMatrix"]


class CSRMatrix(SparseMatrix):
    """Compressed sparse row storage.

    Parameters
    ----------
    indptr:
        Length ``n_rows + 1``; row *i* owns ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column index of each non-zero.
    data:
        Value of each non-zero.

    ``indptr`` and ``indices`` share one
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
        if self.indptr.size != self.n_rows + 1:
            raise ValidationError(
                f"indptr has length {self.indptr.size}, expected "
                f"{self.n_rows + 1}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValidationError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValidationError("indices and data must have equal lengths")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_cols
        ):
            raise ValidationError("column index out of range")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        """Build from a (row-sorted) COO matrix."""
        return cls(
            coo.row_pointer(), coo.cols.copy(), coo.data.copy(), coo.shape
        )

    @classmethod
    def _from_coo_shared(cls, coo: COOMatrix) -> "CSRMatrix":
        """Internal: the CSR form of a canonical COO, sharing its
        ``cols``/``data`` — only ``indptr`` is built, O(rows).

        Same no-mutation contract as :meth:`_from_trusted_parts`.
        """
        return cls._from_trusted_parts(
            coo.row_pointer(), coo.cols, coo.data, coo.shape
        )

    @classmethod
    def _from_trusted_parts(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Internal: wrap canonical CSR arrays without copy or checks.

        For hot paths that rebuild a plan every data version (the
        dynamic overlay) where the arrays hold CSR invariants by
        construction; the arrays are adopted as-is, so callers must
        not mutate them afterwards.
        """
        self = object.__new__(cls)
        self.shape = shape
        self.indptr = indptr
        self.indices = indices
        self.data = data
        return self

    # ------------------------------------------------------------------
    # SparseMatrix interface
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self._array_bytes(self.indptr, self.indices, self.data)

    def _build_plan(self):
        from repro.exec.plan import CSRPlan

        return CSRPlan(self)

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.n_rows, dtype=self.indices.dtype),
            np.diff(self.indptr),
        )
        return COOMatrix(rows, self.indices.copy(), self.data.copy(), self.shape)

    # ------------------------------------------------------------------
    # Structure queries used by kernels and the tiling transform
    # ------------------------------------------------------------------

    def _compute_row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i``."""
        if not 0 <= i < self.n_rows:
            raise ValidationError(f"row {i} out of range")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def select_rows(self, row_ids: np.ndarray) -> "CSRMatrix":
        """Sub-matrix of the given rows in the given order, renumbered."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        lengths = np.diff(self.indptr)[row_ids]
        index = self.indices.dtype
        indptr = np.zeros(row_ids.size + 1, dtype=index)
        np.cumsum(lengths, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=index)
        data = np.empty(total, dtype=np.float64)
        # Gather each selected row's slice.  Vectorised via a flat index
        # construction: positions of the source entries.
        starts = self.indptr[row_ids]
        if total:
            offsets = np.arange(total) - np.repeat(indptr[:-1], lengths)
            src = np.repeat(starts, lengths) + offsets
            indices[:] = self.indices[src]
            data[:] = self.data[src]
        return CSRMatrix(indptr, indices, data, (row_ids.size, self.n_cols))

    def normalize_rows(self) -> "CSRMatrix":
        """Row-stochastic copy (rows summing to 1; empty rows left zero).

        This is the ``W`` of the PageRank formulation (Appendix F).
        """
        sums = self.spmv(np.ones(self.n_cols))
        row_of = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        scale = np.ones(self.n_rows)
        nonzero = sums != 0
        scale[nonzero] = 1.0 / sums[nonzero]
        return CSRMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            self.data * scale[row_of],
            self.shape,
        )

