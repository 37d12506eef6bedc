"""CMRS — compressed multi-row storage (Koza et al., arXiv:1203.2946).

Consecutive rows are packed into fixed-height **strips**; within a
strip the entries are stored slot-interleaved (all rows' first entries,
then all second entries, ...) with a per-entry local row counter
``row_in_strip``.  On a GPU one warp processes one strip: short rows
share the warp instead of idling its lanes, which is the format's
answer to CSR-vector's under-utilisation on low-degree graphs, while
the interleaved layout keeps the value/column streams coalesced.

Reduction-order contract: within a strip, one row's entries occupy
ascending slots, so any per-row accumulation that walks the strip in
storage order sees each row's products in ascending column order — the
canonical reduction.  One stable pass on the row key restores the
canonical COO (:meth:`CMRSMatrix.to_coo`, exactly the CSC pattern),
which the numpy and SciPy backends run as they run every canonical
format; the native kernel accumulates in-place per strip.  Both are
bitwise members of the differential matrix's canonical class.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix, check_shape
from repro.formats.coo import COOMatrix
from repro.formats.radix import stable_argsort

__all__ = [
    "CMRS_STRIP_ROWS",
    "CMRSMatrix",
    "cmrs_tune_candidate",
    "native_cmrs_plan",
]

#: Rows per strip.  The paper tunes strip height to the warp and the
#: mean row length; 8 keeps short-row strips dense without letting one
#: long row monopolise a strip's iteration count.
CMRS_STRIP_ROWS = 8


class CMRSMatrix(SparseMatrix):
    """Strip-packed multi-row storage.

    Parameters
    ----------
    strip_ptr:
        Length ``n_strips + 1``; strip *s* owns entries
        ``[strip_ptr[s], strip_ptr[s+1])``.
    cols, data:
        Per-entry column index and value, in slot-interleaved strip
        order.
    row_in_strip:
        Per-entry local row index within its strip (``0 ..
        strip_rows-1``).
    strip_rows:
        Strip height (rows per strip).
    """

    def __init__(
        self,
        strip_ptr: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        row_in_strip: np.ndarray,
        shape: tuple[int, int],
        *,
        strip_rows: int = CMRS_STRIP_ROWS,
    ) -> None:
        self.shape = check_shape(shape)
        self.strip_ptr = np.ascontiguousarray(strip_ptr, dtype=np.int64)
        self.cols = np.ascontiguousarray(cols, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.row_in_strip = np.ascontiguousarray(
            row_in_strip, dtype=np.int64
        )
        self.strip_rows = int(strip_rows)
        if self.strip_rows < 1:
            raise ValidationError(
                f"strip_rows must be >= 1, got {strip_rows}"
            )
        n_strips = -(-self.n_rows // self.strip_rows) if self.n_rows else 0
        if self.strip_ptr.size != n_strips + 1:
            raise ValidationError(
                f"strip_ptr has length {self.strip_ptr.size}, expected "
                f"{n_strips + 1}"
            )
        if self.strip_ptr.size and (
            self.strip_ptr[0] != 0 or self.strip_ptr[-1] != self.cols.size
        ):
            raise ValidationError(
                "strip_ptr must start at 0 and end at nnz"
            )
        if self.cols.size != self.data.size or (
            self.cols.size != self.row_in_strip.size
        ):
            raise ValidationError("CMRS entry arrays must share one length")
        if self.cols.size and (
            self.cols.min() < 0 or self.cols.max() >= self.n_cols
        ):
            raise ValidationError("column index out of range")
        if self.row_in_strip.size and (
            self.row_in_strip.min() < 0
            or self.row_in_strip.max() >= self.strip_rows
        ):
            raise ValidationError("row_in_strip out of strip range")

    @property
    def n_strips(self) -> int:
        return self.strip_ptr.size - 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_coo(
        cls, coo: COOMatrix, *, strip_rows: int = CMRS_STRIP_ROWS
    ) -> "CMRSMatrix":
        """Build from a (row-sorted) COO matrix.

        Fully vectorised: each entry's strip is ``row // strip_rows``
        and its slot is its ordinal within the row (COO is row-sorted
        with ascending columns, so slot order *is* column order); a
        single ``(strip, slot, row)`` lexsort produces the interleaved
        layout.
        """
        strip_rows = int(strip_rows)
        if strip_rows < 1:
            raise ValidationError(
                f"strip_rows must be >= 1, got {strip_rows}"
            )
        n_strips = -(-coo.n_rows // strip_rows) if coo.n_rows else 0
        if coo.nnz == 0:
            return cls(
                np.zeros(n_strips + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.int64),
                coo.shape,
                strip_rows=strip_rows,
            )
        lengths = np.bincount(coo.rows, minlength=coo.n_rows)
        starts = np.zeros(coo.n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        slot = np.arange(coo.nnz, dtype=np.int64) - starts[coo.rows]
        strip = coo.rows // strip_rows
        local = coo.rows - strip * strip_rows
        order = np.lexsort((local, slot, strip))
        strip_ptr = np.zeros(n_strips + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(strip, minlength=n_strips), out=strip_ptr[1:]
        )
        return cls(
            strip_ptr,
            coo.cols[order],
            coo.data[order],
            local[order],
            coo.shape,
            strip_rows=strip_rows,
        )

    # ------------------------------------------------------------------
    # SparseMatrix interface
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self._array_bytes(
            self.strip_ptr, self.cols, self.data, self.row_in_strip
        )

    def entry_rows(self) -> np.ndarray:
        """Global row index of every stored entry, in storage order."""
        strip_of = np.repeat(
            np.arange(self.n_strips, dtype=np.int64),
            np.diff(self.strip_ptr),
        )
        return strip_of * self.strip_rows + self.row_in_strip

    def to_coo(self) -> COOMatrix:
        # Each row's entries sit in ascending slots, i.e. ascending
        # columns, so one stable pass on the row key yields the
        # (row, col) order.
        rows = self.entry_rows()
        order = stable_argsort(rows, self.n_rows)
        return COOMatrix(
            rows[order], self.cols[order], self.data[order], self.shape
        )

    def _compute_row_lengths(self) -> np.ndarray:
        return np.bincount(self.entry_rows(), minlength=self.n_rows)


def cmrs_tune_candidate(matrix) -> bool:
    """Tuner-grid predicate: strip packing pays when rows are short
    enough that CSR-vector-style per-row work under-fills its unit."""
    if matrix.nnz == 0 or matrix.n_rows == 0:
        return False
    mean = matrix.nnz / matrix.n_rows
    return bool(mean < CMRS_STRIP_ROWS)


def native_cmrs_plan(matrix):
    """Registry hook: the numba strip kernel plan for this format."""
    from repro.exec.native import NativeCMRSPlan

    return NativeCMRSPlan(matrix)
