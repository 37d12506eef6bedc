"""Hybrid (HYB) format: ELL head + COO tail.

NVIDIA's best-performing format on power-law matrices (paper §4.1):
the first *K* non-zeros of every row go into a regular ELL block, the
remainder spill into COO.  *K* is chosen so that padding stays
profitable — the standard Bell & Garland heuristic keeps column *k* of
the ELL block only while at least ``HYB_ELL_THRESHOLD`` of the rows
still have an entry there.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.formats.ell import ELLMatrix

__all__ = ["HYBMatrix", "choose_ell_width", "hyb_split"]

#: Keep an ELL column while at least this fraction of rows use it
#: (Bell & Garland use 1/3).
HYB_ELL_THRESHOLD = 1.0 / 3.0


def choose_ell_width(
    row_lengths: np.ndarray, *, threshold: float = HYB_ELL_THRESHOLD
) -> int:
    """Pick the ELL width K for a HYB split.

    K is the largest k such that at least ``threshold`` of the rows have
    k or more non-zeros, i.e. adding ELL column k costs at most
    ``(1 - threshold)`` padding.
    """
    lengths = np.asarray(row_lengths)
    if lengths.size == 0:
        return 0
    max_len = int(lengths.max())
    if max_len == 0:
        return 0
    # rows_with_at_least[k] = #rows with length >= k, k = 1..max_len.
    hist = np.bincount(lengths, minlength=max_len + 1)
    rows_with_at_least = np.cumsum(hist[::-1])[::-1]
    needed = threshold * lengths.size
    ks = np.nonzero(rows_with_at_least[1:] >= needed)[0] + 1
    return int(ks.max()) if ks.size else 0


def hyb_split(
    coo: COOMatrix, *, ell_width: int | None = None
) -> tuple[int, np.ndarray]:
    """The ELL width K of a HYB split and its head mask over ``coo``.

    Entry ``i`` belongs to the ELL head when it is among the first K
    entries of its row (``coo`` is row-sorted); the rest form the COO
    tail.  K defaults to :func:`choose_ell_width` of the row lengths.
    """
    row_lengths = coo.row_lengths()
    if ell_width is None:
        ell_width = choose_ell_width(row_lengths)
    # Row by row: min(length, K) head entries, then the rest.
    counts = np.empty(2 * coo.n_rows, dtype=np.int64)
    np.minimum(row_lengths, ell_width, out=counts[0::2])
    np.subtract(row_lengths, counts[0::2], out=counts[1::2])
    head = np.repeat(np.tile([True, False], coo.n_rows), counts)
    return ell_width, head


class HYBMatrix(SparseMatrix):
    """ELL + COO hybrid storage."""

    def __init__(self, ell: ELLMatrix, coo: COOMatrix) -> None:
        if ell.shape != coo.shape:
            from repro.errors import ValidationError

            raise ValidationError(
                f"ELL part shape {ell.shape} != COO part shape {coo.shape}"
            )
        self.shape = ell.shape
        self.ell = ell
        self.coo = coo

    @classmethod
    def from_coo(
        cls, coo: COOMatrix, *, ell_width: int | None = None
    ) -> "HYBMatrix":
        """Split a COO matrix into ELL head and COO tail."""
        ell_width, head = hyb_split(coo, ell_width=ell_width)
        ell_part = COOMatrix(
            coo.rows[head], coo.cols[head], coo.data[head], coo.shape
        )
        tail_part = COOMatrix(
            coo.rows[~head], coo.cols[~head], coo.data[~head], coo.shape
        )
        ell = ELLMatrix.from_coo(
            ell_part, width=ell_width, enforce_padding_limit=False
        )
        return cls(ell, tail_part)

    @property
    def nnz(self) -> int:
        return self.ell.nnz + self.coo.nnz

    @property
    def nbytes(self) -> int:
        return self.ell.nbytes + self.coo.nbytes

    def _build_plan(self):
        from repro.exec.plan import HYBPlan

        return HYBPlan(self)

    def to_coo(self) -> COOMatrix:
        head = self.ell.to_coo()
        return COOMatrix.from_unsorted(
            np.concatenate([head.rows, self.coo.rows]),
            np.concatenate([head.cols, self.coo.cols]),
            np.concatenate([head.data, self.coo.data]),
            self.shape,
            sum_duplicates=False,
        )
