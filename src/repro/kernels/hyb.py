"""HYB kernel: ELL head + COO tail, NVIDIA's best on power-law data.

The cost is the sum of one ELL pass over the regular head and one COO
pass over the spill, each launched separately with its own texture
binding (so each pass sees its own column-access distribution).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.hyb import hyb_split
from repro.gpu.costs import CostReport
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import SpMVKernel, register
from repro.kernels.coo import coo_cost_report
from repro.kernels.ell import ell_cost_report
from repro.kernels.xaccess import untiled_x_cost

__all__ = ["HYBKernel"]


@register("hyb")
class HYBKernel(SpMVKernel):
    """Bell & Garland's hybrid kernel.

    The cost model reads the split off ``self.coo`` through the same
    :func:`~repro.formats.hyb.hyb_split` the format uses — the ELL
    width, the head and tail non-zero and column counts, and the tail's
    rows — so pricing never builds the
    :class:`~repro.formats.hyb.HYBMatrix`.
    """

    def __init__(
        self,
        matrix: SparseMatrix,
        *,
        device: DeviceSpec | None = None,
        ell_width: int | None = None,
    ) -> None:
        super().__init__(matrix, device=device)
        if ell_width is not None and ell_width < 0:
            raise ValidationError(f"ell_width must be >= 0, got {ell_width}")
        self.ell_width = ell_width

    def _compute_cost(self) -> CostReport:
        device = self.device
        coo = self.coo
        width, head = hyb_split(coo, ell_width=self.ell_width)
        head_nnz = int(np.count_nonzero(head))
        head_cols = np.bincount(coo.cols[head], minlength=coo.n_cols)
        reports = []
        if width > 0 and coo.n_rows > 0:
            reports.append(
                ell_cost_report(
                    "hyb-ell",
                    n_rows=coo.n_rows,
                    width=width,
                    nnz=head_nnz,
                    x_cost=untiled_x_cost(head_cols, device),
                    device=device,
                )
            )
        tail_nnz = coo.nnz - head_nnz
        if tail_nnz:
            reports.append(
                coo_cost_report(
                    "hyb-coo",
                    rows=coo.rows[~head],
                    nnz=tail_nnz,
                    n_rows=coo.n_rows,
                    x_cost=untiled_x_cost(
                        coo.col_lengths() - head_cols, device
                    ),
                    device=device,
                )
            )
        if not reports:
            return CostReport.zero("hyb")
        total = sum(reports, CostReport.zero())
        return total.relabel("hyb")
