"""CSR-vector kernel: one warp per row.

Appendix B: best "when the rows of a matrix are long and with similar
length"; rows shorter than a warp waste the remaining lanes, and rows
not padded to a warp multiple leave all following accesses misaligned
(the ~30 % loss on the dense matrix relative to the paper's composite
kernel, Appendix D).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.costs import CostReport
from repro.gpu.launch import kernel_launch_seconds
from repro.gpu.memory import bandwidth_saturation, streamed_bytes
from repro.gpu.scheduler import schedule_warps
from repro.kernels import calibration as cal
from repro.kernels.base import SpMVKernel, register
from repro.kernels.xaccess import untiled_x_cost

__all__ = ["CSRVectorKernel"]


@register("csr-vector")
class CSRVectorKernel(SpMVKernel):
    """One warp per row over CSR storage."""

    def _compute_cost(self) -> CostReport:
        device = self.device
        lengths = self.coo.row_lengths().astype(np.float64)
        n_rows = self.coo.n_rows
        strides = np.ceil(lengths / device.warp_size)
        x_cost = untiled_x_cost(self.coo.col_lengths(), device)
        instr = (
            cal.INSTR_PER_STRIDE * np.maximum(strides, 1)
            + cal.INSTR_REDUCTION
            + cal.INSTR_FIXED
            + (x_cost.misses / max(n_rows, 1)) * cal.INSTR_MISS_REPLAY
        )
        schedule = schedule_warps(
            instr * device.cycles_per_warp_instruction, device
        )
        # Rows are *not* padded to warp multiples: a row starting off a
        # segment boundary leaves every warp-stride read of the row
        # split across two segments — double the transactions (Appendix
        # D: "if one row is not padded to an integer multiple of the
        # warp size, all global memory accesses after this row will not
        # be fully coalesced").
        seg = device.segment_bytes
        useful_bytes = 8 * lengths  # value + index arrays per row
        segments = np.ceil(useful_bytes / seg) + (lengths > 0)
        aligned = (self.coo.row_pointer()[:-1] * 4) % seg == 0
        misaligned_factor = np.where(aligned, 1.0, 2.0)
        matrix_dram = float((segments * misaligned_factor).sum()) * seg
        pointer_bytes = streamed_bytes(4 * (n_rows + 1), device)
        y_bytes = streamed_bytes(4 * n_rows, device)
        dram = matrix_dram + pointer_bytes + y_bytes + x_cost.dram_bytes
        algorithmic = 8 * self.nnz + 4 * (n_rows + 1) + 4 * self.nnz + 4 * n_rows
        return CostReport.from_tallies(
            "csr-vector",
            device=device,
            flops=self.flops,
            algorithmic_bytes=algorithmic,
            dram_bytes=dram,
            compute_seconds=schedule.seconds,
            overhead_seconds=kernel_launch_seconds(1, device),
            bandwidth_efficiency=(
                cal.STREAM_EFFICIENCY * bandwidth_saturation(n_rows, device)
            ),
            details={"x_hit_rate": x_cost.hit_rate, "warps": n_rows},
        )
