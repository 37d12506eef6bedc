"""CSR (scalar) kernel: one thread per row.

Appendix B: "With power-law graphs, it is hard to balance the workload
among threads within one thread block.  So all the threads in one block
will wait for the thread which is assigned to the longest row."  On top
of the imbalance, each thread walks its own row, so the warp's memory
accesses are scattered — almost nothing coalesces.  This is the slowest
GPU kernel on most inputs, exactly as the paper finds.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.costs import CostReport
from repro.gpu.launch import kernel_launch_seconds
from repro.gpu.memory import (
    bandwidth_saturation,
    random_access_bytes,
    streamed_bytes,
)
from repro.gpu.scheduler import schedule_warps
from repro.kernels import calibration as cal
from repro.kernels.base import SpMVKernel, register
from repro.kernels.xaccess import untiled_x_cost

__all__ = ["CSRScalarKernel"]


@register("csr")
class CSRScalarKernel(SpMVKernel):
    """One thread per row over CSR storage."""

    def _compute_cost(self) -> CostReport:
        device = self.device
        lengths = self.coo.row_lengths().astype(np.float64)
        n_rows = self.coo.n_rows
        # One warp covers `warp_size` consecutive rows; the warp runs for
        # as long as its longest row (SIMT lockstep).
        n_warps = -(-n_rows // device.warp_size) if n_rows else 0
        padded = np.zeros(n_warps * device.warp_size)
        padded[:n_rows] = lengths
        warp_max = padded.reshape(n_warps, device.warp_size).max(axis=1)
        x_cost = untiled_x_cost(self.coo.col_lengths(), device)
        instr = (
            cal.INSTR_PER_STRIDE * warp_max
            + cal.INSTR_FIXED
            + (x_cost.misses / max(n_warps, 1)) * cal.INSTR_MISS_REPLAY
        )
        schedule = schedule_warps(
            instr * device.cycles_per_warp_instruction, device
        )
        # Matrix accesses barely coalesce: every thread reads its own
        # row's next element, 32 scattered addresses per warp step.
        matrix_dram = random_access_bytes(2 * self.nnz, device)
        pointer_bytes = streamed_bytes(4 * (n_rows + 1), device)
        y_bytes = streamed_bytes(4 * n_rows, device)
        dram = matrix_dram + pointer_bytes + y_bytes + x_cost.dram_bytes
        algorithmic = 8 * self.nnz + 4 * (n_rows + 1) + 4 * self.nnz + 4 * n_rows
        return CostReport.from_tallies(
            "csr",
            device=device,
            flops=self.flops,
            algorithmic_bytes=algorithmic,
            dram_bytes=dram,
            compute_seconds=schedule.seconds,
            overhead_seconds=kernel_launch_seconds(1, device),
            bandwidth_efficiency=(
                cal.STREAM_EFFICIENCY * bandwidth_saturation(n_warps, device)
            ),
            details={"x_hit_rate": x_cost.hit_rate, "warps": n_warps},
        )
