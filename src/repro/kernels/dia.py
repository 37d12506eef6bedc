"""DIA kernel: one thread per row over diagonal storage.

Only applicable to banded matrices; on anything else the format build
raises, mirroring the paper's "the code of these two kernels cannot run
on matrices of power-law graphs" (Appendix B).
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import SparseMatrix
from repro.formats.dia import DIAMatrix
from repro.gpu.costs import CostReport
from repro.gpu.launch import kernel_launch_seconds
from repro.gpu.memory import bandwidth_saturation, streamed_bytes
from repro.gpu.scheduler import schedule_warps
from repro.gpu.spec import DeviceSpec
from repro.kernels import calibration as cal
from repro.kernels.base import SpMVKernel, register

__all__ = ["DIAKernel"]


@register("dia")
class DIAKernel(SpMVKernel):
    """Diagonal-format kernel for banded matrices."""

    def __init__(
        self, matrix: SparseMatrix, *, device: DeviceSpec | None = None
    ) -> None:
        super().__init__(matrix, device=device)
        self.dia = DIAMatrix.from_coo(self.coo)

    def _compute_cost(self) -> CostReport:
        device = self.device
        n_rows = self.dia.n_rows
        n_diags = self.dia.offsets.size
        n_warps = -(-n_rows // device.warp_size) if n_rows else 0
        instr = np.full(
            max(n_warps, 0),
            cal.INSTR_PER_STRIDE * n_diags + cal.INSTR_FIXED,
            dtype=np.float64,
        )
        schedule = schedule_warps(
            instr * device.cycles_per_warp_instruction, device
        )
        padded_entries = self.dia.padded_entries
        # x accesses along a diagonal are consecutive: each warp streams
        # a shifted window of x, so the traffic is one streamed read of
        # the window per diagonal (fully coalesced, no cache pressure).
        x_dram = streamed_bytes(4 * n_rows, device) * n_diags
        matrix_dram = streamed_bytes(4 * padded_entries, device)
        y_bytes = streamed_bytes(4 * n_rows, device)
        dram = matrix_dram + y_bytes + x_dram
        algorithmic = 4 * padded_entries + 4 * self.nnz + 4 * n_rows
        return CostReport.from_tallies(
            "dia",
            device=device,
            flops=self.flops,
            algorithmic_bytes=algorithmic,
            dram_bytes=dram,
            compute_seconds=schedule.seconds,
            overhead_seconds=kernel_launch_seconds(1, device),
            bandwidth_efficiency=(
                cal.STREAM_EFFICIENCY * bandwidth_saturation(n_warps, device)
            ),
            details={"n_diagonals": n_diags},
        )
