"""ELL kernel: one thread per row over column-major padded storage.

Appendix B: peak performance needs "large number of short rows with
similar lengths"; every row is padded to the longest, so a single hub
row of a power-law graph makes the format explode — building the format
raises :class:`~repro.errors.FormatNotApplicableError` in that case,
matching the kernel's practical unusability there.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import SparseMatrix
from repro.formats.ell import ELLMatrix
from repro.gpu.costs import CostReport
from repro.gpu.launch import kernel_launch_seconds
from repro.gpu.memory import bandwidth_saturation, streamed_bytes
from repro.gpu.scheduler import schedule_warps
from repro.gpu.spec import DeviceSpec
from repro.kernels import calibration as cal
from repro.kernels.base import SpMVKernel, register
from repro.kernels.xaccess import XAccessCost, untiled_x_cost

__all__ = ["ELLKernel", "ell_cost_report"]


def ell_cost_report(
    label: str,
    *,
    n_rows: int,
    width: int,
    nnz: int,
    x_cost: XAccessCost,
    device: DeviceSpec,
    launches: int = 1,
) -> CostReport:
    """Cost of one ELL pass; shared with the HYB kernel's head."""
    n_warps = -(-n_rows // device.warp_size) if n_rows else 0
    padded_entries = n_rows * width
    instr = np.full(
        max(n_warps, 0),
        cal.INSTR_PER_STRIDE * width
        + cal.INSTR_FIXED
        + (x_cost.misses / max(n_warps, 1)) * cal.INSTR_MISS_REPLAY,
        dtype=np.float64,
    )
    schedule = schedule_warps(
        instr * device.cycles_per_warp_instruction, device
    )
    matrix_dram = streamed_bytes(8 * padded_entries, device)
    y_bytes = streamed_bytes(4 * n_rows, device)
    dram = matrix_dram + y_bytes + x_cost.dram_bytes
    algorithmic = 8 * padded_entries + 4 * nnz + 4 * n_rows
    return CostReport.from_tallies(
        label,
        device=device,
        flops=2 * nnz,
        algorithmic_bytes=algorithmic,
        dram_bytes=dram,
        compute_seconds=schedule.seconds,
        overhead_seconds=kernel_launch_seconds(launches, device),
        bandwidth_efficiency=(
            cal.STREAM_EFFICIENCY * bandwidth_saturation(n_warps, device)
        ),
        details={
            f"{label}_x_hit_rate": x_cost.hit_rate,
            f"{label}_padding_ratio": padded_entries / max(nnz, 1),
        },
    )


@register("ell")
class ELLKernel(SpMVKernel):
    """Pure ELL kernel; refuses skewed matrices at format build time."""

    def __init__(
        self, matrix: SparseMatrix, *, device: DeviceSpec | None = None
    ) -> None:
        super().__init__(matrix, device=device)
        self.ell = ELLMatrix.from_coo(self.coo)

    def _compute_cost(self) -> CostReport:
        x_cost = untiled_x_cost(self.coo.col_lengths(), self.device)
        return ell_cost_report(
            "ell",
            n_rows=self.ell.n_rows,
            width=self.ell.width,
            nnz=self.nnz,
            x_cost=x_cost,
            device=self.device,
        )
