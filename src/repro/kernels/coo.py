"""NVIDIA-style COO kernel.

Appendix B / Observation 3: the three COO arrays are split into equal
intervals, one per warp; each warp strides over its interval doing a
multiply plus a segmented reduction.  Strides that contain a row
boundary serialise the reduction (thread divergence), which is the
kernel's limiting factor on power-law data — but it is also "the most
insensitive to variable row length", which is why it remains a top
performer there.
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
from repro.gpu.spec import DeviceSpec
from repro.kernels import calibration as cal
from repro.kernels.base import SpMVKernel, register
from repro.kernels.xaccess import XAccessCost, untiled_x_cost

__all__ = ["COOKernel", "coo_warp_instructions"]


def coo_warp_instructions(
    rows: np.ndarray,
    nnz: int,
    n_warps: int,
    device: DeviceSpec,
    *,
    misses: float = 0.0,
) -> np.ndarray:
    """Per-warp instruction counts of the COO segmented reduction.

    ``rows`` is the (sorted) row index array; boundaries between rows
    that fall inside a warp's interval cost extra serialized reduction
    instructions.
    """
    if nnz == 0 or n_warps == 0:
        return np.zeros(0, dtype=np.float64)
    interval = -(-nnz // n_warps)
    strides = np.full(n_warps, 0.0)
    # Elements per warp: full intervals except the last.
    counts = np.minimum(
        interval, np.maximum(0, nnz - interval * np.arange(n_warps))
    ).astype(np.float64)
    strides = np.ceil(counts / device.warp_size)
    base = strides * (cal.INSTR_PER_STRIDE + cal.INSTR_COO_STRIDE)
    # Row boundaries: positions where the row index changes.
    if rows.size:
        boundary_pos = np.nonzero(np.diff(rows) != 0)[0] + 1
        warp_of = boundary_pos // interval
        boundaries = np.bincount(warp_of, minlength=n_warps).astype(float)
    else:
        boundaries = np.zeros(n_warps)
    replay = (misses / max(n_warps, 1)) * cal.INSTR_MISS_REPLAY
    return (
        base
        + boundaries * cal.INSTR_COO_BOUNDARY
        + cal.INSTR_FIXED
        + replay
    )


@register("coo")
class COOKernel(SpMVKernel):
    """Bell & Garland's COO kernel with the whole of ``x`` texture-bound."""

    def _compute_cost(self) -> CostReport:
        device = self.device
        nnz = self.nnz
        x_cost = untiled_x_cost(self.coo.col_lengths(), device)
        return coo_cost_report(
            "coo",
            rows=self.coo.rows,
            nnz=nnz,
            n_rows=self.coo.n_rows,
            x_cost=x_cost,
            device=device,
        )


def coo_cost_report(
    label: str,
    *,
    rows: np.ndarray,
    nnz: int,
    n_rows: int,
    x_cost: XAccessCost,
    device: DeviceSpec,
    launches: int = 1,
    y_rows: int | None = None,
    y_random: bool = False,
) -> CostReport:
    """Assemble the cost report of one COO-kernel invocation.

    Shared with the HYB kernel (its tail is a COO pass) and with the
    tile-COO kernel (one COO pass per tile, where the partial-result
    write-back touches only ``y_rows`` rows but scatters — the
    "non-coalesced memory accesses overhead" of §3.1).
    """
    n_warps = max(
        1, min(int(device.max_active_warps * cal.COO_GRID_WARPS_FACTOR),
               -(-nnz // device.warp_size))
    ) if nnz else 0
    instr = coo_warp_instructions(
        rows, nnz, n_warps, device, misses=x_cost.misses
    )
    schedule = schedule_warps(
        instr * device.cycles_per_warp_instruction, device
    )
    matrix_bytes = streamed_bytes(12 * nnz, device)  # row + col + value
    touched = n_rows if y_rows is None else y_rows
    if y_random:
        y_bytes = random_access_bytes(touched, device)
    else:
        y_bytes = streamed_bytes(4 * touched, device)
    dram = matrix_bytes + y_bytes + x_cost.dram_bytes
    algorithmic = 12 * nnz + 4 * nnz + 4 * touched
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
            f"{label}_warps": schedule.warp_count,
        },
    )
