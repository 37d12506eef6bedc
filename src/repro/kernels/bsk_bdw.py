"""Baskaran & Bordawekar's optimised CSR kernel (BSK & BDW).

IBM technical report RC24704: CSR-vector with a *half* warp per row,
rows padded so every access is fully coalesced.  Strong on matrices with
mid-length regular rows (the paper finds it best on FEM/Harbor and
Protein) but still wasteful when rows are shorter than half a warp —
most rows of a power-law graph.
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

__all__ = ["BSKBDWKernel"]


@register("bsk-bdw")
class BSKBDWKernel(SpMVKernel):
    """Half-warp-per-row CSR with full-coalescing padding."""

    def _compute_cost(self) -> CostReport:
        device = self.device
        half = device.warp_size // 2
        lengths = self.coo.row_lengths().astype(np.float64)
        n_rows = self.coo.n_rows
        # Each warp serves two consecutive rows, one per half warp; the
        # warp runs for the longer of the pair.
        n_warps = -(-n_rows // 2) if n_rows else 0
        padded = np.zeros(n_warps * 2)
        padded[:n_rows] = np.ceil(lengths / half)
        pair_strides = padded.reshape(n_warps, 2).max(axis=1)
        x_cost = untiled_x_cost(self.coo.col_lengths(), device)
        instr = (
            cal.INSTR_PER_STRIDE * np.maximum(pair_strides, 1)
            + cal.INSTR_REDUCTION
            + cal.INSTR_FIXED
            + (x_cost.misses / max(n_warps, 1)) * cal.INSTR_MISS_REPLAY
        )
        schedule = schedule_warps(
            instr * device.cycles_per_warp_instruction, device
        )
        # Rows padded to half-warp multiples: fully coalesced streams,
        # at the price of the padding traffic.
        padded_entries = float((np.ceil(lengths / half) * half).sum())
        matrix_dram = streamed_bytes(8 * padded_entries, device)
        pointer_bytes = streamed_bytes(4 * (n_rows + 1), device)
        y_bytes = streamed_bytes(4 * n_rows, device)
        dram = matrix_dram + pointer_bytes + y_bytes + x_cost.dram_bytes
        algorithmic = (
            8 * padded_entries + 4 * (n_rows + 1) + 4 * self.nnz + 4 * n_rows
        )
        return CostReport.from_tallies(
            "bsk-bdw",
            device=device,
            flops=self.flops,
            algorithmic_bytes=algorithmic,
            dram_bytes=dram,
            compute_seconds=schedule.seconds,
            overhead_seconds=kernel_launch_seconds(1, device),
            bandwidth_efficiency=(
                cal.STREAM_EFFICIENCY
                * cal.HALF_WARP_EFFICIENCY
                * bandwidth_saturation(n_warps, device)
            ),
            details={
                "x_hit_rate": x_cost.hit_rate,
                "padding_ratio": padded_entries / max(self.nnz, 1),
            },
        )
