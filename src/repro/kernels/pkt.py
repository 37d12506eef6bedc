"""PKT kernel: clustered packets processed in shared memory.

Each packet's rows and ``x`` segment are staged into the SM's shared
memory, so the packet's inner product runs cache-free; cross-packet
entries fall back to a COO pass.  The clustering itself fails (raises)
on power-law matrices, as the paper observed with Metis-based packets.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import SparseMatrix
from repro.formats.pkt import PKTMatrix
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
from repro.kernels.coo import coo_cost_report
from repro.kernels.xaccess import untiled_x_cost

__all__ = ["PKTKernel"]


@register("pkt")
class PKTKernel(SpMVKernel):
    """Packet kernel over BFS-clustered blocks."""

    def __init__(
        self,
        matrix: SparseMatrix,
        *,
        device: DeviceSpec | None = None,
        n_packets: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(matrix, device=device)
        self.pkt = PKTMatrix.from_coo(self.coo, n_packets=n_packets, seed=seed)

    def _compute_cost(self) -> CostReport:
        device = self.device
        warp_instr = []
        matrix_dram = 0.0
        x_dram = 0.0
        algorithmic = 0.0
        flops = 0.0
        for packet in self.pkt.packets:
            local_nnz = packet.local.nnz
            local_rows = packet.row_ids.size
            n_warps = max(1, -(-local_rows // device.warp_size))
            per_warp_elems = local_nnz / n_warps
            instr = (
                cal.INSTR_PER_STRIDE
                * np.ceil(per_warp_elems / device.warp_size)
                + cal.INSTR_FIXED
            )
            warp_instr.extend([instr] * n_warps)
            # Packet arrays stream in once; the x values for the
            # packet's (permuted, hence scattered) vertices are gathered
            # into shared memory.
            matrix_dram += streamed_bytes(8 * local_nnz, device)
            x_dram += random_access_bytes(local_rows, device)
            algorithmic += 8 * local_nnz + 4 * local_nnz + 4 * local_rows
            flops += 2 * local_nnz
        instr_arr = np.asarray(warp_instr, dtype=np.float64)
        schedule = schedule_warps(
            instr_arr * device.cycles_per_warp_instruction, device
        )
        # Results scatter back through the same permutation.
        y_bytes = random_access_bytes(self.coo.n_rows, device)
        packet_report = CostReport.from_tallies(
            "pkt-packets",
            device=device,
            flops=flops,
            algorithmic_bytes=algorithmic + 4 * self.coo.n_rows,
            dram_bytes=matrix_dram + x_dram + y_bytes,
            compute_seconds=schedule.seconds,
            overhead_seconds=kernel_launch_seconds(1, device),
            bandwidth_efficiency=(
                cal.STREAM_EFFICIENCY
                * bandwidth_saturation(instr_arr.size, device)
            ),
            details={"n_packets": len(self.pkt.packets)},
        )
        remainder = self.pkt.remainder
        if remainder.nnz:
            rem_report = coo_cost_report(
                "pkt-remainder",
                rows=remainder.rows,
                nnz=remainder.nnz,
                n_rows=remainder.n_rows,
                x_cost=untiled_x_cost(remainder.col_lengths(), device),
                device=device,
            )
            return (packet_report + rem_report).relabel("pkt")
        return packet_report.relabel("pkt")
