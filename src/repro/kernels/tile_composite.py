"""The TILE-COMPOSITE kernel — the paper's headline contribution.

One kernel launch per tile; inside a tile every warp computes one
packed workload (CSR-vector execution for wide rectangles, ELL execution
for tall ones).  The tile's ``x`` segment is texture-resident, its
padded storage streams fully coalesced, workload boundaries are padded
against partition camping, and each tile scatters its partial results
into ``y`` before a final combine pass.
"""

from __future__ import annotations

import numpy as np

from repro.core.autotune import TuningResult, autotune
from repro.core.composite import CompositeTile, build_tile_composite
from repro.core.workload import workload_warp_instructions
from repro.formats.base import SparseMatrix
from repro.gpu.costs import CostReport
from repro.gpu.launch import kernel_launch_seconds
from repro.gpu.memory import (
    bandwidth_saturation,
    partition_efficiency,
    random_access_bytes,
    streamed_bytes,
)
from repro.gpu.scheduler import schedule_warps
from repro.gpu.spec import DeviceSpec
from repro.kernels import calibration as cal
from repro.kernels.base import SpMVKernel, register
from repro.kernels.xaccess import tiled_x_cost, untiled_x_cost

__all__ = [
    "TileCompositeKernel",
    "composite_tile_cost",
    "tiles_overhead_cost",
]


def composite_tile_cost(
    tile: CompositeTile, device: DeviceSpec
) -> CostReport:
    """Simulated cost of one composite tile (one kernel launch)."""
    ws = tile.workloads
    if ws.n_workloads == 0:
        return CostReport.zero("tile")
    if tile.cached:
        x_cost = tiled_x_cost(tile.col_lengths(), device)
    else:
        x_cost = untiled_x_cost(tile.col_lengths(), device)
    instr = workload_warp_instructions(
        ws.w_pad, ws.heights, ws.widths, ws.h_pad, ws.storage, device
    )
    instr = instr + (
        x_cost.misses / ws.n_workloads
    ) * cal.INSTR_MISS_REPLAY
    schedule = schedule_warps(
        instr * device.cycles_per_warp_instruction, device
    )
    matrix_dram = streamed_bytes(8 * ws.total_padded, device)
    # Partial-result scatter: the tile's rows are length-ordered, so the
    # write-back addresses are effectively random in y.
    y_dram = random_access_bytes(tile.row_ids.size, device)
    camping = partition_efficiency(tile.start_offsets, device)
    dram = matrix_dram + y_dram + x_cost.dram_bytes
    algorithmic = 8 * ws.total_padded + 4 * tile.nnz + 4 * tile.row_ids.size
    return CostReport.from_tallies(
        "tile-composite-tile",
        device=device,
        flops=2 * tile.nnz,
        algorithmic_bytes=algorithmic,
        dram_bytes=dram,
        compute_seconds=schedule.seconds,
        overhead_seconds=kernel_launch_seconds(1, device),
        bandwidth_efficiency=(
            cal.STREAM_EFFICIENCY
            * camping
            * bandwidth_saturation(ws.n_workloads, device)
        ),
        details={
            "x_hit_rate": x_cost.hit_rate,
            "n_workloads": ws.n_workloads,
            "padding_ratio": ws.padding_ratio,
            "partition_efficiency": camping,
        },
    )


def tiles_overhead_cost(
    n_tiles: int, n_rows: int, device: DeviceSpec
) -> CostReport:
    """Combine pass merging per-tile partials into the final ``y``.

    One extra launch streaming the partial vector once ("the resulting
    vector y from the denser and sparser sub-matrices will be combined
    to the final result", §3.1).
    """
    if n_tiles <= 1:
        return CostReport.zero("combine")
    combine_bytes = streamed_bytes(8 * n_rows, device)
    return CostReport.from_tallies(
        "combine",
        device=device,
        flops=0.0,
        algorithmic_bytes=8 * n_rows,
        dram_bytes=combine_bytes,
        compute_seconds=0.0,
        overhead_seconds=kernel_launch_seconds(1, device),
        bandwidth_efficiency=cal.STREAM_EFFICIENCY,
    )


@register("tile-composite")
class TileCompositeKernel(SpMVKernel):
    """Tiling + composite storage (the paper's best kernel).

    Parameters
    ----------
    n_tiles, workload_sizes, remainder_workload_size:
        Explicit tuning parameters; each ``None`` falls back to the
        paper's heuristics (Algorithm 1's greedy tile rule, the
        occupancy-driven default workload size).
    tuned:
        Run the full auto-tuner (Algorithms 1–3) before building.
    """

    def __init__(
        self,
        matrix: SparseMatrix,
        *,
        device: DeviceSpec | None = None,
        n_tiles: int | None = None,
        workload_sizes: list[int] | None = None,
        remainder_workload_size: int | None = None,
        tuned: bool = False,
        avoid_camping: bool = True,
        tile_width: int | None = None,
    ) -> None:
        super().__init__(matrix, device=device)
        self.tuning: TuningResult | None = None
        if tuned:
            self.tuning = autotune(
                self.coo, self.device, tile_width=tile_width
            )
            n_tiles = self.tuning.n_tiles
            workload_sizes = self.tuning.workload_sizes
            remainder_workload_size = self.tuning.remainder_workload_size
        self.matrix = build_tile_composite(
            self.coo,
            self.device,
            n_tiles=n_tiles,
            workload_sizes=workload_sizes,
            remainder_workload_size=remainder_workload_size,
            avoid_camping=avoid_camping,
            tile_width=tile_width,
        )

    @property
    def n_tiles(self) -> int:
        return self.matrix.plan.n_tiles

    def _compute_cost(self) -> CostReport:
        device = self.device
        reports = [
            composite_tile_cost(tile, device)
            for tile in self.matrix.all_tiles
        ]
        reports.append(
            tiles_overhead_cost(
                len(self.matrix.all_tiles), self.coo.n_rows, device
            )
        )
        total = sum(reports, CostReport.zero())
        total = total.relabel("tile-composite")
        total.details["n_tiles"] = self.n_tiles
        total.details["padding_ratio"] = self.matrix.padding_ratio
        return total
