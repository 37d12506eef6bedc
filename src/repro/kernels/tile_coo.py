"""The TILE-COO kernel (§3.1 Solution 2).

Column reorder + partial tiling with NVIDIA's COO kernel per tile (the
tile's ``x`` segment texture-resident) and the HYB kernel on the sparse
remainder.  The paper's stepping stone between plain COO and the full
composite kernel; "the only difference between COO and tile-coo kernel
is tiling" (§5), which makes the pair the tiling ablation.
"""

from __future__ import annotations

import numpy as np

from repro.core.tile_coo import TileCOOMatrix, build_tile_coo
from repro.formats.base import SparseMatrix
from repro.gpu.costs import CostReport
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import SpMVKernel, register
from repro.kernels.coo import coo_cost_report
from repro.kernels.ell import ell_cost_report
from repro.kernels.xaccess import tiled_x_cost, untiled_x_cost

__all__ = ["TileCOOKernel"]


@register("tile-coo")
class TileCOOKernel(SpMVKernel):
    """Partial tiling with COO tiles and a HYB remainder."""

    def __init__(
        self,
        matrix: SparseMatrix,
        *,
        device: DeviceSpec | None = None,
        n_tiles: int | None = None,
        tile_width: int | None = None,
    ) -> None:
        super().__init__(matrix, device=device)
        self.matrix: TileCOOMatrix = build_tile_coo(
            self.coo, self.device, n_tiles=n_tiles, tile_width=tile_width
        )

    @property
    def n_tiles(self) -> int:
        return self.matrix.plan.n_tiles

    def _compute_cost(self) -> CostReport:
        device = self.device
        reports: list[CostReport] = []
        for t, tile in enumerate(self.matrix.tiles):
            touched = int(np.unique(tile.rows).size)
            reports.append(
                coo_cost_report(
                    f"tile-{t}",
                    rows=tile.rows,
                    nnz=tile.nnz,
                    n_rows=tile.n_rows,
                    x_cost=tiled_x_cost(tile.col_lengths(), device),
                    device=device,
                    y_rows=touched,
                    y_random=True,
                )
            )
        remainder = self.matrix.remainder
        if remainder is not None:
            ell = remainder.ell
            tail = remainder.coo
            if ell.width > 0 and ell.nnz > 0:
                ell_cols = np.bincount(
                    ell.indices[ell.valid], minlength=remainder.n_cols
                )
                reports.append(
                    ell_cost_report(
                        "remainder-ell",
                        n_rows=ell.n_rows,
                        width=ell.width,
                        nnz=ell.nnz,
                        x_cost=untiled_x_cost(ell_cols, device),
                        device=device,
                    )
                )
            if tail.nnz:
                reports.append(
                    coo_cost_report(
                        "remainder-coo",
                        rows=tail.rows,
                        nnz=tail.nnz,
                        n_rows=tail.n_rows,
                        x_cost=untiled_x_cost(tail.col_lengths(), device),
                        device=device,
                    )
                )
        if not reports:
            return CostReport.zero("tile-coo")
        total = sum(reports, CostReport.zero())
        total = total.relabel("tile-coo")
        total.details["n_tiles"] = self.n_tiles
        return total
