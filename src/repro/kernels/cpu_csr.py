"""CPU baseline: single-threaded CSR SpMV.

"CSR format is the most efficient on CPU among different sparse matrix
formats" (Appendix D); the paper's CPU numbers are a gcc-compiled scalar
loop on one Opteron core.  The model streams the CSR arrays at DRAM
bandwidth and charges latency for the ``x[col]`` gathers that miss the
L2 cache — again via Che's approximation, now on the CPU cache.
"""

from __future__ import annotations

from repro.formats.base import SparseMatrix
from repro.gpu.cache import line_access_counts, overall_hit_rate
from repro.gpu.costs import CostReport
from repro.gpu.spec import FLOAT_BYTES, CPUSpec, DeviceSpec
from repro.kernels.base import SpMVKernel, register

__all__ = ["CPUCSRKernel"]


@register("cpu-csr")
class CPUCSRKernel(SpMVKernel):
    """Single-core CPU CSR kernel (the paper's CPU comparison point)."""

    def __init__(
        self,
        matrix: SparseMatrix,
        *,
        device: DeviceSpec | None = None,
        cpu: CPUSpec | None = None,
    ) -> None:
        super().__init__(matrix, device=device)
        self.cpu = cpu or CPUSpec.opteron_2218()

    def _compute_cost(self) -> CostReport:
        cpu = self.cpu
        nnz = self.nnz
        # Streaming traffic: values + indices + row pointers + y.
        stream_bytes = nnz * 8 + (self.coo.n_rows + 1) * 4 + self.coo.n_rows * 4
        stream_seconds = stream_bytes / cpu.dram_bandwidth
        # x gathers through the L2 cache.
        col_counts = self.coo.col_lengths()
        floats_per_line = cpu.cache_line_bytes // FLOAT_BYTES
        lines = line_access_counts(col_counts, floats_per_line)
        hit = overall_hit_rate(lines, cpu.l2_cache_lines)
        misses = nnz * (1.0 - hit)
        miss_seconds = (
            misses * cpu.dram_latency_seconds / cpu.memory_level_parallelism
        )
        flop_seconds = self.flops / cpu.peak_flops
        compute_seconds = flop_seconds + miss_seconds
        algorithmic = stream_bytes + nnz * FLOAT_BYTES
        # The CPU "report" reuses the GPU report shape; memory time is
        # folded in directly (no overlap modelling on the in-order core).
        total = stream_seconds + compute_seconds
        return CostReport(
            label="cpu-csr",
            flops=self.flops,
            algorithmic_bytes=algorithmic,
            dram_bytes=stream_bytes + misses * cpu.cache_line_bytes,
            memory_seconds=stream_seconds,
            compute_seconds=compute_seconds,
            overhead_seconds=0.0,
            time_seconds=total,
            details={"x_hit_rate": hit, "host": cpu.name},
        )
