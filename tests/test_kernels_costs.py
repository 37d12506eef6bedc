"""Cost-model behaviour: the orderings and mechanisms the paper reports
must emerge from the models."""

import numpy as np
import pytest

from repro.formats.hyb import HYBMatrix
from repro.graphs.chung_lu import chung_lu_graph
from repro.graphs.synthetic import dense_matrix, uniform_random_matrix
from repro.gpu.spec import CPUSpec, DeviceSpec
from repro.kernels import create
from repro.kernels.xaccess import tiled_x_cost, untiled_x_cost


@pytest.fixture(scope="module")
def graph():
    """A mid-size power-law matrix with real hub structure."""
    return chung_lu_graph(20_000, 200_000, exponent=2.1, seed=11)


@pytest.fixture(scope="module")
def graph_device():
    """A device matched to the scaled test matrix: cache, launch
    overhead and latency all shrink with the problem (the same scaling
    ``repro.graphs.datasets.matched_device`` applies), so the
    cache-to-working-set and occupancy ratios mirror the paper's
    full-size runs."""
    return DeviceSpec.tesla_c1060().scaled(
        texture_cache_bytes=8 * 1024,
        kernel_launch_seconds=7e-8,
        global_latency_cycles=20.0,
    )


class TestXAccess:
    def test_untiled_hit_rate_below_one(self, graph, graph_device):
        cost = untiled_x_cost(graph.col_lengths(), graph_device)
        assert 0 < cost.hit_rate < 1
        assert cost.dram_bytes > 0

    def test_tiling_beats_untiled(self, graph, graph_device):
        # The core claim: a tile whose x segment fits in cache has
        # (almost) only compulsory misses.
        col_counts = graph.col_lengths()
        order = np.argsort(col_counts)[::-1]
        width = graph_device.tile_width_columns
        tile_counts = col_counts[order[:width]]
        tiled = tiled_x_cost(tile_counts, graph_device)
        untiled = untiled_x_cost(col_counts, graph_device)
        assert tiled.hit_rate > untiled.hit_rate

    def test_tiled_no_reuse_only_line_sharing(self, graph_device):
        # 64 single-access columns over 8-float lines: 8 compulsory
        # misses, everything else hits through line sharing.
        cost = tiled_x_cost(np.ones(64), graph_device)
        assert cost.hit_rate == pytest.approx(1 - 8 / 64)

    def test_empty(self, graph_device):
        assert untiled_x_cost(np.zeros(5), graph_device).accesses == 0
        assert tiled_x_cost(np.zeros(5), graph_device).accesses == 0


class TestPaperOrderings:
    """Figure 2's qualitative structure on a power-law matrix."""

    @pytest.fixture(scope="class")
    def costs(self, graph, graph_device):
        names = ["cpu-csr", "csr", "csr-vector", "bsk-bdw", "coo",
                 "hyb", "tile-coo", "tile-composite"]
        return {
            name: create(name, graph, device=graph_device).cost()
            for name in names
        }

    def test_tile_composite_beats_hyb(self, costs):
        assert costs["tile-composite"].gflops > costs["hyb"].gflops

    def test_tile_composite_beats_coo(self, costs):
        assert costs["tile-composite"].gflops > costs["coo"].gflops

    def test_tile_coo_beats_plain_coo(self, costs):
        # "On power-law matrices, tile-coo performs consistently better
        # than COO" (paper 5: Tiling discussion).
        assert costs["tile-coo"].gflops > costs["coo"].gflops

    def test_csr_scalar_is_slowest_gpu_kernel(self, costs):
        gpu = {k: v for k, v in costs.items() if k != "cpu-csr"}
        assert min(gpu, key=lambda k: gpu[k].gflops) in ("csr", "csr-vector")

    def test_gpu_beats_cpu(self, costs):
        cpu = costs["cpu-csr"].gflops
        for name in ("coo", "hyb", "tile-coo", "tile-composite"):
            assert costs[name].gflops > 2 * cpu

    def test_speedup_band_vs_hyb(self, costs):
        # Paper: ~1.4-2.2x over the best NVIDIA kernel on skewed graphs.
        ratio = costs["tile-composite"].gflops / costs["hyb"].gflops
        assert 1.1 < ratio < 3.5

    def test_all_memory_bound(self, costs):
        # SpMV "is a bandwidth limited problem" (paper 3.1).
        for name in ("coo", "hyb", "tile-composite"):
            assert costs[name].memory_bound


class TestMechanisms:
    def test_larger_cache_helps_untiled_kernels(self, graph):
        small = DeviceSpec.tesla_c1060().scaled(texture_cache_bytes=4096)
        large = DeviceSpec.tesla_c1060().scaled(
            texture_cache_bytes=1024 * 1024
        )
        slow = create("hyb", graph, device=small).cost()
        fast = create("hyb", graph, device=large).cost()
        assert fast.time_seconds < slow.time_seconds

    def test_launch_overhead_scales_with_tiles(self, graph):
        dev = DeviceSpec.tesla_c1060().scaled(
            texture_cache_bytes=2048, kernel_launch_seconds=1e-3
        )
        few = create("tile-coo", graph, device=dev, n_tiles=1).cost()
        many = create("tile-coo", graph, device=dev, n_tiles=8).cost()
        assert many.overhead_seconds > few.overhead_seconds

    def test_camping_padding_helps(self):
        # A matrix with uniform rows whose workloads align exactly to
        # the partition stride without the fix.
        matrix = uniform_random_matrix(4096, 4096, 65536, seed=13)
        dev = DeviceSpec.tesla_c1060()
        padded = create(
            "tile-composite", matrix, device=dev, avoid_camping=True
        ).cost()
        camped = create(
            "tile-composite", matrix, device=dev, avoid_camping=False
        ).cost()
        assert padded.time_seconds <= camped.time_seconds

    def test_dense_bandwidth_can_exceed_peak(self):
        # Appendix D: texture hits push the *algorithmic* GB/s metric
        # past the hardware peak on the dense matrix.
        matrix = dense_matrix(512, seed=14)
        dev = DeviceSpec.tesla_c1060().scaled(kernel_launch_seconds=1e-7)
        cost = create("tile-composite", matrix, device=dev).cost()
        assert cost.bandwidth_gbs > 90.0

    def test_cpu_spec_injection(self, graph):
        slow_cpu = CPUSpec(clock_hz=1e9, dram_bandwidth=1e9)
        fast_cpu = CPUSpec(clock_hz=4e9, dram_bandwidth=30e9)
        slow = create("cpu-csr", graph, cpu=slow_cpu).cost()
        fast = create("cpu-csr", graph, cpu=fast_cpu).cost()
        assert fast.time_seconds < slow.time_seconds

    def test_hyb_width_override_changes_split(self, graph):
        assert HYBMatrix.from_coo(graph, ell_width=0).ell.nnz == 0
        # Width 0 prices a pure COO tail: no ELL component at all.
        details = create("hyb", graph, ell_width=0).cost().details
        assert details and all(k.startswith("hyb-coo") for k in details)
        split = create("hyb", graph).cost().details
        assert any(k.startswith("hyb-ell") for k in split)

    def test_details_expose_hit_rate(self, graph, graph_device):
        cost = create("hyb", graph, device=graph_device).cost()
        keys = [k for k in cost.details if k.endswith("x_hit_rate")]
        assert keys
        for key in keys:
            assert 0 <= cost.details[key] <= 1
