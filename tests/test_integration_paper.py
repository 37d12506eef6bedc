"""End-to-end integration tests: the paper's qualitative results at
reduced scale.

These exercise the full pipeline (dataset generator -> matched device ->
kernels -> mining -> tuning) and assert the *shape* of the paper's
findings; the benchmark harness regenerates the full tables/figures.
"""

import numpy as np
import pytest

from repro.core.autotune import autotune, exhaustive_search
from repro.graphs import datasets
from repro.graphs.datasets import matched_cpu, matched_device
from repro.kernels import create
from repro.mining.pagerank import pagerank

SCALE = 50  # paper datasets scaled down 50x for test runtime


@pytest.fixture(scope="module")
def flickr():
    return datasets.load("flickr", scale=SCALE)


@pytest.fixture(scope="module")
def flickr_device(flickr):
    return matched_device(flickr)


@pytest.fixture(scope="module")
def flickr_costs(flickr, flickr_device):
    names = ["cpu-csr", "coo", "hyb", "tile-coo", "tile-composite"]
    return {
        n: create(n, flickr.matrix, device=flickr_device).cost()
        for n in names
    }


class TestFigure2Shape:
    def test_tile_composite_speedup_over_hyb(self, flickr_costs):
        """Paper 4.1: ~1.95x average over HYB on skewed graphs."""
        ratio = (
            flickr_costs["tile-composite"].gflops
            / flickr_costs["hyb"].gflops
        )
        assert 1.4 < ratio < 2.8

    def test_tile_coo_between_coo_and_composite(self, flickr_costs):
        assert (
            flickr_costs["coo"].gflops
            < flickr_costs["tile-coo"].gflops
            <= flickr_costs["tile-composite"].gflops * 1.05
        )

    def test_small_graph_near_parity(self):
        """Paper 4.1: on Webbase/Youtube the gap shrinks to ~13-36%."""
        ds = datasets.load("youtube", scale=SCALE)
        dev = matched_device(ds)
        hyb = create("hyb", ds.matrix, device=dev).cost()
        tile = create("tile-composite", ds.matrix, device=dev).cost()
        assert 0.9 < tile.gflops / hyb.gflops < 1.6

    def test_gpu_vs_cpu_band(self, flickr_costs, flickr, flickr_device):
        """Paper: GPU kernels 13-37x over the CPU implementation."""
        cpu = create(
            "cpu-csr", flickr.matrix, device=flickr_device,
            cpu=matched_cpu(flickr),
        ).cost()
        ratio = cpu.time_seconds / flickr_costs["tile-composite"].time_seconds
        assert 8 < ratio < 80


class TestTable1Shape:
    def test_pagerank_ordering(self, flickr, flickr_device):
        times = {}
        for name in ("coo", "hyb", "tile-composite"):
            result = pagerank(
                flickr.matrix, kernel=name, device=flickr_device,
                tol=1e-8,
            )
            times[name] = result.seconds
        assert times["tile-composite"] < times["hyb"]
        assert times["tile-composite"] < times["coo"]


class TestFigure5Shape:
    def test_autotune_near_optimal(self, flickr, flickr_device):
        tuned = autotune(flickr.matrix, flickr_device)
        best = exhaustive_search(
            flickr.matrix, flickr_device, max_candidates=8
        )
        k_auto = create(
            "tile-composite", flickr.matrix, device=flickr_device,
            **tuned.as_build_kwargs(),
        )
        k_best = create(
            "tile-composite", flickr.matrix, device=flickr_device,
            **best.as_build_kwargs(),
        )
        # Figure 5(b): within a few percent of exhaustive.
        assert (
            k_auto.cost().time_seconds
            <= k_best.cost().time_seconds * 1.10
        )
        # Figure 5(a): tile counts close.
        assert abs(tuned.n_tiles - best.n_tiles) <= 2

    def test_model_predicts_absolute_performance(self, flickr,
                                                 flickr_device):
        # Figure 5(c): predictions within roughly 20-35%.
        tuned = autotune(flickr.matrix, flickr_device)
        kernel = create(
            "tile-composite", flickr.matrix, device=flickr_device,
            **tuned.as_build_kwargs(),
        )
        measured = kernel.cost().time_seconds
        assert tuned.predicted_seconds == pytest.approx(
            measured, rel=0.35
        )


class TestDiscussionClaims:
    def test_tiling_ablation(self, flickr, flickr_device):
        """Paper 5: 'The only difference between COO and tile-coo kernel
        is tiling. On power-law matrices, tile-coo performs consistently
        better than COO.'"""
        coo = create("coo", flickr.matrix, device=flickr_device).cost()
        tile = create(
            "tile-coo", flickr.matrix, device=flickr_device
        ).cost()
        assert tile.gflops > coo.gflops

    def test_tiling_marginal_on_uniform(self):
        """...and only marginally better on non-power-law matrices."""
        ds = datasets.load("circuit", scale=10)
        dev = matched_device(ds)
        coo = create("coo", ds.matrix, device=dev).cost()
        tile = create("tile-coo", ds.matrix, device=dev).cost()
        assert tile.gflops > 0.8 * coo.gflops
        assert tile.gflops < 1.6 * coo.gflops

    def test_composite_spmv_identical_results(self, flickr,
                                              flickr_device):
        x = np.random.default_rng(0).random(flickr.matrix.n_cols)
        base = flickr.matrix.spmv(x)
        tile = create(
            "tile-composite", flickr.matrix, device=flickr_device
        )
        np.testing.assert_allclose(tile.matrix.spmv(x), base, atol=1e-8)
