"""Figure 2: SpMV kernel comparison on power-law matrices.

Regenerates Figure 2(a) (GFLOPS) and 2(b) (GB/s) over the five
power-law datasets of Table 2.  Expected shape (paper 4.1): TILE-COO
and TILE-COMPOSITE dominate on Flickr/LiveJournal/Wikipedia
(~1.95x average over HYB); COO/HYB close the gap on Webbase/Youtube
(~13-36%); DIA/PKT/ELL fail on power-law inputs.
"""

import pytest

from harness import (
    FIG2_KERNELS,
    GRAPH_SCALE,
    build_kernel,
    emit,
    kernel_cost,
    metric_table,
    spmv_input,
)

DATASETS = ["webbase", "flickr", "livejournal", "wikipedia", "youtube"]


def test_fig2_tables(benchmark):
    gflops = metric_table(
        "Figure 2(a): SpMV speed on power-law matrices (GFLOPS)",
        DATASETS, FIG2_KERNELS, GRAPH_SCALE, "gflops",
    )
    bandwidth = metric_table(
        "Figure 2(b): SpMV bandwidth on power-law matrices (GB/s)",
        DATASETS, FIG2_KERNELS, GRAPH_SCALE, "bandwidth_gbs",
    )
    speedups = []
    for name in DATASETS:
        tile = kernel_cost("tile-composite", name, GRAPH_SCALE)
        hyb = kernel_cost("hyb", name, GRAPH_SCALE)
        speedups.append([name, tile.gflops / hyb.gflops])
    from repro.plotting import ascii_table

    summary = ascii_table(
        ["dataset", "tile-composite / hyb"],
        speedups,
        title="Headline speedup over NVIDIA's best kernel "
        "(paper: 1.95x avg on flickr/livejournal/wikipedia)",
    )
    emit("fig2_spmv_powerlaw", "\n\n".join([gflops, bandwidth, summary]))

    kernel = build_kernel("tile-composite", "flickr", GRAPH_SCALE)
    x = spmv_input("flickr", GRAPH_SCALE)
    benchmark(kernel.matrix.spmv, x)

    big = [s for name, s in speedups
           if name in ("flickr", "livejournal", "wikipedia")]
    assert min(big) > 1.4, "tile-composite lost its headline speedup"


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig2_spmv_wallclock(benchmark, dataset):
    """Wall-clock regression of the functional tile-composite SpMV."""
    kernel = build_kernel("tile-composite", dataset, GRAPH_SCALE)
    x = spmv_input(dataset, GRAPH_SCALE)
    benchmark(kernel.matrix.spmv, x)
