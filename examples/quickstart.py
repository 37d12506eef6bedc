"""Quickstart: build a power-law matrix, run SpMV kernels, compare.

Usage::

    python examples/quickstart.py

Builds a scaled Flickr analogue, computes one exact SpMV, prices it
with several kernels, and prints each kernel's simulated performance
profile on the matched Tesla-C1060-class device — a miniature Figure 2.
"""

import numpy as np

from repro import kernels
from repro.graphs import datasets
from repro.plotting import ascii_table


def main() -> None:
    # A scaled analogue of the paper's Flickr crawl (50x smaller).
    dataset = datasets.load("flickr", scale=50)
    matrix = dataset.matrix
    print(f"Loaded {dataset.name}: {matrix.shape[0]:,} nodes, "
          f"{matrix.nnz:,} edges (paper original: "
          f"{dataset.paper_shape[0]:,} nodes, {dataset.paper_shape[2]:,})")

    # The simulated device, scaled to match the dataset (the cache /
    # working-set and work / overhead ratios mirror the paper's runs).
    device = datasets.matched_device(dataset)
    print(f"Simulated device: {device.name}, "
          f"{device.texture_cache_bytes // 1024} KB texture cache, "
          f"tile width {device.tile_width_columns} columns\n")

    x = np.random.default_rng(0).random(matrix.n_cols)
    reference = matrix.spmv(x)             # exact product

    rows = []
    for name in ["cpu-csr", "csr", "coo", "hyb",
                 "tile-coo", "tile-composite"]:
        kernel = kernels.create(name, matrix, device=device)
        cost = kernel.cost()               # simulated performance
        rows.append([name, cost.gflops, cost.bandwidth_gbs,
                     cost.time_seconds * 1e3])

    print(ascii_table(
        ["kernel", "GFLOPS", "GB/s", "time (ms)"],
        rows,
        title="One SpMV on the flickr analogue (simulated C1060)",
        precision=3,
    ))

    tile = kernels.create("tile-composite", matrix, device=device)
    # The tiled storage computes the same product as the matrix.
    assert np.allclose(tile.matrix.spmv(x), reference)
    hyb = kernels.create("hyb", matrix, device=device)
    speedup = hyb.cost().time_seconds / tile.cost().time_seconds
    print(f"\ntile-composite speedup over NVIDIA HYB: {speedup:.2f}x "
          "(paper reports ~1.95x on power-law graphs)")


if __name__ == "__main__":
    main()
