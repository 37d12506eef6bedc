"""Figure 7: SpMV kernel comparison on unstructured matrices.

Expected shape (paper Appendix D): no single kernel wins everywhere;
TILE-COMPOSITE best on the dense matrix (algorithmic bandwidth above the
102 GB/s hardware peak, ~30% over CSR-vector); BSK&BDW strongest on
FEM/Harbor and Protein; HYB strong on Circuit (TILE-COMPOSITE within
~10%); DIA only applicable to the banded matrix.
"""

from harness import (
    FIG2_KERNELS,
    UNSTRUCTURED_SCALE,
    build_kernel,
    emit,
    kernel_cost,
    metric_table,
    spmv_input,
)

DATASETS = ["dense", "circuit", "fem-harbor", "lp", "protein"]


def test_fig7_tables(benchmark):
    gflops = metric_table(
        "Figure 7(a): SpMV speed on unstructured matrices (GFLOPS)",
        DATASETS, FIG2_KERNELS, UNSTRUCTURED_SCALE, "gflops",
    )
    bandwidth = metric_table(
        "Figure 7(b): SpMV bandwidth on unstructured matrices (GB/s)",
        DATASETS, FIG2_KERNELS, UNSTRUCTURED_SCALE, "bandwidth_gbs",
    )
    emit("fig7_spmv_unstructured", "\n\n".join([gflops, bandwidth]))

    kernel = build_kernel("tile-composite", "dense", UNSTRUCTURED_SCALE)
    x = spmv_input("dense", UNSTRUCTURED_SCALE)
    benchmark(kernel.matrix.spmv, x)

    # Anchor assertions from the paper's text.
    dense_tile = kernel_cost("tile-composite", "dense", UNSTRUCTURED_SCALE)
    dense_vec = kernel_cost("csr-vector", "dense", UNSTRUCTURED_SCALE)
    assert dense_tile.gflops > dense_vec.gflops, (
        "tile-composite must beat CSR-vector on the dense matrix"
    )
    assert dense_tile.bandwidth_gbs > 90, (
        "texture hits should push the dense bandwidth metric near/past peak"
    )
    circuit_tile = kernel_cost("tile-composite", "circuit",
                               UNSTRUCTURED_SCALE)
    circuit_hyb = kernel_cost("hyb", "circuit", UNSTRUCTURED_SCALE)
    assert circuit_tile.gflops > 0.8 * circuit_hyb.gflops, (
        "tile-composite should stay within ~10-20% of HYB on circuit"
    )
