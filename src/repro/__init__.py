"""Reproduction of *Fast Sparse Matrix-Vector Multiplication on GPUs:
Implications for Graph Mining* (Yang, Parthasarathy, Sadayappan; VLDB 2011).

The package is organised as:

``repro.gpu``
    A performance simulator of a CUDA-class device (Tesla C1060 by
    default).  It models the mechanisms the paper's optimisations exploit:
    texture-cache locality, memory coalescing, partition camping, thread
    divergence and warp load imbalance.
``repro.formats``
    Sparse matrix storage formats implemented from scratch on NumPy
    arrays: COO, CSR, CSC, ELL, HYB, DIA and PKT.
``repro.kernels``
    SpMV kernels.  Every kernel both *computes* ``y = A @ x`` exactly and
    *estimates* its running time on a simulated device.
``repro.core``
    The paper's contribution: column reordering, partial tiling,
    composite (CSR+ELL) workload storage, partition-camping padding, the
    offline/online performance model and the parameter auto-tuner.
``repro.multigpu``
    Bitonic row partitioning and a multi-GPU cluster simulator for
    out-of-core matrices.
``repro.mining``
    PageRank, HITS and Random Walk with Restart on top of the SpMV
    kernels.
``repro.graphs``
    Synthetic dataset generators standing in for the paper's web/social
    graphs and unstructured matrices.
``repro.obs``
    Observability: metrics registry, trace spans and per-iteration
    convergence records, zero-overhead while disabled (``REPRO_OBS``).
``repro.tuner``
    Measured end-to-end auto-tuning: model-pruned ``format x backend x
    shard-count`` candidates timed with short real SpMV runs, decisions
    persisted in an on-disk cache (``REPRO_TUNER_CACHE``).

Quickstart::

    from repro import datasets, kernels, gpu

    matrix = datasets.load("flickr")          # scaled Flickr analogue
    device = gpu.DeviceSpec.tesla_c1060()
    y = matrix.spmv(x)                        # exact product
    kernel = kernels.create("tile-composite", matrix, device=device)
    report = kernel.cost()                    # simulated performance
    print(report.gflops, report.bandwidth_gbs)
"""

from repro import core, formats, gpu, graphs, kernels, mining, multigpu, tuner
from repro.formats import COOMatrix, CSCMatrix, CSRMatrix
from repro.gpu import CostReport, DeviceSpec
from repro.graphs import datasets
from repro.version import __version__

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "CostReport",
    "DeviceSpec",
    "__version__",
    "core",
    "datasets",
    "formats",
    "gpu",
    "graphs",
    "kernels",
    "mining",
    "multigpu",
    "tuner",
]
