"""SpMV kernels: simulated GPU cost models of one product.

Every kernel the paper compares is here:

==================  ====================================================
``cpu-csr``         single-core CPU baseline (Appendix D)
``csr``             CSR scalar, one thread per row
``csr-vector``      CSR vector, one warp per row
``bsk-bdw``         Baskaran & Bordawekar's half-warp CSR
``coo``             NVIDIA COO with segmented reduction
``ell``             ELLPACK (refuses skewed matrices)
``hyb``             NVIDIA hybrid ELL + COO
``dia``             diagonal (banded matrices only)
``pkt``             packet/clustered (fails on power-law, as reported)
``tile-coo``        the paper's tiling with COO tiles           (ours)
``tile-composite``  tiling + composite CSR/ELL workloads        (ours)
==================  ====================================================

Use :func:`create`; the exact product is the matrix's own::

    kernel = kernels.create("tile-composite", matrix, tuned=True)
    print(kernel.cost().summary())
    y = matrix.spmv(x)                # or kernel.matrix.spmv(x), the tiles
"""

from repro.kernels import calibration
from repro.kernels.base import SpMVKernel, available_kernels, create, register
from repro.kernels.bsk_bdw import BSKBDWKernel
from repro.kernels.coo import COOKernel
from repro.kernels.cpu_csr import CPUCSRKernel
from repro.kernels.csr_scalar import CSRScalarKernel
from repro.kernels.csr_vector import CSRVectorKernel
from repro.kernels.dia import DIAKernel
from repro.kernels.ell import ELLKernel
from repro.kernels.hyb import HYBKernel
from repro.kernels.pkt import PKTKernel

__all__ = [
    "BSKBDWKernel",
    "COOKernel",
    "CPUCSRKernel",
    "CSRScalarKernel",
    "CSRVectorKernel",
    "DIAKernel",
    "ELLKernel",
    "HYBKernel",
    "PKTKernel",
    "SpMVKernel",
    "available_kernels",
    "calibration",
    "create",
    "register",
]
