"""Every kernel's format must compute the exact product on every
matrix class.

A kernel only prices; the product belongs to the storage it models:
the registered format of that name (``to_format``), or the kernel's own
tiled storage (``kernel.matrix``) for the tile kernels.
"""

import numpy as np
import pytest

from repro.errors import FormatNotApplicableError, ValidationError
from repro.formats.convert import to_format
from repro.graphs.chung_lu import chung_lu_graph
from repro.graphs.synthetic import (
    banded_matrix,
    dense_matrix,
    lp_matrix,
    protein_matrix,
    uniform_random_matrix,
)
from repro.kernels import available_kernels, create

from tests.conftest import random_coo

ALL_KERNELS = available_kernels()

#: The registered format each non-tiled kernel executes on.
KERNEL_FORMATS = {
    "cpu-csr": "csr",
    "csr": "csr",
    "csr-vector": "csr",
    "bsk-bdw": "csr",
    "coo": "coo",
    "ell": "ell",
    "hyb": "hyb",
    "dia": "dia",
    "pkt": "pkt",
}
TILE_KERNELS = ("tile-coo", "tile-composite")


def kernel_format(kernel):
    """The storage whose exact product ``kernel`` prices."""
    if kernel.name in TILE_KERNELS:
        return kernel.matrix
    return to_format(kernel.coo, KERNEL_FORMATS[kernel.name])

MATRICES = {
    "powerlaw": lambda: chung_lu_graph(800, 6000, seed=1),
    "uniform": lambda: uniform_random_matrix(300, 300, 2500, seed=2),
    "banded": lambda: banded_matrix(200, 4, 6, seed=3),
    "dense": lambda: dense_matrix(48, seed=4),
    "blocky": lambda: protein_matrix(200, block_size=16, seed=5),
    "rect": lambda: lp_matrix(40, 500, 4000, seed=6),
}


@pytest.mark.parametrize("kernel_name", ALL_KERNELS)
@pytest.mark.parametrize("matrix_name", sorted(MATRICES))
def test_kernel_spmv_exact(kernel_name, matrix_name, small_cache_device):
    matrix = MATRICES[matrix_name]()
    x = np.random.default_rng(7).random(matrix.n_cols)
    try:
        kernel = create(kernel_name, matrix, device=small_cache_device)
    except FormatNotApplicableError:
        pytest.skip(f"{kernel_name} not applicable to {matrix_name}")
    expected = matrix.to_dense() @ x
    np.testing.assert_allclose(
        kernel_format(kernel).spmv(x), expected, atol=1e-9
    )


def test_every_kernel_names_its_format():
    assert set(KERNEL_FORMATS) | set(TILE_KERNELS) == set(ALL_KERNELS)


@pytest.mark.parametrize("kernel_name", ALL_KERNELS)
def test_kernel_cost_positive(kernel_name, powerlaw_matrix,
                              small_cache_device):
    try:
        kernel = create(kernel_name, powerlaw_matrix,
                        device=small_cache_device)
    except FormatNotApplicableError:
        pytest.skip("not applicable")
    cost = kernel.cost()
    assert cost.time_seconds > 0
    assert cost.flops == 2 * powerlaw_matrix.nnz
    assert cost.gflops > 0
    assert cost.bandwidth_gbs > 0


@pytest.mark.parametrize("kernel_name", ALL_KERNELS)
def test_kernel_cost_memoised(kernel_name, powerlaw_matrix,
                              small_cache_device):
    try:
        kernel = create(kernel_name, powerlaw_matrix,
                        device=small_cache_device)
    except FormatNotApplicableError:
        pytest.skip("not applicable")
    assert kernel.cost() is kernel.cost()


def test_create_rejects_unknown():
    with pytest.raises(ValidationError):
        create("no-such-kernel", random_coo(4, 4, 6))


def test_create_rejects_non_matrix():
    with pytest.raises(ValidationError):
        create("coo", np.zeros((4, 4)))


def test_registry_contains_paper_kernels():
    expected = {
        "cpu-csr", "csr", "csr-vector", "bsk-bdw", "coo", "ell",
        "hyb", "dia", "pkt", "tile-coo", "tile-composite",
    }
    assert expected <= set(ALL_KERNELS)


def test_kernel_default_device():
    kernel = create("coo", random_coo(10, 10, 30))
    assert kernel.device.name == "tesla-c1060"


def test_tile_composite_explicit_params(powerlaw_matrix, small_cache_device):
    kernel = create(
        "tile-composite",
        powerlaw_matrix,
        device=small_cache_device,
        n_tiles=2,
    )
    assert kernel.n_tiles == 2
    x = np.ones(powerlaw_matrix.n_cols)
    np.testing.assert_allclose(
        kernel.matrix.spmv(x), powerlaw_matrix.spmv(x), atol=1e-9
    )


def test_tile_coo_explicit_tiles(powerlaw_matrix, small_cache_device):
    kernel = create(
        "tile-coo", powerlaw_matrix, device=small_cache_device, n_tiles=1
    )
    assert kernel.n_tiles == 1
    x = np.ones(powerlaw_matrix.n_cols)
    np.testing.assert_allclose(
        kernel.matrix.spmv(x), powerlaw_matrix.spmv(x), atol=1e-9
    )


def test_empty_matrix_kernels():
    from repro.formats.coo import COOMatrix

    empty = COOMatrix([], [], [], (10, 10))
    for name in ("coo", "csr", "hyb", "cpu-csr"):
        kernel = create(name, empty)
        assert np.allclose(kernel_format(kernel).spmv(np.ones(10)), 0.0)
        assert kernel.cost().time_seconds >= 0
