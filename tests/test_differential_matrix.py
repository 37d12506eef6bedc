"""Differential correctness harness: formats × backends × shards.

One reference per (matrix, backend) — the COO plan, the canonical
row-serial reduction — and every other configuration is diffed against
it:

* the :class:`~repro.exec.ShardedExecutor` must match **bit for bit**
  for every input format and every shard count (1, 2, 4, ``"auto"``),
  for both ``spmv`` and ``spmm`` — shards execute canonical row-sorted
  COO slices, so parallelism and storage format must both be invisible
  in the numbers;
* the direct per-format plan must match bitwise wherever it runs the
  same reduction (the SciPy backend for every format; COO/CSR/CSC on
  numpy) and within a last-ulp tolerance elsewhere (ELL/HYB/PKT numpy
  plans associate the same per-row products differently);
* everything is cross-checked against the dense ``A @ x`` product.

The matrix zoo deliberately spans the paper's regimes and the
pathological corners: R-MAT and Chung–Lu power-law graphs, a banded
DIA-representable matrix, empty rows, one dense row dominating, the
all-zero matrix, and 1×1.
"""

import functools

import numpy as np
import pytest

from repro.exec import ShardedExecutor, available_backends
from repro.formats.coo import COOMatrix
from repro.formats.registry import format_names, specs
from repro.graphs.chung_lu import chung_lu_graph
from repro.graphs.rmat import rmat_graph
from repro.graphs.synthetic import banded_matrix
from tests.test_exec_engine import build

# Registry-derived sweep: a newly registered format joins every
# differential row automatically (same source of truth as the exec and
# sharded suites).
ALL_FORMATS = sorted(format_names())
#: Formats whose numpy plan declares the canonical reduceat reduction
#: order — bitwise against the COO reference even on numpy.
BITWISE_FORMATS = {spec.name for spec in specs() if spec.bitwise}
BACKENDS = available_backends()
SHARD_COUNTS = [1, 2, 4, "auto"]
N_RHS = 3


def _empty_rows_matrix() -> COOMatrix:
    """Rows 1, 2, 4 and 6 have no entries at all."""
    rows = np.array([0, 0, 3, 3, 5, 5, 5], dtype=np.int64)
    cols = np.array([1, 4, 0, 2, 3, 4, 5], dtype=np.int64)
    data = np.array([1.5, -2.0, 0.25, 3.0, -1.0, 4.0, 0.5])
    return COOMatrix.from_unsorted(rows, cols, data, (7, 6))


def _single_dense_row_matrix() -> COOMatrix:
    """One row holds a full stripe; the rest are near-empty."""
    n = 9
    dense_row = np.full(n, 2, dtype=np.int64)
    rows = np.concatenate([dense_row, [0, 4, 8]])
    cols = np.concatenate([np.arange(n), [3, 4, 0]])
    rng = np.random.default_rng(21)
    data = rng.standard_normal(rows.size)
    return COOMatrix.from_unsorted(rows, cols, data, (n, n))


def _all_zero_matrix() -> COOMatrix:
    empty = np.array([], dtype=np.int64)
    return COOMatrix.from_unsorted(
        empty, empty, np.array([], dtype=np.float64), (7, 5)
    )


def _one_by_one_matrix() -> COOMatrix:
    return COOMatrix.from_unsorted(
        np.array([0], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([2.5]),
        (1, 1),
    )


CASES = {
    "rmat": lambda: rmat_graph(96, 512, seed=3),
    "chung_lu": lambda: chung_lu_graph(80, 400, seed=5),
    "banded": lambda: banded_matrix(64, 2, 3, seed=9),
    "empty_rows": _empty_rows_matrix,
    "single_dense_row": _single_dense_row_matrix,
    "all_zero": _all_zero_matrix,
    "one_by_one": _one_by_one_matrix,
}


@functools.lru_cache(maxsize=None)
def case_matrix(name: str) -> COOMatrix:
    return CASES[name]()


@functools.lru_cache(maxsize=None)
def case_inputs(name: str):
    """Deterministic x / X / dense reference products for a case."""
    coo = case_matrix(name)
    rng = np.random.default_rng(sorted(CASES).index(name) + 100)
    x = rng.standard_normal(coo.n_cols)
    X = rng.standard_normal((coo.n_cols, N_RHS))
    dense = coo.to_dense()
    return x, X, dense @ x, dense @ X


@functools.lru_cache(maxsize=None)
def reference(name: str, backend: str):
    """The canonical products for a case on one backend: the COO plan."""
    coo = case_matrix(name)
    x, X, _, _ = case_inputs(name)
    plan = coo.spmv_plan(backend)
    return plan.execute(x), plan.execute_many(X)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_reference_matches_dense(case, backend):
    ref_v, ref_m = reference(case, backend)
    _x, _X, dense_v, dense_m = case_inputs(case)
    np.testing.assert_allclose(ref_v, dense_v, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(ref_m, dense_m, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_sharded_bit_identical_for_every_format_and_count(
    case, fmt, backend
):
    matrix = build(fmt, case_matrix(case))
    x, X, _, _ = case_inputs(case)
    ref_v, ref_m = reference(case, backend)
    for n_shards in SHARD_COUNTS:
        with ShardedExecutor(matrix, n_shards, backend=backend) as ex:
            out_v = ex.spmv(x)
            out_m = ex.spmm(X)
        label = f"{case}/{fmt}/{backend} with {n_shards} shards"
        assert np.array_equal(out_v, ref_v), f"spmv diverged: {label}"
        assert np.array_equal(out_m, ref_m), f"spmm diverged: {label}"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_direct_plan_differential(case, fmt, backend):
    """Per-format plans vs the COO reference, bitwise where the
    reduction order is shared, last-ulp tolerance where it is not."""
    matrix = build(fmt, case_matrix(case))
    x, X, _, _ = case_inputs(case)
    ref_v, ref_m = reference(case, backend)
    plan = matrix.spmv_plan(backend)
    out_v = plan.execute(x)
    out_m = plan.execute_many(X)
    if backend in ("scipy", "native") or fmt in BITWISE_FORMATS:
        # scipy runs csr_matvec everywhere; the native kernels
        # accumulate each row serially in ascending column order —
        # both share the canonical reduction, so every format is
        # bitwise.  On numpy, formats whose spec declares
        # ``bitwise=True`` (COO/CSR/CSC and the load-balanced zoo)
        # reproduce the reduceat order exactly; the ELL/HYB/DIA/PKT
        # plans associate the same per-row products differently:
        # last-ulp only.
        assert np.array_equal(out_v, ref_v)
        assert np.array_equal(out_m, ref_m)
    else:
        np.testing.assert_allclose(out_v, ref_v, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(out_m, ref_m, rtol=1e-12, atol=1e-14)
