"""Native (numba JIT) backend tests.

Most of this file runs **without** numba installed: the graceful-
fallback contract — a registered-but-unavailable backend resolving to
numpy everywhere a backend name is accepted — and the pure-numpy
``row_splits`` chunker are exactly what must keep working on hosts
without the JIT toolchain.  Kernel-level tests ``importorskip`` numba
and run only on the CI ``native`` leg (or a developer machine with
``pip install .[native]``).
"""

import numpy as np
import pytest

from repro.exec import ShardedExecutor, native_available, numba_versions
from repro.exec.backends import (
    available_backends,
    build_plan,
    get_backend,
)
from repro.exec.native import (
    MIN_PARALLEL_ROWS,
    NativeBackend,
    _left_justified,
    row_splits,
)
from repro.graphs.rmat import rmat_graph

from tests.conftest import random_coo


# ----------------------------------------------------------------------
# Always runnable: registration, fallback, versions
# ----------------------------------------------------------------------


class TestRegistrationAndFallback:
    def test_availability_mirrors_registry(self):
        assert ("native" in available_backends()) == native_available()

    def test_versions_dict_always_has_both_keys(self):
        versions = numba_versions()
        assert set(versions) == {"numba", "llvmlite"}
        if not native_available():
            assert versions["numba"] is None

    def test_unavailable_native_resolves_to_numpy(self):
        resolved = get_backend("native").name
        assert resolved == ("native" if native_available() else "numpy")

    def test_build_plan_accepts_native_name_everywhere(self):
        m = random_coo(40, 30, 200, seed=1)
        x = np.random.default_rng(0).random(30)
        plan = build_plan(m, "native")
        reference = build_plan(m, plan.backend)
        np.testing.assert_array_equal(plan.execute(x), reference.execute(x))
        np.testing.assert_allclose(plan.execute(x), m.to_dense() @ x)

    def test_sharded_executor_accepts_native_backend(self):
        m = rmat_graph(64, 400, seed=7)
        x = np.random.default_rng(2).random(m.n_cols)
        with ShardedExecutor(m, 2, backend="native") as ex:
            out = ex.spmv(x)
        reference = m.to_coo().spmv_plan(ex.backend).execute(x)
        np.testing.assert_array_equal(out, reference)


# ----------------------------------------------------------------------
# Always runnable: the nnz-balanced row chunker
# ----------------------------------------------------------------------


class TestRowSplits:
    def test_covers_all_rows_monotonically(self):
        m = rmat_graph(128, 900, seed=3)
        indptr = np.zeros(m.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(m.to_coo().rows, minlength=m.n_rows),
                  out=indptr[1:])
        splits = row_splits(indptr, 8)
        assert splits[0] == 0 and splits[-1] == m.n_rows
        assert np.all(np.diff(splits) > 0)
        assert splits.dtype == np.int64

    def test_balances_nnz_not_rows(self):
        # One dense row followed by many sparse ones: the cut after the
        # heavy row must come early (nnz-balanced, not row-balanced).
        indptr = np.array([0, 100, 101, 102, 103, 104], dtype=np.int64)
        splits = row_splits(indptr, 2)
        assert splits[1] == 1  # heavy row alone in the first chunk

    def test_degenerate_inputs(self):
        empty = np.array([0], dtype=np.int64)
        np.testing.assert_array_equal(row_splits(empty, 4), [0, 0])
        one = np.array([0, 5], dtype=np.int64)
        np.testing.assert_array_equal(row_splits(one, 4), [0, 1])
        many = np.array([0, 1, 2, 3], dtype=np.int64)
        np.testing.assert_array_equal(row_splits(many, 1), [0, 3])

    def test_never_splits_a_row(self):
        indptr = np.array([0, 3, 3, 10, 10, 12], dtype=np.int64)
        splits = row_splits(indptr, 3)
        # Boundaries are row indices by construction; check they index
        # into indptr (rows are atomic).
        assert np.all(splits <= 5)

    def test_left_justified_detector(self):
        assert _left_justified(np.zeros((0, 0), dtype=bool))
        assert _left_justified(
            np.array([[True, True, False], [True, False, False]])
        )
        assert not _left_justified(
            np.array([[True, False, True]])
        )


# ----------------------------------------------------------------------
# JIT leg: requires numba (CI `native` job / .[native] extra)
# ----------------------------------------------------------------------


class TestCompiledKernels:
    @pytest.fixture(autouse=True)
    def _need_numba(self):
        pytest.importorskip("numba")
        if not native_available():  # pragma: no cover - compile failure
            pytest.skip("numba importable but kernels failed to compile")

    def test_dispatch_picks_specialised_plans(self):
        from repro.exec.native import (
            NativeCSRPlan,
            NativeELLPlan,
            NativeSegPlan,
        )
        from repro.formats.convert import to_format

        m = rmat_graph(64, 400, seed=7)
        backend = NativeBackend()
        assert isinstance(
            backend.build_plan(to_format(m, "csr")), NativeCSRPlan
        )
        ell = to_format(m, "ell")
        expected = (
            NativeELLPlan if _left_justified(ell.valid) else NativeSegPlan
        )
        assert isinstance(backend.build_plan(ell), expected)
        assert isinstance(backend.build_plan(m), NativeSegPlan)

    @pytest.mark.parametrize("fmt", ["coo", "csr", "ell"])
    def test_kernels_bitwise_match_native_reference(self, fmt):
        from repro.formats.convert import to_format

        m = rmat_graph(96, 700, seed=11)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(m.n_cols)
        X = rng.standard_normal((m.n_cols, 3))
        reference = m.to_coo().spmv_plan("native")
        plan = to_format(m, fmt).spmv_plan("native")
        np.testing.assert_array_equal(
            plan.execute(x), reference.execute(x)
        )
        np.testing.assert_array_equal(
            plan.execute_many(X), reference.execute_many(X)
        )
        np.testing.assert_allclose(
            plan.execute(x), m.to_dense() @ x, rtol=1e-12, atol=1e-13
        )

    def test_parallel_rowsplit_is_bitwise_equal_to_serial(self):
        from repro.exec.native import NativeCSRPlan
        from repro.formats.csr import CSRMatrix

        m = rmat_graph(MIN_PARALLEL_ROWS, MIN_PARALLEL_ROWS * 4, seed=5)
        csr = CSRMatrix.from_coo(m.to_coo())
        x = np.random.default_rng(9).standard_normal(m.n_cols)
        serial = NativeCSRPlan(csr, parallel=False)
        parallel = NativeCSRPlan(csr, parallel=True)
        # Row-split boundaries never split a row, so chunked execution
        # preserves every row's serial reduction bit for bit.
        np.testing.assert_array_equal(
            parallel.execute(x), serial.execute(x)
        )

    def test_empty_matrix_native_plan(self):
        from repro.formats.coo import COOMatrix

        empty = np.array([], dtype=np.int64)
        m = COOMatrix.from_unsorted(
            empty, empty, np.array([], dtype=np.float64), (5, 4)
        )
        plan = m.spmv_plan("native")
        out = plan.execute(np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(5))
