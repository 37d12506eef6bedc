"""Tests of the zero-allocation execution engine.

Covers the engine contracts every format must honour: cached plan
identity, bit-identical ``out=`` execution, batched SpMM equal to
column-wise SpMV (property-based, over every backend), the steady-state
zero-allocation guarantee of the workspace pool, the backend registry,
and the batched mining paths (HITS multi-vector, batched RWR) matching
their sequential counterparts exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.preprocess import plan_build_cost
from repro.errors import FormatNotApplicableError, ValidationError
from repro.exec import (
    PLAN_CACHE_STATS,
    WorkspacePool,
    available_backends,
    build_plan,
    configure_from_env,
    default_backend_name,
    get_backend,
    set_default_backend,
)
from repro.formats.base import check_vector
from repro.formats.convert import to_format
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.registry import format_names
from repro.mining.hits import hits
from repro.mining.rwr import random_walk_with_restart

# Read from repro.formats.registry, so this sweep — like the
# differential and sharded suites — follows the registry as its single
# source of truth.
ALL_FORMATS = sorted(format_names())
BACKENDS = available_backends()


def random_coo(
    n_rows: int = 40,
    n_cols: int = 40,
    nnz: int = 180,
    seed: int = 0,
) -> COOMatrix:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    data = rng.standard_normal(nnz)
    return COOMatrix.from_unsorted(rows, cols, data, (n_rows, n_cols))


def build(fmt: str, matrix: COOMatrix):
    try:
        return to_format(matrix, fmt)
    except FormatNotApplicableError:
        pytest.skip(f"{fmt} cannot represent this matrix")


@st.composite
def sparse_matrices(draw, max_dim: int = 20):
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, n_rows * n_cols))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return COOMatrix.from_unsorted(
        rng.integers(0, n_rows, size=nnz),
        rng.integers(0, n_cols, size=nnz),
        rng.standard_normal(nnz),
        (n_rows, n_cols),
    )


# ----------------------------------------------------------------------
# Plan caching
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_plan_is_built_once_and_cached(fmt):
    matrix = build(fmt, random_coo(seed=1))
    plan = matrix.spmv_plan()
    assert matrix.spmv_plan() is plan
    assert matrix.spmv_plan(default_backend_name()) is plan


def test_plan_cache_stats_count_builds_and_hits():
    matrix = CSRMatrix.from_coo(random_coo(seed=2))
    PLAN_CACHE_STATS.reset()
    matrix.spmv_plan()  # default backend: one build
    x = np.ones(matrix.n_cols)
    matrix.spmv(x)      # cache hit
    matrix.spmv(x)      # cache hit
    assert PLAN_CACHE_STATS.builds == 1
    assert PLAN_CACHE_STATS.hits == 2


def test_per_backend_plans_are_distinct_objects():
    if len(BACKENDS) < 2:
        pytest.skip("only one backend available")
    matrix = CSRMatrix.from_coo(random_coo(seed=3))
    assert matrix.spmv_plan("numpy") is not matrix.spmv_plan("scipy")
    assert matrix.spmv_plan("numpy") is matrix.spmv_plan("numpy")


# ----------------------------------------------------------------------
# out= execution: same buffer back, bit-identical values
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_spmv_out_is_bit_identical_to_allocating_path(fmt, backend):
    matrix = build(fmt, random_coo(seed=4))
    plan = matrix.spmv_plan(backend)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(matrix.n_cols)
    expected = plan.execute(x)
    buf = np.full(matrix.n_rows, np.nan)
    returned = plan.execute(x, out=buf)
    assert returned is buf
    assert np.array_equal(buf, expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_spmm_out_is_bit_identical_to_allocating_path(backend):
    matrix = CSRMatrix.from_coo(random_coo(seed=5))
    plan = matrix.spmv_plan(backend)
    rng = np.random.default_rng(10)
    X = rng.standard_normal((matrix.n_cols, 4))
    expected = plan.execute_many(X)
    buf = np.full((matrix.n_rows, 4), np.nan)
    returned = plan.execute_many(X, out=buf)
    assert returned is buf
    assert np.array_equal(buf, expected)


def test_spmv_out_validation():
    matrix = CSRMatrix.from_coo(random_coo(seed=6))
    x = np.ones(matrix.n_cols)
    with pytest.raises(ValidationError):
        matrix.spmv(x, out=np.empty(matrix.n_rows + 1))
    with pytest.raises(ValidationError):
        matrix.spmm(np.ones((matrix.n_cols + 1, 2)))


# ----------------------------------------------------------------------
# SpMM == column-wise SpMV (property-based, every format x backend)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_spmm_equals_columnwise_spmv(fmt, backend, data):
    coo = data.draw(sparse_matrices())
    try:
        matrix = to_format(coo, fmt)
    except FormatNotApplicableError:
        return
    k = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 2**31 - 1))
    X = np.random.default_rng(seed).standard_normal((matrix.n_cols, k))
    plan = matrix.spmv_plan(backend)
    Y = plan.execute_many(X)
    assert Y.shape == (matrix.n_rows, k)
    for j in range(k):
        column = plan.execute(np.ascontiguousarray(X[:, j]))
        assert np.array_equal(Y[:, j], column)


@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_spmv_matches_dense_every_backend(backend, data):
    coo = data.draw(sparse_matrices())
    seed = data.draw(st.integers(0, 2**31 - 1))
    x = np.random.default_rng(seed).standard_normal(coo.n_cols)
    plan = build_plan(coo, backend=backend)
    np.testing.assert_allclose(
        plan.execute(x), coo.to_dense() @ x, atol=1e-9
    )


# ----------------------------------------------------------------------
# Workspace pool: zero allocation in steady state
# ----------------------------------------------------------------------


def test_workspace_pool_reuses_buffers():
    pool = WorkspacePool()
    a = pool.buffer("a", 16)
    assert pool.buffer("a", 16) is a
    assert pool.allocations == 1
    b = pool.buffer("a", 32)  # shape change reallocates
    assert b is not a
    assert pool.allocations == 2
    assert pool.nbytes == 32 * 8
    pool.clear()
    assert len(pool) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_spmm_fortran_ordered_rhs_is_staged_not_copied_per_call(backend):
    """A Fortran-ordered (or non-float64) RHS is normalised once into a
    pooled workspace: bit-identical result, zero steady-state
    allocations — the silent per-call full copy is gone."""
    matrix = CSRMatrix.from_coo(random_coo(seed=15))
    plan = matrix.spmv_plan(backend)
    rng = np.random.default_rng(16)
    X_c = np.ascontiguousarray(rng.standard_normal((matrix.n_cols, 4)))
    X_f = np.asfortranarray(X_c)
    Y = np.empty((matrix.n_rows, 4))
    expected = plan.execute_many(X_c)
    assert np.array_equal(plan.execute_many(X_f, out=Y), expected)
    warm = plan.pool.allocations
    for _ in range(5):
        plan.execute_many(X_f, out=Y)
    assert plan.pool.allocations == warm
    assert np.array_equal(Y, expected)
    # Non-contiguous and non-float64 inputs go through the same staging.
    assert np.array_equal(
        plan.execute_many(X_c[:, ::2]), expected[:, ::2]
    )
    assert np.array_equal(
        plan.execute_many(X_c.astype(np.float32)),
        plan.execute_many(X_c.astype(np.float32).astype(np.float64)),
    )


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_steady_state_performs_no_pool_allocations(fmt):
    matrix = build(fmt, random_coo(seed=7))
    plan = matrix.spmv_plan("numpy")
    x = np.ones(matrix.n_cols)
    y = np.empty(matrix.n_rows)
    X = np.ones((matrix.n_cols, 3))
    Y = np.empty((matrix.n_rows, 3))
    plan.execute(x, out=y)       # warm-up allocates the workspaces
    plan.execute_many(X, out=Y)
    warm = plan.pool.allocations
    for _ in range(5):
        plan.execute(x, out=y)
        plan.execute_many(X, out=Y)
    assert plan.pool.allocations == warm


def race_matrix(fmt: str, n: int = 10_000, nnz: int = 100_000):
    if fmt in ("dia", "pkt"):
        # A band of nnz / n diagonals: few diagonals for DIA, and
        # clusters for PKT.
        offsets = np.arange(nnz // n) - nnz // (2 * n)
        rows = np.repeat(np.arange(n), offsets.size)
        cols = rows + np.tile(offsets, n)
        keep = (cols >= 0) & (cols < n)
        rows, cols = rows[keep], cols[keep]
        data = np.random.default_rng(4).standard_normal(rows.size)
        return build(fmt, COOMatrix.from_unsorted(rows, cols, data, (n, n)))
    return build(fmt, random_coo(n, n, nnz, seed=4))


@pytest.mark.parametrize("fmt", ["ell", "dia", "hyb", "pkt"])
def test_concurrent_numpy_plan_calls_do_not_share_scratch(fmt):
    """One matrix's numpy plan serves concurrent spmv and spmm callers:
    every result is bitwise equal to its one-thread reference, so no
    call's pooled scratch is overwritten by another's."""
    import sys
    import threading

    matrix = race_matrix(fmt)
    plan = matrix.spmv_plan("numpy")
    n_threads, calls = 8, 12
    rng = np.random.default_rng(5)
    xs = [rng.standard_normal(matrix.n_cols) for _ in range(n_threads)]
    Xs = [rng.standard_normal((matrix.n_cols, 2)) for _ in range(n_threads)]
    want = [plan.execute(x) for x in xs]
    want_many = [plan.execute_many(X) for X in Xs]
    mismatches = []

    def worker(t):
        y = np.empty(matrix.n_rows)
        Y = np.empty((matrix.n_rows, 2))
        try:
            for _ in range(calls):
                plan.execute(xs[t], out=y)
                plan.execute_many(Xs[t], out=Y)
                if not np.array_equal(y, want[t]):
                    mismatches.append(("spmv", t))
                if not np.array_equal(Y, want_many[t]):
                    mismatches.append(("spmm", t))
        except Exception as exc:  # noqa: BLE001 - reported below
            mismatches.append(("raised", t, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_contended_scratch_is_reused_across_thread_churn():
    """Two rounds of 8 fresh threads each hold a claim on one ELL plan's
    scratch at the same time: round 2 reuses the scratch round 1 left
    behind, so the pool holds one set per peak concurrent caller, not
    one per thread that ever contended.  Round 1's threads stay alive
    through round 2, so no thread id is reused."""
    import threading

    matrix = race_matrix("ell")
    plan = matrix.spmv_plan("numpy")
    x = np.random.default_rng(6).standard_normal(matrix.n_cols)
    want = plan.execute(x)
    alone = plan.pool.nbytes
    n_threads = 8
    buffer = plan.pool.buffer
    finish = threading.Event()
    mismatches = []

    def run_round():
        barrier = threading.Barrier(n_threads)

        def held(*args, **kwargs):
            # Every execution holds its claim until all 8 have one.
            barrier.wait(timeout=60)
            return buffer(*args, **kwargs)

        done = threading.Barrier(n_threads + 1)

        def worker():
            try:
                if not np.array_equal(plan.execute(x), want):
                    mismatches.append("spmv")
            except Exception as exc:  # noqa: BLE001 - reported below
                mismatches.append(repr(exc))
            done.wait(timeout=60)
            finish.wait(timeout=60)

        plan.pool.buffer = held
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        done.wait(timeout=60)
        plan.pool.buffer = buffer
        return threads, plan.pool.nbytes

    try:
        first, after_first = run_round()
        second, after_second = run_round()
    finally:
        finish.set()
    for thread in first + second:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in first + second)
    assert mismatches == []
    assert after_first == n_threads * alone  # the claims overlapped
    assert after_second == after_first


def test_staged_spmm_inputs_are_reused_across_thread_churn():
    """Two waves of 8 live threads call ``execute_many`` on one CSR
    plan with a Fortran-ordered ``X`` (which must be staged), all
    holding their staging buffer at once: the staged copies ride the
    scratch claims, so wave 2 reuses wave 1's and the pool keeps one
    per peak concurrent caller — not one per thread that ever
    called."""
    import threading

    matrix = race_matrix("csr", n=4096, nnz=40_000)
    plan = matrix.spmv_plan("numpy")
    X = np.asfortranarray(
        np.random.default_rng(7).standard_normal((matrix.n_cols, 4))
    )
    want = plan.execute_many(np.ascontiguousarray(X))
    n_threads = 8
    buffer = plan.pool.buffer
    finish = threading.Event()
    mismatches = []

    def staged():
        return [n for n in plan.pool._buffers if n.startswith("spmm:rhs")]

    def run_wave():
        barrier = threading.Barrier(n_threads)

        def held(name, *args, **kwargs):
            if name.startswith("spmm:rhs"):
                barrier.wait(timeout=60)
            return buffer(name, *args, **kwargs)

        done = threading.Barrier(n_threads + 1)

        def worker():
            try:
                if not np.array_equal(plan.execute_many(X), want):
                    mismatches.append("spmm")
            except Exception as exc:  # noqa: BLE001 - reported below
                mismatches.append(repr(exc))
            done.wait(timeout=60)
            finish.wait(timeout=60)

        plan.pool.buffer = held
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        done.wait(timeout=60)
        plan.pool.buffer = buffer
        return threads, len(staged())

    try:
        first, after_first = run_wave()
        second, after_second = run_wave()
    finally:
        finish.set()
    for thread in first + second:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in first + second)
    assert mismatches == []
    assert after_first == n_threads  # the stagings overlapped
    assert after_second <= n_threads


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------


def test_registry_lists_numpy_and_defaults_sanely():
    names = available_backends()
    assert "numpy" in names
    assert default_backend_name() in names
    assert get_backend("numpy").name == "numpy"
    assert get_backend().name == default_backend_name()


def test_unknown_backend_is_rejected():
    matrix = CSRMatrix.from_coo(random_coo(seed=8))
    with pytest.raises(ValidationError):
        matrix.spmv_plan("cuda")
    with pytest.raises(ValidationError):
        set_default_backend("cuda")


def test_unknown_backend_error_names_the_alternatives():
    with pytest.raises(ValidationError) as exc:
        set_default_backend("cuda")
    for name in available_backends():
        assert name in str(exc.value)


def test_env_backend_override_applies(monkeypatch):
    previous = default_backend_name()
    monkeypatch.setenv("REPRO_SPMV_BACKEND", "numpy")
    try:
        assert configure_from_env() == "numpy"
        assert default_backend_name() == "numpy"
    finally:
        set_default_backend(previous)


def test_unknown_env_backend_fails_loudly(monkeypatch):
    monkeypatch.setenv("REPRO_SPMV_BACKEND", "cuda")
    with pytest.raises(ValidationError) as exc:
        configure_from_env()
    message = str(exc.value)
    assert "REPRO_SPMV_BACKEND" in message
    for name in available_backends():
        assert name in message
    assert default_backend_name() in available_backends()


def test_unset_env_backend_is_a_no_op(monkeypatch):
    previous = default_backend_name()
    monkeypatch.delenv("REPRO_SPMV_BACKEND", raising=False)
    assert configure_from_env() == previous
    assert default_backend_name() == previous


def test_set_default_backend_round_trips():
    previous = set_default_backend("numpy")
    try:
        assert default_backend_name() == "numpy"
    finally:
        assert set_default_backend(previous) == "numpy"
    assert default_backend_name() == previous


@pytest.mark.skipif("scipy" not in BACKENDS, reason="scipy not installed")
def test_scipy_backend_matches_numpy_backend():
    matrix = CSRMatrix.from_coo(random_coo(seed=12))
    x = np.random.default_rng(13).standard_normal(matrix.n_cols)
    np.testing.assert_allclose(
        matrix.spmv_plan("scipy").execute(x),
        matrix.spmv_plan("numpy").execute(x),
        rtol=1e-12,
        atol=1e-14,
    )


@pytest.mark.skipif("scipy" not in BACKENDS, reason="scipy not installed")
def test_scipy_plan_adopts_the_coo_arrays_bitwise():
    from repro.exec.backends import ScipyCSRPlan

    coo = random_coo(n_rows=300, n_cols=250, nnz=4000, seed=14)
    adopted = ScipyCSRPlan(coo)
    copied = ScipyCSRPlan(CSRMatrix.from_coo(coo))
    assert np.shares_memory(adopted.indices, coo.cols)
    assert np.shares_memory(adopted.data, coo.data)
    assert np.array_equal(adopted.indptr, copied.indptr)
    rng = np.random.default_rng(15)
    x = rng.standard_normal(coo.n_cols)
    assert np.array_equal(adopted.execute(x), copied.execute(x))
    X = np.asfortranarray(rng.standard_normal((coo.n_cols, 5)))
    assert np.array_equal(adopted.execute_many(X), copied.execute_many(X))


# ----------------------------------------------------------------------
# check_vector fast path and cached length arrays
# ----------------------------------------------------------------------


def test_check_vector_no_copy_fast_path():
    x = np.arange(8, dtype=np.float64)
    assert check_vector(x, 8) is x
    coerced = check_vector(x[::2], 4)  # non-contiguous: copied once
    assert coerced is not x
    assert coerced.flags.c_contiguous
    assert check_vector([1.0, 2.0], 2).dtype == np.float64
    with pytest.raises(ValidationError):
        check_vector(x, 9)


def test_row_and_col_lengths_are_cached_and_read_only():
    matrix = CSRMatrix.from_coo(random_coo(seed=14))
    rl = matrix.row_lengths()
    cl = matrix.col_lengths()
    assert matrix.row_lengths() is rl
    assert matrix.col_lengths() is cl
    assert rl.sum() == matrix.nnz == cl.sum()
    with pytest.raises(ValueError):
        rl[0] = 99


# ----------------------------------------------------------------------
# Batched mining paths match the sequential ones bit for bit
# ----------------------------------------------------------------------


def mining_graph(seed: int = 21) -> COOMatrix:
    rng = np.random.default_rng(seed)
    n, m = 60, 240
    return COOMatrix.from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), (n, n)
    )


def test_hits_multi_vector_matches_single_vector():
    graph = mining_graph()
    batched = hits(graph, kernel="cpu-csr", multi_vector=True)
    single = hits(graph, kernel="cpu-csr", multi_vector=False)
    assert batched.iterations == single.iterations
    assert batched.converged == single.converged
    assert np.array_equal(batched.vector, single.vector)


def test_rwr_batched_matches_sequential():
    graph = mining_graph(seed=22)
    queries = np.array([3, 17, 41, 8])
    batched = random_walk_with_restart(
        graph, kernel="cpu-csr", queries=queries, batched=True
    )
    sequential = random_walk_with_restart(
        graph, kernel="cpu-csr", queries=queries, batched=False
    )
    assert (
        batched.extra["per_query_iterations"]
        == sequential.extra["per_query_iterations"]
    )
    assert batched.converged == sequential.converged
    assert np.array_equal(batched.vector, sequential.vector)


# ----------------------------------------------------------------------
# Plan-build cost model
# ----------------------------------------------------------------------


def test_plan_build_cost_scales_with_nnz():
    small = CSRMatrix.from_coo(random_coo(nnz=50, seed=30))
    large = CSRMatrix.from_coo(random_coo(nnz=500, seed=31))
    assert 0 < plan_build_cost(small) < plan_build_cost(large)
