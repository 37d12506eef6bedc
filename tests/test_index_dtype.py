"""The one index rule: 32-bit indices from the source, one width per plan.

COO, CSR and CSC index arrays are born int32 when ``n_rows``, ``n_cols``
and nnz all lie below ``2**31`` and int64 otherwise, and ``indptr``
always takes the dtype of the indices it points into.  SciPy's kernels
accept mixed widths silently and upcast both arrays on every call, so
the tests below check every plan that runs a matrix built from COO,
from CSR and from a ``DynamicMatrix`` — SciPy CSR and CSC plans, numpy
plans and sharded-executor pieces — and the int64 path end to end.

A real dimension above ``2**31`` makes every SpMV vector of that length
(16 GiB), so the wide path runs through SpMV, PageRank and a sharded
run with the rule's bound lowered; matrices with a genuine column count
above ``2**31`` are checked where no vector is needed.
"""

import numpy as np
import pytest

from repro.exec import ShardedExecutor, build_plan
from repro.exec.backends import ScipyCSCPlan, ScipyCSRPlan
from repro.exec.plan import COOPlan, CSRPlan
from repro.formats import base as base_mod
from repro.formats.base import as_index, index_dtype
from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.csr import CSRMatrix
from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream
from repro.graphs.rmat import rmat_graph
from repro.mining.pagerank import pagerank, pagerank_csc, pagerank_operator

WIDE = 2**31 + 5


def random_coo(n_rows=300, n_cols=280, nnz=3000, seed=1) -> COOMatrix:
    rng = np.random.default_rng(seed)
    return COOMatrix.from_unsorted(
        rng.integers(0, n_rows, size=nnz),
        rng.integers(0, n_cols, size=nnz),
        rng.standard_normal(nnz),
        (n_rows, n_cols),
    )


def one_width(plan) -> np.dtype:
    """The single index dtype of a SciPy plan (fails on mixed widths)."""
    assert plan.indptr.dtype == plan.indices.dtype, (
        plan.indptr.dtype, plan.indices.dtype,
    )
    return plan.indptr.dtype


def sources():
    """One matrix of each birth: from COO, from CSR, from an updated
    ``DynamicMatrix`` (overlay live)."""
    coo = random_coo()
    dyn = DynamicMatrix(CSRMatrix.from_coo(random_coo(seed=2)), nnz_delta=1.0)
    dyn.apply_updates(seeded_update_stream(dyn, 40, seed=3))
    assert dyn.overlay_nnz > 0
    return {"coo": coo, "csr": CSRMatrix.from_coo(coo), "dynamic": dyn}


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------


def test_rule_is_int32_below_two_to_the_31():
    assert index_dtype(0) == np.int32
    assert index_dtype(2**31 - 1, 5, 7) == np.int32
    assert index_dtype(2**31, 5, 7) == np.int64
    assert index_dtype(5, 5, 2**31) == np.int64


def test_narrowing_never_wraps_an_out_of_range_index():
    wrapped = np.array([0, 2**32 + 3], dtype=np.int64)
    kept = as_index(wrapped, np.dtype(np.int32))
    assert kept.dtype == np.int64 and kept[1] == 2**32 + 3
    with pytest.raises(Exception, match="out of range"):
        COOMatrix(wrapped, np.zeros(2, dtype=np.int64), np.ones(2), (10, 10))
    narrowed = as_index(np.array([0, 9], dtype=np.int64), np.dtype(np.int32))
    assert narrowed.dtype == np.int32


def test_formats_are_born_int32():
    coo = random_coo()
    assert coo.rows.dtype == coo.cols.dtype == np.int32
    csr = CSRMatrix.from_coo(coo)
    csc = CSCMatrix.from_coo(coo)
    for m in (csr, csc):
        assert m.indptr.dtype == m.indices.dtype == np.int32
    assert csr.to_coo().rows.dtype == csc.to_coo().cols.dtype == np.int32
    sub = csr.select_rows(np.array([5, 1, 7]))
    assert sub.indptr.dtype == sub.indices.dtype == np.int32
    graph = rmat_graph(512, 4096, seed=1)
    assert graph.rows.dtype == graph.cols.dtype == np.int32
    op = pagerank_csc(graph)
    assert op.indptr.dtype == op.indices.dtype == np.int32


# ----------------------------------------------------------------------
# Every plan holds one index width
# ----------------------------------------------------------------------


@pytest.mark.parametrize("source", ["coo", "csr", "dynamic"])
def test_scipy_plans_hold_one_width(source):
    matrix = sources()[source]
    plan = matrix.spmv_plan("scipy")
    if source == "dynamic":
        plans = [plan.base_plan, plan.sub_plan]
    else:
        plans = [plan]
    for p in plans:
        assert isinstance(p, ScipyCSRPlan)
        assert one_width(p) == np.int32
    csc = CSCMatrix.from_coo(matrix.to_coo())
    plan = csc.spmv_plan("scipy")
    assert isinstance(plan, ScipyCSCPlan)
    assert one_width(plan) == np.int32


@pytest.mark.parametrize("source", ["coo", "csr", "dynamic"])
def test_scipy_spmm_runs_one_wide_pair(source):
    """``csr_matvecs`` runs faster on int64: the batched CSR path
    widens both arrays once, and stays bitwise the column-wise
    ``spmv``."""
    matrix = sources()[source]
    plan = matrix.spmv_plan("scipy")
    X = np.random.default_rng(8).random((matrix.n_cols, 8))
    Y = plan.execute_many(X)
    inner = plan.sub_plan if source == "dynamic" else plan
    indptr, indices = inner._batch_indices()
    assert indptr.dtype == indices.dtype == np.int64
    assert inner._batch_indices()[1] is indices
    assert one_width(inner) == np.int32
    for j in range(X.shape[1]):
        assert np.array_equal(Y[:, j], plan.execute(X[:, j].copy()))


@pytest.mark.parametrize("source", ["coo", "csr"])
def test_numpy_plans_gather_from_the_formats_own_indices(source):
    matrix = sources()[source]
    plan = matrix.spmv_plan("numpy")
    assert isinstance(plan, (COOPlan, CSRPlan))
    own = matrix.cols if source == "coo" else matrix.indices
    assert plan.gather_cols.dtype == np.int32
    assert np.shares_memory(plan.gather_cols, own)
    x = np.random.default_rng(4).random(matrix.n_cols)
    y = np.empty(matrix.n_rows)
    plan.execute(x, out=y)
    # ``np.take`` indexes in intp: the plan widens once, on first use.
    widened = plan._gather
    plan.execute(x, out=y)
    assert plan._gather is widened and widened.dtype == np.intp
    # Bitwise the numpy plan of the same matrix held in int64.
    csr = CSRMatrix.from_coo(matrix.to_coo())
    legacy = CSRPlan(CSRMatrix._from_trusted_parts(
        csr.indptr.astype(np.int64), csr.indices.astype(np.int64),
        csr.data, csr.shape,
    ))
    assert np.array_equal(y, legacy.execute(x))


@pytest.mark.parametrize("source", ["coo", "csr", "dynamic"])
def test_executor_pieces_hold_one_width(source):
    matrix = sources()[source]
    with ShardedExecutor(matrix, 3, backend="scipy") as ex:
        assert ex._csr.indptr.dtype == ex._csr.indices.dtype == np.int32
        for piece in ex._pieces:
            assert piece.matrix.indptr.dtype == np.int32
            assert piece.matrix.indices.dtype == np.int32
            assert one_width(piece.plan) == np.int32
        x = np.random.default_rng(5).random(matrix.n_cols)
        assert np.array_equal(
            ex.spmv(x), matrix.spmv_plan("scipy").execute(x)
        )


def test_dynamic_overlay_and_compaction_keep_one_width():
    dyn = sources()["dynamic"]
    x = np.random.default_rng(6).random(dyn.n_cols)
    live = dyn.spmv(x)
    merged = dyn.to_coo()
    assert merged.rows.dtype == merged.cols.dtype == np.int32
    dyn.compact()
    assert dyn.overlay_nnz == 0
    base = dyn.base
    assert base.indptr.dtype == base.indices.dtype == np.int32
    assert np.array_equal(dyn.spmv(x), live)


# ----------------------------------------------------------------------
# The int64 path
# ----------------------------------------------------------------------


def test_a_column_count_past_two_to_the_31_builds_int64():
    rows = np.array([0, 0, 2, 3])
    cols = np.array([1, WIDE - 1, 7, 2**31 + 1])
    coo = COOMatrix.from_unsorted(rows, cols, np.arange(1.0, 5.0), (4, WIDE))
    assert coo.rows.dtype == coo.cols.dtype == np.int64
    assert coo.cols[1] == WIDE - 1  # not wrapped
    # (A CSC of this matrix holds an O(columns) ``indptr``: 16 GiB.)
    csr = CSRMatrix.from_coo(coo)
    assert csr.indptr.dtype == csr.indices.dtype == np.int64
    assert one_width(build_plan(csr, backend="scipy")) == np.int64
    back = csr.to_coo()
    assert np.array_equal(back.cols, coo.cols)
    with ShardedExecutor(coo, 2, backend="scipy") as ex:
        assert ex._pieces
        for piece in ex._pieces:
            assert piece.matrix.indptr.dtype == np.int64
            assert one_width(piece.plan) == np.int64


@pytest.fixture
def low_bound(monkeypatch):
    """Lower the rule's bound so a small matrix takes the int64 path."""
    monkeypatch.setattr(base_mod, "_INT32_BOUND", 100)


def wide_graph():
    return rmat_graph(400, 3000, seed=9)


@pytest.mark.parametrize("backend", ["scipy", "numpy"])
def test_int64_path_end_to_end_is_bitwise(backend):
    narrow = wide_graph()
    x = np.random.default_rng(7).random(narrow.n_cols)
    expected_spmv = narrow.spmv_plan(backend).execute(x)
    expected_pr = pagerank(narrow, tol=1e-10, n_shards=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base_mod, "_INT32_BOUND", 100)
        wide = wide_graph()
        assert wide.rows.dtype == wide.cols.dtype == np.int64
        assert np.array_equal(wide.spmv_plan(backend).execute(x),
                              expected_spmv)
        csr = CSRMatrix.from_coo(pagerank_operator(wide))
        assert csr.indptr.dtype == csr.indices.dtype == np.int64
        with ShardedExecutor(wide, 3, backend=backend) as ex:
            for piece in ex._pieces:
                assert piece.matrix.indptr.dtype == np.int64
                assert piece.matrix.indices.dtype == np.int64
            assert np.array_equal(ex.spmv(x), expected_spmv)
        for n_shards in (1, 2):
            result = pagerank(wide, tol=1e-10, n_shards=n_shards)
            assert result.iterations == expected_pr.iterations
            assert np.array_equal(result.vector, expected_pr.vector)
        entry = wide.__dict__["_mining_setup"]["pagerank"]
        assert entry.operator.rows.dtype == np.int64
        for executor in entry.executors.values():
            for piece in executor._pieces:
                assert piece.matrix.indptr.dtype == np.int64


def test_wide_dynamic_matrix_keeps_int64(low_bound):
    dyn = DynamicMatrix(CSRMatrix.from_coo(wide_graph()), nnz_delta=1.0)
    dyn.apply_updates(seeded_update_stream(dyn, 30, seed=4))
    plan = dyn.spmv_plan("scipy")
    assert one_width(plan.sub_plan) == np.int64
    assert dyn.to_coo().rows.dtype == np.int64


# ----------------------------------------------------------------------
# Keys past 2**31
# ----------------------------------------------------------------------


def test_dynamic_keys_past_two_to_the_31_stay_bitwise():
    """(row, col) keys of a 70,000-square matrix reach ~4.9e9: built in
    int32 they would wrap and misplace updates."""
    n = 70_000
    rng = np.random.default_rng(11)
    # Keys spread over [0, 4.9e9]: wrapped to 32 bits, they lose order.
    rows = np.concatenate([rng.integers(0, n, 300), [n - 1]])
    cols = np.concatenate([rng.integers(0, n, 300), [n - 1]])
    base = COOMatrix.from_unsorted(rows, cols, rng.random(rows.size), (n, n))
    assert base.rows.dtype == np.int32
    assert int(base.rows.max()) * n + int(base.cols.max()) > 2**32
    dyn = DynamicMatrix(CSRMatrix.from_coo(base), nnz_delta=10_000)
    entries = {
        (int(r), int(c)): v for r, c, v in zip(base.rows, base.cols, base.data)
    }
    x = rng.random(n)
    for batch_seed in range(3):
        batch_rng = np.random.default_rng(batch_seed)
        batch = []
        # Deletes and updates of existing entries, and inserts, with
        # keys on both sides of 2**31 and 2**32.
        for (r, c) in list(entries)[batch_seed::7][:20]:
            batch.append(("delete", r, c))
        for (r, c) in list(entries)[batch_seed + 1::5][:20]:
            batch.append(("update", r, c, float(batch_rng.random())))
        for r, c in zip(batch_rng.integers(0, n, 40),
                        batch_rng.integers(0, n, 40)):
            batch.append(("insert", int(r), int(c), float(batch_rng.random())))
        dyn.apply_updates(batch)
        for op in batch:
            if op[0] == "delete":
                entries.pop((op[1], op[2]), None)
            else:
                entries[(op[1], op[2])] = op[3]
        keys = sorted(entries)
        rebuilt = CSRMatrix.from_coo(COOMatrix(
            [r for r, _ in keys], [c for _, c in keys],
            [entries[k] for k in keys], (n, n),
        ))
        merged = dyn.to_coo()
        assert np.array_equal(merged.rows, rebuilt.to_coo().rows)
        assert np.array_equal(merged.cols, rebuilt.indices)
        assert np.array_equal(merged.data, rebuilt.data)
        assert np.array_equal(dyn.spmv(x), rebuilt.spmv(x))
    dyn.compact()
    assert np.array_equal(dyn.spmv(x), rebuilt.spmv(x))
