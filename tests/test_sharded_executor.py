"""Tests of the sharded parallel SpMV executor.

The load-bearing contract is **bit-identity**: for every format, every
backend, and every shard count (including degenerate ones), the sharded
result must equal the single-shard result bit for bit — row partitioning
never splits a row's reduction, so parallelism must be invisible in the
numbers.  On top of that: the auto shard policy, the
``REPRO_SPMV_SHARDS`` override, the persistent pool / zero-allocation
steady state, and the mining loops running unchanged on shards.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import ExecutorClosedError, ValidationError
from repro.exec import (
    AUTO_MIN_NNZ_PER_SHARD,
    ShardedExecutor,
    auto_shard_count,
    available_backends,
    available_cpu_count,
    build_plan,
    env_shard_count,
)
from repro.formats.convert import to_format
from repro.formats.coo import COOMatrix
from repro.formats.registry import format_names
from repro.mining.hits import hits
from repro.mining.pagerank import pagerank, pagerank_operator
from repro.mining.rwr import random_walk_with_restart
from repro.multigpu.bitonic import bitonic_partition, contiguous_partition
from tests.test_exec_engine import build, random_coo

# Live registry view — same source of truth as the exec/differential
# suites; newly registered formats are swept automatically.
ALL_FORMATS = sorted(format_names())
BACKENDS = available_backends()
SHARD_COUNTS = [1, 2, 3, 7, 64]  # 64 > n_rows of the 40-row fixture


def partition_options(matrix, scheme, n_shards):
    """``ShardedExecutor`` options of a partition scheme: the executor's
    own balanced row ranges, or an explicit ``assignment=`` whose shards
    (bitonic, random) are ranges of a row-permuted CSR that scatter."""
    if scheme == "balanced":
        return {}
    if scheme == "bitonic":
        assignment = bitonic_partition(matrix.row_lengths(), n_shards)
    elif scheme == "contiguous":
        assignment = contiguous_partition(matrix.n_rows, n_shards)
    else:
        rng = np.random.default_rng(matrix.n_rows * 31 + n_shards)
        assignment = rng.integers(0, n_shards, size=matrix.n_rows)
    return {"assignment": assignment}


# ----------------------------------------------------------------------
# Bit-identity: sharded == single-shard, every format x backend x count
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_spmv_bit_identical_across_shard_counts(fmt, backend):
    matrix = build(fmt, random_coo(seed=40))
    x = np.random.default_rng(41).standard_normal(matrix.n_cols)
    with ShardedExecutor(matrix, 1, backend=backend) as single:
        expected = single.spmv(x)
    for n_shards in SHARD_COUNTS[1:]:
        for scheme in ("balanced", "bitonic"):
            options = partition_options(matrix, scheme, n_shards)
            with ShardedExecutor(
                matrix, n_shards, backend=backend, **options
            ) as ex:
                out = np.full(matrix.n_rows, np.nan)
                returned = ex.spmv(x, out=out)
                assert returned is out
                assert np.array_equal(out, expected), (
                    f"{fmt}/{backend} with {n_shards} {scheme} shards "
                    "diverged"
                )


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_spmm_bit_identical_across_shard_counts(fmt, backend):
    matrix = build(fmt, random_coo(seed=42))
    X = np.random.default_rng(43).standard_normal((matrix.n_cols, 3))
    with ShardedExecutor(matrix, 1, backend=backend) as single:
        expected = single.spmm(X)
    for n_shards in SHARD_COUNTS[1:]:
        for scheme in ("balanced", "bitonic"):
            options = partition_options(matrix, scheme, n_shards)
            with ShardedExecutor(
                matrix, n_shards, backend=backend, **options
            ) as ex:
                out = np.full((matrix.n_rows, 3), np.nan)
                assert ex.spmm(X, out=out) is out
                assert np.array_equal(out, expected)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_matches_plain_plan_numerically(fmt, backend):
    """Sharded vs the matrix's own cached plan: bitwise where the plan
    already runs the canonical row-serial reduction (SciPy backend, and
    the canonical formats on numpy), allclose everywhere else (ELL/HYB
    numpy plans associate the same products differently)."""
    matrix = build(fmt, random_coo(seed=44))
    x = np.random.default_rng(45).standard_normal(matrix.n_cols)
    plain = matrix.spmv_plan(backend).execute(x)
    with ShardedExecutor(matrix, 4, backend=backend) as ex:
        sharded = ex.spmv(x)
    np.testing.assert_allclose(sharded, plain, rtol=1e-12, atol=1e-14)
    if backend == "scipy" or fmt in ("coo", "csr", "csc"):
        assert np.array_equal(sharded, plain)


@pytest.mark.parametrize("partition", ["balanced", "bitonic", "contiguous"])
def test_partition_schemes_agree_bitwise(partition):
    matrix = random_coo(seed=46)
    x = np.random.default_rng(47).standard_normal(matrix.n_cols)
    expected = ShardedExecutor(matrix, 1).spmv(x)
    options = partition_options(matrix, partition, 5)
    with ShardedExecutor(matrix, 5, **options) as ex:
        assert np.array_equal(ex.spmv(x), expected)


def test_spmm_accepts_fortran_ordered_rhs():
    matrix = random_coo(seed=48)
    X = np.asfortranarray(
        np.random.default_rng(49).standard_normal((matrix.n_cols, 4))
    )
    with ShardedExecutor(matrix, 3) as ex:
        expected = ex.spmm(np.ascontiguousarray(X))
        assert np.array_equal(ex.spmm(X), expected)


# ----------------------------------------------------------------------
# Shard structure
# ----------------------------------------------------------------------


@pytest.mark.parametrize("partition", ["balanced", "bitonic", "contiguous"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_shard_row_ids_exactly_tile_the_row_range(partition, n_shards):
    matrix = random_coo(seed=50)
    options = partition_options(matrix, partition, n_shards)
    with ShardedExecutor(matrix, n_shards, **options) as ex:
        row_ids = ex.shard_row_ids
        assert len(row_ids) == n_shards
        stacked = np.sort(np.concatenate(row_ids))
        assert np.array_equal(stacked, np.arange(matrix.n_rows))
        assert ex.shard_nnz.sum() == matrix.nnz
        balance = ex.balance()
        assert balance.rows_per_part.sum() == matrix.n_rows


def test_custom_assignment_is_honoured():
    matrix = random_coo(seed=51)
    rng = np.random.default_rng(52)
    assignment = rng.integers(0, 3, size=matrix.n_rows)
    x = rng.standard_normal(matrix.n_cols)
    expected = ShardedExecutor(matrix, 1).spmv(x)
    with ShardedExecutor(matrix, 3, assignment=assignment) as ex:
        for index in range(3):
            assert np.array_equal(
                ex.shard_row_ids[index], np.nonzero(assignment == index)[0]
            )
        assert np.array_equal(ex.spmv(x), expected)


def test_empty_matrix_yields_zeros():
    matrix = COOMatrix.from_unsorted(
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.float64),
        (6, 5),
    )
    with ShardedExecutor(matrix, 3) as ex:
        out = ex.spmv(np.ones(5))
        assert np.array_equal(out, np.zeros(6))


# ----------------------------------------------------------------------
# Zero-copy row ranges over one CSR
# ----------------------------------------------------------------------


def plan_arrays(plan):
    """The index and value arrays a shard plan executes on."""
    if hasattr(plan, "gather_cols"):  # numpy gather-reduce plans
        return plan.gather_cols, plan.values
    return plan.indices, plan.data


@pytest.mark.parametrize("backend", BACKENDS)
def test_default_shards_are_views_of_the_executors_one_csr(backend):
    matrix = random_coo(n_rows=90, n_cols=70, nnz=900, seed=80)
    with ShardedExecutor(matrix, 4, backend=backend) as ex:
        csr = ex._csr
        # Adopted from the canonical COO, not copied.
        assert np.shares_memory(csr.indices, matrix.cols)
        assert np.shares_memory(csr.data, matrix.data)
        for shard in ex.shards:
            assert shard.contiguous
            for piece in shard.pieces:
                if piece.nnz == 0:
                    continue
                indices, values = plan_arrays(piece.plan)
                assert np.shares_memory(indices, csr.indices)
                assert np.shares_memory(values, csr.data)


def test_balanced_shards_split_the_nonzeros_evenly():
    matrix = random_coo(n_rows=400, n_cols=400, nnz=8000, seed=81)
    with ShardedExecutor(matrix, 4) as ex:
        nnz = ex.shard_nnz
        assert nnz.sum() == matrix.nnz
        assert nnz.max() - nnz.min() <= 2 * matrix.row_lengths().max()


def test_building_shards_allocates_per_row_not_per_nonzero():
    import tracemalloc

    from repro.graphs.rmat import rmat_graph

    operator = pagerank_operator(rmat_graph(1 << 11, 600_000, seed=3))
    assert operator.nnz > 100 * operator.n_rows
    operator.row_lengths()  # the matrix's own cached derived state
    tracemalloc.start()
    try:
        executor = ShardedExecutor(operator, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    executor.close()
    # One int32 copy of the column indices alone would be 4 * nnz.
    assert peak < 128 * operator.n_rows + 65536 < 4 * operator.nnz


def one_row_matrix():
    cols = np.arange(30)
    return COOMatrix(
        np.full(30, 7), cols, np.linspace(-1.0, 2.0, 30), (12, 30)
    )


def sparse_rows_matrix():
    """Mostly empty rows: three non-empty rows among 40."""
    rows = np.repeat([3, 17, 38], [5, 1, 9])
    cols = np.concatenate([np.arange(5), [4], np.arange(9) * 2])
    return COOMatrix(rows, cols, np.arange(1.0, 16.0), (40, 20))


SHAPE_CASES = {
    "random": lambda: random_coo(seed=82),
    "empty-rows": sparse_rows_matrix,
    "one-row": one_row_matrix,
}


@pytest.mark.parametrize("scheme", ["balanced", "bitonic", "contiguous",
                                    "assignment"])
@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
@pytest.mark.parametrize("n_shards", [2, 5, 16])
def test_every_partition_is_bitwise_the_single_shard(case, scheme, n_shards):
    matrix = SHAPE_CASES[case]()
    options = partition_options(matrix, scheme, n_shards)
    rng = np.random.default_rng(83)
    x = rng.standard_normal(matrix.n_cols)
    X = rng.standard_normal((matrix.n_cols, 3))
    with ShardedExecutor(matrix, 1) as single:
        expected_v, expected_m = single.spmv(x), single.spmm(X)
    with ShardedExecutor(matrix, n_shards, **options) as ex:
        stacked = np.sort(np.concatenate(ex.shard_row_ids))
        assert np.array_equal(stacked, np.arange(matrix.n_rows))
        assert ex.nnz == matrix.nnz
        out = np.full(matrix.n_rows, np.nan)
        assert np.array_equal(ex.spmv(x, out=out), expected_v)
        Out = np.full((matrix.n_rows, 3), np.nan)
        assert np.array_equal(ex.spmm(X, out=Out), expected_m)


@pytest.mark.parametrize("scheme", ["balanced", "bitonic", "assignment"])
def test_dynamic_update_rebuilds_the_views(scheme):
    from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream

    dyn = DynamicMatrix(random_coo(n_rows=48, n_cols=48, nnz=240, seed=84))
    stream = seeded_update_stream(dyn, 90, seed=85)
    x = np.random.default_rng(86).standard_normal(dyn.n_cols)
    options = partition_options(dyn, scheme, 3)
    with ShardedExecutor(dyn, 3, **options) as ex:
        before = ex._csr
        for batch in (stream[:30], stream[30:60], stream[60:]):
            dyn.apply_updates(batch)
            expected = build_plan(dyn.coo_snapshot()).execute(x)
            assert np.array_equal(ex.spmv(x), expected)
            assert ex.nnz == dyn.nnz
        assert ex._csr is not before
        assert ex.resilience_stats["invalidations"] == 3


# ----------------------------------------------------------------------
# Persistent pool and zero-allocation steady state
# ----------------------------------------------------------------------


def test_pool_persists_and_steady_state_allocates_nothing():
    matrix = random_coo(seed=53)
    x = np.ones(matrix.n_cols)
    y = np.empty(matrix.n_rows)
    X = np.ones((matrix.n_cols, 2))
    Y = np.empty((matrix.n_rows, 2))
    # Balanced ranges write through views of ``out``; bitonic shards
    # compute into pooled buffers and scatter.
    for scheme in ("balanced", "bitonic"):
        options = partition_options(matrix, scheme, 4)
        with ShardedExecutor(matrix, 4, **options) as ex:
            scattering = [p for p in ex._pieces if not p.contiguous]
            assert bool(scattering) == (scheme == "bitonic")
            pool = ex._pool
            assert pool is not None  # spun up once, at construction
            ex.spmv(x, out=y)  # warm-up grows the piece scratch buffers
            ex.spmm(X, out=Y)
            warm = [piece.pool.allocations for piece in ex._pieces]
            assert all(p.pool.allocations > 0 for p in scattering)
            for _ in range(5):
                ex.spmv(x, out=y)
                ex.spmm(X, out=Y)
            assert [p.pool.allocations for p in ex._pieces] == warm
            assert ex._pool is pool  # no per-call pool spin-up
            assert ex.executions == 12


def test_single_shard_needs_no_thread_pool():
    with ShardedExecutor(random_coo(seed=54), 1) as ex:
        assert ex._pool is None


def test_last_shard_seconds_is_per_shard_and_nonnegative():
    matrix = random_coo(seed=55)
    with ShardedExecutor(matrix, 3) as ex:
        ex.spmv(np.ones(matrix.n_cols))
        seconds = ex.last_shard_seconds
        assert seconds.shape == (3,)
        assert np.all(seconds >= 0.0)


def test_closed_executor_rejects_calls():
    matrix = random_coo(seed=56)
    ex = ShardedExecutor(matrix, 2)
    ex.close()
    with pytest.raises(ValidationError):
        ex.spmv(np.ones(matrix.n_cols))


# ----------------------------------------------------------------------
# Auto policy and environment override
# ----------------------------------------------------------------------


def test_auto_shard_count_keeps_small_matrices_single_shard():
    assert auto_shard_count(AUTO_MIN_NNZ_PER_SHARD - 1, workers=16) == 1
    assert auto_shard_count(0, workers=16) == 1


def test_auto_shard_count_caps_at_workers_and_nnz():
    assert auto_shard_count(10 * AUTO_MIN_NNZ_PER_SHARD, workers=4) == 4
    assert auto_shard_count(3 * AUTO_MIN_NNZ_PER_SHARD, workers=16) == 3


def test_auto_policy_on_small_matrix_is_dispatch_free(monkeypatch):
    monkeypatch.delenv("REPRO_SPMV_SHARDS", raising=False)
    with ShardedExecutor(random_coo(seed=57), "auto") as ex:
        assert ex.n_shards == 1
        assert ex._pool is None


class TestAutoPolicy:
    """The auto policy clamps to the affinity mask; the explicit
    ``REPRO_SPMV_SHARDS`` override does not."""

    def test_auto_clamps_to_affinity_mask(self):
        nnz = AUTO_MIN_NNZ_PER_SHARD * 64
        assert auto_shard_count(nnz) == available_cpu_count()
        assert auto_shard_count(nnz, workers=3) == 3

    def test_small_matrices_stay_single_shard(self):
        assert auto_shard_count(AUTO_MIN_NNZ_PER_SHARD - 1, workers=8) == 1

    def test_env_override_is_not_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMV_SHARDS", "4")
        with ShardedExecutor(random_coo(seed=58), "auto") as ex:
            assert ex.n_shards == 4


def test_env_shard_count_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SPMV_SHARDS", raising=False)
    assert env_shard_count() is None
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "")
    assert env_shard_count() is None
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "4")
    assert env_shard_count() == 4
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "four")
    with pytest.raises(ValidationError):
        env_shard_count()
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "0")
    with pytest.raises(ValidationError):
        env_shard_count()


def test_env_override_routes_executor_construction(monkeypatch):
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "3")
    with ShardedExecutor(random_coo(seed=58)) as ex:
        assert ex.n_shards == 3


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_constructor_validation():
    matrix = random_coo(seed=59)
    with pytest.raises(ValidationError):
        ShardedExecutor(matrix, 0)
    with pytest.raises(ValidationError):
        ShardedExecutor(matrix, "three")
    with pytest.raises(ValidationError):
        ShardedExecutor(matrix, 2, assignment=np.zeros(3, dtype=np.int64))
    bad = np.zeros(matrix.n_rows, dtype=np.int64)
    bad[0] = 2  # out of range for 2 shards
    with pytest.raises(ValidationError):
        ShardedExecutor(matrix, 2, assignment=bad)


def test_execution_validation():
    matrix = random_coo(seed=60)
    with ShardedExecutor(matrix, 2) as ex:
        with pytest.raises(ValidationError):
            ex.spmv(np.ones(matrix.n_cols + 1))
        with pytest.raises(ValidationError):
            ex.spmv(np.ones(matrix.n_cols), out=np.empty(matrix.n_rows + 1))
        with pytest.raises(ValidationError):
            ex.spmm(np.ones(matrix.n_cols))  # 1-D where 2-D expected
        with pytest.raises(ValidationError):
            ex.spmm(np.ones((matrix.n_cols + 1, 2)))


# ----------------------------------------------------------------------
# Mining loops on shards: convergence parity, bit for bit
# ----------------------------------------------------------------------


def mining_graph(seed: int = 70):
    rng = np.random.default_rng(seed)
    n, m = 80, 400
    return COOMatrix.from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), (n, n)
    )


def test_pagerank_sharded_matches_default_bitwise():
    graph = mining_graph()
    base = pagerank(graph, kernel="csr")
    for n_shards in (1, 3, 8):
        sharded = pagerank(graph, kernel="csr", n_shards=n_shards)
        assert sharded.iterations == base.iterations
        assert sharded.converged == base.converged
        assert np.array_equal(sharded.vector, base.vector)
        assert sharded.extra["n_shards"] == n_shards


def test_hits_sharded_matches_default_bitwise():
    graph = mining_graph(seed=71)
    base = hits(graph, kernel="csr")
    sharded = hits(graph, kernel="csr", n_shards=4)
    assert sharded.iterations == base.iterations
    assert np.array_equal(sharded.vector, base.vector)
    assert sharded.extra["n_shards"] == 4


@pytest.mark.parametrize("batched", [True, False])
def test_rwr_sharded_matches_default_bitwise(batched):
    graph = mining_graph(seed=72)
    queries = np.array([5, 19, 63])
    base = random_walk_with_restart(
        graph, kernel="csr", queries=queries, batched=batched
    )
    sharded = random_walk_with_restart(
        graph, kernel="csr", queries=queries, batched=batched, n_shards=3
    )
    assert (
        base.extra["per_query_iterations"]
        == sharded.extra["per_query_iterations"]
    )
    assert np.array_equal(base.vector, sharded.vector)


def test_env_shards_force_mining_onto_executor(monkeypatch):
    graph = mining_graph(seed=77)
    base = pagerank(graph, kernel="csr")
    monkeypatch.setenv("REPRO_SPMV_SHARDS", "4")
    forced = pagerank(graph, kernel="csr")
    assert forced.extra["n_shards"] == 4
    assert np.array_equal(forced.vector, base.vector)


# ----------------------------------------------------------------------
# Thread safety: one executor shared across threads
# ----------------------------------------------------------------------


def test_hammer_shared_executor_from_eight_threads():
    """Eight threads hammer one executor; every result stays bitwise.

    The executor serialises calls with an internal lock (see DESIGN.md
    section 8): without it, concurrent callers would race on the shared
    shard scratch buffers and the double-buffered gather workspace and
    corrupt each other's outputs.
    """
    n_threads = 8
    matrix = random_coo(seed=57)
    rng = np.random.default_rng(58)
    xs = [rng.random(matrix.n_cols) for _ in range(n_threads)]
    Xs = [rng.random((matrix.n_cols, 3)) for _ in range(n_threads)]
    with ShardedExecutor(matrix, 4) as ex:
        expected_v = [ex.spmv(x) for x in xs]
        expected_m = [ex.spmm(X) for X in Xs]
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(i: int) -> None:
            try:
                barrier.wait()
                for _ in range(25):
                    if not np.array_equal(ex.spmv(xs[i]), expected_v[i]):
                        raise AssertionError(f"spmv mismatch, thread {i}")
                    if not np.array_equal(ex.spmm(Xs[i]), expected_m[i]):
                        raise AssertionError(f"spmm mismatch, thread {i}")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert ex.executions == n_threads * 2 + n_threads * 25 * 2


def test_concurrent_staged_spmm_inputs_do_not_clobber_each_other():
    """Fortran-ordered right-hand sides are staged into the executor's
    one workspace buffer, so staging must happen under the call lock:
    staged outside it, a second caller would overwrite the first one's
    input while its shards read it."""
    import sys

    n_threads = 8
    matrix = random_coo(400, 400, 4000, seed=59)
    rng = np.random.default_rng(60)
    Xs = [
        np.asfortranarray(rng.standard_normal((matrix.n_cols, 4)))
        for _ in range(n_threads)
    ]
    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ShardedExecutor(matrix, 2) as ex:
            expected = [ex.spmm(np.ascontiguousarray(X)) for X in Xs]
            mismatches = []

            def worker(i: int) -> None:
                for _ in range(20):
                    if not np.array_equal(ex.spmm(Xs[i]), expected[i]):
                        mismatches.append(i)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        sys.setswitchinterval(prior)
    assert mismatches == []


def test_concurrent_lazy_plan_build_happens_once():
    """A cold plan cache hit from eight threads builds exactly one plan."""
    from repro.exec.plan import PLAN_CACHE_STATS

    matrix = random_coo(seed=59)
    baseline = PLAN_CACHE_STATS.builds
    n_threads = 8
    plans = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def worker(i: int) -> None:
        barrier.wait()
        plans[i] = matrix.spmv_plan()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(p is plans[0] for p in plans)
    assert PLAN_CACHE_STATS.builds == baseline + 1


def test_hammer_queries_during_updates_from_eight_threads():
    """Eight reader threads query one executor while the main thread
    streams update batches through the underlying DynamicMatrix.

    The executor checks the matrix's ``data_version`` watermark under
    its call lock and reshards from an atomic ``coo_snapshot()``, so
    every concurrent result must be bitwise-equal to a from-scratch
    plan over some *published* version's content — never a torn state,
    never a stale pre-update plan once the call started after the
    version bump.

    The readers keep running after the last batch until one of them
    has sampled the final published version, so the sample list and
    the invalidation count do not depend on how a loaded host
    schedules the threads.
    """
    from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream

    n_threads = 8
    base = random_coo(n_rows=48, n_cols=48, nnz=240, seed=61)
    dyn = DynamicMatrix(base)
    stream = seeded_update_stream(dyn, 120, seed=62)
    bounds = np.linspace(0, len(stream), 13).astype(int)
    x = np.random.default_rng(63).random(dyn.n_cols)
    snapshots = {0: dyn.coo_snapshot()}
    results = []
    errors = []
    stop = threading.Event()
    final_version = []
    final_sampled = threading.Event()
    with ShardedExecutor(dyn, 3) as ex:
        backend = ex.backend

        def reader() -> None:
            try:
                while not stop.is_set():
                    version = dyn.data_version
                    out = ex.spmv(x)
                    # Keep only samples whose version was stable across
                    # the call: those pin the exact content queried.
                    if dyn.data_version == version:
                        results.append((version, out))
                        if final_version and version == final_version[0]:
                            final_sampled.set()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        try:
            for i in range(12):
                dyn.apply_updates(stream[bounds[i]:bounds[i + 1]])
                snapshots[dyn.data_version] = dyn.coo_snapshot()
            final_version.append(dyn.data_version)
            deadline = time.monotonic() + 120.0
            while not (errors or final_sampled.wait(0.05)):
                assert time.monotonic() < deadline, (
                    "no reader sampled the final version within 120 s"
                )
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert any(version == final_version[0] for version, _ in results)
        assert ex.resilience_stats.get("invalidations", 0) >= 1
    expected = {
        version: build_plan(snapshot, backend=backend).execute(x)
        for version, snapshot in snapshots.items()
    }
    for version, out in results:
        assert version in expected, f"unpublished version {version}"
        assert np.array_equal(out, expected[version]), (
            f"result diverged from version {version}'s rebuild"
        )


# ----------------------------------------------------------------------
# Close / eviction racing in-flight calls
# ----------------------------------------------------------------------


def _hammer_close_while_querying(make_executor, *, rounds: int) -> None:
    """Shared body: 8 threads query while the main thread closes.

    Every call must either return a fully-written, bitwise-correct
    ``out`` or raise :class:`ExecutorClosedError` — never a torn buffer
    (detected via a NaN-prefilled ``out``), never a crash from a shut
    thread pool or an unlinked shared-memory segment.
    """
    n_threads = 8
    matrix = random_coo(seed=71)
    x = np.random.default_rng(72).random(matrix.n_cols)
    X = np.random.default_rng(73).random((matrix.n_cols, 4))
    with ShardedExecutor(matrix, 2) as reference:
        expected_v = reference.spmv(x)
        expected_m = reference.spmm(X)
    for round_no in range(rounds):
        ex = make_executor(matrix)
        errors: list[Exception] = []
        clean_rejections = [0] * n_threads
        barrier = threading.Barrier(n_threads + 1)

        def worker(i: int) -> None:
            try:
                barrier.wait()
                for _ in range(40):
                    out = np.full(matrix.n_rows, np.nan)
                    Out = np.full((matrix.n_rows, 4), np.nan)
                    try:
                        ex.spmv(x, out=out)
                    except ExecutorClosedError:
                        clean_rejections[i] += 1
                        return
                    if not np.array_equal(out, expected_v):
                        raise AssertionError(
                            f"torn/wrong spmv out, thread {i}"
                        )
                    try:
                        ex.spmm(X, out=Out)
                    except ExecutorClosedError:
                        clean_rejections[i] += 1
                        return
                    if not np.array_equal(Out, expected_m):
                        raise AssertionError(
                            f"torn/wrong spmm out, thread {i}"
                        )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        # Stagger the eviction so it lands mid-flight at different
        # points across rounds.
        time.sleep(0.0005 * round_no)
        ex.close()
        for t in threads:
            t.join()
        assert not errors, errors
        # After the drain the executor stays closed: late calls reject.
        with pytest.raises(ExecutorClosedError):
            ex.spmv(x)


def test_hammer_close_while_querying_thread_mode():
    """The satellite-1 race: eviction during concurrent queries.

    Before the fix, ``close()`` flipped ``_closed`` and shut the pool
    *without* taking the call lock, so an in-flight ``_run`` could see
    ``self._pool`` become ``None`` between its null-check and its
    ``submit`` (AttributeError mid-query) or read a half-degraded
    state.  ``close()`` now drains via ``_call_lock``.
    """
    _hammer_close_while_querying(
        lambda m: ShardedExecutor(m, 4), rounds=8
    )


def test_close_is_idempotent_and_reentrant_after_drain():
    matrix = random_coo(seed=74)
    ex = ShardedExecutor(matrix, 3)
    ex.spmv(np.ones(matrix.n_cols))
    ex.close()
    ex.close()  # double close is a no-op
    with pytest.raises(ExecutorClosedError):
        ex.spmm(np.ones((matrix.n_cols, 2)))
