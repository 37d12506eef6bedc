"""Shard pieces taken by whichever thread is free.

Each shard of a :class:`~repro.exec.ShardedExecutor` is cut into
``max(1, shard_nnz // AUTO_MIN_NNZ_PER_SHARD)`` nnz-balanced row
ranges, and on every call the caller's thread and the pool workers take
the next piece off one shared counter until none remain.  A slow thread
therefore leaves its share of the tail to the others, the shards (the
partition, labels and ``last_shard_seconds``) stay as they were, and
every result stays bitwise the single-shard one.
"""

import sys
import threading
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest

from repro.exec import ShardedExecutor
from repro.exec import sharded as sharded_mod
from repro.exec.sharded import AUTO_MIN_NNZ_PER_SHARD
from repro.graphs.rmat import rmat_graph
from repro.mining.pagerank import pagerank_operator
from repro.resilience import faults as faults_mod
from tests.test_resilience import chaos


@pytest.fixture(scope="module")
def operator():
    """A PageRank operator of ~829K non-zeros: two shards of two pieces."""
    op = pagerank_operator(rmat_graph(1 << 16, 900_000, seed=3))
    assert op.nnz >= 4 * AUTO_MIN_NNZ_PER_SHARD
    return op


@pytest.fixture(scope="module")
def reference(operator):
    x = np.random.default_rng(1).random(operator.n_cols)
    with ShardedExecutor(operator, 1) as single:
        return x, single.spmv(x)


@pytest.fixture
def disarmed():
    prior = faults_mod.armed()
    faults_mod.disarm()
    try:
        yield
    finally:
        if prior:
            faults_mod.arm()


def test_shards_are_cut_into_nnz_balanced_pieces(operator):
    with ShardedExecutor(operator, 2) as ex:
        assert len(ex._pieces) == 4
        for shard in ex.shards:
            expected = max(1, shard.nnz // AUTO_MIN_NNZ_PER_SHARD)
            assert len(shard.pieces) == expected == 2
            rows = np.concatenate([p.row_ids for p in shard.pieces])
            assert np.array_equal(rows, shard.row_ids)
            nnz = [p.nnz for p in shard.pieces]
            assert max(nnz) - min(nnz) <= operator.row_lengths().max()
            assert all(p.shard == shard.index for p in shard.pieces)
        assert [p.number for p in ex._pieces] == [0, 1, 2, 3]


def test_small_shards_keep_one_piece():
    op = pagerank_operator(rmat_graph(1 << 12, 60_000, seed=4))
    with ShardedExecutor(op, 3) as ex:
        assert [len(s.pieces) for s in ex.shards] == [1, 1, 1]


def test_caller_takes_over_the_pieces_a_blocked_worker_leaves(
    operator, reference
):
    """The pool thread's first piece blocks until the caller's thread
    has run every other piece: only pulling finishes the call."""
    x, expected = reference
    caller = threading.current_thread()
    lock = threading.Lock()
    worker_took = threading.Event()
    caller_done = threading.Event()
    by_caller, by_worker = [], []
    with ShardedExecutor(operator, 2) as ex:
        task = ex._shard_task

        def spy(piece, *args, _task=task):
            if threading.current_thread() is caller:
                # Start only once the worker holds a piece, so which
                # thread pulls first decides nothing.
                worker_took.wait(5.0)
                _task(piece, *args)
                by_caller.append(piece.number)
                if len(by_caller) == len(ex._pieces) - 1:
                    caller_done.set()
                return
            with lock:
                first = not by_worker
                by_worker.append(piece.number)
            if first:
                worker_took.set()
                caller_done.wait(5.0)
            _task(piece, *args)

        ex._shard_task = spy
        out = ex.spmv(x)
        stats = ex.resilience_stats
    assert caller_done.is_set()
    assert len(by_worker) == 1
    assert sorted(by_caller + by_worker) == [0, 1, 2, 3]
    assert np.array_equal(out, expected)
    assert stats == {}


@pytest.mark.parametrize("armed", [False, True])
def test_every_piece_runs_once_per_call(operator, reference, armed, disarmed):
    x, expected = reference
    seen = []
    with chaos() if armed else nullcontext():
        with ShardedExecutor(operator, 2) as ex:
            task = ex._shard_task

            def spy(piece, *args, _task=task):
                seen.append(piece.number)
                return _task(piece, *args)

            ex._shard_task = spy
            for _ in range(3):
                assert np.array_equal(ex.spmv(x), expected)
            ex.spmm(np.ones((operator.n_cols, 2)))
    assert sorted(seen) == sorted([0, 1, 2, 3] * 4)


def test_shard_seconds_sum_their_pieces(operator, reference):
    x, _ = reference
    with ShardedExecutor(operator, 2) as ex:
        ex.spmv(x)
        per_piece = ex._piece_seconds.copy()
        shard_seconds = ex.last_shard_seconds
    assert per_piece.shape == (4,) and (per_piece > 0).all()
    assert shard_seconds.shape == (2,)
    np.testing.assert_allclose(
        shard_seconds, [per_piece[:2].sum(), per_piece[2:].sum()]
    )


def test_bitonic_pieces_scatter_bitwise(operator, reference):
    from repro.multigpu.bitonic import bitonic_partition

    x, expected = reference
    assignment = bitonic_partition(operator.row_lengths(), 2)
    X = np.random.default_rng(2).random((operator.n_cols, 3))
    with ShardedExecutor(operator, 1) as single:
        expected_m = single.spmm(X)
    with ShardedExecutor(operator, 2, assignment=assignment) as ex:
        assert len(ex._pieces) == 4
        assert not any(p.contiguous for p in ex._pieces)
        y = np.empty(operator.n_rows)
        for _ in range(2):
            assert np.array_equal(ex.spmv(x, out=y), expected)
            assert np.array_equal(ex.spmm(X), expected_m)


def test_hammered_counter_hands_out_every_piece_once(monkeypatch):
    """Four threads on two cores, a 1 µs switch interval and small
    pieces: a lost or doubled take of the shared counter would skip or
    repeat a piece."""
    monkeypatch.setattr(sharded_mod, "AUTO_MIN_NNZ_PER_SHARD", 4_000)
    op = pagerank_operator(rmat_graph(1 << 12, 60_000, seed=4))
    x = np.random.default_rng(3).random(op.n_cols)
    with ShardedExecutor(op, 1) as single:
        expected = single.spmv(x)
    calls = 50
    ran = Counter()
    lock = threading.Lock()
    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ShardedExecutor(op, 4) as ex:
            assert len(ex._pieces) >= 12
            task = ex._shard_task

            def spy(piece, *args, _task=task):
                with lock:
                    ran[piece.number] += 1
                return _task(piece, *args)

            ex._shard_task = spy
            for _ in range(calls):
                assert np.array_equal(ex.spmv(x), expected)
            numbers = [p.number for p in ex._pieces]
    finally:
        sys.setswitchinterval(prior)
    assert ran == Counter({number: calls for number in numbers})
