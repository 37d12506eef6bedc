"""Sharded parallel SpMV executor (paper §3.2 brought onto the host).

The multi-GPU design — row partitioning, per-node local SpMV,
allgather — runs here as *real* parallel work.  The executor compiles
one CSR of the matrix, and each shard is a row range ``[lo, hi)`` of
it, cut again into pieces (below): each piece a
:class:`~repro.formats.csr.CSRMatrix` view (``indptr`` rebased,
``indices``/``data`` sliced, nothing copied) with its own
:class:`~repro.exec.plan.SpMVPlan` built through the normal backend
registry.  Every ``spmv``/``spmm`` call runs on the caller's thread
and a **persistent** :class:`~concurrent.futures.ThreadPoolExecutor`
— workers live for the executor's lifetime, no per-call pool spin-up.
The SciPy backend's compiled matvec, numpy's ufunc loops and the native
backend's ``nogil`` kernels all release the GIL, so shards genuinely
overlap on multi-core hosts.

The executor's own partition cuts the CSR into contiguous ranges of
near-equal non-zero count
(:func:`~repro.multigpu.bitonic.balanced_partition`), so the CSR
adopts the canonical COO's ``indices``/``data`` as they are and every
shard writes its rows straight into a zero-copy view of the caller's
``out``.  An explicit ``assignment=`` — the multi-GPU simulator's §3.2
serpentine deal, say — takes the same build: rows are permuted once
into shard order, ascending within each shard, and shards are ranges of
that one permuted CSR.  A shard whose rows are not one range computes
into a pooled local buffer and scatters to its row set — the
in-process analogue of the paper's allgather.  Because row
partitioning never splits a row's reduction, and every shard executes
the same canonical row reduction (ascending column order per row,
exactly the sorted-COO/CSR order), the result is **bit-identical** to
the single-shard path for every shard count and partition.

Yang et al.'s serpentine deal (§3.2) and the load-balancing analysis of
Yang, Buluç & Owens (arXiv:1803.08601) both argue that shard *balance*,
not shard count, decides throughput; the default ranges and the
serpentine deal both balance non-zeros, and
:attr:`ShardedExecutor.last_shard_seconds` exposes measured per-shard
seconds so the claim is checkable.

Each shard is cut into nnz-balanced **pieces**, one per
:data:`AUTO_MIN_NNZ_PER_SHARD` non-zeros (at least one): row ranges of
the shard, zero-copy views with their own plans, like the shards
themselves.  There is one dispatch path.  Every call, with fault
injection armed or not, runs the same piece task: the caller's thread
and the pool workers take the next piece off one shared counter until
none remain, so a thread whose pieces ran fast takes over the tail of
a slower one's.  A failed attempt is retried under the
:class:`~repro.resilience.recovery.RetryPolicy` backoff; a piece that
exhausts its attempts, or that a worker past ``timeout_seconds`` held,
is recomputed serially with injection suppressed once the straggler
has drained.  The fault sites and the non-finite output check cost one
boolean test while disarmed.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np

from repro.errors import (
    CorruptedOutputError,
    ExecutorClosedError,
    ShardExecutionError,
    ValidationError,
)
from repro.exec.backends import _resolve, build_plan
from repro.exec.plan import check_out_buffer, prepare_rhs
from repro.exec.workspace import WorkspacePool
from repro.formats.base import all_finite, check_vector
from repro.formats.csr import CSRMatrix
from repro.formats.radix import stable_argsort
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults
from repro.resilience.recovery import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "AUTO_MIN_NNZ_PER_SHARD",
    "ShardedExecutor",
    "auto_shard_count",
    "available_cpu_count",
    "env_shard_count",
]

#: Below this many non-zeros per shard, thread dispatch overhead beats
#: the parallel win — the auto policy keeps such matrices on one shard.
#: It is also the size of a shard's pieces: a shard of ``s`` non-zeros
#: is cut into ``max(1, s // AUTO_MIN_NNZ_PER_SHARD)`` of them, which
#: the executor's threads pull until none remain.
AUTO_MIN_NNZ_PER_SHARD = 200_000

def available_cpu_count() -> int:
    """Cores this process may actually run on.

    ``os.cpu_count()`` reports the machine; the scheduler affinity mask
    reports the *cgroup/taskset allowance*, which is what matters inside
    CPU-limited containers — sharding past the mask just multiplies
    dispatch overhead.  Falls back to ``cpu_count`` on platforms without
    ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def env_shard_count() -> int | None:
    """The ``REPRO_SPMV_SHARDS`` override, or ``None`` when unset.

    CI uses this to force the sharded executor underneath the whole
    mining layer; a malformed value fails loudly.  The override is
    deliberately *not* clamped to the affinity mask — forcing an
    oversharded run is exactly what the chaos/differential suites do.
    """
    raw = os.environ.get("REPRO_SPMV_SHARDS")
    if raw is None or raw == "":
        return None
    try:
        count = int(raw)
    except ValueError:
        raise ValidationError(
            f"REPRO_SPMV_SHARDS={raw!r} is not an integer"
        ) from None
    if count < 1:
        raise ValidationError(
            f"REPRO_SPMV_SHARDS must be >= 1, got {count}"
        )
    return count


def auto_shard_count(
    nnz: int, *, workers: int | None = None
) -> int:
    """Pick a shard count from the matrix size and the host's cores.

    One shard per *available* core (the affinity mask, not the raw
    ``cpu_count`` — CPU-limited containers must not overshard), but
    never so many that a shard drops below
    :data:`AUTO_MIN_NNZ_PER_SHARD` non-zeros: small matrices stay
    single-shard (and therefore dispatch-free), large ones use the
    machine.
    """
    if workers is None:
        workers = available_cpu_count()
    return max(1, min(workers, nnz // AUTO_MIN_NNZ_PER_SHARD))


def _row_range(row_ids: np.ndarray) -> tuple[int, int]:
    """``(start, stop)`` of ascending ``row_ids`` that form one range,
    else ``(-1, -1)``."""
    if row_ids.size and row_ids[-1] - row_ids[0] + 1 == row_ids.size:
        return int(row_ids[0]), int(row_ids[-1]) + 1
    return -1, -1


class _Piece:
    """A row range of one shard: its CSR view, plan and scratch space.

    ``shard`` is the owning shard's index, which labels the piece's
    fault sites and recovery events and sums its seconds; ``number`` is
    the piece's place in the executor's list of pieces.
    """

    __slots__ = (
        "shard", "number", "row_ids", "matrix", "plan", "pool",
        "start", "stop",
    )

    def __init__(
        self, shard: int, number: int, row_ids: np.ndarray, matrix, plan
    ) -> None:
        self.shard = shard
        self.number = number
        self.row_ids = row_ids
        self.matrix = matrix
        self.plan = plan
        self.pool = WorkspacePool()
        # Contiguous pieces write through a zero-copy view of ``out``.
        self.start, self.stop = _row_range(row_ids)

    @property
    def contiguous(self) -> bool:
        return self.start >= 0

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


class _Shard:
    """One row shard: its (ascending) row set and the pieces it is cut
    into, in row order."""

    __slots__ = ("index", "row_ids", "pieces")

    def __init__(self, index: int, row_ids: np.ndarray) -> None:
        self.index = index
        self.row_ids = row_ids
        self.pieces: list[_Piece] = []

    @property
    def contiguous(self) -> bool:
        return _row_range(self.row_ids)[0] >= 0

    @property
    def nnz(self) -> int:
        return sum(piece.nnz for piece in self.pieces)


class ShardedExecutor:
    """Parallel SpMV/SpMM over row shards on a persistent thread pool.

    Parameters
    ----------
    matrix:
        Any :class:`~repro.formats.base.SparseMatrix`.
    n_shards:
        Number of row shards; ``None`` (or ``"auto"``) applies the auto
        policy — ``REPRO_SPMV_SHARDS`` if set, else one shard per core
        capped so shards keep at least :data:`AUTO_MIN_NNZ_PER_SHARD`
        non-zeros.  A measured shard count comes from the tuner:
        :meth:`repro.tuner.TuningDecision.build_engine`.
    backend:
        Execution backend for the per-shard plans (default: the
        registry default).
    assignment:
        Pre-computed row→shard assignment; lets the multi-GPU simulator
        reuse its own partition exactly.  By default the rows are cut
        into contiguous ranges of near-equal non-zero count (zero-copy
        matrix and output views).
    retry:
        The :class:`~repro.resilience.recovery.RetryPolicy` of a failed
        shard (default :data:`DEFAULT_RETRY_POLICY`).

    The executor mirrors the ``spmv(x, out=)`` / ``spmm(X, out=)`` API
    of :class:`~repro.exec.plan.SpMVPlan`; concurrent calls on the same
    executor queue on its call lock.
    """

    def __init__(
        self,
        matrix,
        n_shards: int | str | None = None,
        *,
        backend: str | None = None,
        assignment: np.ndarray | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        # Lifecycle flags first: ``close``/``__del__`` must be safe on an
        # instance whose construction failed at any later line.  The call
        # lock is part of that contract — ``close()`` takes it to drain
        # in-flight calls, so it must exist before anything can fail.
        self._closed = False
        self._pool = None
        # Serialises whole calls: the shard pools and the shard-seconds
        # array are per-executor state, so concurrent ``spmv``/``spmm``
        # calls from different threads are safe (they queue) while the
        # internal shard fan-out still runs in parallel.  ``close()``
        # acquires the same lock, which makes eviction drain: it either
        # waits for the in-flight call or the late caller sees ``_closed``
        # under the lock and fails loudly.
        self._call_lock = threading.Lock()

        from repro.multigpu.bitonic import balanced_partition

        self.shape = matrix.shape
        self.backend = _resolve(backend)
        if retry is None:
            retry = DEFAULT_RETRY_POLICY
        elif not isinstance(retry, RetryPolicy):
            raise ValidationError(
                f"retry must be a RetryPolicy or None, got {type(retry)!r}"
            )
        self.retry = retry
        #: Number of completed executions (spmv and spmm both count).
        self.executions = 0
        self._rlock = threading.Lock()
        self._rstats: dict[str, int] = {}

        if n_shards is None or n_shards == "auto":
            n_shards = env_shard_count() or auto_shard_count(matrix.nnz)
        if not isinstance(n_shards, int) or isinstance(n_shards, bool):
            raise ValidationError(
                f"n_shards must be an int, 'auto' or None, got {n_shards!r}"
            )
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards

        if assignment is not None:
            assignment = np.asarray(assignment, dtype=np.int64)
            if assignment.shape != (self.n_rows,):
                raise ValidationError(
                    "assignment must map every row to a shard"
                )
            if assignment.size and (
                assignment.min() < 0 or assignment.max() >= n_shards
            ):
                raise ValidationError("assignment shard index out of range")
        else:
            assignment = balanced_partition(matrix.row_lengths(), n_shards)
        self.assignment = assignment
        # Shard ``k`` is rows ``_rows[_bounds[k]:_bounds[k + 1]]``: a
        # range of the row-ordered CSR.  Rows are permuted into shard
        # order (stably, so ascending within a shard) only when the
        # assignment is not already sorted.
        if (np.diff(assignment) < 0).any():
            self._order = stable_argsort(assignment, n_shards)
            self._rows = self._order
        else:
            self._order = None
            self._rows = np.arange(self.n_rows, dtype=np.int64)
        self._bounds = np.zeros(n_shards + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(assignment, minlength=n_shards),
            out=self._bounds[1:],
        )
        self._matrix = matrix
        self._build_shards()
        # Persistent workers, spun up once: n active shards occupy n
        # threads, the caller's among them; a single shard needs none.
        self._workers = len(self._active) - 1
        if self._workers:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers,
                thread_name_prefix="repro-shard",
            )
        self._workspace = WorkspacePool()

    def _build_shards(self) -> None:
        """(Re)build every shard from one consistent matrix snapshot.

        One CSR of the snapshot, rows in shard order: ``indptr`` is the
        cumulative row lengths and ``indices``/``data`` are the
        canonical row-sorted COO's own arrays, adopted without a copy
        (permuted once when the assignment is not sorted).  Each shard
        is a row range of it, cut into nnz-balanced pieces
        (:func:`~repro.multigpu.bitonic.nnz_cuts`), and each piece is a
        row range with a plan from the normal backend; only ``O(rows)``
        is allocated per build.  Within every row the entries stay in
        ascending column order, so the per-row sum sequence is
        independent of the partition — the bit-identity invariant.

        ``data_version`` is the mutation watermark: dynamic matrices
        bump it on every applied batch, and ``_run`` rebuilds here when
        it moves, so a cached per-shard plan never serves stale data.
        The version is read *before* the snapshot, so a concurrent
        update landing mid-rebuild at worst triggers one more
        (idempotent) rebuild on the next call — never a stale or torn
        read.  The row→shard assignment is kept.
        """
        from repro.multigpu.bitonic import nnz_cuts

        version = self._matrix.data_version
        csr = CSRMatrix._from_coo_shared(self._matrix.coo_snapshot())
        if self._order is not None:
            csr = csr.select_rows(self._order)
        self._csr = csr
        indptr = csr.indptr
        shards, pieces = [], []
        for index in range(self.n_shards):
            lo, hi = int(self._bounds[index]), int(self._bounds[index + 1])
            shard = _Shard(index, self._rows[lo:hi])
            n_pieces = max(
                1, int(indptr[hi] - indptr[lo]) // AUTO_MIN_NNZ_PER_SHARD
            )
            cuts = lo + nnz_cuts(indptr[lo : hi + 1], n_pieces)
            for p_lo, p_hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
                if p_lo == p_hi:
                    continue
                start, stop = indptr[p_lo], indptr[p_hi]
                part = CSRMatrix._from_trusted_parts(
                    indptr[p_lo : p_hi + 1] - start,
                    csr.indices[start:stop],
                    csr.data[start:stop],
                    (p_hi - p_lo, self.n_cols),
                )
                piece = _Piece(
                    index, len(pieces), self._rows[p_lo:p_hi], part,
                    build_plan(part, backend=self.backend),
                )
                shard.pieces.append(piece)
                pieces.append(piece)
            shards.append(shard)
        self.shards = shards
        self._active = [s for s in shards if s.row_ids.size]
        self._pieces = pieces
        self._piece_shard = np.array([p.shard for p in pieces], dtype=np.intp)
        self._piece_seconds = np.zeros(len(pieces))
        self._data_version = version

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return sum(shard.nnz for shard in self.shards)

    @property
    def shard_row_ids(self) -> list[np.ndarray]:
        """Each shard's (ascending) global row indices."""
        return [shard.row_ids for shard in self.shards]

    @property
    def shard_nnz(self) -> np.ndarray:
        """Stored non-zeros per shard."""
        return np.array([shard.nnz for shard in self.shards])

    @property
    def last_shard_seconds(self) -> np.ndarray:
        """Measured per-shard wall seconds of the most recent call: the
        sum of each shard's piece times, whichever threads ran them."""
        return np.bincount(
            self._piece_shard, weights=self._piece_seconds,
            minlength=self.n_shards,
        )

    @property
    def resilience_stats(self) -> dict[str, int]:
        """Cumulative recovery counters: retries, failures, timeouts,
        degraded shards, detected corruptions and invalidations."""
        with self._rlock:
            return dict(self._rstats)

    def _event(self, stat: str, metric: str, **labels) -> None:
        """Count one recovery event in both books: ``resilience_stats``
        under ``stat`` and, when obs is on, the registry's ``metric``."""
        with self._rlock:
            self._rstats[stat] = self._rstats.get(stat, 0) + 1
        if _metrics._ENABLED:
            _metrics.METRICS.inc(metric, **labels)

    def balance(self):
        """Row/nnz balance diagnostics of the shard partition."""
        from repro.multigpu.bitonic import PartitionBalance

        rows = np.array([s.row_ids.size for s in self.shards])
        return PartitionBalance(rows_per_part=rows, nnz_per_part=self.shard_nnz)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``out = A @ x``, shards in parallel, bit-identical per row."""
        return self._run(x, out, batched=False)

    def spmm(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched ``out = A @ X``; the RHS goes through the plans' own
        :func:`~repro.exec.plan.prepare_rhs` once for all shards (a
        Fortran-ordered ``X`` costs one pooled staging copy here, not
        one per shard)."""
        return self._run(X, out, batched=True)

    def _run(self, rhs, out, *, batched: bool) -> np.ndarray:
        if self._closed:
            raise ExecutorClosedError("executor is closed")
        with self._call_lock:
            # Re-check under the lock: ``close()`` holds ``_call_lock``
            # while it tears the pool down, so a call that lost the race
            # fails loudly here instead of submitting to a shut pool.
            if self._closed:
                raise ExecutorClosedError("executor is closed")
            # Inputs are checked under the lock too: the staged RHS is
            # executor state, shared by every call.
            if batched:
                rhs = prepare_rhs(
                    rhs, self.n_cols, self._workspace, "spmm:rhs"
                )
            else:
                rhs = check_vector(rhs, self.n_cols)
            out = check_out_buffer(out, (self.n_rows, *rhs.shape[1:]))
            if self._matrix.data_version != self._data_version:
                self._build_shards()
                self._event(
                    "invalidations", "exec.invalidations",
                    n_shards=self.n_shards,
                )
            if not self._pieces:
                out.fill(0.0)
                self.executions += 1
                return out
            # The caller's thread and the pool workers take pieces off
            # one shared counter (``next`` on an ``itertools.count`` is
            # atomic under the GIL) until none remain.
            take = itertools.count().__next__
            helpers = []
            for _ in range(min(self._workers, len(self._pieces) - 1)):
                holding = [None]
                helpers.append((holding, self._pool.submit(
                    self._pull, take, rhs, out, batched, holding
                )))
            errors = self._pull(take, rhs, out, batched, [None])
            late = []
            timeout = self.retry.timeout_seconds
            for holding, future in helpers:
                try:
                    errors += future.result(timeout=timeout)
                except FuturesTimeoutError:
                    held = holding[0]
                    # A thread cannot be killed: drain the straggler so
                    # it never races its own recomputation on ``out`` or
                    # the piece's buffers.
                    errors += future.result()
                    if held is not None:
                        self._event(
                            "timeouts", "resilience.timeouts",
                            shard=held.shard,
                        )
                        late.append(held)
            failed = [(piece, "error") for piece in errors] + [
                (piece, "timeout") for piece in late if piece not in errors
            ]
            # Graceful degradation: failed pieces re-execute serially in
            # the caller thread with injection suppressed, so recovery
            # terminates; a failure there is a real bug and propagates.
            for piece, reason in failed:
                self._event(
                    "degraded", "resilience.degraded",
                    reason=reason, shard=piece.shard,
                )
                with _faults.INJECTOR.suppressed():
                    self._shard_task(piece, rhs, out, batched)
            self.executions += 1
            if _metrics._ENABLED:
                self._report_metrics(batched)
        return out

    def _pull(self, take, rhs, out, batched: bool, holding: list) -> list:
        """Run pieces numbered by ``take()`` until the numbers pass the
        last piece; returns the pieces whose task failed.

        ``holding[0]`` is the piece in hand, so a caller that times this
        thread out knows which piece to recompute.
        """
        pieces = self._pieces
        failed = []
        while (number := take()) < len(pieces):
            holding[0] = piece = pieces[number]
            try:
                self._shard_task(piece, rhs, out, batched)
            except Exception:
                failed.append(piece)
        holding[0] = None
        return failed

    def _shard_task(
        self, piece: _Piece, rhs: np.ndarray, out: np.ndarray, batched: bool
    ) -> None:
        """Write ``piece``'s rows of ``out``, retrying failed attempts.

        Each attempt fully overwrites the piece's rows — every backend's
        ``_execute``/``_execute_many`` writes every output row — so the
        final bytes always come from exactly one complete attempt, and a
        retry may reuse the zero-copy view or pooled buffer of the
        attempt it replaces.  Fault sites and recovery events carry the
        owning shard's index.  While fault injection is armed the fault
        sites fire and a non-finite output fails the attempt; disarmed,
        both cost one boolean test.
        """
        policy = self.retry
        tick = time.perf_counter()
        last: Exception | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self._event(
                    "retries", "resilience.retries", shard=piece.shard
                )
                time.sleep(policy.backoff(attempt))
            try:
                armed = _faults._ARMED
                if armed:
                    _faults.INJECTOR.fire(
                        "shard.task", shard=piece.shard, attempt=attempt
                    )
                    _faults.INJECTOR.fire(
                        "backend.spmm" if batched else "backend.spmv",
                        shard=piece.shard,
                        attempt=attempt,
                    )
                k = piece.row_ids.size
                if piece.contiguous:
                    target = out[piece.start : piece.stop]
                elif batched:
                    target = piece.pool.buffer("shard:Y", (k, rhs.shape[1]))
                else:
                    target = piece.pool.buffer("shard:y", k)
                if batched:
                    piece.plan._execute_many(rhs, target)
                else:
                    piece.plan._execute(rhs, target)
                if armed:
                    _faults.INJECTOR.corrupt(
                        "backend.corrupt", target,
                        shard=piece.shard, attempt=attempt,
                    )
                    _faults.INJECTOR.corrupt(
                        "shard.corrupt", target,
                        shard=piece.shard, attempt=attempt,
                    )
                    if (
                        policy.validate_outputs
                        and target.size
                        and not all_finite(target)
                    ):
                        self._event(
                            "corruption_detected",
                            "resilience.corruption.detected",
                            shard=piece.shard,
                        )
                        raise CorruptedOutputError(
                            f"shard {piece.shard} produced non-finite output"
                        )
                if not piece.contiguous:
                    out[piece.row_ids] = target
            except Exception as exc:
                self._event(
                    "failures", "resilience.shard.failures", shard=piece.shard
                )
                last = exc
                continue
            self._piece_seconds[piece.number] = time.perf_counter() - tick
            return
        raise ShardExecutionError(
            f"shard {piece.shard} failed after {policy.max_attempts} attempts"
        ) from last

    def _report_metrics(self, batched: bool) -> None:
        """Feed the registry after a completed call (obs enabled only)."""
        _metrics.METRICS.inc(
            "sharded.calls",
            kind="spmm" if batched else "spmv",
            n_shards=self.n_shards,
        )
        seconds = self.last_shard_seconds
        active_seconds = [seconds[s.index] for s in self._active]
        for shard in self._active:
            _metrics.METRICS.observe(
                "sharded.shard.seconds", seconds[shard.index],
                shard=shard.index,
            )
        mean = sum(active_seconds) / len(active_seconds)
        if mean > 0.0:
            imbalance = max(active_seconds) / mean
            _metrics.METRICS.set_gauge("sharded.imbalance", imbalance)
            _metrics.METRICS.observe("sharded.imbalance.samples", imbalance)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down; the executor is unusable after.

        Drains: acquires ``_call_lock``, so an in-flight ``spmv``/``spmm``
        completes (and its ``out`` is fully written) before the thread
        pool shuts down.  Calls that arrive after the drain raise
        :class:`~repro.errors.ExecutorClosedError`.

        Idempotent, and safe on a partially-constructed instance (an
        ``__init__`` that failed before the pool existed): the lock and
        pool are read defensively and double closes are no-ops.
        """
        lock = getattr(self, "_call_lock", None)
        if lock is None:
            self._teardown_pool()
            return
        with lock:
            self._teardown_pool()

    def _teardown_pool(self) -> None:
        self._closed = True
        pool = getattr(self, "_pool", None)
        if pool is not None:
            self._pool = None
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedExecutor(shape={self.shape}, n_shards={self.n_shards}, "
            f"backend={self.backend!r}, "
            f"executions={self.executions})"
        )
