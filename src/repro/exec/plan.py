"""Cached SpMV execution plans.

A *plan* is the execute-side half of a sparse matrix: everything an
``y = A @ x`` needs beyond the raw arrays, precomputed once and reused
on every call.  For sorted CSR and COO — and so for every format whose
product is the canonical one, run through its row-sorted COO — that is
the segment boundaries of an ``np.add.reduceat`` reduction (replacing
the per-call ``np.repeat(np.arange(n_rows), diff(indptr))`` +
``np.bincount`` of the seed implementation); for ELL it is the padded gather layout; for
HYB/PKT and the tile matrices it is the composition of child plans plus
the reorder/scatter maps.

Plans own a :class:`~repro.exec.workspace.WorkspacePool` so repeated
executions perform **zero heap allocations of O(nnz) temporaries**: the
product array, gather buffers and segment partials are all pool-resident
after the first call.  ``execute(x, out=...)`` writes into a caller
buffer; ``execute_many(X)`` runs a batched multi-vector SpMM (one matrix
gather serving every column), column-bit-identical to ``execute``.

This mirrors the row-grouped execution-structure precomputation of
Heller & Oberhuber (arXiv:1203.5737) and the plan-reuse argument of
Yang, Buluç & Owens (arXiv:1803.08601): the paper's own preprocessing
("the cost of sorting can be amortized", §3.1) applied to the host-side
numerical path.
"""

from __future__ import annotations

import abc
import functools
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.exec.workspace import WorkspacePool
from repro.formats.base import all_finite, coerce_array
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults

__all__ = [
    "PLAN_CACHE_STATS",
    "PlanCacheStats",
    "SpMVPlan",
    "CSRPlan",
    "COOPlan",
    "MPCSRPlan",
    "ELLPlan",
    "DIAPlan",
    "HYBPlan",
    "PKTPlan",
    "TileCOOPlan",
    "TileCompositePlan",
    "check_out_buffer",
    "prepare_rhs",
]


@dataclass
class PlanCacheStats:
    """Global counters of lazy plan construction vs. cache hits."""

    builds: int = 0
    hits: int = 0

    def reset(self) -> None:
        self.builds = 0
        self.hits = 0


#: Process-wide plan-cache statistics (observability / tests).
PLAN_CACHE_STATS = PlanCacheStats()


def check_out_buffer(
    out: np.ndarray | None, shape: tuple[int, ...]
) -> np.ndarray:
    """The output buffer of one call: a fresh array when ``out`` is
    ``None``, else the caller's buffer, validated (shared by plans and
    the sharded executor)."""
    if out is None:
        return np.empty(shape, dtype=np.float64)
    if not isinstance(out, np.ndarray):
        raise ValidationError("out must be a numpy array")
    if out.dtype != np.float64:
        raise ValidationError(f"out must be float64, got {out.dtype}")
    if out.shape != shape:
        raise ValidationError(
            f"out has shape {out.shape}, expected {shape}"
        )
    if not out.flags.c_contiguous:
        raise ValidationError("out must be C-contiguous")
    return out


def prepare_rhs(
    X, n_cols: int, pool: WorkspacePool, name: str
) -> np.ndarray:
    """Validate a multi-vector right-hand side without a per-call copy
    (the one SpMM front door of plans and the sharded executor).

    A C-contiguous float64 matrix passes through untouched; anything
    else — Fortran-ordered iterates, strided views, other real dtypes —
    is copied into ``pool.buffer(name, X.shape)``, so repeated calls
    with the same batch shape stay allocation-free in steady state.
    The caller owns ``name`` for the call (a plan's scratch claim, the
    executor's call lock).  Un-coercible dtypes, wrong rank, negative
    strides and non-finite values all raise a loud
    :class:`ValidationError` (via
    :func:`~repro.formats.base.coerce_array` /
    :func:`~repro.formats.base.all_finite`).
    """
    if isinstance(X, np.ndarray):
        if X.dtype.kind not in "buif" or X.dtype.itemsize > 8:
            raise ValidationError(
                f"SpMM input has unsupported dtype {X.dtype}; expected "
                "a real numeric dtype convertible to float64"
            )
        if X.ndim != 2:
            raise ValidationError(f"SpMM input must be 2-D, got {X.ndim}-D")
        if any(stride < 0 for stride in X.strides):
            raise ValidationError(
                "SpMM input has negative strides (a reversed view); pass "
                "a contiguous copy instead"
            )
    else:
        X = coerce_array(X, "SpMM input", ndim=2)
    if X.shape[0] != n_cols:
        raise ValidationError(
            f"SpMM input has {X.shape[0]} rows, expected {n_cols}"
        )
    if not (X.dtype == np.float64 and X.flags.c_contiguous):
        staged = pool.buffer(name, X.shape)
        np.copyto(staged, X)
        X = staged
    if X.size and not all_finite(X):
        raise ValidationError(
            "SpMM input contains NaN or Inf; refusing to propagate "
            "non-finite values"
        )
    return X


class _SegmentReduction:
    """Precomputed ``np.add.reduceat`` segments over row-sorted entries.

    Each segment is one output row's contiguous run of products; when
    every row is non-empty the reduction lands directly in ``out``,
    otherwise it goes through a pool buffer and scatters to the
    non-empty rows (empty rows stay at the zero fill).
    """

    __slots__ = ("seg_starts", "target_rows", "direct", "n_rows")

    def __init__(
        self, seg_starts: np.ndarray, target_rows: np.ndarray, n_rows: int
    ) -> None:
        self.seg_starts = seg_starts
        self.target_rows = target_rows
        self.n_rows = n_rows
        #: Reduce straight into ``out``: one segment per row, in order.
        self.direct = target_rows.size == n_rows

    @classmethod
    def from_indptr(cls, indptr: np.ndarray) -> "_SegmentReduction":
        n_rows = indptr.size - 1
        lengths = np.diff(indptr)
        nonempty = np.nonzero(lengths)[0]
        # ``reduceat`` indexes in intp: narrower starts would be cast on
        # every call, so they widen once here (O(rows)).
        starts = indptr[:-1][nonempty].astype(np.intp, copy=False)
        return cls(starts, nonempty, n_rows)

    @classmethod
    def from_sorted_rows(
        cls, rows: np.ndarray, n_rows: int
    ) -> "_SegmentReduction":
        if rows.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return cls(empty, empty, n_rows)
        starts = np.concatenate(
            [[0], np.nonzero(np.diff(rows) != 0)[0] + 1]
        ).astype(np.int64)
        return cls(starts, rows[starts], n_rows)

    def apply(
        self,
        products: np.ndarray,
        out: np.ndarray,
        pool: WorkspacePool,
        tag: str = "",
    ) -> None:
        """``out[r] = sum of products in row r`` (zero for empty rows);
        ``tag`` suffixes the scratch name (see ``_GatherReducePlan``)."""
        if self.seg_starts.size == 0:
            out.fill(0.0)
            return
        if self.direct:
            np.add.reduceat(products, self.seg_starts, out=out)
            return
        partial = pool.buffer("seg:partial" + tag, self.seg_starts.size)
        np.add.reduceat(products, self.seg_starts, out=partial)
        out.fill(0.0)
        out[self.target_rows] = partial


def _with_scratch(method):
    """Run ``method(self, x, out, tag)`` with ``tag`` from
    :meth:`SpMVPlan._claim_scratch`, released when it returns."""

    @functools.wraps(method)
    def run(self, x, out):
        tag = self._claim_scratch()
        try:
            method(self, x, out, tag)
        finally:
            self._release_scratch(tag)

    return run


class SpMVPlan(abc.ABC):
    """Base class of all execution plans.

    ``execute``/``execute_many`` validate inputs and dispatch to the
    format-specific ``_execute``/``_execute_many``; subclasses must
    fully overwrite ``out`` (no read of uninitialised memory).

    A matrix hands its one cached plan to every thread that calls
    ``spmv``, so the pooled scratch of a call must not be shared with a
    concurrent one.  An execution claims the plan's shared buffers when
    they are free (a non-blocking try-lock: the single-stream case, and
    every sharded-executor shard, since the executor serialises its
    calls); a call that finds them taken borrows a tag from a free list
    of earlier ones, or a new tag when all are out, and returns it when
    done.  The pool therefore holds at most one scratch set per peak
    concurrent caller, however many threads come and go, and a steady
    state allocates nothing.
    A claim is reentrant per thread: a nested claim on the same plan
    (``execute_many``'s staging around ``_execute_many``, the fallback
    SpMM's per-column ``_execute`` calls) reuses the held tag.
    Composed plans call their children's ``_execute``, which claim
    their own.
    """

    #: Name of the backend that built this plan.
    backend: str = "numpy"

    def __init__(self, shape: tuple[int, int]) -> None:
        self.shape = shape
        self.pool = WorkspacePool()
        #: Number of completed executions (spmv and spmm both count).
        self.executions = 0
        self._shared_scratch = threading.Lock()
        self._held = threading.local()  # this thread's (tag, depth)
        self._tags_lock = threading.Lock()
        self._free_tags: list[str] = []
        self._n_tags = 0

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def execute(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``out = A @ x``; allocates the result only when ``out`` is None."""
        from repro.formats.base import check_vector

        x = check_vector(x, self.n_cols)
        out = check_out_buffer(out, (self.n_rows,))
        return self._run(self._execute, x, out, "spmv")

    def execute_many(
        self, X: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched multi-vector product ``out = A @ X``.

        ``X`` has shape ``(n_cols, k)``; the result has ``(n_rows, k)``.
        Column ``j`` of the result is bit-identical to
        ``execute(X[:, j])``.  A right-hand side that needs staging
        (:func:`prepare_rhs`) is staged under this call's scratch claim,
        so the pool holds one staged copy per peak concurrent caller.
        """
        tag = self._claim_scratch()
        try:
            X = prepare_rhs(X, self.n_cols, self.pool, "spmm:rhs" + tag)
            out = check_out_buffer(out, (self.n_rows, X.shape[1]))
            return self._run(self._execute_many, X, out, "spmm")
        finally:
            self._release_scratch(tag)

    def _run(self, method, rhs, out: np.ndarray, kind: str) -> np.ndarray:
        """``method(rhs, out)`` between the ``backend.<kind>`` fault
        sites, counted as ``<kind>.calls``/``<kind>.seconds``."""
        name = type(self).__name__
        if _faults._ARMED:
            _faults.INJECTOR.fire("backend." + kind, plan=name)
        if _metrics._ENABLED:
            tick = time.perf_counter()
            method(rhs, out)
            _metrics.METRICS.inc(
                kind + ".calls", plan=name, backend=self.backend
            )
            _metrics.METRICS.observe(
                kind + ".seconds",
                time.perf_counter() - tick,
                plan=name,
                backend=self.backend,
            )
        else:
            method(rhs, out)
        if _faults._ARMED:
            # Silent corruption site: the poisoned value rides out of this
            # call and is caught by the next check_vector / the sharded
            # executor's output validation — never propagated quietly.
            _faults.INJECTOR.corrupt("backend.corrupt", out, plan=name)
        self.executions += 1
        return out

    # A plan is an engine: the ``spmv``/``spmm``/``close`` surface of
    # :class:`~repro.exec.ShardedExecutor`, with nothing to release.

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.execute(x, out=out)

    def spmm(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.execute_many(X, out=out)

    def close(self) -> None:
        """No-op: a plan owns no threads."""

    def __enter__(self) -> "SpMVPlan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Format-specific implementations
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _execute(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write ``A @ x`` into ``out`` (both validated)."""

    def _claim_scratch(self) -> str:
        """Scratch-name suffix of one execution: ``""`` for the shared
        buffers, else a tag no running execution holds.
        :meth:`_release_scratch` gives either back."""
        held = self._held
        depth = getattr(held, "depth", 0)
        if depth:
            held.depth = depth + 1
            return held.tag
        if self._shared_scratch.acquire(blocking=False):
            tag = ""
        else:
            with self._tags_lock:
                if self._free_tags:
                    tag = self._free_tags.pop()
                else:
                    self._n_tags += 1
                    tag = f":{self._n_tags}"
        held.tag, held.depth = tag, 1
        return tag

    def _release_scratch(self, tag: str) -> None:
        held = self._held
        held.depth -= 1
        if held.depth:
            return
        if not tag:
            self._shared_scratch.release()
            return
        with self._tags_lock:
            self._free_tags.append(tag)

    @_with_scratch
    def _execute_many(self, X: np.ndarray, out: np.ndarray, tag) -> None:
        """Fallback SpMM: column-wise ``_execute`` through pool buffers.

        Subclasses with a single-gather batched path override this.
        """
        xcol = self.pool.buffer("spmm:x" + tag, self.n_cols)
        ycol = self.pool.buffer("spmm:y" + tag, self.n_rows)
        for j in range(X.shape[1]):
            np.copyto(xcol, X[:, j])
            self._execute(xcol, ycol)
            out[:, j] = ycol

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, "
            f"backend={self.backend!r}, executions={self.executions})"
        )


class _GatherReducePlan(SpMVPlan):
    """Shared machinery of CSR/COO/MPCSR: gather x, multiply,
    segment-reduce.

    Subclasses provide ``gather_cols`` (the column index of each stored
    entry, in storage order), ``values`` (the matching data array) and
    a ``segments`` reduction.
    """

    gather_cols: np.ndarray
    values: np.ndarray
    segments: _SegmentReduction

    @property
    def plan_nnz(self) -> int:
        return self.values.size

    @property
    def _gather(self) -> np.ndarray:
        """``gather_cols`` in intp, the index type of ``np.take``.

        The plan holds the format's own 32-bit indices and builds in
        O(rows); ``np.take`` would cast them to a fresh intp array on
        every call, so the first call widens them once and keeps the
        copy (a race builds two equal copies, one of which is kept).
        """
        cols = self.__dict__.get("_gather_intp")
        if cols is None:
            cols = self.gather_cols.astype(np.intp, copy=False)
            self._gather_intp = cols
        return cols

    def _reduce(
        self, products: np.ndarray, out: np.ndarray, tag: str
    ) -> None:
        self.segments.apply(products, out, self.pool, tag)

    @_with_scratch
    def _execute(self, x: np.ndarray, out: np.ndarray, tag) -> None:
        nnz = self.plan_nnz
        if nnz == 0:
            out.fill(0.0)
            return
        prod = self.pool.buffer("prod" + tag, nnz)
        np.take(x, self._gather, out=prod, mode="clip")
        np.multiply(prod, self.values, out=prod)
        self._reduce(prod, out, tag)

    @_with_scratch
    def _execute_many(self, X: np.ndarray, out: np.ndarray, tag) -> None:
        nnz = self.plan_nnz
        if nnz == 0:
            out.fill(0.0)
            return
        k = X.shape[1]
        # One transposed copy makes every right-hand side a contiguous
        # row; each column then runs the exact gather/multiply/reduce
        # sequence of ``_execute``, so the result columns are
        # bit-identical to column-wise spmv calls while the validation
        # and pool lookups are paid once per batch.
        XT = self.pool.buffer("spmm:xt" + tag, (k, self.n_cols))
        np.copyto(XT, X.T)
        prod = self.pool.buffer("prod" + tag, nnz)
        ycol = self.pool.buffer("spmm:y" + tag, self.n_rows)
        cols = self._gather
        for j in range(k):
            np.take(XT[j], cols, out=prod, mode="clip")
            np.multiply(prod, self.values, out=prod)
            self._reduce(prod, ycol, tag)
            out[:, j] = ycol


class CSRPlan(_GatherReducePlan):
    """Plan for :class:`~repro.formats.csr.CSRMatrix`.

    Segment starts come straight from ``indptr`` — the reduceat offsets
    of the sorted-CSR reduction.
    """

    def __init__(self, csr) -> None:
        super().__init__(csr.shape)
        self.gather_cols = csr.indices
        self.values = csr.data
        self.segments = _SegmentReduction.from_indptr(csr.indptr)


class COOPlan(_GatherReducePlan):
    """Plan for row-sorted :class:`~repro.formats.coo.COOMatrix` — and,
    through its :meth:`~repro.formats.base.SparseMatrix.to_coo`, the
    numpy plan of every format that does not build its own (CSC, CMRS,
    RGCSR, plugins)."""

    def __init__(self, coo) -> None:
        super().__init__(coo.shape)
        self.gather_cols = coo.cols
        self.values = coo.data
        self.segments = _SegmentReduction.from_sorted_rows(
            coo.rows, coo.n_rows
        )


class MPCSRPlan(_GatherReducePlan):
    """Plan for :class:`~repro.formats.mpcsr.MPCSRMatrix`.

    When no split point bisects a row (the default policy below the
    bisection threshold) this is exactly :class:`CSRPlan` — bitwise
    member of the differential matrix's canonical class.  When rows are
    bisected, each nnz-balanced **piece** (a row fragment between
    consecutive cut/row boundaries) is one reduceat segment; the
    deterministic fix-up combines a row's piece partials in split
    order: assignment for the first piece (preserves signed zeros),
    in-place add for each deeper piece.  Within one depth level a row
    appears at most once, so the pooled gather/add/scatter is exact.
    """

    def __init__(self, mpcsr) -> None:
        super().__init__(mpcsr.shape)
        self.gather_cols = mpcsr.indices
        self.values = mpcsr.data
        if mpcsr.bisected_rows.size == 0:
            self.segments = _SegmentReduction.from_indptr(mpcsr.indptr)
            self.piece_starts = None
            self.levels: list[tuple[np.ndarray, np.ndarray]] = []
            return
        indptr = mpcsr.indptr
        nonempty_starts = indptr[:-1][np.nonzero(np.diff(indptr))[0]]
        cuts = mpcsr.split_entry[1:-1]
        piece_starts = np.unique(
            np.concatenate([nonempty_starts, cuts])
        ).astype(np.int64)
        piece_rows = (
            np.searchsorted(indptr, piece_starts, side="right") - 1
        ).astype(np.int64)
        # Depth of a piece = its rank among its row's pieces, in entry
        # (= split) order; one (indices, rows) pair per depth level.
        run_starts = np.concatenate(
            [[0], np.nonzero(np.diff(piece_rows))[0] + 1]
        ).astype(np.int64)
        run_lengths = np.diff(
            np.concatenate([run_starts, [piece_rows.size]])
        )
        depth = np.arange(piece_rows.size, dtype=np.int64) - np.repeat(
            run_starts, run_lengths
        )
        self.segments = None
        self.piece_starts = piece_starts
        self.levels = []
        for d in range(int(depth.max()) + 1):
            sel = np.nonzero(depth == d)[0]
            self.levels.append((sel, piece_rows[sel]))

    def _reduce(
        self, products: np.ndarray, out: np.ndarray, tag: str
    ) -> None:
        if self.piece_starts is None:
            self.segments.apply(products, out, self.pool, tag)
            return
        partial = self.pool.buffer(
            "mp:partial" + tag, self.piece_starts.size
        )
        np.add.reduceat(products, self.piece_starts, out=partial)
        out.fill(0.0)
        for d, (idx, rows) in enumerate(self.levels):
            buf = self.pool.buffer(f"mp:take{d}{tag}", idx.size)
            np.take(partial, idx, out=buf)
            if d == 0:
                out[rows] = buf
            else:
                cur = self.pool.buffer(f"mp:cur{d}{tag}", rows.size)
                np.take(out, rows, out=cur)
                np.add(cur, buf, out=cur)
                out[rows] = cur


class ELLPlan(SpMVPlan):
    """Plan for :class:`~repro.formats.ell.ELLMatrix`.

    Caches nothing beyond views of the padded arrays — ELL's layout *is*
    its plan — but reuses the ``(n_rows, width)`` gather buffer.
    """

    def __init__(self, ell) -> None:
        super().__init__(ell.shape)
        self.indices = ell.indices
        self.values = ell.data
        self.degenerate = (
            ell.n_rows == 0 or ell.width == 0 or ell.n_cols == 0
        )

    @_with_scratch
    def _execute(self, x: np.ndarray, out: np.ndarray, tag) -> None:
        if self.degenerate:
            out.fill(0.0)
            return
        gathered = self.pool.buffer("gather" + tag, self.indices.shape)
        np.take(x, self.indices, out=gathered, mode="clip")
        np.multiply(gathered, self.values, out=gathered)
        np.sum(gathered, axis=1, out=out)


class DIAPlan(SpMVPlan):
    """Plan for :class:`~repro.formats.dia.DIAMatrix`.

    Precomputes each diagonal's in-bounds row span so execution is pure
    slice arithmetic — no per-call boolean masks.
    """

    def __init__(self, dia) -> None:
        super().__init__(dia.shape)
        self.values = dia.data
        self.spans: list[tuple[int, int, int, int]] = []
        for d, offset in enumerate(dia.offsets):
            off = int(offset)
            lo = max(0, -off)
            hi = min(dia.n_rows, dia.n_cols - off)
            if hi > lo:
                self.spans.append((d, off, lo, hi))

    @_with_scratch
    def _execute(self, x: np.ndarray, out: np.ndarray, tag) -> None:
        out.fill(0.0)
        if not self.spans:
            return
        scratch = self.pool.buffer("diag" + tag, self.n_rows)
        for d, off, lo, hi in self.spans:
            seg = scratch[: hi - lo]
            np.multiply(self.values[d, lo:hi], x[lo + off : hi + off], out=seg)
            out[lo:hi] += seg


class HYBPlan(SpMVPlan):
    """Plan for :class:`~repro.formats.hyb.HYBMatrix` — the split plan.

    Composes the child ELL and COO plans (each cached on its own
    sub-matrix) and accumulates the tail into the head's output.
    """

    def __init__(self, hyb) -> None:
        super().__init__(hyb.shape)
        self.ell = hyb.ell
        self.tail = hyb.coo

    @_with_scratch
    def _execute(self, x: np.ndarray, out: np.ndarray, tag) -> None:
        self.ell.spmv_plan()._execute(x, out)
        tail_y = self.pool.buffer("tail:y" + tag, self.n_rows)
        self.tail.spmv_plan()._execute(x, tail_y)
        out += tail_y


class PKTPlan(SpMVPlan):
    """Plan for :class:`~repro.formats.pkt.PKTMatrix`.

    Gathers each packet's ``x`` slice into a pooled buffer, runs the
    packet's local COO plan, and scatter-adds into ``out``; the
    remainder's plan seeds the output.
    """

    def __init__(self, pkt) -> None:
        super().__init__(pkt.shape)
        self.remainder = pkt.remainder
        self.packets = pkt.packets

    @_with_scratch
    def _execute(self, x: np.ndarray, out: np.ndarray, tag) -> None:
        self.remainder.spmv_plan()._execute(x, out)
        for i, packet in enumerate(self.packets):
            k = packet.row_ids.size
            xg = self.pool.buffer(f"pkt{i}:x{tag}", k)
            yg = self.pool.buffer(f"pkt{i}:y{tag}", k)
            np.take(x, packet.row_ids, out=xg, mode="clip")
            packet.local.spmv_plan()._execute(xg, yg)
            out[packet.row_ids] += yg


class TileCOOPlan(SpMVPlan):
    """Plan for :class:`~repro.core.tile_coo.TileCOOMatrix`.

    Caches the column-reorder gather and reuses one accumulator for the
    per-tile partial results (the kernel's combine pass).
    """

    def __init__(self, matrix) -> None:
        super().__init__(matrix.shape)
        self.matrix = matrix

    @_with_scratch
    def _execute(self, x: np.ndarray, out: np.ndarray, tag) -> None:
        tile_plan = self.matrix.plan
        xr = self.pool.buffer("x:reordered" + tag, self.n_cols)
        np.take(x, tile_plan.col_order, out=xr, mode="clip")
        out.fill(0.0)
        acc = self.pool.buffer("tile:acc" + tag, self.n_rows)
        for t, tile in enumerate(self.matrix.tiles):
            start, stop = tile_plan.tile_range(t)
            tile.spmv_plan()._execute(xr[start:stop], acc)
            out += acc
        if self.matrix.remainder is not None:
            self.matrix.remainder.spmv_plan()._execute(
                xr[tile_plan.dense_cols :], acc
            )
            out += acc


class TileCompositePlan(SpMVPlan):
    """Plan for :class:`~repro.core.composite.TileCompositeMatrix`.

    Each composite tile's local CSR plan computes into a pooled partial
    buffer which scatters onto the tile's (length-sorted) rows —
    exactly the kernel's partial-result write-back plus combine step.
    """

    def __init__(self, matrix) -> None:
        super().__init__(matrix.shape)
        self.matrix = matrix

    @_with_scratch
    def _execute(self, x: np.ndarray, out: np.ndarray, tag) -> None:
        tile_plan = self.matrix.plan
        xr = self.pool.buffer("x:reordered" + tag, self.n_cols)
        np.take(x, tile_plan.col_order, out=xr, mode="clip")
        out.fill(0.0)
        for t, tile in enumerate(self.matrix.tiles):
            start, stop = tile_plan.tile_range(t)
            partial = self.pool.buffer(f"tile{t}:y{tag}", tile.row_ids.size)
            tile.csr.spmv_plan()._execute(xr[start:stop], partial)
            out[tile.row_ids] += partial
        remainder = self.matrix.remainder
        if remainder is not None:
            partial = self.pool.buffer(
                "remainder:y" + tag, remainder.row_ids.size
            )
            remainder.csr.spmv_plan()._execute(
                xr[tile_plan.dense_cols :], partial
            )
            out[remainder.row_ids] += partial
