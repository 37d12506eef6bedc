"""Compiled, GIL-releasing SpMV kernels (the ``native`` backend).

The thread-pool :class:`~repro.exec.sharded.ShardedExecutor` is only as
parallel as its kernels let it be: numpy-plan shards contend on the GIL
and a 4-shard run on one core is *slower* than one shard (recorded
honestly in BENCH_sharded.json).  This module closes that gap with
numba-compiled kernels declared ``nogil=True`` — while a shard is inside
a kernel, the other shards' threads genuinely run — plus
``parallel=True`` row-split variants for the single-plan path, the
load-balanced decomposition of Yang, Buluç & Owens (arXiv:1803.08601)
applied on the host: rows are pre-split into chunks of near-equal
non-zero count and ``prange`` walks the chunks.

Three kernel families cover every storage format:

* **CSR row-split** — serial per-row accumulation in ascending column
  order (the canonical reduction, so results are bitwise equal to the
  ``np.add.reduceat`` reference), chunked by nnz for the parallel
  variant;
* **ELL** — padded row-major gather, iterating only the valid prefix of
  each row so padding never touches the accumulator;
* **segmented reduce** — the ``np.add.reduceat`` equivalent over
  row-sorted COO entries (one segment per non-empty row, scattered to
  its target row), which serves any format via ``to_coo()`` without a
  CSR conversion;
* **load-balanced zoo** — CMRS strips (``prange`` over strips, one
  strip owns a disjoint row range), row-grouped CSR (``prange`` over a
  group's padded rows), and merge-path CSR (``prange`` over
  nnz-balanced splits that may bisect rows, with a serial carry fix-up
  in split order — the work decomposition of Yang–Buluç–Owens where a
  hub row can never straggle the schedule, unlike ``row_splits``
  which must keep rows whole).

Format-specific plans are dispatched through the
:mod:`repro.formats.registry` ``native_plan`` hooks, so third-party
formats can ship their own compiled plan without touching this module.

**Graceful fallback.**  numba is an optional dependency
(``pip install repro[native]``).  When it is missing — or a kernel
fails to compile — :class:`NativeBackend` reports itself unavailable
and the registry's normal resolution falls back to the numpy backend,
so tier-1 CI and minimal installs run unchanged.  Plans are built
through the same :class:`~repro.exec.plan.SpMVPlan` machinery
(workspace pools, cached per matrix), preserving the zero-allocation
steady state.
"""

from __future__ import annotations

import os

import numpy as np

from repro.exec.backends import Backend
from repro.exec.plan import SpMVPlan, _SegmentReduction

__all__ = [
    "NativeBackend",
    "NativeCMRSPlan",
    "NativeCSRPlan",
    "NativeELLPlan",
    "NativeMPCSRPlan",
    "NativeRGCSRPlan",
    "NativeSegPlan",
    "kernels",
    "native_available",
    "numba_versions",
    "row_splits",
]

#: Row-split chunks per compiled parallel call: a few chunks per thread
#: gives the scheduler slack to absorb residual imbalance.
CHUNKS_PER_THREAD = 4

#: Below this many rows the parallel dispatch overhead cannot pay for
#: itself; plans compile the serial kernel only.
MIN_PARALLEL_ROWS = 4096

_KERNELS = None
_COMPILE_ERROR: Exception | None = None


def _numba():
    try:
        import numba
    except ImportError:
        return None
    return numba


def native_available() -> bool:
    """Whether the numba toolchain is importable and kernels compile."""
    if _numba() is None:
        return False
    return _COMPILE_ERROR is None


def numba_versions() -> dict:
    """``{"numba": ..., "llvmlite": ...}`` (``None`` when absent).

    Recorded in the tuner's environment fingerprint and in every
    BENCH_*.json header so perf trajectories across heterogeneous
    runners stay interpretable.
    """
    versions: dict = {"numba": None, "llvmlite": None}
    numba = _numba()
    if numba is not None:
        versions["numba"] = numba.__version__
        try:
            import llvmlite

            versions["llvmlite"] = llvmlite.__version__
        except ImportError:  # pragma: no cover - ships with numba
            pass
    return versions


def _parallel_enabled() -> bool:
    """The ``parallel=True`` kernel policy for direct (unsharded) plans.

    ``REPRO_NATIVE_PARALLEL`` forces it on ("1") or off ("0"); the
    default follows the affinity mask — one usable core means the
    row-split dispatch is pure overhead.
    """
    raw = os.environ.get("REPRO_NATIVE_PARALLEL", "").strip().lower()
    if raw in {"1", "true", "yes", "on"}:
        return True
    if raw in {"0", "false", "no", "off"}:
        return False
    from repro.exec.sharded import available_cpu_count

    return available_cpu_count() > 1


def kernels():
    """Compile (once) and return the kernel namespace, or ``None``.

    Compilation here is *registration only* — numba's lazy dispatchers
    specialise on first call, so importing this module stays cheap and
    plan construction pays at most one JIT per kernel × signature.
    """
    global _KERNELS, _COMPILE_ERROR
    if _KERNELS is not None or _COMPILE_ERROR is not None:
        return _KERNELS
    numba = _numba()
    if numba is None:
        return None
    try:
        _KERNELS = _compile(numba)
    except Exception as exc:  # pragma: no cover - toolchain-dependent
        _COMPILE_ERROR = exc
        return None
    return _KERNELS


def _compile(numba):
    """Define the jitted kernels.

    Every kernel accumulates each output row serially, first entry to
    last, starting from 0.0 — exactly the summation sequence of the
    ``np.add.reduceat`` reference and SciPy's ``csr_matvec``, so the
    native backend joins the bitwise-equal class of the differential
    matrix (see tests/test_differential_matrix.py).
    """
    from numba import njit, prange

    class _Kernels:
        pass

    @njit(nogil=True, cache=False)
    def csr_spmv(indptr, indices, data, x, out):
        for i in range(out.shape[0]):
            acc = 0.0
            for p in range(indptr[i], indptr[i + 1]):
                acc += data[p] * x[indices[p]]
            out[i] = acc

    @njit(nogil=True, parallel=True, cache=False)
    def csr_spmv_rowsplit(indptr, indices, data, x, out, splits):
        for c in prange(splits.shape[0] - 1):
            for i in range(splits[c], splits[c + 1]):
                acc = 0.0
                for p in range(indptr[i], indptr[i + 1]):
                    acc += data[p] * x[indices[p]]
                out[i] = acc

    @njit(nogil=True, cache=False)
    def csr_spmm(indptr, indices, data, X, out):
        k = X.shape[1]
        for i in range(out.shape[0]):
            for j in range(k):
                out[i, j] = 0.0
            for p in range(indptr[i], indptr[i + 1]):
                v = data[p]
                c = indices[p]
                for j in range(k):
                    out[i, j] += v * X[c, j]

    @njit(nogil=True, parallel=True, cache=False)
    def csr_spmm_rowsplit(indptr, indices, data, X, out, splits):
        k = X.shape[1]
        for chunk in prange(splits.shape[0] - 1):
            for i in range(splits[chunk], splits[chunk + 1]):
                for j in range(k):
                    out[i, j] = 0.0
                for p in range(indptr[i], indptr[i + 1]):
                    v = data[p]
                    c = indices[p]
                    for j in range(k):
                        out[i, j] += v * X[c, j]

    @njit(nogil=True, cache=False)
    def ell_spmv(indices, data, lengths, x, out):
        for i in range(out.shape[0]):
            acc = 0.0
            for j in range(lengths[i]):
                acc += data[i, j] * x[indices[i, j]]
            out[i] = acc

    @njit(nogil=True, cache=False)
    def ell_spmm(indices, data, lengths, X, out):
        k = X.shape[1]
        for i in range(out.shape[0]):
            for j in range(k):
                out[i, j] = 0.0
            for q in range(lengths[i]):
                v = data[i, q]
                c = indices[i, q]
                for j in range(k):
                    out[i, j] += v * X[c, j]

    @njit(nogil=True, cache=False)
    def seg_spmv(seg_starts, target_rows, cols, data, x, out):
        for i in range(out.shape[0]):
            out[i] = 0.0
        n_seg = seg_starts.shape[0]
        for s in range(n_seg):
            stop = seg_starts[s + 1] if s + 1 < n_seg else data.shape[0]
            acc = 0.0
            for p in range(seg_starts[s], stop):
                acc += data[p] * x[cols[p]]
            out[target_rows[s]] = acc

    @njit(nogil=True, cache=False)
    def seg_spmm(seg_starts, target_rows, cols, data, X, out):
        k = X.shape[1]
        for i in range(out.shape[0]):
            for j in range(k):
                out[i, j] = 0.0
        n_seg = seg_starts.shape[0]
        for s in range(n_seg):
            stop = seg_starts[s + 1] if s + 1 < n_seg else data.shape[0]
            row = target_rows[s]
            for p in range(seg_starts[s], stop):
                v = data[p]
                c = cols[p]
                for j in range(k):
                    out[row, j] += v * X[c, j]

    @njit(nogil=True, parallel=True, cache=False)
    def cmrs_spmv(strip_ptr, cols, data, row_in_strip, strip_rows, x, out):
        # One strip owns a disjoint range of rows, so strips are free to
        # run in parallel; within a strip the interleaved storage visits
        # each row's entries in ascending-slot (= ascending-column)
        # order, so the in-place accumulation is the canonical per-row
        # reduction.
        n_rows = out.shape[0]
        n_strips = strip_ptr.shape[0] - 1
        for s in prange(n_strips):
            r0 = s * strip_rows
            r1 = min(r0 + strip_rows, n_rows)
            for r in range(r0, r1):
                out[r] = 0.0
            for p in range(strip_ptr[s], strip_ptr[s + 1]):
                out[r0 + row_in_strip[p]] += data[p] * x[cols[p]]

    @njit(nogil=True, parallel=True, cache=False)
    def rg_group_spmv(row_ids, lengths, indices, data, x, out):
        # One padded group block: rows are near-equal length by
        # construction, so the prange is balanced without chunking.
        for i in prange(row_ids.shape[0]):
            acc = 0.0
            for j in range(lengths[i]):
                acc += data[i, j] * x[indices[i, j]]
            out[row_ids[i]] = acc

    @njit(nogil=True, parallel=True, cache=False)
    def mpcsr_spmv(
        indptr, indices, data, x, out,
        split_entry, split_first_row, carry_row, carry_val,
    ):
        # Each split processes an nnz-balanced entry range.  A row fully
        # inside the split writes out[r] directly; a partial head/tail
        # row writes one of the split's two carry slots instead (at most
        # one row can start before the split and one can end after it).
        # Rows bisected by cuts have no full piece anywhere — they are
        # assembled entirely by the fix-up pass.
        n_rows = out.shape[0]
        for i in range(n_rows):
            out[i] = 0.0
        n_splits = split_entry.shape[0] - 1
        for s in prange(n_splits):
            e0 = split_entry[s]
            e1 = split_entry[s + 1]
            carry_row[2 * s] = -1
            carry_row[2 * s + 1] = -1
            r = split_first_row[s]
            p = e0
            while p < e1:
                row_end = indptr[r + 1]
                if row_end <= p:
                    r += 1
                    continue
                stop = row_end if row_end < e1 else e1
                acc = 0.0
                for q in range(p, stop):
                    acc += data[q] * x[indices[q]]
                if p == indptr[r] and stop == row_end:
                    out[r] = acc
                else:
                    slot = 2 * s if p == e0 else 2 * s + 1
                    carry_row[slot] = r
                    carry_val[slot] = acc
                p = stop
                r += 1

    @njit(nogil=True, cache=False)
    def mpcsr_fixup(carry_row, carry_val, out):
        # Serial, in split order: the deterministic cross-piece combine.
        for i in range(carry_row.shape[0]):
            r = carry_row[i]
            if r >= 0:
                out[r] += carry_val[i]

    @njit(nogil=True, cache=False)
    def segmented_reduce(values, seg_starts, out):
        # The bare reduceat equivalent: out[s] = sum of segment s.
        n_seg = seg_starts.shape[0]
        for s in range(n_seg):
            stop = seg_starts[s + 1] if s + 1 < n_seg else values.shape[0]
            acc = 0.0
            for p in range(seg_starts[s], stop):
                acc += values[p]
            out[s] = acc

    k = _Kernels()
    k.csr_spmv = csr_spmv
    k.csr_spmv_rowsplit = csr_spmv_rowsplit
    k.csr_spmm = csr_spmm
    k.csr_spmm_rowsplit = csr_spmm_rowsplit
    k.ell_spmv = ell_spmv
    k.ell_spmm = ell_spmm
    k.seg_spmv = seg_spmv
    k.seg_spmm = seg_spmm
    k.segmented_reduce = segmented_reduce
    k.cmrs_spmv = cmrs_spmv
    k.rg_group_spmv = rg_group_spmv
    k.mpcsr_spmv = mpcsr_spmv
    k.mpcsr_fixup = mpcsr_fixup
    return k


def row_splits(indptr: np.ndarray, n_chunks: int) -> np.ndarray:
    """Row boundaries of ``n_chunks`` near-equal-nnz chunks.

    The row-splitting half of the merge-path idea: chunk boundaries are
    placed on the nnz prefix sum (which ``indptr`` already is), so one
    heavy chunk cannot straggle the whole ``prange``.  Boundaries never
    split a row — bit-identity is untouched.
    """
    n_rows = indptr.size - 1
    if n_rows <= 0 or n_chunks <= 1:
        return np.array([0, max(n_rows, 0)], dtype=np.int64)
    targets = np.linspace(0, int(indptr[-1]), n_chunks + 1)
    cuts = np.searchsorted(indptr, targets, side="left")
    cuts = np.unique(np.clip(cuts, 0, n_rows))
    if cuts[0] != 0:
        cuts = np.concatenate([[0], cuts])
    if cuts[-1] != n_rows:
        cuts = np.concatenate([cuts, [n_rows]])
    return cuts.astype(np.int64)


def _n_chunks() -> int:
    from repro.exec.sharded import available_cpu_count

    return max(2, available_cpu_count() * CHUNKS_PER_THREAD)


class NativeCSRPlan(SpMVPlan):
    """CSR row-split plan on the compiled kernels."""

    backend = "native"

    def __init__(self, matrix, *, parallel: bool | None = None) -> None:
        super().__init__(matrix.shape)
        from repro.formats.csr import CSRMatrix

        csr = (
            matrix
            if isinstance(matrix, CSRMatrix)
            else CSRMatrix.from_coo(matrix.to_coo())
        )
        # The kernels compile per index width: the CSR's own arrays
        # (int32 below 2**31) run as they are.
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.data = csr.data
        self._k = kernels()
        if parallel is None:
            parallel = _parallel_enabled() and self.n_rows >= MIN_PARALLEL_ROWS
        self.parallel = bool(parallel)
        self.splits = (
            row_splits(self.indptr, _n_chunks()) if self.parallel else None
        )

    def _execute(self, x: np.ndarray, out: np.ndarray) -> None:
        if self.parallel:
            self._k.csr_spmv_rowsplit(
                self.indptr, self.indices, self.data, x, out, self.splits
            )
        else:
            self._k.csr_spmv(self.indptr, self.indices, self.data, x, out)

    def _execute_many(self, X: np.ndarray, out: np.ndarray) -> None:
        if self.parallel:
            self._k.csr_spmm_rowsplit(
                self.indptr, self.indices, self.data, X, out, self.splits
            )
        else:
            self._k.csr_spmm(self.indptr, self.indices, self.data, X, out)


class NativeELLPlan(SpMVPlan):
    """ELL plan: padded gather, valid-prefix accumulation only."""

    backend = "native"

    def __init__(self, ell) -> None:
        super().__init__(ell.shape)
        self.indices = np.ascontiguousarray(ell.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(ell.data, dtype=np.float64)
        self.lengths = np.ascontiguousarray(
            ell.valid.sum(axis=1), dtype=np.int64
        )
        self._k = kernels()

    def _execute(self, x: np.ndarray, out: np.ndarray) -> None:
        if self.indices.size == 0:
            out.fill(0.0)
            return
        self._k.ell_spmv(self.indices, self.data, self.lengths, x, out)

    def _execute_many(self, X: np.ndarray, out: np.ndarray) -> None:
        if self.indices.size == 0:
            out.fill(0.0)
            return
        self._k.ell_spmm(self.indices, self.data, self.lengths, X, out)


class NativeSegPlan(SpMVPlan):
    """Segmented-reduce plan over row-sorted COO entries.

    The compiled ``reduceat`` equivalent: one segment per non-empty
    row, results scattered to their target rows — any format reaches it
    through ``to_coo()`` with no CSR conversion.
    """

    backend = "native"

    def __init__(self, matrix) -> None:
        super().__init__(matrix.shape)
        coo = matrix.to_coo()
        segments = _SegmentReduction.from_sorted_rows(coo.rows, coo.n_rows)
        self.seg_starts = np.ascontiguousarray(
            segments.seg_starts, dtype=np.int64
        )
        self.target_rows = np.ascontiguousarray(
            segments.target_rows, dtype=np.int64
        )
        self.cols = coo.cols
        self.data = coo.data
        self._k = kernels()

    def _execute(self, x: np.ndarray, out: np.ndarray) -> None:
        self._k.seg_spmv(
            self.seg_starts, self.target_rows, self.cols, self.data, x, out
        )

    def _execute_many(self, X: np.ndarray, out: np.ndarray) -> None:
        self._k.seg_spmm(
            self.seg_starts, self.target_rows, self.cols, self.data, X, out
        )


class NativeCMRSPlan(SpMVPlan):
    """CMRS strip plan: ``prange`` over strips, each owning its rows."""

    backend = "native"

    def __init__(self, cmrs) -> None:
        super().__init__(cmrs.shape)
        self.strip_ptr = np.ascontiguousarray(cmrs.strip_ptr, dtype=np.int64)
        self.cols = np.ascontiguousarray(cmrs.cols, dtype=np.int64)
        self.data = np.ascontiguousarray(cmrs.data, dtype=np.float64)
        self.row_in_strip = np.ascontiguousarray(
            cmrs.row_in_strip, dtype=np.int64
        )
        self.strip_rows = int(cmrs.strip_rows)
        self._k = kernels()

    def _execute(self, x: np.ndarray, out: np.ndarray) -> None:
        self._k.cmrs_spmv(
            self.strip_ptr, self.cols, self.data, self.row_in_strip,
            self.strip_rows, x, out,
        )


class NativeRGCSRPlan(SpMVPlan):
    """Row-grouped plan: one balanced ``prange`` call per padded group."""

    backend = "native"

    def __init__(self, rgcsr) -> None:
        super().__init__(rgcsr.shape)
        self.groups = [
            (
                np.ascontiguousarray(g.row_ids, dtype=np.int64),
                np.ascontiguousarray(g.lengths, dtype=np.int64),
                np.ascontiguousarray(g.indices, dtype=np.int64),
                np.ascontiguousarray(g.data, dtype=np.float64),
            )
            for g in rgcsr.groups
        ]
        self._k = kernels()

    def _execute(self, x: np.ndarray, out: np.ndarray) -> None:
        out.fill(0.0)
        for row_ids, lengths, indices, data in self.groups:
            self._k.rg_group_spmv(row_ids, lengths, indices, data, x, out)


class NativeMPCSRPlan(SpMVPlan):
    """Merge-path plan: ``prange`` over nnz-balanced splits + fix-up.

    This is the native backend's only work decomposition that is
    independent of degree skew — a hub row is bisected across splits
    instead of straggling one chunk of :func:`row_splits`.
    """

    backend = "native"

    def __init__(self, mpcsr) -> None:
        super().__init__(mpcsr.shape)
        self.indptr = np.ascontiguousarray(mpcsr.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(mpcsr.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(mpcsr.data, dtype=np.float64)
        self.split_entry = np.ascontiguousarray(
            mpcsr.split_entry, dtype=np.int64
        )
        self.split_first_row = np.ascontiguousarray(
            mpcsr.split_first_row, dtype=np.int64
        )
        n_splits = self.split_entry.size - 1
        self.carry_row = np.empty(2 * n_splits, dtype=np.int64)
        self.carry_val = np.empty(2 * n_splits, dtype=np.float64)
        self._k = kernels()

    def _execute(self, x: np.ndarray, out: np.ndarray) -> None:
        self._k.mpcsr_spmv(
            self.indptr, self.indices, self.data, x, out,
            self.split_entry, self.split_first_row,
            self.carry_row, self.carry_val,
        )
        self._k.mpcsr_fixup(self.carry_row, self.carry_val, out)


def _left_justified(valid: np.ndarray) -> bool:
    """Whether every row's valid entries form a prefix (no holes)."""
    if valid.size == 0:
        return True
    return bool(np.all(valid[:, :-1] >= valid[:, 1:]))


class NativeBackend(Backend):
    """Registry entry for the compiled kernels (auto-detected)."""

    name = "native"

    def is_available(self) -> bool:
        return native_available()

    def build_plan(self, matrix) -> SpMVPlan | None:
        if kernels() is None:  # pragma: no cover - toolchain-dependent
            return None
        from repro.formats.registry import spec_for

        # Registry dispatch: a format's spec may declare a native plan
        # factory (returning None to decline, e.g. ragged ELL); anything
        # without one runs on the generic segmented-reduce kernel.
        spec = spec_for(matrix)
        if spec is not None and spec.native_plan is not None:
            plan = spec.native_plan(matrix)
            if plan is not None:
                return plan
        return NativeSegPlan(matrix)
