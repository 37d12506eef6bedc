"""Dynamic graphs: streaming edge updates over a frozen base matrix.

The paper's mining workloads (§4.2) assume a frozen matrix, but
production graphs mutate while queries keep flowing.  This module adds
a *delta-COO overlay*: a :class:`DynamicMatrix` wraps any base format
and absorbs ``insert``/``update``/``delete`` batches without touching
the base's O(nnz) plan scaffolding.  Queries run the base plan
unchanged and then overwrite the touched rows with a second reduction
pass over the (small) overlay — steady state stays zero-alloc because
both passes run through pooled workspaces.

The bitwise contract — the headline guarantee, enforced by
``tests/test_dynamic_differential.py`` — is that after *any* update
sequence the overlaid, compacted or repaired matrix multiplies
bit-identically to one rebuilt from scratch.  Two facts carry it:

* the per-row reduction of every bitwise-class plan is a pure function
  of the row's entry run, independent of where the run sits in the
  entry stream (``np.add.reduceat`` reduces each segment in isolation,
  and the scipy path accumulates strictly per row), so computing a
  touched row inside a small submatrix plan of the **same backend**
  reproduces the rebuilt matrix's bits for that row exactly;
* compaction performs no arithmetic — it splices entry runs — so the
  merged COO is triple-for-triple identical to ``to_coo`` of a from-
  scratch rebuild, and deterministic format constructors take it from
  there.

Formats whose reduction order depends on *global* layout decisions
(ELL width, HYB split, DIA bands, PKT clustering — the registry's
``bitwise=False`` class) cannot keep untouched rows bit-stable under an
overlay, so the wrapper compacts them eagerly on every batch: the
dynamic path then *is* the rebuilt matrix and the guarantee holds
trivially.

Compaction splices untouched row runs with the overlay's runs in one
O(nnz) scatter — no global sort — and then runs the format's own
registered ``build`` on the merged COO.  Where that ``build`` is a
linear pass over the sorted merge (``FormatSpec.supports_repair``: COO
pass-through, CSR counting pass) the compaction counts as a repair;
everything else is counted honestly as a rebuild.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ValidationError
from repro.exec.plan import SpMVPlan, _with_scratch
from repro.formats.base import SparseMatrix, index_dtype
from repro.formats.coo import COOMatrix
from repro.formats.registry import spec_for
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults

__all__ = [
    "DynamicMatrix",
    "OverlayPlan",
    "UPDATE_OPS",
    "seeded_update_stream",
]

#: Recognised update operations.  ``insert`` and ``update`` are both
#: upserts (last write wins — distinguishing them would make a batch's
#: meaning depend on unobservable history); ``delete`` of an absent
#: edge is a no-op.
UPDATE_OPS = ("insert", "update", "delete")

#: Fast-path op table (exact lowercase spellings); anything else routes
#: through the slow validation loop, which also handles ``"INSERT"``
#: and friends via ``str.lower``.
_OP_IS_DELETE = {"insert": False, "update": False, "delete": True}

#: Default compaction threshold: fold the overlay into the base once
#: the applied-op count since the last compaction exceeds this fraction
#: of the base nnz.
DEFAULT_NNZ_DELTA = 0.25


class _OverlayState:
    """One immutable snapshot of the base matrix plus its overlay.

    ``apply_updates``/``compact`` build a fresh instance and publish it
    with a single reference assignment, so concurrent readers always
    see a consistent (base, touched_rows, entries, version) tuple — the
    property the query-during-update hammer test leans on.  The base
    rides in the snapshot because a compacting batch replaces base and
    overlay together.

    ``cols``/``data`` hold **all** current entries of the touched rows
    (base survivors plus upserts, post-delete), sorted by (row, col);
    rows touched down to zero entries stay in ``touched_rows`` so the
    overlay pass knows to zero them.  ``indptr`` (length
    ``touched_rows.size + 1``) bounds each touched row's run inside
    the entry arrays — the three arrays are exactly the touched-row
    submatrix in CSR form, which is what the overlay sub-plan consumes
    directly; original row ids come from ``touched_rows`` on demand.
    """

    __slots__ = (
        "base",
        "touched_rows",
        "cols",
        "data",
        "indptr",
        "version",
        "delta_ops",
        "base_touched_nnz",
    )

    def __init__(
        self, base, touched_rows, cols, data, indptr, version, delta_ops,
        base_touched_nnz,
    ):
        self.base = base
        self.touched_rows = touched_rows
        self.cols = cols
        self.data = data
        self.indptr = indptr
        self.version = version
        self.delta_ops = delta_ops
        self.base_touched_nnz = base_touched_nnz
        for arr in (touched_rows, cols, data, indptr):
            arr.setflags(write=False)

    @classmethod
    def empty(cls, base, version: int = 0) -> "_OverlayState":
        e = np.zeros(0, dtype=np.int64)
        return cls(
            base, e, e, np.zeros(0, dtype=np.float64),
            np.zeros(1, dtype=np.int64), version, 0, 0,
        )


class OverlayPlan(SpMVPlan):
    """Base plan plus a second reduction pass over the touched rows.

    The base plan fully overwrites ``out``; the overlay pass then
    computes the touched rows through a plan **of the same backend**
    built on the canonical COO submatrix of those rows and overwrites
    them (rows emptied by deletes come out as the submatrix plan's
    zero fill).  Both passes go through pooled buffers, so repeated
    executions allocate nothing.
    """

    def __init__(self, base_plan, sub_plan, touched_rows, shape) -> None:
        super().__init__(shape)
        self.backend = base_plan.backend
        self.base_plan = base_plan
        self.sub_plan = sub_plan
        self.touched_rows = touched_rows

    @_with_scratch
    def _execute(self, x: np.ndarray, out: np.ndarray, tag) -> None:
        self.base_plan._execute(x, out)
        partial = self.pool.buffer(
            "overlay:y" + tag, self.touched_rows.size
        )
        self.sub_plan._execute(x, partial)
        out[self.touched_rows] = partial

    @_with_scratch
    def _execute_many(self, X: np.ndarray, out: np.ndarray, tag) -> None:
        self.base_plan._execute_many(X, out)
        partial = self.pool.buffer(
            "overlay:Y" + tag, (self.touched_rows.size, X.shape[1])
        )
        self.sub_plan._execute_many(X, partial)
        out[self.touched_rows] = partial


def _last_per_pair(rows, cols):
    """Boolean mask selecting the last element of each (row, col) group
    in (row, col)-sorted parallel arrays."""
    last = np.ones(rows.size, dtype=bool)
    if rows.size > 1:
        last[:-1] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
    return last


def _gather_runs(starts, counts):
    """Indices covering the concatenated runs ``[s, s + c)``.

    The arange-minus-offsets trick: O(total gathered), no Python loop.
    Doubling as destination arithmetic — with ``starts`` pointing into
    an output array this yields scatter positions start-plus-rank.
    """
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )


class DynamicMatrix(SparseMatrix):
    """A base matrix plus a delta-COO overlay of streaming updates.

    Parameters
    ----------
    base:
        Any registered-format matrix.  Formats in the registry's
        bitwise class carry a live overlay; the rest compact eagerly on
        every batch (see module docstring).
    nnz_delta:
        Compaction threshold.  A float is a fraction of the base nnz,
        an int an absolute op count; once the ops applied since the
        last compaction reach it, :meth:`compact` runs automatically.
        ``0`` compacts every batch.
    """

    def __init__(
        self, base: SparseMatrix, *, nnz_delta: float | int = DEFAULT_NNZ_DELTA
    ) -> None:
        if isinstance(base, DynamicMatrix):
            raise ValidationError(
                "base is already a DynamicMatrix; apply further batches "
                "through its own apply_updates"
            )
        if not isinstance(base, SparseMatrix):
            raise ValidationError(
                f"base must be a SparseMatrix, got {type(base).__name__}"
            )
        if isinstance(nnz_delta, bool) or (
            not isinstance(nnz_delta, (int, float)) or nnz_delta < 0
        ):
            raise ValidationError(
                f"nnz_delta must be a non-negative number, got {nnz_delta!r}"
            )
        self.shape = base.shape
        self.nnz_delta = nnz_delta
        self._spec = spec_for(base)
        #: Non-bitwise layouts cannot keep untouched rows bit-stable
        #: under an overlay pass; fold every batch immediately.
        self._eager_compact = self._spec is None or not self._spec.bitwise
        self._state = _OverlayState.empty(base)
        self._lock = threading.Lock()
        self._plan_cache: dict[str, tuple[int, SpMVPlan]] = {}
        #: (base, derived array) pairs, valid while that base is current.
        self._base_indptr: tuple[SparseMatrix, np.ndarray] | None = None
        self._base_coo: tuple[SparseMatrix, COOMatrix] | None = None
        self._coo_cache: tuple[int, COOMatrix] | None = None
        self._lengths_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        #: Honest operation counters, the one book of this matrix's
        #: updates (the ``dynamic.*`` metrics are only the overlay-size
        #: gauges) — the differential suite's no-silent-fallback
        #: assertion reads ``stats["rebuilds"]``.
        self.stats = {
            "batches": 0,
            "updates": 0,
            "compactions": 0,
            "repairs": 0,
            "rebuilds": 0,
            "plan_overlays": 0,
        }

    # ------------------------------------------------------------------
    # SparseMatrix interface
    # ------------------------------------------------------------------

    @property
    def base(self) -> SparseMatrix:
        """The current compacted base matrix (read-only view)."""
        return self._state.base

    @property
    def format_name(self) -> str | None:
        """Registry name of the base format, or ``None`` if unregistered."""
        return self._spec.name if self._spec is not None else None

    @property
    def data_version(self) -> int:
        return self._state.version

    @property
    def overlay_nnz(self) -> int:
        """Entries currently carried by the overlay."""
        return self._state.data.size

    @property
    def nnz(self) -> int:
        state = self._state
        return state.base.nnz - state.base_touched_nnz + state.data.size

    @property
    def nbytes(self) -> int:
        state = self._state
        return state.base.nbytes + self._array_bytes(
            state.touched_rows, state.cols, state.data, state.indptr
        )

    def to_coo(self) -> COOMatrix:
        state = self._state
        cached = self._coo_cache
        if cached is not None and cached[0] == state.version:
            return cached[1]
        coo = self._merged_coo(state)
        self._coo_cache = (state.version, coo)
        return coo

    def coo_snapshot(self) -> COOMatrix:
        return self.to_coo()

    def _build_plan(self):
        return self._make_plan("numpy", self._state)

    def row_lengths(self) -> np.ndarray:
        return self._lengths(self._state)[0]

    def col_lengths(self) -> np.ndarray:
        return self._lengths(self._state)[1]

    def _lengths(self, state) -> tuple[np.ndarray, np.ndarray]:
        cached = self._lengths_cache
        if cached is not None and cached[0] == state.version:
            return cached[1], cached[2]
        if state.touched_rows.size == 0:
            rl = np.asarray(state.base.row_lengths())
            cl = np.asarray(state.base.col_lengths())
        else:
            coo = self._merged_coo(state)
            rl = np.bincount(coo.rows, minlength=self.n_rows)
            cl = np.bincount(coo.cols, minlength=self.n_cols)
        rl.setflags(write=False)
        cl.setflags(write=False)
        self._lengths_cache = (state.version, rl, cl)
        return rl, cl

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------

    def spmv_plan(self, backend: str | None = None):
        """Version-aware plan cache.

        With an empty overlay the base matrix's own cached plan is
        returned untouched (zero steady-state overhead after a
        compaction); otherwise an :class:`OverlayPlan` is built once
        per (backend, version) and reused until the next mutation.
        """
        from repro.exec.backends import _resolve

        key = _resolve(backend)
        state = self._state
        if state.touched_rows.size == 0:
            return state.base.spmv_plan(key)
        cached = self._plan_cache.get(key)
        if cached is not None and cached[0] == state.version:
            return cached[1]
        with self._lock:
            cached = self._plan_cache.get(key)
            if cached is not None and cached[0] == state.version:
                return cached[1]
            plan = self._make_plan(key, state)
            self._plan_cache[key] = (state.version, plan)
        return plan

    def _make_plan(self, backend: str, state) -> SpMVPlan:
        from repro.exec.backends import build_plan

        base_plan = state.base.spmv_plan(backend)
        if state.touched_rows.size == 0:
            return base_plan
        # The overlay arrays *are* the touched-row submatrix in CSR
        # form — entries are (row, col)-sorted and ``state.indptr``
        # bounds each local row's run — so the sub-plan builds without
        # a conversion pass.  Same-backend reduction keeps the bitwise
        # contract (see module docstring).
        from repro.formats.csr import CSRMatrix

        sub = CSRMatrix._from_trusted_parts(
            state.indptr, state.cols, state.data,
            (state.touched_rows.size, self.n_cols),
        )
        sub_plan = build_plan(sub, backend=backend)
        self.stats["plan_overlays"] += 1
        return OverlayPlan(base_plan, sub_plan, state.touched_rows, self.shape)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def apply_updates(self, updates, **options) -> "DynamicMatrix":
        """Apply one batch of edge updates in place; returns ``self``.

        ``updates`` is an iterable of ``(op, row, col, value)`` tuples
        (``value`` optional and ignored for ``"delete"``).  Within a
        batch the last operation on a coordinate wins; an upsert with
        ``0.0`` stores an explicit zero.  The batch commits atomically:
        a validation error or injected fault leaves the matrix exactly
        as it was.  A batch that reaches the compaction threshold is
        compacted inside the same commit, so every batch publishes
        exactly one ``data_version`` and readers never see an overlay
        state the writer does not return.
        """
        if options:
            raise ValidationError(
                f"unknown apply_updates options: {sorted(options)}"
            )
        op_rows, op_cols, op_vals, op_dels = self._normalise(updates)
        if _faults._ARMED:
            _faults.INJECTOR.fire(
                "dynamic.apply", n_ops=int(op_rows.size),
                version=self._state.version,
            )
        if op_rows.size == 0:
            return self
        with self._lock:
            new_state = self._apply_locked(
                self._state, op_rows, op_cols, op_vals, op_dels
            )
            if self._eager_compact or self._over_threshold(new_state):
                self._compact_locked(new_state, new_state.version)
            else:
                self._state = new_state
            published = self._state
            self.stats["batches"] += 1
            self.stats["updates"] += int(op_rows.size)
        if _metrics._ENABLED:
            self._set_overlay_gauges(published)
        return self

    def _over_threshold(self, state) -> bool:
        limit = self.nnz_delta
        if isinstance(limit, float):
            limit = limit * max(state.base.nnz, 1)
        return state.delta_ops >= max(limit, 1)

    def _normalise(self, updates):
        """Validate a batch and dedupe it to last-write-wins arrays.

        The vectorised fast path covers well-formed tuple batches (the
        streaming steady state, where per-op Python costs dominate a
        large batch); anything it cannot digest — unknown ops, wrong
        arity, out-of-range coordinates, non-finite values, exotic
        spellings — re-runs the loop below, which either produces the
        same arrays or raises the precise per-index error.
        """
        if not isinstance(updates, (list, tuple)):
            updates = list(updates)
        n_ops = len(updates)
        if n_ops == 0:
            e = np.zeros(0, dtype=np.int64)
            return e, e, np.zeros(0, dtype=np.float64), np.zeros(0, bool)
        try:
            # One Python pass; zip(*...) transposes at C speed and the
            # column tuples convert through plain np.array.
            dels_, lens_, rows_, cols_, vals_ = zip(*(
                (_OP_IS_DELETE[u[0]], len(u), u[1], u[2],
                 u[3] if len(u) > 3 else 0.0)
                for u in updates
            ))
            dels = np.array(dels_, dtype=bool)
            lens = np.array(lens_, dtype=np.int64)
            rows = np.array(rows_, dtype=np.int64)
            cols = np.array(cols_, dtype=np.int64)
            vals = np.array(vals_, dtype=np.float64)
        except (KeyError, TypeError, ValueError, IndexError):
            return self._normalise_slow(updates)
        vals[dels] = 0.0  # a delete's trailing value is ignored
        valid = (
            bool(np.where(dels, (lens == 3) | (lens == 4), lens == 4).all())
            and bool(np.isfinite(vals).all())
            and bool((rows >= 0).all() and (rows < self.n_rows).all())
            and bool((cols >= 0).all() and (cols < self.n_cols).all())
        )
        if not valid:
            return self._normalise_slow(updates)
        return self._dedupe(rows, cols, vals, dels)

    def _normalise_slow(self, updates):
        """The reference path: per-op validation with precise errors."""
        ops, rows, cols, vals = [], [], [], []
        for i, item in enumerate(updates):
            try:
                op, rest = item[0], item[1:]
            except (TypeError, IndexError) as exc:
                raise ValidationError(
                    f"update {i} is not an (op, row, col[, value]) tuple: "
                    f"{item!r}"
                ) from exc
            op = str(op).lower()
            if op not in UPDATE_OPS:
                raise ValidationError(
                    f"update {i} has unknown op {op!r}; expected one of "
                    f"{UPDATE_OPS}"
                )
            if op == "delete":
                if len(rest) not in (2, 3):
                    raise ValidationError(
                        f"delete update {i} must be (op, row, col): {item!r}"
                    )
                value = 0.0
            else:
                if len(rest) != 3:
                    raise ValidationError(
                        f"{op} update {i} must be (op, row, col, value): "
                        f"{item!r}"
                    )
                value = float(rest[2])
                if not np.isfinite(value):
                    raise ValidationError(
                        f"update {i} carries non-finite value {value!r}"
                    )
            r, c = int(rest[0]), int(rest[1])
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise ValidationError(
                    f"update {i} coordinate ({r}, {c}) out of range for "
                    f"shape {self.shape}"
                )
            ops.append(op == "delete")
            rows.append(r)
            cols.append(c)
            vals.append(value)
        if not rows:
            e = np.zeros(0, dtype=np.int64)
            return e, e, np.zeros(0, dtype=np.float64), np.zeros(0, bool)
        return self._dedupe(
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64),
            np.asarray(ops, dtype=bool),
        )

    @staticmethod
    def _dedupe(rows, cols, vals, dels):
        """Last-write-wins per coordinate, in (row, col) order.

        lexsort is stable, so within one (row, col) group the batch
        order survives and the last element is the last-applied op.
        """
        order = np.lexsort((cols, rows))
        rows, cols, vals, dels = (
            rows[order], cols[order], vals[order], dels[order]
        )
        last = _last_per_pair(rows, cols)
        return rows[last], cols[last], vals[last], dels[last]

    def _base_canonical_coo(self, base) -> COOMatrix:
        """Cached canonical COO of ``base``.

        Formats materialise ``to_coo`` fresh on every call; the overlay
        needs it every batch, so one copy is kept for the base's
        lifetime (the cache entry names its base, so a reader racing a
        compaction can never pair one base with another's COO).
        """
        cached = self._base_coo
        if cached is None or cached[0] is not base:
            cached = (base, base.to_coo())
            self._base_coo = cached
        return cached[1]

    def _base_row_ptr(self, base) -> np.ndarray:
        """Cached row pointer over the canonical COO of ``base``."""
        cached = self._base_indptr
        if cached is None or cached[0] is not base:
            cached = (base, self._base_canonical_coo(base).row_pointer())
            self._base_indptr = cached
        return cached[1]

    def _base_entries_of(self, base, row_ids):
        """Triples of the base matrix restricted to ``row_ids`` (sorted),
        keeping original row numbers.

        Gathered through the cached base row pointer: O(rows requested
        + entries gathered) per call, so a stream of small batches
        never pays a full-nnz scan per batch.
        """
        coo = self._base_canonical_coo(base)
        if row_ids.size == 0 or coo.nnz == 0:
            e = np.zeros(0, dtype=np.int64)
            return e, e, np.zeros(0, dtype=np.float64)
        indptr = self._base_row_ptr(base)
        starts = indptr[row_ids]
        idx = _gather_runs(starts, indptr[row_ids + 1] - starts)
        if idx.size == 0:
            e = np.zeros(0, dtype=np.int64)
            return e, e, np.zeros(0, dtype=np.float64)
        return coo.rows[idx], coo.cols[idx], coo.data[idx]

    def _apply_locked(self, state, op_rows, op_cols, op_vals, op_dels):
        prev_touched = state.touched_rows
        prev_indptr = state.indptr
        prev_counts = np.diff(prev_indptr)
        # The op arrays are (row, col)-sorted after ``_dedupe``, so the
        # sorted unique affected rows fall out of a run-boundary diff.
        affected = op_rows[np.flatnonzero(np.diff(op_rows, prepend=-1))]
        # Split into rows already in the overlay ("edited") and
        # first-timers, which bring their current base entries along.
        if prev_touched.size:
            pos = np.searchsorted(prev_touched, affected)
            safe = np.minimum(pos, prev_touched.size - 1)
            in_prev = prev_touched[safe] == affected
            edited_local = pos[in_prev]
        else:
            in_prev = np.zeros(affected.size, dtype=bool)
            edited_local = np.zeros(0, dtype=np.int64)
        newly = affected[~in_prev]
        base_r, base_c, base_d = self._base_entries_of(state.base, newly)
        ov_idx = _gather_runs(
            prev_indptr[edited_local], prev_counts[edited_local]
        )
        e_r = np.repeat(
            prev_touched[edited_local], prev_counts[edited_local]
        )
        e_c, e_d = state.cols[ov_idx], state.data[ov_idx]
        # Current entries of the affected rows: the edited-overlay and
        # newly-from-base streams cover disjoint row sets and are each
        # (row, col)-sorted, so destination arithmetic (own rank plus
        # the other stream's crossing count) merges them without a
        # sort.  Everything here is O(affected entries + ops),
        # independent of the overlay size — and sort-free: lexsort over
        # the hub-heavy affected runs costs more than every scatter in
        # this method combined.
        cur_n = e_r.size + base_r.size
        cur_r = np.empty(cur_n, dtype=np.int64)
        cur_c = np.empty(cur_n, dtype=np.int64)
        cur_d = np.empty(cur_n, dtype=np.float64)
        de = np.searchsorted(base_r, e_r) + np.arange(e_r.size)
        db = np.searchsorted(e_r, base_r) + np.arange(base_r.size)
        cur_r[de] = e_r
        cur_r[db] = base_r
        cur_c[de] = e_c
        cur_c[db] = base_c
        cur_d[de] = e_d
        cur_d[db] = base_d
        # Apply the deduped ops.  Dense (row, col) keys pass 2**31 and
        # are built in int64 whatever the index dtype; they fit, as
        # ``n_rows * n_cols`` of any matrix held in memory does.  Ops
        # hitting an existing coordinate overwrite (or, for deletes,
        # drop) it in place; missed upserts merge in as fresh entries;
        # missed deletes are no-ops by contract.
        key_cur = cur_r * np.int64(self.n_cols) + cur_c
        key_ops = op_rows * np.int64(self.n_cols) + op_cols
        if key_cur.size:
            pos = np.searchsorted(key_cur, key_ops)
            hit = key_cur[np.minimum(pos, key_cur.size - 1)] == key_ops
        else:
            pos = np.zeros(op_rows.size, dtype=np.int64)
            hit = np.zeros(op_rows.size, dtype=bool)
        cur_d[pos[hit]] = op_vals[hit]
        keep_cur = np.ones(cur_n, dtype=bool)
        keep_cur[pos[hit & op_dels]] = False
        kept_idx = np.flatnonzero(keep_cur)
        ins = np.flatnonzero(~hit & ~op_dels)
        key_kept = key_cur[kept_idx]
        key_ins = key_ops[ins]
        total_aff = kept_idx.size + ins.size
        aff_r = np.empty(total_aff, dtype=np.int64)
        aff_c = np.empty(total_aff, dtype=np.int64)
        aff_v = np.empty(total_aff, dtype=np.float64)
        dk = np.searchsorted(key_ins, key_kept) + np.arange(kept_idx.size)
        di = np.searchsorted(key_kept, key_ins) + np.arange(ins.size)
        aff_r[dk] = cur_r[kept_idx]
        aff_r[di] = op_rows[ins]
        aff_c[dk] = cur_c[kept_idx]
        aff_c[di] = op_cols[ins]
        aff_v[dk] = cur_d[kept_idx]
        aff_v[di] = op_vals[ins]
        # Splice by scatter.  Per-row counts give the new row pointer;
        # both source streams — the unedited overlay runs and the
        # refreshed affected runs — land at start-plus-rank
        # destinations.  The untouched majority of the overlay moves
        # through one gather/scatter pair: no full-overlay sort, no
        # boolean masks over the entry arrays.
        touched = np.union1d(prev_touched, affected)
        counts = np.zeros(touched.size, dtype=np.int64)
        loc_prev = np.searchsorted(touched, prev_touched)
        loc_aff = np.searchsorted(touched, affected)
        aff_counts = (
            np.searchsorted(aff_r, affected, side="right")
            - np.searchsorted(aff_r, affected, side="left")
        )
        counts[loc_prev] = prev_counts
        counts[loc_aff] = aff_counts
        # The overlay is the touched rows' CSR: one index dtype for
        # ``indptr`` and ``cols``, as for every CSR.
        index = index_dtype(self.n_rows, self.n_cols, int(counts.sum()))
        indptr = np.zeros(touched.size + 1, dtype=index)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        out_c = np.empty(total, dtype=index)
        out_v = np.empty(total, dtype=np.float64)
        kept_local = np.ones(prev_touched.size, dtype=bool)
        kept_local[edited_local] = False
        kept_local = np.flatnonzero(kept_local)
        kept_counts = prev_counts[kept_local]
        src = _gather_runs(prev_indptr[kept_local], kept_counts)
        dest = _gather_runs(indptr[loc_prev[kept_local]], kept_counts)
        out_c[dest] = state.cols[src]
        out_v[dest] = state.data[src]
        dest = _gather_runs(indptr[loc_aff], aff_counts)
        out_c[dest] = aff_c
        out_v[dest] = aff_v
        bp = self._base_row_ptr(state.base)
        base_touched_nnz = state.base_touched_nnz + int(
            (bp[newly + 1] - bp[newly]).sum()
        )
        return _OverlayState(
            state.base, touched, out_c, out_v, indptr,
            state.version + 1,
            state.delta_ops + int(op_rows.size),
            base_touched_nnz,
        )

    # ------------------------------------------------------------------
    # Compaction: incremental repair / full rebuild
    # ------------------------------------------------------------------

    def _merged_coo(self, state) -> COOMatrix:
        """Base entries with touched rows replaced by the overlay's.

        One O(nnz) scatter, no global sort: destination offsets come
        from the merged row-length prefix sum, and each source stream
        already carries its entries in per-row (ascending column)
        order, so rank-within-row arithmetic places every triple.
        """
        base_coo = self._base_canonical_coo(state.base)
        touched = state.touched_rows
        if touched.size == 0:
            return base_coo
        n_rows = self.n_rows
        base_indptr = self._base_row_ptr(state.base)
        base_rl = np.diff(base_indptr)
        ov_counts = np.diff(state.indptr)
        final_rl = base_rl.copy()
        final_rl[touched] = ov_counts
        index = index_dtype(n_rows, self.n_cols, int(final_rl.sum()))
        final_indptr = np.zeros(n_rows + 1, dtype=index)
        np.cumsum(final_rl, out=final_indptr[1:])
        total = int(final_indptr[-1])
        out_r = np.empty(total, dtype=index)
        out_c = np.empty(total, dtype=index)
        out_v = np.empty(total, dtype=np.float64)
        # Untouched base entries: rank within row is position minus the
        # base row start; destination is the merged row start plus rank.
        if base_coo.nnz:
            touched_mask = np.zeros(n_rows, dtype=bool)
            touched_mask[touched] = True
            src = np.flatnonzero(~touched_mask[base_coo.rows])
            rows_u = base_coo.rows[src]
            dest = final_indptr[rows_u] + (src - base_indptr[rows_u])
            out_r[dest] = rows_u
            out_c[dest] = base_coo.cols[src]
            out_v[dest] = base_coo.data[src]
        # Overlay entries, same arithmetic over the touched-row counts.
        if state.data.size:
            ov_rows = np.repeat(touched, ov_counts)
            rank = (
                np.arange(ov_rows.size, dtype=np.int64)
                - np.repeat(state.indptr[:-1], ov_counts)
            )
            dest = final_indptr[ov_rows] + rank
            out_r[dest] = ov_rows
            out_c[dest] = state.cols
            out_v[dest] = state.data
        return COOMatrix(out_r, out_c, out_v, self.shape)

    def compact(self) -> "DynamicMatrix":
        """Fold the overlay into the base matrix; returns ``self``.

        The format's registered ``build`` runs on the spliced merge;
        the compaction counts as a repair where the format declares
        ``FormatSpec.supports_repair`` and as a rebuild otherwise.  The
        swap is atomic and fault-injected *before* commit, so an
        injected error leaves the pre-compaction state intact.
        """
        with self._lock:
            state = self._state
            if state.touched_rows.size == 0:
                return self
            self._compact_locked(state, state.version + 1)
            published = self._state
        if _metrics._ENABLED:
            self._set_overlay_gauges(published)
        return self

    def _compact_locked(self, state, version: int) -> None:
        """Fold ``state`` into a new base published as ``version``,
        counted in :attr:`stats` as a repair or a rebuild.  Runs under
        ``_lock``; the fault site fires before anything is published."""
        merged = self._merged_coo(state)
        spec = self._spec
        if _faults._ARMED:
            _faults.INJECTOR.fire(
                "dynamic.compact",
                version=state.version,
                overlay_nnz=int(state.data.size),
            )
        if spec is None:
            # Unregistered base type: the canonical COO *is* the
            # compacted matrix (counted as a rebuild — there is no
            # repair contract to honour).
            new_base = merged
            repaired = False
        else:
            new_base = spec.build(merged)
            repaired = spec.supports_repair
        self._state = _OverlayState.empty(new_base, version)
        self._base_indptr = None
        self._base_coo = None
        self._coo_cache = None
        self._lengths_cache = None
        self._plan_cache.clear()
        self.stats["compactions"] += 1
        self.stats["repairs" if repaired else "rebuilds"] += 1

    @staticmethod
    def _set_overlay_gauges(state) -> None:
        """Publish the overlay size of ``state``, the state a batch or a
        compaction left behind (zero after a compaction)."""
        _metrics.METRICS.set_gauge(
            "dynamic.overlay_nnz", float(state.data.size)
        )
        _metrics.METRICS.set_gauge(
            "dynamic.touched_rows", float(state.touched_rows.size)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicMatrix({type(self.base).__name__}, shape={self.shape}, "
            f"nnz={self.nnz}, overlay={self.overlay_nnz}, "
            f"version={self.data_version})"
        )


# ----------------------------------------------------------------------
# Seeded update streams (tests / CLI / benchmarks)
# ----------------------------------------------------------------------


def seeded_update_stream(matrix, n_ops: int, seed: int):
    """A reproducible mixed stream of edge updates against ``matrix``.

    Roughly half the operations upsert (re-weight existing edges, new
    random edges, the occasional self-loop and explicit zero), the rest
    delete — mostly existing edges, sometimes absent ones (a no-op by
    contract), and occasionally a whole row's entries so row-emptying
    paths stay exercised.  A pure function of ``(matrix structure,
    n_ops, seed)``, shared by the differential tests, ``repro update``
    and ``bench_dynamic.py``.
    """
    if n_ops < 0:
        raise ValidationError(f"n_ops must be non-negative, got {n_ops}")
    coo = matrix.coo_snapshot()
    n_rows, n_cols = matrix.shape
    if n_rows == 0 or n_cols == 0:
        return []
    rng = np.random.default_rng(seed)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(coo.rows, minlength=n_rows), out=indptr[1:])
    stream = []
    while len(stream) < n_ops:
        roll = rng.random()
        if roll < 0.45 or coo.nnz == 0:
            # Upsert: an existing edge 1/3 of the time, else a random
            # (possibly new, possibly self-loop) coordinate.
            if coo.nnz and rng.random() < 0.34:
                k = int(rng.integers(coo.nnz))
                r, c = int(coo.rows[k]), int(coo.cols[k])
            else:
                r = int(rng.integers(n_rows))
                c = r % n_cols if rng.random() < 0.05 else int(
                    rng.integers(n_cols)
                )
            value = 0.0 if rng.random() < 0.05 else float(
                rng.standard_normal()
            )
            op = "insert" if rng.random() < 0.5 else "update"
            stream.append((op, r, c, value))
        elif roll < 0.9:
            # Delete: an existing edge 2/3 of the time, else a miss.
            if coo.nnz and rng.random() < 0.67:
                k = int(rng.integers(coo.nnz))
                stream.append(
                    ("delete", int(coo.rows[k]), int(coo.cols[k]))
                )
            else:
                stream.append(
                    ("delete", int(rng.integers(n_rows)),
                     int(rng.integers(n_cols)))
                )
        else:
            # Empty one row outright (bounded so a single draw cannot
            # blow the op budget).
            r = int(rng.integers(n_rows))
            row_cols = coo.cols[indptr[r] : indptr[r + 1]][:8]
            for c in row_cols:
                stream.append(("delete", r, int(c)))
            if row_cols.size == 0:
                stream.append(("delete", r, int(rng.integers(n_cols))))
    return stream[:n_ops]
