"""Common interface of all sparse matrix formats."""

from __future__ import annotations

import abc
import threading

import numpy as np

from repro.errors import ValidationError
from repro.gpu.spec import FLOAT_BYTES
from repro.obs import metrics as _metrics

__all__ = [
    "SparseMatrix",
    "all_finite",
    "check_shape",
    "check_vector",
    "coerce_array",
]

#: Serialises lazy plan construction so concurrent first calls on the
#: same matrix (e.g. sharded-executor workers sharing an operator)
#: build each plan exactly once; cache *hits* stay lock-free.
_PLAN_BUILD_LOCK = threading.Lock()


def check_shape(shape: tuple[int, int]) -> tuple[int, int]:
    """Validate and normalise a matrix shape."""
    try:
        n_rows, n_cols = shape
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"shape must be a 2-tuple, got {shape!r}") from exc
    n_rows, n_cols = int(n_rows), int(n_cols)
    if n_rows < 0 or n_cols < 0:
        raise ValidationError(f"shape must be non-negative, got {shape!r}")
    return n_rows, n_cols


def all_finite(a: np.ndarray) -> bool:
    """Allocation-free finiteness probe.

    ``dot(a, a)`` is the sum of squares: any NaN makes it NaN, any Inf
    makes it Inf/NaN, and squares cannot cancel — so a finite dot
    product proves every element is finite.  The one caveat: magnitudes
    beyond ~1e154 overflow the square and report non-finite; validation
    errs on the loud side there, which is the contract (inputs that
    large overflow the product anyway).
    """
    flat = a.ravel(order="K")
    return bool(np.isfinite(np.dot(flat, flat)))


def coerce_array(a, name: str, ndim: int) -> np.ndarray:
    """Coerce ``a`` to a C-contiguous float64 array of rank ``ndim``.

    Raises a loud :class:`ValidationError` — never a silent bad result —
    on inputs that cannot carry SpMV data exactly-ish: complex / object /
    string / datetime dtypes, extended-precision floats, wrong rank, and
    negative-stride (reversed) views, which callers almost never mean to
    pass and which defeat the no-copy fast paths.
    """
    try:
        arr = np.asarray(a)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not array-like: {exc}") from exc
    if arr.dtype.kind not in "buif" or arr.dtype.itemsize > 8:
        raise ValidationError(
            f"{name} has unsupported dtype {arr.dtype}; expected a real "
            "numeric dtype convertible to float64"
        )
    if arr.ndim != ndim:
        raise ValidationError(
            f"{name} must be {ndim}-dimensional, got {arr.ndim}-D"
        )
    if any(stride < 0 for stride in arr.strides):
        raise ValidationError(
            f"{name} has negative strides (a reversed view); pass a "
            "contiguous copy instead"
        )
    return np.ascontiguousarray(arr, dtype=np.float64)


def check_vector(x: np.ndarray, expected_len: int, name: str = "x") -> np.ndarray:
    """Validate an input vector for SpMV.

    A contiguous float64 vector passes through untouched (the hot path:
    power-method iterates are already in that layout, and copying them
    per call costs an O(n) allocation every iteration); anything else is
    coerced once by :func:`coerce_array`, which raises a loud
    :class:`ValidationError` on un-coercible dtypes, wrong rank, or
    negative-stride views.  Every accepted vector is probed for NaN/Inf
    (allocation-free, see :func:`all_finite`) so corruption surfaces at
    the call that receives it instead of silently propagating through
    hundreds of power-method iterations.
    """
    if not (
        isinstance(x, np.ndarray)
        and x.dtype == np.float64
        and x.ndim == 1
        and x.flags.c_contiguous
    ):
        x = coerce_array(x, name, ndim=1)
    if x.size != expected_len:
        raise ValidationError(
            f"{name} has length {x.size}, expected {expected_len}"
        )
    if x.size and not all_finite(x):
        raise ValidationError(
            f"{name} contains NaN or Inf (or overflows the finiteness "
            "probe); refusing to propagate non-finite values"
        )
    return x


class SparseMatrix(abc.ABC):
    """Abstract base of every storage format.

    Subclasses store their arrays in the layout a GPU kernel would use
    and implement ``_build_plan``, producing the cached
    :class:`~repro.exec.plan.SpMVPlan` behind the exact ``spmv``/``spmm``
    entry points below.  Performance is *not* modelled here; that is the
    job of ``repro.kernels``, which reads the structural properties
    exposed by this interface.

    Matrices are treated as immutable once constructed: derived state
    is cached in the instance ``__dict__`` and built at most once per
    matrix — the execution plans (:meth:`spmv_plan`), the tuned engines
    (:meth:`tuned_plan`), the row/column length arrays, and the mining
    setup cache (:func:`repro.mining.power_method.mining_setup`: per
    algorithm, the operator, its fingerprint, the cost-model kernels and
    the sharded executor, stamped with :attr:`data_version`).
    """

    #: Matrix dimensions ``(n_rows, n_cols)``.
    shape: tuple[int, int]

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored non-zero entries (explicit zeros excluded
        from padding accounting but included if stored)."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Storage footprint in bytes, padding included."""

    @abc.abstractmethod
    def to_coo(self) -> "SparseMatrix":
        """Convert to :class:`~repro.formats.coo.COOMatrix`."""

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _build_plan(self):
        """Construct this format's native execution plan (numpy backend)."""

    def spmv_plan(self, backend: str | None = None):
        """The lazily-built, cached execution plan of this matrix.

        One plan is kept per backend name; repeated calls return the
        identical object (asserted by the engine tests), so the O(nnz)
        scaffolding — reduction segments, gather maps, workspaces — is
        paid once per matrix, not once per call.
        """
        from repro.exec.backends import _resolve
        from repro.exec.plan import PLAN_CACHE_STATS

        key = _resolve(backend)
        plans = self.__dict__.setdefault("_spmv_plans", {})
        plan = plans.get(key)
        if plan is None:
            # Double-checked: the uncontended hit path above stays
            # lock-free; a concurrent first call builds exactly once.
            with _PLAN_BUILD_LOCK:
                plan = plans.get(key)
                if plan is None:
                    from repro.exec.backends import build_plan

                    plan = build_plan(self, backend=key)
                    plans[key] = plan
                    PLAN_CACHE_STATS.builds += 1
                    if _metrics._ENABLED:
                        _metrics.METRICS.inc(
                            "plan.cache.builds", backend=key
                        )
                else:
                    PLAN_CACHE_STATS.hits += 1
                    if _metrics._ENABLED:
                        _metrics.METRICS.inc("plan.cache.hits", backend=key)
        else:
            PLAN_CACHE_STATS.hits += 1
            if _metrics._ENABLED:
                _metrics.METRICS.inc("plan.cache.hits", backend=key)
        return plan

    def tuned_plan(self, **tune_options):
        """The measured-tuned execution engine for this matrix.

        Runs :func:`repro.tuner.tune` — model-pruned candidates, short
        real measurements, persistent decision cache — and wraps the
        winning ``format x backend x shard-count`` configuration in a
        :class:`~repro.tuner.tuner.TunedEngine` with the same
        ``spmv``/``spmm`` interface as a plan.  The engine is cached
        per option set **and environment**: repeated calls return the
        identical object while the environment key (CPU count, affinity,
        backends, library versions) is unchanged, but a long-lived
        process whose affinity mask shrinks or grows re-tunes instead of
        replaying a shard-count decision made for a different machine
        shape.  Within one process the tuning itself also resolves from
        the on-disk cache in O(1) after the first measurement.
        """
        from repro.tuner import environment_key, tune

        engines = self.__dict__.setdefault("_tuned_engines", {})
        key = repr(sorted(tune_options.items()))
        environment = environment_key()
        cached = engines.get(key)
        if cached is not None:
            cached_environment, engine = cached
            if cached_environment == environment:
                return engine
            # Stale environment: drain the old engine's workers before
            # replacing it (its shard count was sized for a machine
            # shape that no longer exists).
            engine.close()
        decision = tune(self, **tune_options)
        engine = decision.build_engine(self)
        engines[key] = (environment, engine)
        return engine

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Exact product ``y = A @ x``.

        With ``out`` given, the result is written into the caller's
        buffer and — once the plan exists — the call performs no heap
        allocation of O(nnz) or O(n) temporaries.
        """
        return self.spmv_plan().execute(x, out=out)

    def spmm(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched multi-vector product ``Y = A @ X``.

        ``X`` has shape ``(n_cols, k)``; column ``j`` of the result is
        bit-identical to ``spmv(X[:, j])``, but the matrix structure is
        gathered once for all ``k`` right-hand sides.
        """
        return self.spmv_plan().execute_many(X, out=out)

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------

    @property
    def data_version(self) -> int:
        """Monotonic mutation counter.

        Plain matrices are immutable, so this is constant ``0``;
        :class:`~repro.graphs.dynamic.DynamicMatrix` bumps it on every
        ``apply_updates``/``compact``.  Long-lived holders of derived
        state — the sharded executor's per-shard plans above all —
        snapshot this value and refresh when it moves.
        """
        return 0

    def coo_snapshot(self):
        """A consistent canonical-COO view of the current contents.

        For immutable matrices this is simply :meth:`to_coo`; dynamic
        matrices override it to return one atomically-captured state so
        that a multi-shard rebuild never sees a torn update.
        """
        return self.to_coo()

    def apply_updates(self, updates, **options):
        """Begin streaming edge updates against this matrix.

        Wraps the matrix in a
        :class:`~repro.graphs.dynamic.DynamicMatrix` (delta-COO
        overlay, threshold compaction, incremental plan repair) and
        applies the first batch.  Subsequent batches go through the
        returned wrapper's own ``apply_updates``, which mutates in
        place and returns the same object.
        """
        from repro.graphs.dynamic import DynamicMatrix

        dyn = DynamicMatrix(self, **options)
        return dyn.apply_updates(updates)

    def row_slice(self, row_ids: np.ndarray):
        """Sub-matrix of the given rows (renumbered 0..k-1, all columns).

        The canonical row-sorted COO slice: within every kept row the
        stored entries remain in ascending column order, so any
        row-decomposed execution of the slices reproduces each output
        row's reduction — the property the sharded executor's
        bit-identity guarantee rests on.  Row partitioning never splits
        a row, so slicing commutes with SpMV.
        """
        return self.to_coo().select_rows(np.asarray(row_ids, dtype=np.int64))

    # ------------------------------------------------------------------
    # Shared conveniences
    # ------------------------------------------------------------------

    @property
    def flops(self) -> int:
        """Useful FLOPs of one SpMV (a multiply and an add per non-zero)."""
        return 2 * self.nnz

    @property
    def density(self) -> float:
        """Fraction of entries that are stored."""
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (small matrices / tests only)."""
        coo = self.to_coo()
        dense = np.zeros(self.shape, dtype=np.float64)
        # += via np.add.at to honour duplicate coordinates, which the
        # formats forbid but defensive conversion should not corrupt.
        np.add.at(dense, (coo.rows, coo.cols), coo.data)
        return dense

    def row_lengths(self) -> np.ndarray:
        """Number of stored entries per row (cached, read-only).

        Kernels' cost models and the autotuner query the length
        distributions repeatedly; the result is computed once per matrix
        and marked read-only so accidental mutation fails loudly.
        """
        cached = self.__dict__.get("_row_lengths")
        if cached is None:
            cached = np.asarray(self._compute_row_lengths())
            cached.setflags(write=False)
            self.__dict__["_row_lengths"] = cached
        return cached

    def col_lengths(self) -> np.ndarray:
        """Number of stored entries per column (cached, read-only)."""
        cached = self.__dict__.get("_col_lengths")
        if cached is None:
            cached = np.asarray(self._compute_col_lengths())
            cached.setflags(write=False)
            self.__dict__["_col_lengths"] = cached
        return cached

    def _compute_row_lengths(self) -> np.ndarray:
        coo = self.to_coo()
        return np.bincount(coo.rows, minlength=self.n_rows)

    def _compute_col_lengths(self) -> np.ndarray:
        coo = self.to_coo()
        return np.bincount(coo.cols, minlength=self.n_cols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"nbytes={self.nbytes})"
        )

    @staticmethod
    def _array_bytes(*arrays: np.ndarray) -> int:
        """Sum of array footprints, assuming 4-byte values/indices as the
        GPU kernels store them (the paper runs in single precision)."""
        total = 0
        for arr in arrays:
            total += arr.size * FLOAT_BYTES
        return total
