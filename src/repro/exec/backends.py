"""Execution-backend registry.

A *backend* turns a :class:`~repro.formats.base.SparseMatrix` into a
:class:`~repro.exec.plan.SpMVPlan`.  The ``numpy`` backend asks the
matrix for its plan (``_build_plan``: the gather/segmented-reduce plan
of its row-sorted COO unless the format has a layout of its own);
the ``scipy`` backend — auto-detected, never required — compiles the
matrix to canonical CSR (a CSC runs as it is stored) and drives SciPy's
C matvec kernels directly into the caller's ``out`` buffer.

When SciPy is importable it is the default backend (its row-serial
accumulation matches the seed implementation's ``np.bincount`` order
bit for bit, and the compiled loop is the fast path); otherwise
``numpy`` is.  ``REPRO_SPMV_BACKEND`` (read at import time) or
:func:`set_default_backend` overrides the choice.  A backend name that
is not registered at all — including a typo'd environment variable —
raises :class:`~repro.errors.ValidationError` naming
:func:`available_backends`; a *registered but unavailable* backend
(e.g. ``scipy`` on a container without SciPy) falls back to ``numpy``
so code runs unchanged there.
"""

from __future__ import annotations

import abc
import os
import time

import numpy as np

from repro.errors import ValidationError
from repro.exec.plan import SpMVPlan
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults

__all__ = [
    "Backend",
    "NumpyBackend",
    "ScipyBackend",
    "ScipyCSCPlan",
    "ScipyCSRPlan",
    "available_backends",
    "build_plan",
    "configure_from_env",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "set_default_backend",
]

_BACKENDS: dict[str, "Backend"] = {}
_DEFAULT_NAME = "numpy"


class Backend(abc.ABC):
    """One way of compiling matrices into execution plans."""

    name: str = "abstract"

    #: Whether every format runs the same row-serial arithmetic (one
    #: CSR plan, or a bitwise-equal CSC scatter), so the storage
    #: format cannot change what this backend computes (the tuner
    #: measures one format per such backend).
    format_free: bool = False

    #: Whether a :class:`~repro.formats.csc.CSCMatrix` runs on its own
    #: arrays, with no sort, bitwise equal to the matrix's CSR run —
    #: what a cold source-major mining run needs (DESIGN.md §7).
    sort_free_csc: bool = False

    @abc.abstractmethod
    def is_available(self) -> bool:
        """Whether the backend can run in this environment."""

    @abc.abstractmethod
    def build_plan(self, matrix) -> SpMVPlan | None:
        """Compile ``matrix``, or return ``None`` when unsupported."""


class NumpyBackend(Backend):
    """The native backend: a format's own plan, or the one plan of its
    canonical COO."""

    name = "numpy"

    def is_available(self) -> bool:
        return True

    def build_plan(self, matrix) -> SpMVPlan:
        return matrix._build_plan()


class _ScipyPlan(SpMVPlan):
    """Plan driving one of SciPy's compiled matvec kernel pairs on
    ``indptr``/``indices``/``data``, accumulating straight into the
    caller's buffer — zero heap allocation per call.  Older/stripped
    SciPy builds without the private ``_sparsetools`` module fall back
    to the public sparse-array ``@`` operator (one O(n_rows)
    temporary)."""

    backend = "scipy"
    #: ``(matvec, matvecs, sparse array class)`` names in SciPy.
    _kernels: tuple[str, str, str]

    def __init__(self, shape, indptr, indices, data) -> None:
        super().__init__(shape)
        self.indptr, self.indices, self.data = indptr, indices, data
        matvec, matvecs, _ = self._kernels
        try:
            from scipy.sparse import _sparsetools

            self._matvec = getattr(_sparsetools, matvec)
            self._matvecs = getattr(_sparsetools, matvecs)
        except (ImportError, AttributeError):  # pragma: no cover
            self._matvec = self._matvecs = None
        self._operator = None

    def _fallback_operator(self):
        if self._operator is None:
            import scipy.sparse as sp

            self._operator = getattr(sp, self._kernels[2])(
                (self.data, self.indices, self.indptr), shape=self.shape
            )
        return self._operator

    def _execute(self, x: np.ndarray, out: np.ndarray) -> None:
        if self._matvec is None:  # pragma: no cover - fallback path
            np.copyto(out, self._fallback_operator() @ x)
            return
        out.fill(0.0)
        self._matvec(
            self.n_rows, self.n_cols,
            self.indptr, self.indices, self.data, x, out,
        )

    def _execute_many(self, X: np.ndarray, out: np.ndarray) -> None:
        if self._matvecs is None:  # pragma: no cover - fallback path
            np.copyto(out, self._fallback_operator() @ X)
            return
        indptr, indices = self._batch_indices()
        out.fill(0.0)
        self._matvecs(
            self.n_rows, self.n_cols, X.shape[1],
            indptr, indices, self.data, X.ravel(), out.ravel(),
        )

    def _batch_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``indptr``/``indices`` pair the batched kernel runs on."""
        return self.indptr, self.indices


class ScipyCSRPlan(_ScipyPlan):
    """Plan driving SciPy's compiled CSR matvec kernels.

    The matrix is canonicalised to CSR once; execution calls
    ``csr_matvec`` (``csr_matvecs`` for the batched path).  Row-serial
    summation order matches the seed implementation's ``np.bincount``
    reduction exactly.

    The plan copies no O(nnz) array.  A
    :class:`~repro.formats.csr.CSRMatrix` is adopted as it is, so a plan
    on a row-range view (the sharded executor's shards) shares the
    view's memory.  Any other format's canonical row-sorted COO already
    holds CSR's ``indices`` and ``data`` in order, so the plan shares
    them and builds only ``indptr``.
    """

    _kernels = ("csr_matvec", "csr_matvecs", "csr_array")

    def _batch_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``indptr`` and ``indices`` in int64, for ``csr_matvecs``.

        ``csr_matvec`` runs faster on 32-bit indices, but ``csr_matvecs``
        runs slower on them (125 K nnz, 8 columns: 781 against 613 µs;
        ``csc_matvecs`` shows no difference), so the first batched call
        widens both arrays once and keeps them, one width as ever (a
        race builds two equal copies, one of which is kept).  Plans that
        only run ``spmv`` never pay for it.
        """
        wide = self.__dict__.get("_wide")
        if wide is None:
            wide = (
                self.indptr.astype(np.int64, copy=False),
                self.indices.astype(np.int64, copy=False),
            )
            self._wide = wide
        return wide

    def __init__(self, matrix) -> None:
        from repro.formats.csr import CSRMatrix

        csr = (
            matrix
            if isinstance(matrix, CSRMatrix)
            else CSRMatrix._from_coo_shared(matrix.to_coo())
        )
        super().__init__(matrix.shape, csr.indptr, csr.indices, csr.data)


class ScipyCSCPlan(_ScipyPlan):
    """Plan driving SciPy's compiled CSC matvec kernels on a
    :class:`~repro.formats.csc.CSCMatrix`'s own arrays: no copy, no sort.

    ``csc_matvec`` scatters column by column, ``y[i] += a_ij * x[j]``
    for ascending ``j``, so every ``y[i]`` adds its products from 0 in
    ascending column order — the order ``csr_matvec`` adds them in on
    the same matrix.  The two plans are therefore bitwise equal
    (``csc_matvecs`` and ``csr_matvecs`` likewise, column by column of
    ``X``); the scatter streams ``y`` instead of ``x`` and is the
    slower of the two once both exist.
    """

    _kernels = ("csc_matvec", "csc_matvecs", "csc_array")

    def __init__(self, csc) -> None:
        super().__init__(csc.shape, csc.indptr, csc.indices, csc.data)


class ScipyBackend(Backend):
    """Optional SciPy-sparse backend (auto-detected)."""

    name = "scipy"
    format_free = True
    sort_free_csc = True

    def is_available(self) -> bool:
        try:
            import scipy.sparse  # noqa: F401
        except ImportError:  # pragma: no cover - scipy present in CI
            return False
        return True

    def build_plan(self, matrix) -> SpMVPlan | None:
        from repro.formats.csc import CSCMatrix

        if not self.is_available():  # pragma: no cover
            return None
        if isinstance(matrix, CSCMatrix):
            return ScipyCSCPlan(matrix)
        return ScipyCSRPlan(matrix)


def register_backend(backend: Backend) -> Backend:
    """Add a backend to the registry (name must be unique)."""
    if backend.name in _BACKENDS:
        raise ValidationError(
            f"backend {backend.name!r} already registered"
        )
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> list[str]:
    """Names of registered backends usable in this environment."""
    return sorted(
        name for name, b in _BACKENDS.items() if b.is_available()
    )


def default_backend_name() -> str:
    """The backend used when none is named explicitly."""
    return _DEFAULT_NAME


def set_default_backend(name: str) -> str:
    """Select the default backend; returns the previous default."""
    global _DEFAULT_NAME
    resolved = _resolve(name)
    previous = _DEFAULT_NAME
    _DEFAULT_NAME = resolved
    return previous


def _resolve(name: str | None) -> str:
    """Map a requested backend name onto a usable registered one."""
    if name is None:
        name = _DEFAULT_NAME
    key = name.lower()
    if key not in _BACKENDS:
        raise ValidationError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    if not _BACKENDS[key].is_available():
        return "numpy"
    return key


def get_backend(name: str | None = None) -> Backend:
    """Look up a backend, falling back to numpy when unavailable."""
    return _BACKENDS[_resolve(name)]


def build_plan(matrix, backend: str | None = None) -> SpMVPlan:
    """Compile ``matrix`` with the named (or default) backend.

    Backends may decline a matrix (return ``None``); the numpy backend
    is the universal fallback.
    """
    if _faults._ARMED:
        _faults.INJECTOR.fire(
            "backend.build", matrix=type(matrix).__name__
        )
    if _metrics._ENABLED:
        tick = time.perf_counter()
    plan = get_backend(backend).build_plan(matrix)
    if plan is None:  # pragma: no cover - numpy never declines
        plan = _BACKENDS["numpy"].build_plan(matrix)
    if _metrics._ENABLED:
        _metrics.METRICS.inc(
            "plan.builds", plan=type(plan).__name__, backend=plan.backend
        )
        _metrics.METRICS.observe(
            "plan.build.seconds",
            time.perf_counter() - tick,
            plan=type(plan).__name__,
            backend=plan.backend,
        )
    return plan


register_backend(NumpyBackend())
register_backend(ScipyBackend())

# The numba-JIT native backend registers itself last: requesting
# ``backend="native"`` on a container without numba falls back to
# ``numpy`` through the ordinary registered-but-unavailable path, so
# tier-1 environments run unchanged.
from repro.exec.native import NativeBackend  # noqa: E402  (needs Backend)

register_backend(NativeBackend())

# Auto-detect: prefer the compiled SciPy path when present.
if _BACKENDS["scipy"].is_available():
    _DEFAULT_NAME = "scipy"

def configure_from_env() -> str:
    """Apply the ``REPRO_SPMV_BACKEND`` environment override.

    An unknown value raises :class:`ValidationError` naming
    :func:`available_backends` — a typo'd backend must fail loudly
    rather than silently running on the wrong execution path.  Returns
    the resulting default backend name.
    """
    env_default = os.environ.get("REPRO_SPMV_BACKEND")
    if env_default:
        try:
            set_default_backend(env_default)
        except ValidationError as exc:
            raise ValidationError(
                f"REPRO_SPMV_BACKEND={env_default!r} is not a known "
                f"backend; available: {available_backends()}"
            ) from exc
    return _DEFAULT_NAME


configure_from_env()
