"""Kernel interface and registry.

A *kernel* is the simulated GPU code whose cost the paper reports: a
storage format plus an execution strategy.  Every kernel exposes
``cost()`` — a :class:`~repro.gpu.costs.CostReport` of one SpMV on the
simulated device, derived from the actual matrix structure — and builds
only what that cost model reads.

A kernel prices; it does not execute.  The exact product belongs to
the matrix (``matrix.spmv(x)``, or ``kernel.matrix.spmv(x)`` for the
tile kernels' own storage), and the mining power loops run on the
operator or an executor
(:func:`repro.mining.power_method.resolve_engine`).

Kernels register themselves by name; ``create`` is the public factory:

    kernel = create("hyb", matrix, device=DeviceSpec.tesla_c1060())
"""

from __future__ import annotations

import abc
from typing import Callable

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.gpu.costs import CostReport
from repro.gpu.spec import DeviceSpec

__all__ = [
    "SpMVKernel", "available_kernels", "create", "kernel_class", "register",
]

_REGISTRY: dict[str, type["SpMVKernel"]] = {}


def register(name: str) -> Callable[[type], type]:
    """Class decorator adding a kernel to the factory registry."""

    def wrap(cls: type) -> type:
        if name in _REGISTRY:
            raise ValidationError(f"kernel {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def available_kernels() -> list[str]:
    """Names of all registered kernels."""
    # Tile kernels live next to the core transforms; importing them here
    # (lazily, to avoid an import cycle at package-load time) makes the
    # registry complete for callers that only touched the base module.
    from repro.kernels import tile_composite, tile_coo  # noqa: F401

    return sorted(_REGISTRY)


def kernel_class(name: str) -> type["SpMVKernel"]:
    """The registered kernel class of ``name`` (case-insensitive)."""
    available_kernels()  # ensure lazy registrations happened
    key = name.lower()
    if key not in _REGISTRY:
        raise ValidationError(
            f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]


def create(
    name: str,
    matrix: SparseMatrix,
    *,
    device: DeviceSpec | None = None,
    **options,
) -> "SpMVKernel":
    """Instantiate a kernel by name on the given matrix."""
    return kernel_class(name)(matrix, device=device, **options)


class SpMVKernel(abc.ABC):
    """Base class of all SpMV kernels.

    Subclasses implement :meth:`_compute_cost` from the canonical COO
    (``self.coo``), building in ``__init__`` only the structure their
    cost model walks (a format whose builder refuses inapplicable
    matrices, or the tiled storage).  Cost reports are memoised — the
    matrix is immutable once wrapped.
    """

    #: Registry name, set by the ``register`` decorator.
    name: str = "abstract"

    def __init__(
        self,
        matrix: SparseMatrix,
        *,
        device: DeviceSpec | None = None,
    ) -> None:
        if not isinstance(matrix, SparseMatrix):
            raise ValidationError(
                f"expected a SparseMatrix, got {type(matrix).__name__}"
            )
        self.device = device or DeviceSpec.tesla_c1060()
        self.coo = matrix if isinstance(matrix, COOMatrix) else matrix.to_coo()
        self._cost: CostReport | None = None

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.coo.shape

    @property
    def nnz(self) -> int:
        return self.coo.nnz

    @property
    def flops(self) -> int:
        return 2 * self.nnz

    def cost(self) -> CostReport:
        """Simulated cost of one SpMV (memoised)."""
        if self._cost is None:
            self._cost = self._compute_cost()
        return self._cost

    @abc.abstractmethod
    def _compute_cost(self) -> CostReport:
        """Derive the cost report from the matrix structure."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"device={self.device.name!r})"
        )
