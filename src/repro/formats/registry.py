"""Pluggable format/kernel registry.

Every storage format the engine can build — the seven Bell & Garland
formats plus the load-balanced zoo (CMRS, row-grouped CSR, merge-path
CSR) — is described by one :class:`FormatSpec` and registered here,
mirroring :func:`repro.exec.backends.register_backend`.  Everything
that used to hard-code a format list derives from this registry
instead: ``to_format``, the differential test matrix, the tuner's
model-pruned candidate grid, the native backend's plan dispatch, the
multi-GPU memory accounting and the ``repro formats`` CLI.

Third-party formats plug in without touching core, two ways:

* call :func:`register_format` directly with a :class:`FormatSpec`;
* expose an ``importlib.metadata`` entry point under the group
  ``repro.formats`` whose loaded object is either a ``FormatSpec`` or
  a zero-argument callable returning one spec or an iterable of specs
  (see DESIGN.md §13 for the full contract and a minimal package).

Entry-point discovery runs once at import; a broken plugin is recorded
in :func:`entry_point_errors` and never takes the engine down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ValidationError

__all__ = [
    "ENTRY_POINT_GROUP",
    "FormatSpec",
    "discover_entry_points",
    "entry_point_errors",
    "format_names",
    "get_format",
    "model_kernel_map",
    "register_format",
    "spec_for",
    "specs",
    "unregister_format",
]

#: ``importlib.metadata`` entry-point group scanned for plugin formats.
ENTRY_POINT_GROUP = "repro.formats"

_REGISTRY: dict[str, "FormatSpec"] = {}
_ENTRY_POINT_ERRORS: list[dict] = []
_DISCOVERED = False


@dataclass(frozen=True)
class FormatSpec:
    """Everything the engine needs to know about one storage format.

    Parameters
    ----------
    name:
        Registry key, lower-case (``to_format`` name, tuner decision
        name, CLI name).
    cls:
        The :class:`~repro.formats.base.SparseMatrix` subclass.
    build:
        ``build(coo, **kwargs) -> matrix`` converter from a canonical
        row-sorted COO matrix; may raise
        :class:`~repro.errors.FormatNotApplicableError`.
    description:
        One line for the CLI listing.
    bitwise:
        Whether the format's numpy plan reproduces the canonical
        ``np.add.reduceat`` reduction order of the COO reference bit
        for bit (the differential matrix's bitwise class).  Formats
        whose plans associate per-row products differently (ELL, HYB,
        DIA, PKT) are last-ulp only.
    model_kernel:
        §5 selector kernel this format realises on the host, or
        ``None``.  The tuner derives its model→format map and its
        extended ``select_kernel`` candidate list from these.
    tune_candidate:
        Optional cheap predicate ``f(matrix) -> bool``: when true, the
        format joins the tuner's measured grid even if the model did
        not pick it.  This is the registry's "slot in the model-pruned
        candidate grid" — new formats need no tuner code change.
    native_plan:
        Optional factory ``f(matrix) -> SpMVPlan | None`` consulted by
        the numba :class:`~repro.exec.native.NativeBackend` before its
        generic segmented-reduce fallback; return ``None`` to decline.
    supports_repair:
        Whether compacting a dynamic overlay counts as a repair rather
        than a rebuild.  Compaction always splices the overlay into the
        base's row runs without a sort and then runs this format's own
        ``build`` on the merged COO; a format declares ``True`` when
        that ``build`` is a linear pass over the already sorted merge
        (COO pass-through, CSR counting pass).  Formats with global
        layout decisions (strip packing, merge-path splits, column
        clustering) declare ``False`` and are counted as rebuilds.
    source:
        ``"builtin"`` or the entry-point name that registered it.
    """

    name: str
    cls: type
    build: Callable
    description: str = ""
    bitwise: bool = False
    model_kernel: str | None = None
    tune_candidate: Callable | None = field(default=None, compare=False)
    native_plan: Callable | None = field(default=None, compare=False)
    supports_repair: bool = False
    source: str = "builtin"


def register_format(spec: FormatSpec) -> FormatSpec:
    """Add a format to the registry (name must be unique)."""
    if not isinstance(spec, FormatSpec):
        raise ValidationError(
            f"register_format expects a FormatSpec, got {type(spec).__name__}"
        )
    key = spec.name.lower()
    if key != spec.name:
        raise ValidationError(
            f"format name {spec.name!r} must be lower-case"
        )
    if key in _REGISTRY:
        raise ValidationError(f"format {key!r} already registered")
    _REGISTRY[key] = spec
    return spec


def unregister_format(name: str) -> None:
    """Remove a registered format (tests / plugin teardown)."""
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ValidationError(f"format {key!r} is not registered")
    del _REGISTRY[key]


def get_format(name: str) -> FormatSpec:
    """Look up one format spec by name."""
    key = str(name).lower()
    spec = _REGISTRY.get(key)
    if spec is None:
        raise ValidationError(
            f"unknown format {name!r}; expected one of {format_names()}"
        )
    return spec


def format_names() -> list[str]:
    """Registered format names, in registration order."""
    return list(_REGISTRY)


def specs() -> list[FormatSpec]:
    """Registered specs, in registration order."""
    return list(_REGISTRY.values())


def spec_for(matrix) -> FormatSpec | None:
    """The spec whose class is exactly ``type(matrix)``, or ``None``."""
    cls = type(matrix)
    for spec in _REGISTRY.values():
        if spec.cls is cls:
            return spec
    return None


def model_kernel_map() -> dict[str, str]:
    """Live ``{model kernel -> format name}`` map from the registry.

    The tuner maps the §5 model's pick onto a format through it, so
    registering a format with a ``model_kernel`` gives it a tuner grid
    slot with no tuner change.
    """
    return {
        spec.model_kernel: name
        for name, spec in _REGISTRY.items()
        if spec.model_kernel
    }


def entry_point_errors() -> list[dict]:
    """Plugin failures recorded during discovery (never raised)."""
    return list(_ENTRY_POINT_ERRORS)


def _register_loaded(obj, ep_name: str) -> None:
    """Register whatever an entry point resolved to."""
    if isinstance(obj, FormatSpec):
        loaded = [obj]
    elif callable(obj):
        produced = obj()
        if produced is None:
            return
        loaded = (
            [produced] if isinstance(produced, FormatSpec) else list(produced)
        )
    else:
        raise ValidationError(
            f"entry point {ep_name!r} must resolve to a FormatSpec or a "
            f"callable producing specs, got {type(obj).__name__}"
        )
    for spec in loaded:
        register_format(
            spec if spec.source != "builtin"
            else FormatSpec(**{**spec.__dict__, "source": f"plugin:{ep_name}"})
        )


def discover_entry_points(*, force: bool = False) -> list[str]:
    """Scan the ``repro.formats`` entry-point group and register plugins.

    Runs once per process unless ``force``; returns the names newly
    registered by this call.  A plugin that fails to load or register
    is recorded in :func:`entry_point_errors` — discovery is never
    allowed to break the core engine.
    """
    global _DISCOVERED
    if _DISCOVERED and not force:
        return []
    _DISCOVERED = True
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - stdlib since 3.8
        return []
    before = set(_REGISTRY)
    try:
        group = entry_points(group=ENTRY_POINT_GROUP)
    except Exception as exc:  # pragma: no cover - metadata corruption
        _ENTRY_POINT_ERRORS.append(
            {"entry_point": "<scan>", "error": repr(exc)}
        )
        return []
    for ep in group:
        try:
            _register_loaded(ep.load(), ep.name)
        except Exception as exc:
            _ENTRY_POINT_ERRORS.append(
                {"entry_point": ep.name, "error": repr(exc)}
            )
    return [name for name in _REGISTRY if name not in before]


# ----------------------------------------------------------------------
# Built-in formats
# ----------------------------------------------------------------------


def _builtin_specs() -> list[FormatSpec]:
    from repro.formats.cmrs import (
        CMRSMatrix,
        cmrs_tune_candidate,
        native_cmrs_plan,
    )
    from repro.formats.coo import COOMatrix
    from repro.formats.csc import CSCMatrix
    from repro.formats.csr import CSRMatrix
    from repro.formats.dia import DIAMatrix
    from repro.formats.ell import ELLMatrix
    from repro.formats.hyb import HYBMatrix
    from repro.formats.mpcsr import (
        MPCSRMatrix,
        mpcsr_tune_candidate,
        native_mpcsr_plan,
    )
    from repro.formats.pkt import PKTMatrix
    from repro.formats.rgcsr import (
        RGCSRMatrix,
        native_rgcsr_plan,
        rgcsr_tune_candidate,
    )

    def _native_csr(matrix):
        from repro.exec.native import NativeCSRPlan

        return NativeCSRPlan(matrix)

    def _native_ell(matrix):
        from repro.exec.native import NativeELLPlan, _left_justified

        if not _left_justified(matrix.valid):
            return None
        return NativeELLPlan(matrix)

    # Registration order matters for multi-format kernel attribute
    # probing (multigpu memory accounting): composite formats precede
    # the plain layouts they embed.
    return [
        FormatSpec(
            name="hyb", cls=HYBMatrix, build=HYBMatrix.from_coo,
            description="hybrid ELL head + COO tail (Bell & Garland)",
            bitwise=False, model_kernel="tile-composite",
        ),
        FormatSpec(
            name="coo", cls=COOMatrix, build=lambda coo, **kw: coo,
            description="row-sorted coordinate triples — the reference",
            bitwise=True,
            # The merged COO *is* the compacted matrix: splicing the
            # untouched row runs with the overlay's already yields
            # canonical row/col-sorted triples.
            supports_repair=True,
        ),
        FormatSpec(
            name="csr", cls=CSRMatrix,
            build=lambda coo, **kw: CSRMatrix.from_coo(coo),
            description="compressed sparse row — the universal baseline",
            bitwise=True, model_kernel="csr-vector",
            native_plan=_native_csr,
            # from_coo on the spliced merge is a linear counting pass —
            # no global sort.
            supports_repair=True,
        ),
        FormatSpec(
            name="csc", cls=CSCMatrix,
            build=lambda coo, **kw: CSCMatrix.from_coo(coo),
            description="compressed sparse column (tiling transform input)",
            bitwise=True,
        ),
        FormatSpec(
            name="ell", cls=ELLMatrix, build=ELLMatrix.from_coo,
            description="ELLPACK — fixed width, zero padded",
            bitwise=False, model_kernel="ell",
            native_plan=_native_ell,
        ),
        FormatSpec(
            name="dia", cls=DIAMatrix, build=DIAMatrix.from_coo,
            description="diagonal storage (banded matrices only)",
            bitwise=False,
        ),
        FormatSpec(
            name="pkt", cls=PKTMatrix, build=PKTMatrix.from_coo,
            description="packet — clustered dense-ish sub-blocks",
            bitwise=False,
        ),
        FormatSpec(
            name="cmrs", cls=CMRSMatrix, build=CMRSMatrix.from_coo,
            description="strip-packed multi-row CSR (Koza et al., "
            "arXiv:1203.2946)",
            bitwise=True, model_kernel="cmrs",
            tune_candidate=cmrs_tune_candidate,
            native_plan=native_cmrs_plan,
        ),
        FormatSpec(
            name="rgcsr", cls=RGCSRMatrix, build=RGCSRMatrix.from_coo,
            description="adaptive row-grouped CSR, occupancy-targeted "
            "padded groups (arXiv:1203.5737)",
            bitwise=True, model_kernel="rgcsr",
            tune_candidate=rgcsr_tune_candidate,
            native_plan=native_rgcsr_plan,
        ),
        FormatSpec(
            name="mpcsr", cls=MPCSRMatrix, build=MPCSRMatrix.from_coo,
            description="merge-path / row-split CSR, nnz-balanced "
            "splits with carry fix-up (arXiv:1803.08601)",
            bitwise=True, model_kernel="csr-mergepath",
            tune_candidate=mpcsr_tune_candidate,
            native_plan=native_mpcsr_plan,
        ),
    ]


for _spec in _builtin_specs():
    register_format(_spec)
del _spec

discover_entry_points()
