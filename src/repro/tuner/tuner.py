"""Model-seeded, measurement-decided execution auto-tuning.

:func:`tune` picks the execution configuration — storage **format**,
execution **backend** and row **shard count** — that actually runs a
matrix's SpMV fastest on this host:

1. **Prune with the model.**  §5 kernel selection
   (:func:`repro.core.selector.select_kernel`) predicts the best kernel
   class; the registry's live kernel map
   (:func:`repro.formats.registry.model_kernel_map`) turns that into a
   host storage format, kept alongside the always-cheap CSR baseline.
   Matrix statistics veto candidates the model cannot see — ELL on a
   padding-explosive degree distribution is skipped before it can
   allocate ``rows x max_degree`` storage.
2. **Measure the distinct survivors.**  The surviving ``format x
   backend x shard-count`` grid keeps one candidate per distinct
   engine: a multi-shard candidate runs CSR row ranges whatever the
   format, and a ``format_free`` backend (scipy) compiles every format
   to one CSR plan, so the format is only measured where it changes
   the engine.  Each candidate is timed on the engine
   :meth:`TuningDecision.build_engine` serves — warmup first, then
   median-of-k.  Each measurement is a ``tuner.measure`` trace span and
   a ``tuner.measure.seconds`` histogram sample.
3. **Persist the decision** in the :class:`~repro.tuner.cache.TuningCache`
   keyed by matrix fingerprint, environment and tuning options, so the
   next process gets the same decision in O(1) with zero measurements.
   Reuse needs an exact match of all three: a matrix whose structure
   changed (a dynamic-graph compaction, say) misses and is re-measured.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    FormatNotApplicableError,
    ValidationError,
)
from repro.formats import registry
from repro.formats.convert import to_format
from repro.gpu.spec import DeviceSpec
from repro.obs import metrics as _metrics
from repro.obs.trace import trace
from repro.tuner.cache import TuningCache
from repro.tuner.fingerprint import environment_key, matrix_fingerprint

__all__ = [
    "DEFAULT_REPEATS",
    "DEFAULT_WARMUP",
    "ELL_MAX_PADDING_RATIO",
    "TuningDecision",
    "candidate_grid",
    "tune",
]

#: CSR is always measured — the universal baseline no model prediction
#: is allowed to prune away.
BASELINE_FORMAT = "csr"

#: Skip the ELL candidate when padding would multiply storage by more
#: than this: ``rows x max_degree`` on a power-law graph can exceed
#: memory before the first measurement runs.
ELL_MAX_PADDING_RATIO = 16.0

DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 2

#: Each timing sample batches enough runs to last at least this long:
#: a single small-matrix SpMV sits at the scale of timer jitter and
#: scheduler noise, and medians over such samples mis-rank candidates.
MIN_SAMPLE_SECONDS = 2e-3


@dataclass
class TuningDecision:
    """Outcome of one tuning run: the winning configuration plus the
    full measured candidate table for reporting."""

    fingerprint: str
    format: str
    backend: str
    n_shards: int
    #: Median measured seconds per SpMV of the winning candidate.
    seconds: float
    #: The §5 model's kernel pick that seeded the grid (``None`` when
    #: the format grid was caller-pinned and the model was bypassed).
    model_kernel: str | None = None
    #: Every candidate: ``{format, backend, n_shards, seconds}`` for
    #: measured ones, ``{..., error}`` for skipped/failed ones.
    candidates: list = field(default_factory=list)
    #: Whether this decision was resolved from the persistent cache.
    from_cache: bool = False

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "format": self.format,
            "backend": self.backend,
            "n_shards": self.n_shards,
            "seconds": self.seconds,
            "model_kernel": self.model_kernel,
            "candidates": list(self.candidates),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TuningDecision":
        if payload.get("format") not in registry.format_names():
            raise ValidationError(
                f"decision names unknown format {payload.get('format')!r}"
            )
        n_shards = payload.get("n_shards")
        if not isinstance(n_shards, int) or n_shards < 1:
            raise ValidationError(
                f"decision has invalid shard count {n_shards!r}"
            )
        return cls(
            fingerprint=str(payload["fingerprint"]),
            format=str(payload["format"]),
            backend=str(payload["backend"]),
            n_shards=n_shards,
            seconds=float(payload["seconds"]),
            model_kernel=payload.get("model_kernel"),
            candidates=list(payload.get("candidates", [])),
        )

    def build_engine(self, matrix):
        """The one constructor of this configuration's engine.

        One shard: the decided format's plan on the decided backend, an
        :class:`~repro.exec.plan.SpMVPlan`.  More: a
        :class:`~repro.exec.ShardedExecutor` on ``matrix`` itself, which
        runs CSR row ranges of its canonical COO whatever the format —
        so nothing is converted.  Both have ``spmv``/``spmm``/``close``
        and work as context managers; closing a plan is a no-op.
        """
        if self.n_shards > 1:
            from repro.exec.sharded import ShardedExecutor

            return ShardedExecutor(
                matrix, self.n_shards, backend=self.backend
            )
        return to_format(matrix, self.format).spmv_plan(self.backend)


def _pruned_formats(matrix) -> tuple[list[str], str | None, dict[str, str]]:
    """Model-seeded format shortlist: the §5 pick plus the CSR
    baseline plus any registry candidates, with statistics-based
    vetoes recorded per format.  The model prices every kernel on the
    paper's Tesla C1060.

    Two registry hooks make the grid open to new formats with no code
    change here: every registered ``model_kernel`` joins the
    ``select_kernel`` candidate list (the model's pick maps back to
    its format through the live kernel map), and every
    ``tune_candidate`` predicate that fires adds its format to the
    measured shortlist directly.
    """
    from repro.core.selector import SELECTABLE, select_kernel

    skipped: dict[str, str] = {}
    kernel_format = registry.model_kernel_map()
    candidates = tuple(
        dict.fromkeys((*SELECTABLE, *kernel_format))
    )
    choice = select_kernel(
        matrix, DeviceSpec.tesla_c1060(), candidates=candidates
    )
    formats = [BASELINE_FORMAT]
    picked = kernel_format.get(choice.kernel)
    if picked and picked not in formats:
        formats.append(picked)
    for spec in registry.specs():
        if spec.tune_candidate is None or spec.name in formats:
            continue
        try:
            wanted = bool(spec.tune_candidate(matrix))
        except Exception as exc:
            skipped[spec.name] = f"tune_candidate failed: {exc!r}"
            continue
        if wanted:
            formats.append(spec.name)
    if "ell" in formats and matrix.nnz:
        lengths = matrix.row_lengths()
        padded = int(lengths.max()) * matrix.n_rows
        ratio = padded / matrix.nnz
        if ratio > ELL_MAX_PADDING_RATIO:
            formats.remove("ell")
            skipped["ell"] = (
                f"padding ratio {ratio:.1f} exceeds "
                f"{ELL_MAX_PADDING_RATIO:g}"
            )
    return formats, choice.kernel, skipped


def candidate_grid(
    matrix,
    *,
    formats: tuple | list | None = None,
    backends: tuple | list | None = None,
    shard_counts: tuple | list | None = None,
) -> tuple[list[tuple[str, str, int]], dict]:
    """The pruned ``format x backend x shard-count`` grid, one
    candidate per distinct engine.

    Returns the candidate triples plus a meta dict recording the model
    kernel that seeded the pruning and any statistics-based skips.
    Caller-pinned ``formats`` bypass the model entirely.  Backends are
    discovered from the registry, so the numba ``native`` backend joins
    the grid automatically wherever it is importable.

    A candidate is *format-free* when its engine ignores the format:
    more than one shard (the executor runs CSR row ranges of the
    canonical COO) or a ``format_free`` backend (scipy compiles every
    format to one CSR plan).  Only the first format-free candidate of
    each ``(backend, n_shards)`` is kept, so it carries the CSR
    baseline's label, or the first caller-pinned format.
    """
    from repro.exec.backends import (
        available_backends,
        default_backend_name,
        get_backend,
    )
    from repro.exec.sharded import auto_shard_count

    model_kernel: str | None = None
    skipped: dict[str, str] = {}
    if formats is None:
        format_list, model_kernel, skipped = _pruned_formats(matrix)
    else:
        format_list = [str(f).lower() for f in formats]
        for name in format_list:
            registry.get_format(name)  # ValidationError on unknown names
    if backends is not None:
        backend_list = [str(b) for b in backends]
    elif os.environ.get("REPRO_SPMV_BACKEND"):
        # An explicit backend override is a *forced* choice — honour
        # it rather than measuring backends the user ruled out.
        backend_list = [default_backend_name()]
    else:
        backend_list = list(available_backends())
    if shard_counts is None:
        shard_list = sorted({1, auto_shard_count(matrix.nnz)})
    else:
        shard_list = sorted({int(s) for s in shard_counts})
        if shard_list and shard_list[0] < 1:
            raise ValidationError("shard counts must be >= 1")
    engines = {}
    for fmt in format_list:
        for backend in backend_list:
            for n_shards in shard_list:
                free = n_shards > 1 or get_backend(backend).format_free
                key = (None if free else fmt, backend, n_shards)
                engines.setdefault(key, (fmt, backend, n_shards))
    candidates = list(engines.values())
    meta = {"model_kernel": model_kernel, "skipped": skipped}
    return candidates, meta


def _measure(
    matrix,
    fmt: str,
    backend: str,
    n_shards: int,
    x: np.ndarray,
    out: np.ndarray,
    *,
    warmup: int,
    repeats: int,
) -> float:
    """Median wall seconds of one SpMV on the engine a decision for
    this configuration would serve."""
    candidate = TuningDecision("", fmt, backend, n_shards, float("nan"))
    with candidate.build_engine(matrix) as engine:
        for _ in range(warmup):
            engine.spmv(x, out=out)
        # Calibrate the per-sample batch size so each sample outweighs
        # timer granularity and scheduling noise.
        tick = time.perf_counter()
        engine.spmv(x, out=out)
        once = time.perf_counter() - tick
        inner = max(
            1, min(1024, int(MIN_SAMPLE_SECONDS / max(once, 1e-9)))
        )
        samples = []
        for _ in range(repeats):
            tick = time.perf_counter()
            for _ in range(inner):
                engine.spmv(x, out=out)
            samples.append((time.perf_counter() - tick) / inner)
    return statistics.median(samples)


def _normalise_options(
    formats, backends, shard_counts, repeats: int, warmup: int
) -> dict:
    """JSON-stable record of the tuning constraints — part of the
    cache key, so a decision measured over one grid is never replayed
    for a different one."""

    def aslist(value):
        return None if value is None else [str(v) for v in value]

    return {
        "formats": aslist(formats),
        "backends": aslist(backends),
        "shard_counts": (
            None
            if shard_counts is None
            else sorted(int(s) for s in shard_counts)
        ),
        "repeats": int(repeats),
        "warmup": int(warmup),
    }


def tune(
    matrix,
    *,
    formats: tuple | list | None = None,
    backends: tuple | list | None = None,
    shard_counts: tuple | list | None = None,
    repeats: int = DEFAULT_REPEATS,
    warmup: int = DEFAULT_WARMUP,
    cache: TuningCache | str | None = "env",
    force: bool = False,
) -> TuningDecision:
    """Pick (and persist) the fastest execution configuration.

    Parameters
    ----------
    matrix:
        Any :class:`~repro.formats.base.SparseMatrix`.
    formats, backends, shard_counts:
        Pin parts of the candidate grid; ``None`` means the pruned
        default (model-seeded formats, every available backend, shard
        counts 1 and the auto policy's pick).
    repeats, warmup:
        Median-of-``repeats`` timed runs after ``warmup`` unmeasured
        ones, per candidate.
    cache:
        A :class:`TuningCache`, a path, ``None`` to disable persistence
        for this call, or ``"env"`` (default) to follow
        ``REPRO_TUNER_CACHE``.
    force:
        Re-measure even when a fresh cached decision exists (the new
        decision overwrites the cached one).
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {warmup}")
    if not isinstance(cache, TuningCache):
        cache = TuningCache(cache)
    fingerprint = matrix_fingerprint(matrix)
    environment = environment_key()
    options = _normalise_options(
        formats, backends, shard_counts, repeats, warmup
    )

    if not force:
        hit = cache.get(fingerprint, environment, options)
        if hit is not None:
            try:
                decision = TuningDecision.from_dict(hit)
            except (KeyError, TypeError, ValueError, ValidationError):
                _metrics.count("tuner.cache.corrupt", reason="decision")
            else:
                if decision.fingerprint == fingerprint:
                    decision.from_cache = True
                    _metrics.count("tuner.decisions", source="cache")
                    return decision
                _metrics.count("tuner.cache.stale")

    candidates, meta = candidate_grid(
        matrix,
        formats=formats,
        backends=backends,
        shard_counts=shard_counts,
    )
    rng = np.random.default_rng(0)
    x = rng.random(matrix.n_cols)
    out = np.empty(matrix.n_rows)
    rows: list[dict] = []
    best: dict | None = None
    with trace(
        "tuner.tune", fingerprint=fingerprint, candidates=len(candidates)
    ):
        for fmt, backend, n_shards in candidates:
            record = {
                "format": fmt, "backend": backend, "n_shards": n_shards,
            }
            rows.append(record)
            try:
                with trace(
                    "tuner.measure",
                    format=fmt, backend=backend, n_shards=n_shards,
                ):
                    seconds = _measure(
                        matrix, fmt, backend, n_shards, x, out,
                        warmup=warmup, repeats=repeats,
                    )
            except FormatNotApplicableError as exc:
                record["error"] = str(exc)
                continue
            record["seconds"] = seconds
            _metrics.observe(
                "tuner.measure.seconds", seconds,
                format=fmt, backend=backend, n_shards=n_shards,
            )
            if best is None or seconds < best["seconds"]:
                best = record
        for fmt, reason in meta["skipped"].items():
            rows.append({"format": fmt, "error": reason})
    if best is None:
        raise ValidationError(
            "no tunable candidate survived measurement: "
            + "; ".join(
                f"{r['format']}: {r.get('error', '?')}" for r in rows
            )
        )
    decision = TuningDecision(
        fingerprint=fingerprint,
        format=best["format"],
        backend=best["backend"],
        n_shards=best["n_shards"],
        seconds=best["seconds"],
        model_kernel=meta["model_kernel"],
        candidates=rows,
    )
    cache.put(fingerprint, environment, options, decision.to_dict())
    _metrics.count("tuner.decisions", source="measured")
    return decision
