"""Shared power-method infrastructure for the mining algorithms."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.gpu.costs import CostReport
from repro.kernels.base import SpMVKernel
from repro.obs import metrics as _metrics
from repro.obs.convergence import convergence_trace

__all__ = [
    "MiningResult",
    "RunSetup",
    "convergence_trace",
    "finish_run",
    "l1_delta",
    "mining_setup",
    "resolve_checkpoint",
    "resolve_engine",
    "resolve_warm_start",
    "resume_checkpoint",
]

#: ``adjacency.__dict__`` key of the per-algorithm setup cache.
_SETUP_CACHE = "_mining_setup"


class _SetupEntry:
    """One algorithm's derived state on one adjacency.

    The operator, its fingerprint, the cost-model kernels (one per
    kernel name, device and options) and the engines built on the
    operator, all derived from the adjacency at ``version``.  ``lock``
    is held for a whole run: plans and workspace pools serve one
    execution stream, so runs on the same adjacency queue here.
    """

    __slots__ = (
        "lock", "version", "operator", "fingerprint", "kernels",
        "sharded_key", "sharded", "tuned",
    )

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sharded = self.tuned = None
        self.drop()

    def drop(self) -> None:
        """Forget every derived object, closing the engines owned here."""
        for engine in (self.sharded, self.tuned):
            if engine is not None:
                engine.close()
        self.version = self.operator = self.fingerprint = None
        self.kernels = {}
        self.sharded_key = self.sharded = self.tuned = None

    def kernel(self, name, device, options, create):
        key = repr((name.lower(), device, sorted(options.items())))
        spmv = self.kernels.get(key)
        if spmv is None:
            spmv = create(name, self.operator, device=device, **options)
            self.kernels[key] = spmv
        return spmv

    def sharded_executor(self, n_shards, mode):
        """The cached :class:`~repro.exec.ShardedExecutor` for the
        *resolved* shard count, mode and backend; a change in any of
        them (``"auto"`` under a new affinity mask, a new
        ``REPRO_SPMV_SHARDS`` / ``REPRO_SPMV_MODE``, a new default
        backend) closes the old executor and builds its replacement."""
        from repro.exec.backends import _resolve
        from repro.exec.sharded import (
            ShardedExecutor,
            auto_shard_count,
            env_shard_count,
            env_shard_mode,
        )

        if n_shards == "auto":
            n_shards = env_shard_count() or auto_shard_count(
                self.operator.nnz
            )
        key = (n_shards, mode or env_shard_mode() or "thread", _resolve(None))
        if self.sharded_key != key:
            executor = ShardedExecutor(
                self.operator, key[0], mode=key[1], backend=key[2]
            )
            if self.sharded is not None:
                self.sharded.close()
            self.sharded, self.sharded_key = executor, key
        return self.sharded


class RunSetup(NamedTuple):
    """What one mining run works with."""

    operator: object  # the algorithm's SpMV operator
    fingerprint: str  # matrix_fingerprint(operator)
    kernel: SpMVKernel  # cost model, and the engine of unsharded runs
    engine: object  # what runs the iteration's spmv/spmm


@contextmanager
def mining_setup(
    adjacency,
    algorithm: str,
    build,
    kernel,
    *,
    device,
    kernel_options: dict,
    executor,
    n_shards,
    shard_mode,
    tune: bool,
    create,
    fingerprint,
):
    """The one setup path of PageRank, HITS and RWR.

    Builds ``build(adjacency.to_coo())``, its ``fingerprint``, the
    ``create``-d cost-model kernel and the engine (see
    :func:`resolve_engine`) — once per adjacency, not once per call:
    the results are cached in ``adjacency.__dict__`` per algorithm,
    like the matrix's own plans, on the :class:`SparseMatrix` contract
    that a matrix is immutable once built.  Each entry is stamped with
    ``adjacency.data_version``; when a dynamic matrix moves past it the
    entry is dropped and its executors closed.  The entry's lock is
    held until the ``with`` block ends, so concurrent runs on the same
    adjacency queue while runs on different graphs never contend; a
    run that raises drops the entry, so the next one starts clean.
    The entry dies with the adjacency (executor pools close through
    their finalisers).

    ``create`` and ``fingerprint`` are passed as the calling module
    resolves them, so wrappers installed on that module (profilers,
    span tracers) still time every build.
    """
    cache = adjacency.__dict__.setdefault(_SETUP_CACHE, {})
    entry = cache.get(algorithm) or cache.setdefault(
        algorithm, _SetupEntry()
    )
    with entry.lock:
        # Read the version before the contents: an update landing in
        # between stamps new data with the old version, so the next run
        # rebuilds; the reverse order would serve stale data forever.
        version = adjacency.data_version
        hit = entry.operator is not None and entry.version == version
        if not hit:
            entry.drop()
            operator = build(adjacency.to_coo())
            entry.fingerprint = fingerprint(operator)
            entry.operator, entry.version = operator, version
        if _metrics._ENABLED:
            _metrics.METRICS.inc(
                "mining.setup", result="hit" if hit else "miss",
                algorithm=algorithm,
            )
        if isinstance(kernel, SpMVKernel):
            spmv = kernel
        else:
            spmv = entry.kernel(kernel, device, kernel_options, create)
        engine = resolve_engine(
            entry, spmv, executor, n_shards, tune=tune,
            shard_mode=shard_mode,
        )
        try:
            yield RunSetup(entry.operator, entry.fingerprint, spmv, engine)
        except BaseException:
            entry.drop()
            raise


def resolve_engine(
    entry,
    kernel,
    executor=None,
    n_shards=None,
    tune=False,
    shard_mode=None,
):
    """Choose the object whose ``spmv``/``spmm`` drives a power loop.

    With neither ``executor`` nor ``n_shards`` given, the loop runs on
    the kernel's cached single-shard plan — unless ``REPRO_SPMV_SHARDS``
    forces the sharded executor underneath every mining call (the CI
    configuration).  ``n_shards`` (an int, or ``"auto"`` for the
    nnz-and-cores policy) takes the :class:`~repro.exec.ShardedExecutor`
    cached on the setup ``entry``; ``shard_mode``
    (``"thread"``/``"process"``, default ``REPRO_SPMV_MODE`` or thread)
    selects its fan-out mechanism.  A caller-owned ``executor``
    (pre-built on the same operator, reusable across runs) is used
    as-is and left open.  ``tune=True`` takes the operator's measured
    auto-tuned engine (:meth:`~repro.formats.base.SparseMatrix.tuned_plan`,
    the fastest ``format x backend x shard-count x mode``
    configuration) — mutually exclusive with
    ``executor``/``n_shards``/``shard_mode``, which pin what the tuner
    would decide.  Nothing is built per run and nothing is closed here.
    """
    from repro.exec.sharded import env_shard_count

    if tune:
        if executor is not None or n_shards is not None:
            raise ValidationError(
                "tune=True decides the executor configuration; do not "
                "also pass executor= or n_shards="
            )
        if shard_mode is not None:
            raise ValidationError(
                "tune=True decides the shard mode; do not also pass "
                "shard_mode="
            )
        entry.tuned = entry.operator.tuned_plan()
        return entry.tuned
    if executor is not None:
        if n_shards is not None:
            raise ValidationError(
                "pass either executor= or n_shards=, not both"
            )
        if shard_mode is not None:
            raise ValidationError(
                "a caller-owned executor fixes the shard mode; do not "
                "also pass shard_mode="
            )
        if executor.shape != entry.operator.shape:
            raise ValidationError(
                f"executor shape {executor.shape} does not match the "
                f"operator shape {entry.operator.shape}"
            )
        return executor
    if n_shards is None:
        n_shards = env_shard_count()
        if n_shards is None:
            if shard_mode is not None:
                raise ValidationError(
                    "shard_mode= needs a sharded run; pass n_shards= "
                    "(or set REPRO_SPMV_SHARDS) as well"
                )
            return kernel
    return entry.sharded_executor(n_shards, shard_mode)


def resolve_checkpoint(checkpoint):
    """Normalise a mining ``checkpoint=`` argument.

    Accepts ``None`` (no snapshots), an int period, or a full
    :class:`~repro.resilience.CheckpointConfig`.
    """
    from repro.resilience.checkpoint import normalize_checkpoint

    return normalize_checkpoint(checkpoint)


def resume_checkpoint(resume_from, algorithm: str, **require):
    """Load and validate a mining ``resume_from=`` argument.

    Accepts ``None``, a :class:`~repro.resilience.Checkpoint`, or a path
    to a saved ``.npz`` snapshot.  Parameter mismatches (wrong algorithm,
    wrong graph size, different damping, …) raise
    :class:`~repro.errors.CheckpointError` — a resumed run must replay
    the uninterrupted trajectory bitwise, which only holds when the
    recurrence is identical.
    """
    if resume_from is None:
        return None
    from repro.resilience.checkpoint import load_checkpoint

    snapshot = load_checkpoint(resume_from)
    snapshot.require(algorithm, **require)
    if _metrics._ENABLED:
        _metrics.METRICS.inc(
            "resilience.checkpoints.resumed", algorithm=algorithm
        )
    return snapshot


def resolve_warm_start(
    warm_start, resume_from, shape: tuple[int, ...], *, key: str,
    algorithm: str, fingerprint: str | None = None, check: bool = True,
):
    """Normalise a mining ``warm_start=`` argument to a seed array.

    ``warm_start`` seeds the *initial iterate* of a fresh run — the
    dynamic-graph idiom: after a small update stream, the previous
    converged vector is already near the new fixed point and the power
    method closes the residual in a fraction of the cold iterations.
    It accepts an array of the right shape, a :class:`MiningResult`
    (its ``vector``), or a :class:`~repro.resilience.Checkpoint`
    instance / ``.npz`` path (its ``key`` array).

    Unlike ``resume_from`` — which replays an *interrupted* trajectory
    bitwise and therefore validates the full recurrence — a warm start
    is a new trajectory from a caller-chosen point: iteration counting
    restarts at zero and only shape/finiteness are enforced.  The two
    are mutually exclusive; asking for both is a contradiction
    (resume pins the iterate, warm start replaces it) and raises.

    A :class:`MiningResult` additionally carries the structural
    fingerprint of the operator it converged on
    (``extra["operator_fingerprint"]``).  When the caller passes this
    run's ``fingerprint`` and ``check`` is true (the default), a
    mismatch raises :class:`~repro.errors.ValidationError` — a result
    from a *different* graph that happens to share the shape is almost
    always a caller bug (the wrong variable, a stale handle), and the
    power method would silently converge to the right answer from a
    nonsense seed, hiding it.  Pass ``check=False`` (the mining entry
    points' ``warm_start_check=False``) for the dynamic-graph idiom
    where the fingerprint legitimately changed between runs.
    """
    if warm_start is None:
        return None
    if resume_from is not None:
        raise ValidationError(
            f"{algorithm}: warm_start and resume_from are mutually "
            "exclusive — resume replays an interrupted trajectory from "
            "its own iterate, warm start begins a new one"
        )
    from repro.resilience.checkpoint import Checkpoint, load_checkpoint

    value = warm_start
    if isinstance(value, MiningResult):
        stamped = value.extra.get("operator_fingerprint")
        if (
            check
            and fingerprint is not None
            and stamped is not None
            and stamped != fingerprint
        ):
            raise ValidationError(
                f"{algorithm}: warm_start comes from a different matrix "
                f"(operator fingerprint {stamped} != {fingerprint}); "
                "pass warm_start_check=False if the graph legitimately "
                "changed (the dynamic-update idiom)"
            )
        value = value.vector
    elif isinstance(value, Checkpoint):
        value = value.array(key)
    elif isinstance(value, (str, os.PathLike)):
        value = load_checkpoint(value).array(key)
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ValidationError(
            f"{algorithm}: warm_start has shape {value.shape}, "
            f"expected {shape}"
        )
    if value.size and not np.isfinite(value).all():
        raise ValidationError(
            f"{algorithm}: warm_start contains NaN or Inf"
        )
    # A private copy: the loop double-buffers in place and must never
    # scribble on the caller's previous result.
    return value.copy()


def l1_delta(
    new: np.ndarray, old: np.ndarray, scratch: np.ndarray | None = None
) -> float:
    """L1 distance between successive iterates (the convergence check
    the GPU implementations realise with a parallel reduction).

    ``scratch`` — a buffer of the same shape — makes the check
    allocation-free; the value is bit-identical either way (same
    subtract/abs/pairwise-sum sequence).
    """
    if scratch is None:
        return float(np.abs(new - old).sum())
    np.subtract(new, old, out=scratch)
    np.abs(scratch, out=scratch)
    return float(scratch.sum())


@dataclass
class MiningResult:
    """Outcome of an iterative mining run.

    ``total_cost`` is the simulated GPU (or CPU) time of the whole run:
    the per-iteration cost scaled by the realised iteration count.  The
    paper's Tables 1/4/5 report exactly this total; Figures 3/8 report
    the per-iteration GFLOPS/GB/s, available via ``per_iteration``.
    """

    algorithm: str
    kernel_name: str
    vector: np.ndarray
    iterations: int
    converged: bool
    per_iteration: CostReport
    total_cost: CostReport
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.total_cost.time_seconds

    @property
    def gflops(self) -> float:
        return self.per_iteration.gflops

    @property
    def bandwidth_gbs(self) -> float:
        return self.per_iteration.bandwidth_gbs

    def require_converged(self) -> "MiningResult":
        """Raise unless the run converged (for strict callers)."""
        if not self.converged:
            raise ConvergenceError(
                f"{self.algorithm} with {self.kernel_name} did not "
                f"converge in {self.iterations} iterations"
            )
        return self

    @property
    def convergence(self) -> dict | None:
        """The per-iteration convergence trace recorded by the
        observability layer, or ``None`` when it was disabled."""
        return self.extra.get("convergence")


def finish_run(trace, result: MiningResult) -> MiningResult:
    """Attach a convergence trace to a finished run and report it.

    Every mining algorithm funnels its result through here: when the
    observability layer is on, the per-iteration record lands in
    ``result.extra["convergence"]`` and the run counters/iteration
    histogram on the global metrics registry; when it is off this is a
    single attribute check.
    """
    if trace.active:
        result.extra["convergence"] = trace.to_dict()
    if _metrics._ENABLED:
        _metrics.METRICS.inc("mining.runs", algorithm=result.algorithm)
        _metrics.METRICS.observe(
            "mining.iterations",
            result.iterations,
            algorithm=result.algorithm,
        )
    return result
