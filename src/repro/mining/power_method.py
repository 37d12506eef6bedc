"""Shared power-method infrastructure for the mining algorithms.

:func:`power_iterate` is the one power loop: PageRank, HITS, RWR, the
query service's seeded walks and the simulated multi-GPU PageRank each
supply a step and call it (DESIGN.md §7, "One power loop").
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import CheckpointError, ConvergenceError, ValidationError
from repro.gpu.costs import CostReport
from repro.kernels.base import SpMVKernel, kernel_class
from repro.obs import metrics as _metrics
from repro.obs.convergence import NULL_TRACE, convergence_trace

__all__ = [
    "MiningResult",
    "RunSetup",
    "Walk",
    "check_seed",
    "checkpointer",
    "convergence_trace",
    "damped_step",
    "drop_setup",
    "finish_run",
    "l1_delta",
    "mining_setup",
    "power_iterate",
    "resolve_engine",
    "resolve_warm_start",
    "resume_checkpoint",
    "seeded_walk",
    "start_walk",
]

#: ``adjacency.__dict__`` key of the per-algorithm setup cache.
_SETUP_CACHE = "_mining_setup"


class _SetupEntry:
    """One algorithm's derived state on one adjacency.

    The operator, its fingerprint, the cost-model kernels (one per
    kernel name, device and options) and the engines built on the
    operator — sharded executors per requested shard count, the tuned
    engine — all derived from the adjacency at ``version``.  A
    ``source_major`` operator is the cold-start form of
    :func:`mining_setup`, replaced on the entry's first hit.  ``lock``
    is held for a whole run: plans and workspace pools serve one
    execution stream, so runs on the same adjacency queue here.
    """

    __slots__ = (
        "lock", "version", "operator", "source_major", "fingerprint",
        "kernels", "executors", "tuned",
    )

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.executors, self.tuned = {}, None
        self.drop()

    def drop(self) -> None:
        """Forget every derived object, closing the engines owned here."""
        for engine in (*self.executors.values(), self.tuned):
            if engine is not None:
                engine.close()
        self.version = self.operator = self.fingerprint = None
        self.source_major = False
        self.kernels, self.executors, self.tuned = {}, {}, None

    def kernel(self, kernel, device, options, create, fingerprint):
        """A thunk returning the cost-model kernel of this run's
        operator, created on first call and cached per name, device
        and options.  The thunk holds the operator and kernel table of
        the moment, so a late call (a result priced after the entry
        moved on) never mixes operators.  A caller's kernel instance
        must be built on the operator — same shape, same
        ``fingerprint`` — and is returned as it is."""
        if isinstance(kernel, SpMVKernel):
            if (
                kernel.shape != self.operator.shape
                or fingerprint(kernel.coo) != self.fingerprint
            ):
                raise ValidationError(
                    f"kernel {kernel.name!r} was built on another matrix "
                    f"({kernel.shape[0]}x{kernel.shape[1]}, "
                    f"nnz {kernel.nnz}) than this run's operator "
                    f"(fingerprint {self.fingerprint})"
                )
            return lambda: kernel
        key = repr((kernel.lower(), device, sorted(options.items())))
        kernels, operator = self.kernels, self.operator

        def make():
            spmv = kernels.get(key)
            if spmv is None:
                spmv = create(kernel, operator, device=device, **options)
                kernels[key] = spmv
            return spmv

        return make

    def sharded_executor(self, n_shards):
        """The cached :class:`~repro.exec.ShardedExecutor` of one
        shard-count slot, keyed as requested: an int, ``"auto"``, or
        ``None`` for the ``REPRO_SPMV_SHARDS`` override.  Slots coexist,
        so runs alternating two counts reuse two executors.  A slot
        whose resolution moves (``"auto"`` under a new affinity mask, a
        new ``REPRO_SPMV_SHARDS``, a new default backend) closes its
        executor and builds the replacement."""
        from repro.exec.backends import _resolve
        from repro.exec.sharded import (
            ShardedExecutor,
            auto_shard_count,
            env_shard_count,
        )

        count = n_shards
        if n_shards is None:
            count = env_shard_count()
        elif n_shards == "auto":
            count = env_shard_count() or auto_shard_count(self.operator.nnz)
        backend = _resolve(None)
        old = self.executors.get(n_shards)
        if old is not None and (old.n_shards, old.backend) == (count, backend):
            return old
        executor = ShardedExecutor(self.operator, count, backend=backend)
        if old is not None:
            old.close()
        self.executors[n_shards] = executor
        return executor


class RunSetup(NamedTuple):
    """What one mining run works with."""

    operator: object  # the algorithm's SpMV operator
    fingerprint: str  # matrix_fingerprint(operator)
    kernel_name: str  # the cost-model kernel's registry name
    make_kernel: Callable[[], SpMVKernel]  # the kernel, built on first call
    engine: object  # what runs the iteration's spmv/spmm
    version: int  # the adjacency's data_version the operator was built at


def _cold_scatter(n_shards, tune: bool) -> bool:
    """Whether a cache miss runs on the source-major operator: an
    ``"auto"`` request whose shard count the caller left to the policy
    (no ``REPRO_SPMV_SHARDS`` or ``tune=``), on a default backend that
    runs a CSC without sorting it."""
    from repro.exec.backends import get_backend
    from repro.exec.sharded import env_shard_count

    return (
        n_shards == "auto" and not tune
        and env_shard_count() is None
        and get_backend().sort_free_csc
    )


@contextmanager
def mining_setup(
    adjacency,
    algorithm: str,
    build,
    kernel,
    *,
    device,
    kernel_options: dict,
    n_shards,
    tune: bool,
    create,
    fingerprint,
    source_major=None,
):
    """The one setup path of PageRank, HITS, RWR and the query service.

    Builds ``build(adjacency.to_coo())``, its ``fingerprint``, the
    engine (see :func:`resolve_engine`) and a thunk of the
    ``create``-d cost-model kernel — once per adjacency, not once per
    call: the results are cached in ``adjacency.__dict__`` per
    algorithm, like the matrix's own plans, on the
    :class:`SparseMatrix` contract that a matrix is immutable once
    built.  The kernel only prices the run: it is created when the
    run's cost is first read.  Each entry is stamped with
    ``adjacency.data_version``; when a dynamic matrix moves past it the
    entry is dropped and its executors closed.  The entry's lock is
    held until the ``with`` block ends, so concurrent runs on the same
    adjacency queue while runs on different graphs never contend; a
    run that raises drops the entry, so the next one starts clean.
    The entry dies with the adjacency (executor pools close through
    their finalisers), or earlier through :func:`drop_setup`.

    ``source_major`` (PageRank's) builds the same operator stored by
    columns, with no sort.  A miss that asks for ``"auto"`` shards (see
    :func:`_cold_scatter`) builds that instead and runs single-shard on
    it; the entry's first hit builds ``build``'s operator and the
    usual engines and drops it (DESIGN.md §7, "Cold starts").

    ``create`` and ``fingerprint`` are passed as the calling module
    resolves them, so wrappers installed on that module (profilers,
    span tracers) still time every build.
    """
    if not isinstance(kernel, SpMVKernel):
        kernel_name = kernel_class(kernel).name  # unknown names fail here
    else:
        kernel_name = kernel.name
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
            cold = source_major is not None and _cold_scatter(n_shards, tune)
            operator = (source_major if cold else build)(adjacency.to_coo())
            entry.fingerprint = fingerprint(operator)
            entry.operator, entry.version = operator, version
            entry.source_major = cold
        elif entry.source_major:
            # Same matrix, same fingerprint: only the layout changes.
            entry.operator = build(adjacency.to_coo())
            entry.source_major, entry.kernels = False, {}
        if _metrics._ENABLED:
            _metrics.METRICS.inc(
                "mining.setup", result="hit" if hit else "miss",
                algorithm=algorithm,
            )
        make_kernel = entry.kernel(
            kernel, device, kernel_options, create, fingerprint
        )
        engine = resolve_engine(entry, n_shards, tune=tune)
        try:
            yield RunSetup(
                entry.operator, entry.fingerprint, kernel_name, make_kernel,
                engine, entry.version,
            )
        except BaseException:
            entry.drop()
            raise


def drop_setup(adjacency) -> dict[str, str]:
    """Drop every setup entry cached on ``adjacency``, closing their
    engines; returns ``{algorithm: fingerprint}`` of those dropped.

    Each entry's lock is only tried, never waited for: an entry whose
    run is in progress is skipped, so a caller holding other locks
    (the query service's graph lock) cannot deadlock against it.
    """
    dropped = {}
    for algorithm, entry in list(
        adjacency.__dict__.get(_SETUP_CACHE, {}).items()
    ):
        if not entry.lock.acquire(blocking=False):
            continue
        try:
            if entry.operator is not None:
                dropped[algorithm] = entry.fingerprint
            entry.drop()
        finally:
            entry.lock.release()
    return dropped


def resolve_engine(entry, n_shards=None, tune=False):
    """Choose the object whose ``spmv``/``spmm`` drives a power loop.

    ``tune=True`` takes the operator's measured auto-tuned engine
    (:meth:`~repro.formats.base.SparseMatrix.tuned_plan`, built by
    :meth:`~repro.tuner.TuningDecision.build_engine`: a plan for one
    shard, a ``ShardedExecutor`` for more) — mutually exclusive with
    ``n_shards``, which pins what the tuner would decide.  A cold
    source-major entry, or a run with neither ``n_shards`` nor
    ``REPRO_SPMV_SHARDS``, runs on the setup ``entry``'s operator
    itself: its ``spmv``/``spmm`` execute its cached plan on the
    default backend.  Otherwise ``n_shards`` (an int, ``"auto"`` for
    the nnz-and-cores policy, or ``None`` under ``REPRO_SPMV_SHARDS``,
    the CI configuration) takes the :class:`~repro.exec.ShardedExecutor`
    the entry caches for that slot, so runs that ask for the same
    count reuse one executor.  The cost-model kernel is never an
    engine: it only prices the run.  Nothing is built per run and
    nothing is closed here.
    """
    from repro.exec.sharded import env_shard_count

    if tune:
        if n_shards is not None:
            raise ValidationError(
                "tune=True decides the executor configuration; do not "
                "also pass n_shards="
            )
        entry.tuned = entry.operator.tuned_plan()
        return entry.tuned
    if entry.source_major or (n_shards is None and env_shard_count() is None):
        return entry.operator
    return entry.sharded_executor(n_shards)


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


class Walk:
    """The state of a k-column power iteration: the iterate ``X``
    (n, k), the last completed ``iteration``, each stopped column's
    answer in ``frozen``, the ``active`` and deadline-``expired``
    masks, and per-column iteration ``counts``.  A walk started from a
    matrix is ``lockstep``: its checkpoints hold all of that state."""

    __slots__ = (
        "X", "iteration", "frozen", "active", "counts", "expired",
        "lockstep",
    )

    def __init__(self, X, iteration=0, *, frozen=None, active=None,
                 counts=None):
        self.lockstep = X.ndim == 2
        X = X.reshape(X.shape[0], -1)  # a vector is one column
        k = X.shape[1]
        self.X, self.iteration = X, iteration
        self.frozen = X.copy() if frozen is None else frozen
        self.active = np.ones(k, dtype=bool) if active is None else active
        self.counts = (
            np.full(k, iteration, dtype=np.int64) if counts is None
            else counts
        )
        self.expired = np.zeros(k, dtype=bool)

    @property
    def converged(self) -> np.ndarray:
        return ~(self.active | self.expired)

    def arrays(self, key: str) -> dict:
        """Checkpoint arrays: the iterate under ``key``, plus the
        per-column state of a lockstep walk."""
        if not self.lockstep:
            return {key: self.X[:, 0].copy()}
        return {
            key: self.X.copy(),
            "frozen": self.frozen.copy(),
            "active": self.active.copy(),
            "iteration_counts": self.counts.copy(),
        }


def start_walk(initial, warm, snapshot, key: str) -> Walk:
    """The walk a run starts from: the resumed ``snapshot`` (the inverse
    of :meth:`Walk.arrays`, shape-checked), else the ``warm`` start,
    else a copy of ``initial``."""
    if snapshot is None:
        return Walk(initial.copy() if warm is None else warm)

    def load(name, shape, dtype=np.float64):
        array = np.array(snapshot.array(name), dtype=dtype)
        if array.shape != shape:
            raise CheckpointError(
                f"checkpoint array {name!r} has shape {array.shape}, "
                f"expected {shape}"
            )
        return array

    X = load(key, initial.shape)
    if X.ndim == 1:
        return Walk(X, snapshot.iteration)
    k = initial.shape[1:]
    return Walk(
        X, snapshot.iteration, frozen=load("frozen", initial.shape),
        active=load("active", k, bool),
        counts=load("iteration_counts", k, np.int64),
    )


def checkpointer(checkpoint, algorithm: str, params: dict, key: str,
                 fixed=None):
    """The driver's checkpoint hook for a mining ``checkpoint=``
    argument (``None``, an int period or a
    :class:`~repro.resilience.CheckpointConfig`): every ``every``
    iterations save :meth:`Walk.arrays` (plus the ``fixed`` arrays)
    under ``algorithm``/``params``.  ``None`` for no checkpoints."""
    from repro.resilience.checkpoint import Checkpoint, normalize_checkpoint

    config = normalize_checkpoint(checkpoint)
    if config is None:
        return None

    def save(walk: Walk) -> None:
        if config.due(walk.iteration):
            config.save(Checkpoint(
                algorithm=algorithm,
                iteration=walk.iteration,
                arrays={**walk.arrays(key), **(fixed or {})},
                params=params,
            ))

    return save


def damped_step(engine, alpha: float, base: np.ndarray, observe=None):
    """The damped step ``Y = alpha * (A @ X) + base`` of PageRank, RWR
    and the service walks.

    ``base`` is (n, k).  One column runs ``engine.spmv`` on vectors,
    more run ``engine.spmm``.  ``observe(X, A @ X)``, if given, sees
    the product before the update (PageRank's dangling-mass trace).
    """
    if base.shape[1] == 1:
        product, base = engine.spmv, base[:, 0]
    else:
        product = engine.spmm

    def step(x: np.ndarray, out: np.ndarray) -> None:
        product(x, out=out)
        if observe is not None:
            observe(x, out)
        np.multiply(out, alpha, out=out)
        out += base

    return step


def power_iterate(
    walk: Walk,
    step,
    *,
    tol: float,
    max_iter: int,
    trace=NULL_TRACE,
    fields=None,
    checkpoint=None,
    deadlines=None,
    clock=time.monotonic,
) -> Walk:
    """The one power loop: advance ``walk`` until each column converges.

    ``step(x, out)`` writes the next iterate into ``out``: vectors for a
    one-column walk, (n, k) matrices otherwise.  The loop owns the
    double buffer, the L1 check (:func:`l1_delta` for one column; for k,
    subtract and abs over the matrix, then each column staged into
    contiguous scratch before its ``sum()``, so every column stops at
    its solo iteration), per-column freeze, the ``deadlines`` (one
    absolute ``clock()`` instant or ``None`` per column, checked before
    each step; a column past it freezes as expired), the ``trace``
    (one record per active column and iteration, with the extras
    ``fields(walk, j)`` returns) and the ``checkpoint(walk)`` hook.
    DESIGN.md §7 ("One power loop") has the argument.
    """
    if deadlines is not None and all(d is None for d in deadlines):
        deadlines = None
    X, frozen, active = walk.X, walk.frozen, walk.active
    n, k = X.shape
    trace.tick()
    Y = np.empty_like(X)
    scratch = np.empty(n)
    if k == 1:
        x, y = X[:, 0], Y[:, 0]
    else:
        D = np.empty_like(X)
    for iteration in range(walk.iteration + 1, max_iter + 1):
        if deadlines is not None:
            now = clock()
            for j in np.nonzero(active)[0]:
                if deadlines[j] is not None and now >= deadlines[j]:
                    active[j] = False
                    walk.expired[j] = True
                    frozen[:, j] = X[:, j]
        if not active.any():
            break
        if k == 1:
            step(x, y)
            deltas = ((0, l1_delta(y, x, scratch=scratch)),)
            x, y = y, x
        else:
            step(X, Y)
            np.subtract(Y, X, out=D)
            np.abs(D, out=D)
            deltas = []
            for j in np.nonzero(active)[0]:
                np.copyto(scratch, D[:, j])
                deltas.append((j, float(scratch.sum())))
        X, Y = Y, X
        walk.X, walk.iteration = X, iteration
        for j, delta in deltas:
            walk.counts[j] = iteration
            if trace.active:
                trace.record(iteration, delta, **fields(walk, j))
            if delta < tol:
                active[j] = False
                frozen[:, j] = X[:, j]
        if checkpoint is not None:
            checkpoint(walk)
    for j in np.nonzero(active)[0]:
        frozen[:, j] = X[:, j]
    return walk


def check_seed(seed, n: int) -> int:
    """A walk's seed node as an ``int``: a whole number in ``[0, n)``.

    Bools and values with a fractional part are refused, not
    truncated to a node id.
    """
    try:
        node = int(seed)
    except (TypeError, ValueError, OverflowError):
        node = None
    if node is None or node != seed or isinstance(seed, (bool, np.bool_)):
        raise ValidationError(f"seed {seed!r} is not a node id")
    if not 0 <= node < n:
        raise ValidationError(f"seed {node} out of range for n={n}")
    return node


def seeded_walk(engine, n: int, seeds, *, alpha: float, tol: float,
                max_iter: int, warm=None, snapshot=None, **hooks) -> Walk:
    """Lockstep walks ``R <- alpha * (A @ R) + (1 - alpha) * E`` from
    ``R = E`` (or the ``warm``/``snapshot`` start); column ``j`` of ``E``
    is the unit vector of ``seeds[j]``.  ``hooks`` go to
    :func:`power_iterate`."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    k = len(seeds)
    E = np.zeros((n, k))
    E[seeds, np.arange(k)] = 1.0
    walk = start_walk(E, warm, snapshot, "R")
    step = damped_step(engine, alpha, (1.0 - alpha) * E)
    return power_iterate(walk, step, tol=tol, max_iter=max_iter, **hooks)


@dataclass
class MiningResult:
    """Outcome of an iterative mining run.

    ``total_cost`` is the simulated GPU (or CPU) time of the whole run:
    the per-iteration cost scaled by the realised iteration count.  The
    paper's Tables 1/4/5 report exactly this total; Figures 3/8 report
    the per-iteration GFLOPS/GB/s, available via ``per_iteration``.
    Both are priced by ``pricing`` on first read: a run whose cost
    nobody reads never builds its cost-model kernel.
    """

    algorithm: str
    kernel_name: str
    vector: np.ndarray
    iterations: int
    converged: bool
    # () -> (per_iteration, total_cost)
    pricing: Callable[[], tuple[CostReport, CostReport]] = field(
        repr=False, compare=False
    )
    extra: dict = field(default_factory=dict)

    @cached_property
    def _costs(self) -> tuple[CostReport, CostReport]:
        return self.pricing()

    @property
    def per_iteration(self) -> CostReport:
        return self._costs[0]

    @property
    def total_cost(self) -> CostReport:
        return self._costs[1]

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


def finish_run(
    trace, algorithm: str, run: RunSetup, price, *,
    vector, iterations, converged: bool, snapshot=None, warm=None,
    **extra,
) -> MiningResult:
    """Assemble a finished run's :class:`MiningResult` and report it.

    Every mining algorithm funnels its result through here.
    ``price(kernel)`` is the :class:`CostReport` of one iteration on
    the run's cost-model kernel; it runs on the result's first cost
    read and scales by ``iterations`` (RWR's per-query mean).  With
    observability on the trace lands in ``result.extra["convergence"]``
    and the run counters/iteration histogram on the global metrics
    registry.
    """
    label = f"{algorithm}/{run.kernel_name}"
    make_kernel = run.make_kernel

    def pricing() -> tuple[CostReport, CostReport]:
        per_iteration = price(make_kernel()).relabel(label)
        return per_iteration, per_iteration.scaled(iterations).relabel(label)

    extra["n_shards"] = getattr(run.engine, "n_shards", 1)
    extra["operator_fingerprint"] = run.fingerprint
    if snapshot is not None:
        extra["resume_iteration"] = snapshot.iteration
    if warm is not None:
        extra["warm_start"] = True
    result = MiningResult(
        algorithm=algorithm,
        kernel_name=run.kernel_name,
        vector=vector,
        iterations=int(round(iterations)),
        converged=converged,
        pricing=pricing,
        extra=extra,
    )
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
