"""The graph-mining query service: hot plans, coalesced batches.

``QueryService`` is the long-lived half the ROADMAP asks for: graphs
are registered once (static formats or a live
:class:`~repro.graphs.dynamic.DynamicMatrix`), their mining operators
and execution engines are built once and kept **warm**, and concurrent
single-seed personalized-PageRank / RWR queries are **coalesced** —
queries against the same graph with identical recurrence parameters
that arrive within a small window (or up to a maximum batch width) are
fused into one batched-SpMM walk whose per-column results are bitwise
identical to solo execution (DESIGN.md §7, "One power loop", has the
argument, and the property suite the evidence).

Around the batcher:

* **Admission control** — a bounded in-flight budget; the queue full
  case rejects loudly with
  :class:`~repro.errors.ServiceOverloadedError` instead of building an
  unbounded backlog.
* **Per-query deadlines** — an expired query is frozen at its current
  iterate and flagged, without poisoning the rest of its batch; the
  executor's default :class:`~repro.resilience.RetryPolicy` still rides
  underneath (shard timeout / straggler degradation).
* **One derived-state cache** — operators, kernels and executors live
  in the graph's mining setup cache
  (:func:`~repro.mining.power_method.mining_setup`), the one that
  ``pagerank()``/``random_walk_with_restart()``/``hits()`` on the same
  matrix object use: a graph served and mined in one process holds one
  operator per algorithm, and a ``DynamicMatrix`` version bump makes
  the next batch rebuild it.
* **Warm/cold eviction** — at most ``max_warm`` graphs are warm; the
  least-recently-*touched* warm graph is evicted (its setup dropped,
  executors drained via the close/drain path) when a colder one needs
  warming.  Touches include queries and ``notify_update``, so a hot
  update stream keeps its graph warm.  Evictions are reported against
  the operator's tuner fingerprint.
* **Machine shape** — every batch resolves its engine through
  :func:`~repro.mining.power_method.mining_setup`: a ``tune=True``
  graph re-tunes when the tuner environment key (CPU count, affinity
  mask, backends, library versions) moves, and an ``"auto"`` slot
  rebuilds its executor when its shard count moves, so a long-lived
  server that loses or gains cores never replays a shard plan sized
  for a machine shape that no longer exists.
* **SLA metrics** — queue depth gauge, batch width and per-query
  latency histograms (p50/p99 via ``repro.obs``), rejection / eviction
  / deadline-expiry counters, all free when observability is disabled.
"""

from __future__ import annotations

import asyncio
import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    GraphNotRegisteredError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.exec.sharded import ShardedExecutor
from repro.kernels.base import create
from repro.mining.hits import hits
from repro.mining.power_method import check_seed, drop_setup, mining_setup
from repro.obs import metrics as _metrics
from repro.obs.trace import trace
from repro.serve.batch import WalkResult, seeded_batch, seeded_solo
from repro.tuner.fingerprint import matrix_fingerprint

__all__ = ["QueryReply", "QueryService", "SEEDED_ALGORITHMS"]

#: Seeded (coalescable) algorithms and their default walk probability.
SEEDED_ALGORITHMS = {"ppr": 0.85, "rwr": 0.90}

#: Seeded algorithm -> (mining setup key, module, operator builder).
#: The builder is looked up through its module on every build, so
#: wrappers installed there (profilers, span tracers) time the
#: service's builds too.
_SETUPS = {
    "ppr": ("pagerank", "repro.mining.pagerank", "pagerank_operator"),
    "rwr": ("rwr", "repro.mining.rwr", "rwr_operator"),
}


@dataclass
class QueryReply:
    """One answered query, plus enough context to re-derive it solo."""

    graph: str
    algorithm: str
    seed: int | None
    alpha: float | None
    tol: float
    max_iter: int
    vector: np.ndarray
    iterations: int
    converged: bool
    expired: bool
    batch_width: int
    latency_seconds: float
    version: int
    fingerprint: str
    _solo: callable = field(repr=False, default=None)

    @property
    def status(self) -> str:
        if self.expired:
            return "deadline_expired"
        return "ok" if self.converged else "unconverged"

    def solo(self):
        """Recompute this query outside any batch, on a fresh engine of
        the *same* configuration over the operator (or, for HITS, the
        adjacency snapshot) it was answered on — the bitwise reference
        the coalesced answer must equal (verification helper; not
        thread-safe against a live service mutating the same graph)."""
        return self._solo()


def _replay_engines(run):
    """A factory of engines in ``run.engine``'s configuration on
    ``run.operator``: a reply's ``solo()`` outlives the service's own
    executor, which eviction, ``close()`` or an update closes, so a
    sharded run replays on a private executor of the same shard count
    and backend.  The operator, or a tuned plan, owns no threads and
    is never closed: the replay runs on it."""
    operator, engine = run.operator, run.engine
    if isinstance(engine, ShardedExecutor):
        n_shards, backend = engine.n_shards, engine.backend
        return lambda: ShardedExecutor(operator, n_shards, backend=backend)
    return lambda: engine


class _GraphEntry:
    def __init__(self, name, matrix, *, n_shards, tune):
        self.name = name
        self.matrix = matrix
        self.n_shards = n_shards
        self.tune = tune
        self.state = "cold"
        # (version, (tol, max_iter), MiningResult, adjacency snapshot)
        self.hits_memo = None
        self.lock = threading.Lock()  # serialises execution + warming
        self.last_used = time.monotonic()

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def touch(self) -> None:
        self.last_used = time.monotonic()


@dataclass
class _PendingQuery:
    seed: int
    deadline: float | None  # absolute time.monotonic() instant
    future: asyncio.Future
    t0: float


class _PendingBatch:
    def __init__(self, entry, algorithm, alpha, tol, max_iter):
        self.entry = entry
        self.algorithm = algorithm
        self.alpha = alpha
        self.tol = tol
        self.max_iter = max_iter
        self.queries: list[_PendingQuery] = []
        self.timer = None


class QueryService:
    """Coalescing query front-end over the mining/exec stack.

    One instance serves one asyncio event loop; ``register`` may be
    called before the loop runs, ``query`` must be awaited inside it.
    Batch execution happens on worker threads (one per in-flight
    batch), serialised per graph by the entry lock, so the loop stays
    responsive while SpMM runs.  A batch takes the graph's entry lock,
    then its mining setup entry's lock, never the reverse (DESIGN.md
    §16).
    """

    def __init__(
        self,
        *,
        window_seconds: float = 0.002,
        max_batch: int = 8,
        max_queue: int = 64,
        max_warm: int = 4,
    ) -> None:
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValidationError(f"max_queue must be >= 1, got {max_queue}")
        if max_warm < 1:
            raise ValidationError(f"max_warm must be >= 1, got {max_warm}")
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.max_warm = int(max_warm)
        self._graphs: dict[str, _GraphEntry] = {}
        self._pending: dict[tuple, _PendingBatch] = {}
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Registration and lifecycle
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        matrix,
        *,
        n_shards: int | str | None = None,
        tune: bool = False,
    ) -> None:
        """Register a graph under ``name`` (static or dynamic).

        The execution configuration is fixed per graph: ``tune=True``
        lets the measured auto-tuner pick format × backend × shards for
        each operator (``operator.tuned_plan()``); ``n_shards`` (an int
        or ``"auto"``) runs on the setup's cached
        :class:`~repro.exec.ShardedExecutor`; neither serves off the
        operator's cached plan (or the ``REPRO_SPMV_SHARDS`` executor,
        as every mining call does).  Operators and engines are built
        lazily on the first query, in the matrix's mining setup cache,
        so registration is cheap.
        """
        if tune and n_shards is not None:
            raise ValidationError(
                "tune=True decides the executor configuration; do not "
                "also pass n_shards="
            )
        if matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(
                f"service graphs must be square, got {matrix.shape}"
            )
        with self._state_lock:
            if name in self._graphs:
                raise ValidationError(f"graph {name!r} already registered")
            self._graphs[name] = _GraphEntry(
                name, matrix,
                n_shards=n_shards, tune=tune,
            )

    def graphs(self) -> dict[str, str]:
        """Registered graph names and their warm/cold state."""
        with self._state_lock:
            return {e.name: e.state for e in self._graphs.values()}

    def notify_update(self, name: str) -> None:
        """Tell the service a graph's content changed (push-style hook
        for update streams): bumps eviction recency so a hot stream
        keeps its graph warm; the setup's version stamp makes the next
        query rebuild the operators."""
        self._entry(name).touch()

    def close(self) -> None:
        """Reject new queries and drop every warm graph's setup,
        draining its executors."""
        self._closed = True
        with self._state_lock:
            entries = list(self._graphs.values())
        for entry in entries:
            with entry.lock:
                self._cool_locked(entry, reason="shutdown")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    async def query(
        self,
        graph: str,
        *,
        algorithm: str = "ppr",
        seed: int | None = None,
        alpha: float | None = None,
        tol: float = 1e-8,
        max_iter: int = 200,
        deadline: float | None = None,
    ) -> QueryReply:
        """Answer one query, transparently coalescing with concurrent
        ones.

        ``deadline`` is a per-query budget in seconds from submission;
        an expired query returns its current iterate flagged
        ``deadline_expired`` without disturbing its batch.
        """
        if self._closed:
            raise ValidationError("service is closed")
        loop = asyncio.get_running_loop()
        entry = self._entry(graph)
        if algorithm in SEEDED_ALGORITHMS:
            seed = check_seed(seed, entry.n)
            if alpha is None:
                alpha = SEEDED_ALGORITHMS[algorithm]
        elif algorithm == "hits":
            if seed is not None or alpha is not None:
                raise ValidationError(
                    "hits is a global ranking; seed=/alpha= do not apply"
                )
        else:
            raise ValidationError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{sorted(SEEDED_ALGORITHMS) + ['hits']}"
            )
        if self._inflight >= self.max_queue:
            if _metrics._ENABLED:
                _metrics.METRICS.inc("serve.rejected", graph=graph)
            raise ServiceOverloadedError(
                f"admission queue full ({self._inflight} in flight, "
                f"max_queue={self.max_queue}); retry later"
            )
        self._inflight += 1
        if _metrics._ENABLED:
            _metrics.METRICS.set_gauge("serve.queue.depth", self._inflight)
            _metrics.METRICS.inc(
                "serve.queries", graph=graph, algorithm=algorithm
            )
        entry.touch()
        try:
            if algorithm == "hits":
                return await loop.run_in_executor(
                    None, self._execute_hits, entry, tol, max_iter,
                    time.perf_counter(),
                )
            absolute = (
                time.monotonic() + deadline if deadline is not None else None
            )
            pending = _PendingQuery(
                seed=seed, deadline=absolute,
                future=loop.create_future(), t0=time.perf_counter(),
            )
            key = (graph, algorithm, float(alpha), float(tol), int(max_iter))
            batch = self._pending.get(key)
            if batch is None:
                batch = _PendingBatch(entry, algorithm, float(alpha),
                                      float(tol), int(max_iter))
                self._pending[key] = batch
                batch.timer = loop.call_later(
                    self.window_seconds, self._flush, loop, key
                )
            batch.queries.append(pending)
            if len(batch.queries) >= self.max_batch:
                self._flush(loop, key)
            return await pending.future
        finally:
            self._inflight -= 1
            if _metrics._ENABLED:
                _metrics.METRICS.set_gauge(
                    "serve.queue.depth", self._inflight
                )

    # ------------------------------------------------------------------
    # Coalescing / execution internals
    # ------------------------------------------------------------------

    def _entry(self, name: str) -> _GraphEntry:
        with self._state_lock:
            entry = self._graphs.get(name)
        if entry is None:
            raise GraphNotRegisteredError(
                f"graph {name!r} is not registered "
                f"(known: {sorted(self._graphs)})"
            )
        return entry

    def _flush(self, loop, key) -> None:
        # Runs on the event loop (from query() or the window timer).
        batch = self._pending.pop(key, None)
        if batch is None:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        loop.run_in_executor(None, self._execute_seeded, loop, batch)

    def _execute_seeded(self, loop, batch: _PendingBatch) -> None:
        entry = batch.entry
        width = len(batch.queries)
        try:
            if self._closed:
                raise ValidationError("service is closed")
            with entry.lock:
                self._warm_locked(entry)
                key, module, builder = _SETUPS[batch.algorithm]
                with mining_setup(
                    entry.matrix, key,
                    getattr(importlib.import_module(module), builder),
                    "coo", device=None, kernel_options={},
                    n_shards=entry.n_shards, tune=entry.tune,
                    create=create, fingerprint=matrix_fingerprint,
                ) as run, trace(
                    "serve.batch", graph=entry.name,
                    algorithm=batch.algorithm, width=width,
                ):
                    results = seeded_batch(
                        run.engine, entry.n,
                        [q.seed for q in batch.queries],
                        alpha=batch.alpha, tol=batch.tol,
                        max_iter=batch.max_iter,
                        deadlines=[q.deadline for q in batch.queries],
                    )
        except Exception as exc:  # noqa: BLE001 - delivered per future
            for q in batch.queries:
                loop.call_soon_threadsafe(self._reject, q.future, exc)
            return
        if _metrics._ENABLED:
            _metrics.METRICS.observe("serve.batch.width", width)
            if width > 1:
                _metrics.METRICS.inc("serve.coalesced", value=width)
        now = time.perf_counter()
        replay = _replay_engines(run)
        for q, result in zip(batch.queries, results):
            reply = self._reply_from_walk(
                entry, run, replay, batch, result, latency=now - q.t0,
                width=width,
            )
            if _metrics._ENABLED:
                _metrics.METRICS.observe(
                    "serve.latency.seconds", reply.latency_seconds,
                    algorithm=batch.algorithm,
                )
                if result.expired:
                    _metrics.METRICS.inc(
                        "serve.deadline.expired", graph=entry.name
                    )
            loop.call_soon_threadsafe(self._resolve, q.future, reply)

    def _reply_from_walk(
        self, entry, run, replay, batch, result: WalkResult, *, latency,
        width,
    ) -> QueryReply:
        n, engine = entry.n, run.engine
        alpha, tol, max_iter = batch.alpha, batch.tol, batch.max_iter
        seed = result.seed

        def solo() -> WalkResult:
            replayed = replay()
            try:
                return seeded_solo(
                    replayed, n, seed, alpha=alpha, tol=tol,
                    max_iter=max_iter,
                )
            finally:
                if replayed is not engine:
                    replayed.close()

        return QueryReply(
            graph=entry.name,
            algorithm=batch.algorithm,
            seed=seed,
            alpha=alpha,
            tol=tol,
            max_iter=max_iter,
            vector=result.vector,
            iterations=result.iterations,
            converged=result.converged,
            expired=result.expired,
            batch_width=width,
            latency_seconds=latency,
            version=run.version,
            fingerprint=run.fingerprint,
            _solo=solo,
        )

    def _execute_hits(self, entry, tol, max_iter, t0) -> QueryReply:
        matrix = entry.matrix
        with entry.lock:
            # Warming bookkeeping (eviction budget) applies to HITS too.
            self._warm_locked(entry)
            # One HITS result per version and parameters: a repeat
            # saves a whole power loop.
            version = matrix.data_version
            memo = entry.hits_memo
            if memo is None or memo[:2] != (version, (tol, max_iter)):
                snapshot = matrix.coo_snapshot()
                result = hits(
                    matrix, kernel="cpu-csr", tol=tol, max_iter=max_iter
                )
                if matrix.data_version != version:
                    # An update landed mid-run: answer on the snapshot
                    # itself, so the reply and its solo() agree.
                    result = hits(
                        snapshot, kernel="cpu-csr", tol=tol,
                        max_iter=max_iter,
                    )
                memo = (version, (tol, max_iter), result, snapshot)
                entry.hits_memo = memo
        result, snapshot = memo[2:]

        def solo():
            return hits(
                snapshot, kernel="cpu-csr", tol=tol, max_iter=max_iter
            )

        latency = time.perf_counter() - t0
        if _metrics._ENABLED:
            _metrics.METRICS.observe(
                "serve.latency.seconds", latency, algorithm="hits"
            )
        return QueryReply(
            graph=entry.name,
            algorithm="hits",
            seed=None,
            alpha=None,
            tol=tol,
            max_iter=max_iter,
            vector=result.vector.copy(),
            iterations=result.iterations,
            converged=result.converged,
            expired=False,
            batch_width=1,
            latency_seconds=latency,
            version=version,
            fingerprint=result.extra["operator_fingerprint"],
            _solo=solo,
        )

    def _resolve(self, future, reply) -> None:
        if not future.done():
            future.set_result(reply)

    def _reject(self, future, exc) -> None:
        if not future.done():
            future.set_exception(exc)

    # ------------------------------------------------------------------
    # Warming and eviction
    # ------------------------------------------------------------------

    def _warm_locked(self, entry) -> None:
        """Mark ``entry`` warm, evicting the LRU warm graph over budget.

        Caller holds ``entry.lock``; victim locks are only taken
        non-blocking, so a graph mid-query is never torn down under its
        batch (the budget may transiently overshoot instead — loudly,
        via the gauge)."""
        if entry.state == "warm":
            return
        entry.state = "warm"
        with self._state_lock:
            warm = [
                e for e in self._graphs.values()
                if e.state == "warm" and e is not entry
            ]
        excess = len(warm) + 1 - self.max_warm
        if excess > 0:
            for victim in sorted(warm, key=lambda e: e.last_used):
                if excess <= 0:
                    break
                if victim.lock.acquire(blocking=False):
                    try:
                        self._cool_locked(victim, reason="lru")
                        excess -= 1
                    finally:
                        victim.lock.release()
        if _metrics._ENABLED:
            _metrics.METRICS.set_gauge(
                "serve.warm.graphs",
                sum(1 for e in self._graphs.values() if e.state == "warm"),
            )

    def _cool_locked(self, entry, *, reason: str) -> None:
        """Drop the entry's setup, draining its executors (caller holds
        its lock)."""
        if entry.state != "warm":
            return
        for fingerprint in drop_setup(entry.matrix).values():
            if _metrics._ENABLED:
                _metrics.METRICS.inc(
                    "serve.evictions",
                    graph=entry.name, fingerprint=fingerprint,
                    reason=reason,
                )
        entry.hits_memo = None
        entry.state = "cold"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def sla_report(self) -> dict:
        """SLA snapshot from the metrics registry (enable ``repro.obs``
        before serving to populate it)."""
        metrics = _metrics.METRICS
        latency = {
            label: {
                "p50": hist.get("p50"),
                "p99": hist.get("p99"),
                "mean": hist.get("mean"),
                "count": hist.get("count"),
            }
            for label, hist in metrics.histogram_series(
                "serve.latency.seconds"
            ).items()
        }
        width = metrics.histogram("serve.batch.width")
        return {
            "queries": metrics.counter_total("serve.queries"),
            "coalesced": metrics.counter_total("serve.coalesced"),
            "rejected": metrics.counter_total("serve.rejected"),
            "evictions": metrics.counter_total("serve.evictions"),
            "deadline_expired": metrics.counter_total(
                "serve.deadline.expired"
            ),
            "queue_depth": metrics.gauge("serve.queue.depth"),
            "batch_width": width,
            "latency_seconds": latency,
            "graphs": self.graphs(),
        }
