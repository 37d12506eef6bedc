"""The workloads, each driven from one process through the public
API: ``pagerank()``, ``QueryService.query`` and
``DynamicMatrix.apply_updates``.

Every workload first times its cold set-up, then measures for the
requested seconds, then — outside every timed region — checks each
answer bitwise against its reference.  With a :class:`Tracer` the run
alternates untraced and traced legs, so the per-layer ledger and the
tracing overhead come from the same run.
"""

from __future__ import annotations

import asyncio
import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from inputs import ALPHA, TOL, Inputs, copy_graph
from spans import LAYERS, UNTIMED, Tracer, ledger

#: Cold set-ups per run; ``setup_s`` is their median.  A ppr_stream
#: set-up takes ~70 ms and the median of 5 still spread by 0.3 over
#: seeds, so it takes more.
SETUP_REPS = {"pagerank_batch": 5, "ppr_stream": 21}
#: Length of each untraced/traced leg of a traced serve run.
LEG_SECONDS = 1.0
#: The service's default coalescing window.
WINDOW_SECONDS = 0.002


@dataclass
class Outcome:
    """What one workload run measured."""

    end_to_end: dict  # name -> (value, unit)
    per_layer: dict  # name -> (value, unit); empty when untraced
    attempted: int
    failed: int
    mismatches: int
    samples: dict  # sample counts behind the metrics
    overloaded: bool = False  # the backlog kept growing: no steady latency
    record: dict = field(default_factory=dict)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def _plan_counts():
    from repro.exec.plan import PLAN_CACHE_STATS

    return PLAN_CACHE_STATS.builds, PLAN_CACHE_STATS.hits


class _PlanDelta:
    """Plan builds and cache hits made inside a ``with`` block."""

    def __enter__(self):
        self.before = _plan_counts()
        return self

    def __exit__(self, *exc):
        after = _plan_counts()
        self.builds = after[0] - self.before[0]
        self.hits = after[1] - self.before[1]


def _latency_metrics(setup, latencies, completed, wall) -> dict:
    return {
        "setup_s": (_median(setup), "s"),
        "query_p50_ms": (_median(latencies) * 1e3, "ms"),
        "query_p90_ms": (_p90(latencies) * 1e3, "ms"),
        "queries_per_s": (completed / wall if wall > 0 else 0.0, "1/s"),
    }


# ----------------------------------------------------------------------
# Per-layer metrics from a traced run
# ----------------------------------------------------------------------


def query_waits(spans) -> list[float]:
    """Per traced query: latency not covered by the spans of the batch
    that answered it (coalescing window, lock, hand-off, and the
    service's untimed operator build)."""
    batches = [s for s in spans if s.name == "serve.seeded_batch"]
    roots = [
        s for s in spans
        if s.parent is None and s.depth > 0 and s.name != "serve.seeded_batch"
    ]
    waits = []
    for query in (s for s in spans if s.name == "serve.query"):
        served_by = [
            b for b in batches
            if query.args.get("seed") in b.args["seeds"]
            and b.start >= query.start and b.end <= query.end
        ]
        if not served_by:
            continue
        batch = max(served_by, key=lambda b: b.end)
        previous_end = max(
            (b.end for b in batches
             if b.thread == batch.thread and b.end <= batch.start),
            default=query.start,
        )
        since = max(query.start, previous_end)
        covered = batch.seconds + sum(
            r.seconds for r in roots
            if r.thread == batch.thread and r.start >= since
            and r.end <= batch.start
        )
        waits.append(query.seconds - covered)
    return waits


def layer_metrics(
    tracer: Tracer, *, iterations: int, plan: _PlanDelta,
    overhead: float, late_ms_max: float = 0.0, dynamic: dict | None = None,
) -> tuple[dict, dict]:
    """Per-layer metrics plus the ledger they were derived from."""
    spans = tracer.spans
    led = ledger(spans, tracer.windows)

    def named(*names):
        return [s for s in spans if s.name in names]

    def median_seconds(*names):
        return _median([s.seconds for s in named(*names)])

    pagerank_calls = named("mining.pagerank")
    queries = named("serve.query")
    operations = max(1, len(pagerank_calls) + len(queries))
    shard_spmv = named("exec.sharded.spmv")
    spmv_s = median_seconds("exec.sharded.spmv")
    imbalance = [
        max(s.args["shard_seconds"]) / np.mean(s.args["shard_seconds"])
        for s in shard_spmv if sum(s.args["shard_seconds"]) > 0
    ]
    if shard_spmv and spmv_s > 0:
        # Computed, not measured, traffic: per non-zero a value, a
        # column index and a gathered x entry; per row an output write
        # and a row boundary — 8 bytes each.
        first = shard_spmv[0].args
        computed_bytes = 24 * first["nnz"] + 16 * first["rows"]
        spmv_gbs = computed_bytes / spmv_s / 1e9
    else:
        spmv_gbs = 0.0
    batches = named("serve.seeded_batch")
    dynamic = dynamic or {}
    metrics = {
        "mining.operator_build_s": (
            median_seconds("mining.operator_build"), "s"),
        "mining.vector_s": (
            _median([led["spans"].get(s.id, 0.0) for s in pagerank_calls]),
            "s"),
        "mining.iterations": (iterations, "count"),
        "kernels.create_s": (median_seconds("kernels.create"), "s"),
        "tuner.fingerprint_s": (
            median_seconds("tuner.fingerprint", "tuner.fingerprint.slot"),
            "s"),
        "exec.sharded.build_s": (median_seconds("exec.sharded.build"), "s"),
        "exec.sharded.spmv_s": (spmv_s, "s"),
        "exec.spmv_calls": (
            len(named("exec.sharded.spmv", "exec.spmv")) / operations,
            "calls/op"),
        "exec.sharded.imbalance": (_median(imbalance), "ratio"),
        "exec.spmv_computed_gbs": (spmv_gbs, "GB/s"),
        "exec.spmm_s": (median_seconds("exec.spmm", "exec.sharded.spmm"),
                        "s"),
        "exec.spmm_calls": (
            len(named("exec.spmm", "exec.sharded.spmm")) / operations,
            "calls/op"),
        "exec.plan.builds": (plan.builds, "count"),
        "exec.plan.cache_hits": (plan.hits, "count"),
        "serve.seeded_batch_s": (median_seconds("serve.seeded_batch"), "s"),
        "serve.batch_width_mean": (
            float(np.mean([len(b.args["seeds"]) for b in batches]))
            if batches else 0.0,
            "queries"),
        "serve.wait_s": (_median(query_waits(spans)), "s"),
        "serve.slot_builds": (
            len(named("tuner.fingerprint.slot")), "count"),
        "dynamic.apply_s": (median_seconds("dynamic.apply"), "s"),
        "dynamic.compactions": (dynamic.get("compactions", 0), "count"),
        "dynamic.repairs": (dynamic.get("repairs", 0), "count"),
        "dynamic.rebuilds": (dynamic.get("rebuilds", 0), "count"),
        "load.late_ms_max": (late_ms_max, "ms"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    for layer in LAYERS:
        metrics[f"ledger.{layer}_s"] = (led["layers"][layer], "s")
    metrics["ledger.residual_s"] = (led["residual"], "s")
    metrics["ledger.total_s"] = (led["total"], "s")
    return metrics, led


def _ledger_record(tracer: Tracer, led: dict) -> dict:
    by_width: dict[int, list] = {}
    for span in tracer.spans:
        if span.name in ("exec.spmm", "exec.sharded.spmm"):
            by_width.setdefault(span.args["width"], []).append(span.seconds)
    return {
        "spmm_s_by_width": {
            str(width): _median(seconds)
            for width, seconds in sorted(by_width.items())
        },
        "traced_seconds": tracer.traced_seconds(),
        "layers_s": led["layers"],
        "residual_s": led["residual"],
        "self_seconds_by_span": led["names"],
        "spans": len(tracer.spans),
        "windows": len(tracer.windows),
        "untimed": UNTIMED,
    }


# ----------------------------------------------------------------------
# pagerank_batch
# ----------------------------------------------------------------------


def pagerank_batch(inputs: Inputs, seconds: float,
                   tracer: Tracer | None) -> Outcome:
    # Calls go through the module attribute so installed spans apply.
    pr = importlib.import_module("repro.mining.pagerank")
    graph = inputs.graph

    setup = []
    for rep in range(SETUP_REPS["pagerank_batch"]):
        fresh = copy_graph(graph)
        with _PlanDelta() as plan:
            t0 = time.perf_counter()
            pr.pagerank(fresh, tol=TOL, n_shards="auto", max_iter=1)
            setup.append(time.perf_counter() - t0)
        if rep == 0:
            first_plan = plan

    # The sharded == single-shard contract: every call must reproduce
    # this vector and iteration count bit for bit.
    reference = pr.pagerank(graph, tol=TOL, n_shards=1)

    times = {False: [], True: []}
    results, errors = [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced calls.
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            result = pr.pagerank(graph, tol=TOL, n_shards="auto")
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            result = None
            errors.append(repr(exc))
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end()
        attempted += 1
        if result is not None:
            times[traced].append(elapsed)
            results.append(result)
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or attempted >= 2):
            break
    wall = time.perf_counter() - start

    mismatches = sum(
        1 for r in results
        if r.iterations != reference.iterations
        or not np.array_equal(r.vector, reference.vector)
    )
    completed = len(results)
    untraced = times[False]
    outcome = Outcome(
        end_to_end=_latency_metrics(setup, untraced, completed, wall),
        per_layer={},
        attempted=attempted + len(setup),
        failed=len(errors) + mismatches,
        mismatches=mismatches,
        samples={"setup": len(setup), "queries": len(untraced),
                 "traced_queries": len(times[True])},
        record={"errors": errors[:10],
                "iterations": int(reference.iterations),
                "n_shards": results[0].extra["n_shards"] if results else None},
    )
    if tracer is not None:
        overhead = _median(times[True]) / _median(untraced) - 1.0
        outcome.per_layer, led = layer_metrics(
            tracer, iterations=int(reference.iterations), plan=first_plan,
            overhead=overhead,
        )
        outcome.record["ledger"] = _ledger_record(tracer, led)
    return outcome


# ----------------------------------------------------------------------
# ppr_stream
# ----------------------------------------------------------------------


def _verify(replies) -> int:
    """Bitwise-compare every reply with its solo replay (one replay per
    seed and graph version: the replays of equal keys are identical)."""
    groups: dict[tuple, list] = {}
    for reply in replies:
        key = (reply.seed, reply.version, reply.fingerprint)
        groups.setdefault(key, []).append(reply)
    mismatches = 0
    for group in groups.values():
        reference = group[0].solo()
        for reply in group:
            if (
                reply.iterations != reference.iterations
                or not np.array_equal(reply.vector, reference.vector)
            ):
                mismatches += 1
    return mismatches


async def _alternate_legs(tracer: Tracer | None, seconds: float) -> None:
    """Flip between untraced and traced legs for ``seconds``; a short
    run still gets at least two legs of each kind."""
    if tracer is None:
        return
    leg = min(LEG_SECONDS, seconds / 4)
    until = time.perf_counter() + seconds
    while True:
        remaining = until - time.perf_counter()
        if remaining <= 0:
            break
        await asyncio.sleep(min(leg, remaining))
        if tracer.active:
            tracer.end()
        else:
            tracer.begin()
    tracer.end()


async def _timed_setup(graph, build, probe: int, reps: int):
    """Cold set-up times: ``build`` a never-seen copy of the graph,
    register it and wait for its first answer, ``reps`` times."""
    from repro.serve import QueryService

    setup = []
    first_plan = None
    for _ in range(reps):
        fresh = copy_graph(graph)
        service = QueryService(window_seconds=WINDOW_SECONDS)
        try:
            with _PlanDelta() as plan:
                t0 = time.perf_counter()
                service.register("g", build(fresh))
                await service.query("g", seed=probe, alpha=ALPHA, tol=TOL)
                setup.append(time.perf_counter() - t0)
        finally:
            service.close()
        first_plan = first_plan or plan
    return setup, first_plan


def ppr_stream(inputs: Inputs, seconds: float,
               tracer: Tracer | None) -> Outcome:
    return asyncio.run(_ppr_stream(inputs, seconds, tracer))


def _writer(matrix, service, inputs, start, stop, apply_seconds, errors):
    """The update stream: one batch per scheduled instant, applied and
    announced as a writer beside the readers would."""
    for offset, batch in zip(inputs.update_times, inputs.update_batches):
        if stop.wait(max(0.0, start + offset - time.perf_counter())):
            return
        t0 = time.perf_counter()
        try:
            matrix.apply_updates(batch)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            errors.append(repr(exc))
            continue
        apply_seconds.append(time.perf_counter() - t0)
        service.notify_update("g")


def _overloaded(inflight: list[int]) -> bool:
    """Whether the in-flight count kept rising over the run."""
    quarter = len(inflight) // 4
    if quarter < 4:
        return False
    first = float(np.mean(inflight[:quarter]))
    last = float(np.mean(inflight[-quarter:]))
    return last > 2.0 * first + 2.0


async def _ppr_stream(inputs, seconds, tracer) -> Outcome:
    from repro.formats.csr import CSRMatrix
    from repro.graphs.dynamic import DynamicMatrix
    from repro.serve import QueryService

    graph = inputs.graph
    seeds = [int(s) for s in inputs.query_seeds]

    def dynamic(fresh):
        return DynamicMatrix(
            CSRMatrix.from_coo(fresh), nnz_delta=inputs.shape.compact_ops
        )

    setup, plan = await _timed_setup(
        graph, dynamic, inputs.probe, SETUP_REPS["ppr_stream"]
    )

    matrix = dynamic(copy_graph(graph))
    service = QueryService(window_seconds=WINDOW_SECONDS)
    stop = threading.Event()
    writer = None
    apply_seconds, errors = [], []
    try:
        service.register("g", matrix)
        first = await service.query(
            "g", seed=inputs.probe, alpha=ALPHA, tol=TOL
        )
        stats_before = dict(matrix.stats)
        replies = []
        latencies = {False: [], True: []}
        late, inflight = [], []
        outstanding = 0

        async def send(seed, due, traced):
            nonlocal outstanding
            try:
                reply = await service.query(
                    "g", seed=seed, alpha=ALPHA, tol=TOL
                )
            except Exception as exc:  # noqa: BLE001 - a failure
                errors.append(repr(exc))
                return
            finally:
                outstanding -= 1
            # Open loop: latency counts from the intended send time.
            latencies[traced].append(time.perf_counter() - due)
            replies.append(reply)

        start = time.perf_counter()
        writer = threading.Thread(
            target=_writer, name="perfbench-writer",
            args=(matrix, service, inputs, start, stop, apply_seconds,
                  errors),
        )
        writer.start()
        legs = asyncio.ensure_future(_alternate_legs(tracer, seconds))
        tasks = []
        for offset, seed in zip(inputs.arrivals, seeds):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            inflight.append(outstanding)
            outstanding += 1
            traced = tracer is not None and tracer.active
            tasks.append(asyncio.ensure_future(send(seed, due, traced)))
        await asyncio.gather(*tasks)
        wall = time.perf_counter() - start
        await legs
        # Every scheduled batch is applied, so the dynamic counts repeat
        # for a seed.
        await asyncio.to_thread(writer.join)
    finally:
        stop.set()
        if writer is not None:
            writer.join()
        if tracer is not None:
            tracer.end()
        service.close()

    dynamic = {
        key: matrix.stats[key] - stats_before[key]
        for key in ("compactions", "repairs", "rebuilds")
    }
    mismatches = _verify(replies)
    expired = sum(1 for r in replies if r.expired)
    attempted = len(setup) + len(seeds) + len(inputs.update_batches)
    outcome = Outcome(
        end_to_end=_latency_metrics(
            setup, latencies[False], len(replies), wall
        ),
        per_layer={},
        attempted=attempted,
        failed=len(errors) + expired + mismatches,
        mismatches=mismatches,
        samples={"setup": len(setup), "queries": len(latencies[False]),
                 "traced_queries": len(latencies[True]),
                 "updates": len(apply_seconds)},
        overloaded=_overloaded(inflight),
        record={
            "errors": errors[:10],
            "expired": expired,
            "batch_width_mean": float(np.mean(
                [r.batch_width for r in replies])) if replies else 0.0,
            "update_p50_ms": _median(apply_seconds) * 1e3,
            "late_ms_max": max(late) * 1e3,
            "inflight_max": max(inflight),
            "dynamic": dynamic,
        },
    )
    if outcome.overloaded:
        # A growing backlog has no steady latency: every query counts as
        # having missed its limit.
        outcome.failed = outcome.attempted
    if tracer is not None:
        overhead = _median(latencies[True]) / _median(latencies[False]) - 1.0
        outcome.per_layer, led = layer_metrics(
            tracer, iterations=first.iterations, plan=plan,
            overhead=overhead, late_ms_max=max(late) * 1e3, dynamic=dynamic,
        )
        outcome.record["ledger"] = _ledger_record(tracer, led)
    return outcome


WORKLOADS = {
    "pagerank_batch": pagerank_batch,
    "ppr_stream": ppr_stream,
}
