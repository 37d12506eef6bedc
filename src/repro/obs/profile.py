"""The ``repro profile`` runner: one instrumented mining workload.

Runs PageRank (sharded), HITS (numpy backend, so the native plans and
their workspace pools are exercised) and RWR on a fixed-seed R-MAT
graph with observability enabled, then assembles a JSON-ready report:

* derived rates — plan-cache hit rate, workspace-pool hit rate,
* per-shard mean wall seconds and the measured imbalance,
* each algorithm's per-iteration convergence trace (residuals,
  dangling mass, wall time),
* the raw metric snapshot and the span log.

This is the roofline-style telemetry loop of Yang, Buluc & Owens
("Design Principles for Sparse Matrix Multiplication on the GPU")
applied to the host engine: measure first, optimise second.
"""

from __future__ import annotations

from repro.obs import metrics as _metrics
from repro.obs.trace import TRACE, trace as _span

__all__ = ["run_profile"]


def _rate(hits: float, misses_or_builds: float) -> float | None:
    total = hits + misses_or_builds
    return hits / total if total else None


def run_profile(
    *,
    n_nodes: int = 4096,
    n_edges: int = 65536,
    seed: int = 7,
    shards: int | str = 2,
    tol: float = 1e-8,
    max_iter: int = 200,
    n_queries: int = 4,
    quick: bool = False,
) -> dict:
    """Run the instrumented workload and return the profile report.

    ``quick`` shrinks the graph and iteration budget to CI scale.  The
    global metrics registry and span log are reset at entry and read at
    exit; the prior enable state and default backend are restored.
    """
    import os

    from repro.exec.backends import default_backend_name, set_default_backend
    from repro.exec.plan import PLAN_CACHE_STATS
    from repro.graphs.rmat import rmat_graph
    from repro.mining.hits import hits
    from repro.mining.pagerank import pagerank
    from repro.mining.rwr import random_walk_with_restart

    if quick:
        n_nodes = min(n_nodes, 512)
        n_edges = min(n_edges, 4096)
        # PageRank at damping 0.85 needs ~115 iterations for 1e-8.
        max_iter = min(max_iter, 150)
        n_queries = min(n_queries, 3)

    was_enabled = _metrics.enabled()
    prior_backend = default_backend_name()
    # The profile is a *pinned* workload: only the pagerank leg is
    # sharded (via ``shards``), so the REPRO_SPMV_SHARDS CI override is
    # lifted for its duration — otherwise the hits/rwr legs would ride
    # executors too and the plan-cache telemetry would go dark.  It is
    # still parsed first so a malformed value fails loudly.
    from repro.exec.sharded import env_shard_count

    env_shard_count()
    prior_shards = os.environ.pop("REPRO_SPMV_SHARDS", None)
    _metrics.enable()
    _metrics.METRICS.reset()
    TRACE.reset()
    plans_before = PLAN_CACHE_STATS.builds, PLAN_CACHE_STATS.hits
    try:
        with _span("profile", n_nodes=n_nodes, n_edges=n_edges):
            graph = rmat_graph(n_nodes, n_edges, seed=seed)
            with _span("profile.pagerank"):
                pr = pagerank(
                    graph, kernel="cpu-csr", tol=tol, max_iter=max_iter,
                    n_shards=shards,
                )
            # HITS on the numpy backend: the native gather/reduce plans
            # and their workspace pools carry the load, so pool
            # hit/miss telemetry reflects the engine's own buffers.
            set_default_backend("numpy")
            with _span("profile.hits"):
                ht = hits(graph, kernel="cpu-csr", tol=tol, max_iter=max_iter)
            set_default_backend(prior_backend)
            with _span("profile.rwr"):
                rw = random_walk_with_restart(
                    graph, kernel="cpu-csr", tol=tol, max_iter=max_iter,
                    n_queries=n_queries, seed=seed,
                )

        registry = _metrics.METRICS
        plan_builds = PLAN_CACHE_STATS.builds - plans_before[0]
        plan_hits = PLAN_CACHE_STATS.hits - plans_before[1]
        pool_hits = registry.counter_total("pool.hits")
        pool_misses = registry.counter_total("pool.misses")
        # Distribution, not noise: mean over the whole run plus p50/p99
        # over the histogram's sliding reservoir, per shard — a shard
        # that stalls once per hundred calls shows up at p99 while a
        # last-value gauge (or a bare mean) would smooth it away.
        shard_seconds = {
            key: {
                "mean": summary["mean"],
                "p50": summary["p50"],
                "p99": summary["p99"],
            }
            for key, summary in sorted(
                registry.histogram_series("sharded.shard.seconds").items()
            )
        }
        imbalance_hist = registry.histogram("sharded.imbalance.samples")
        report = {
            "config": {
                "n_nodes": n_nodes,
                "n_edges": n_edges,
                "nnz": graph.nnz,
                "seed": seed,
                "shards": shards,
                "tol": tol,
                "max_iter": max_iter,
                "n_queries": n_queries,
                "quick": quick,
                "backend": prior_backend,
            },
            "derived": {
                "plan_cache_builds": plan_builds,
                "plan_cache_hits": plan_hits,
                "plan_cache_hit_rate": _rate(plan_hits, plan_builds),
                "pool_hits": pool_hits,
                "pool_misses": pool_misses,
                "pool_hit_rate": _rate(pool_hits, pool_misses),
                "pool_bytes_allocated": registry.counter_total(
                    "pool.alloc.bytes"
                ),
                "per_shard_seconds": shard_seconds,
                "shard_imbalance": registry.gauge("sharded.imbalance"),
                "shard_imbalance_p99": (
                    imbalance_hist["p99"] if imbalance_hist else None
                ),
            },
            "algorithms": {
                "pagerank": _algorithm_section(pr),
                "hits": _algorithm_section(ht),
                "rwr": _algorithm_section(rw),
            },
            "metrics": registry.snapshot(),
            "trace": TRACE.events(),
        }
        return report
    finally:
        if prior_shards is not None:
            os.environ["REPRO_SPMV_SHARDS"] = prior_shards
        set_default_backend(prior_backend)
        if not was_enabled:
            _metrics.disable()


def _algorithm_section(result) -> dict:
    """The per-algorithm slice of the report."""
    section = {
        "iterations": result.iterations,
        "converged": result.converged,
        "kernel": result.kernel_name,
        "n_shards": result.extra.get("n_shards", 1),
    }
    convergence = result.extra.get("convergence")
    if convergence is not None:
        section["convergence"] = convergence
        section["residuals"] = [
            r["residual"] for r in convergence["records"]
        ]
    return section
