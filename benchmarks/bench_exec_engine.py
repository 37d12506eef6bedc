"""Wall-clock benchmark of the execution engine vs the per-call path.

Runs a fixed-iteration PageRank power method over an R-MAT graph twice:

* **legacy** — the seed implementation's per-call CSR SpMV
  (``np.repeat`` of the row map + ``np.bincount`` scatter-add, fresh
  temporaries every call) with allocating vector updates;
* **engine** — the cached-plan path (``np.add.reduceat`` over
  precomputed segments, pooled buffers, ``out=`` writes, double-buffered
  iterates).

Also times the batched SpMM path against column-wise SpMV calls,
verifies the zero-allocation steady state (the workspace pool stops
allocating after the first execution), and records cold calls of the
production entry points — ``pagerank()`` for one iteration,
``pagerank(n_shards="auto")`` for one iteration and to convergence,
``random_walk_with_restart()`` and ``hits()`` — each on a copy of the
graph nothing is cached on — and warm converged ``pagerank()`` calls on
the ``"auto"`` shard count against one shard, each on a copy whose
setup the warm-up calls built.

Results go to ``benchmarks/results/BENCH_exec.json``.  ``--quick`` runs
a small graph and **fails** (exit 1) when the engine speedup drops below
``QUICK_MIN_SPEEDUP`` — the CI perf-regression gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import bench_header  # noqa: E402
from repro.exec.backends import default_backend_name  # noqa: E402
from repro.exec.plan import PLAN_CACHE_STATS  # noqa: E402
from repro.formats.coo import COOMatrix  # noqa: E402
from repro.formats.csr import CSRMatrix  # noqa: E402
from repro.graphs.rmat import rmat_graph  # noqa: E402
from repro.mining.hits import hits  # noqa: E402
from repro.mining.pagerank import (  # noqa: E402
    pagerank,
    pagerank_csc,
    pagerank_operator,
)
from repro.mining.power_method import l1_delta  # noqa: E402
from repro.mining.rwr import random_walk_with_restart  # noqa: E402
from repro.tuner.fingerprint import matrix_fingerprint  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

#: Full run: >=1M non-zeros, the paper-scale mining workload.
FULL_NODES, FULL_EDGES, FULL_ITERATIONS = 1 << 17, 2_000_000, 100
#: Quick run (CI gate): seconds, not minutes.
QUICK_NODES, QUICK_EDGES, QUICK_ITERATIONS = 1 << 13, 150_000, 30
#: The quick gate trips well before the ~3x headline evaporates.
QUICK_MIN_SPEEDUP = 1.5

DAMPING = 0.85

#: Cold calls per entry point (full, quick); the record keeps them all
#: and their median.
COLD_REPS = (3, 5)

#: The cold calls: production entry points on a never-seen matrix.
COLD_CALLS = {
    "pagerank_default_one_iteration": lambda g: pagerank(g, max_iter=1),
    "pagerank_auto_one_iteration": lambda g: pagerank(
        g, n_shards="auto", max_iter=1
    ),
    "pagerank_auto_converged": lambda g: pagerank(g, n_shards="auto"),
    "random_walk_with_restart": random_walk_with_restart,
    "hits": hits,
}

#: Warm calls per leg (full, quick), interleaved across the legs.
WARM_REPS = (7, 5)

#: The warm calls: converged PageRank on each shard count.
WARM_CALLS = {
    "pagerank_auto_converged": lambda g: pagerank(g, n_shards="auto"),
    "pagerank_one_shard_converged": lambda g: pagerank(g, n_shards=1),
}

#: A cold call runs on the source-major operator and the next one
#: builds the gather operator and its executor; warm calls follow both.
WARMUP_CALLS = 2


def legacy_spmv(csr: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """The seed implementation's CSR SpMV, temporaries and all."""
    x = np.asarray(x, dtype=np.float64)
    if csr.nnz == 0:
        return np.zeros(csr.n_rows, dtype=np.float64)
    products = csr.data * x[csr.indices]
    row_of = np.repeat(np.arange(csr.n_rows), np.diff(csr.indptr))
    return np.bincount(row_of, weights=products, minlength=csr.n_rows)


def legacy_pagerank(csr: CSRMatrix, iterations: int) -> np.ndarray:
    """Seed-style power method: every iteration allocates O(nnz)."""
    n = csr.n_rows
    p0 = np.full(n, 1.0 / n)
    p = p0.copy()
    for _ in range(iterations):
        new_p = DAMPING * legacy_spmv(csr, p) + (1.0 - DAMPING) * p0
        l1_delta(new_p, p)
        p = new_p
    return p


def engine_pagerank(
    csr: CSRMatrix, iterations: int, backend: str | None = None
) -> np.ndarray:
    """Plan-cached power method: zero allocation per iteration."""
    plan = csr.spmv_plan(backend)
    n = csr.n_rows
    p0 = np.full(n, 1.0 / n)
    p = p0.copy()
    new_p = np.empty(n)
    scratch = np.empty(n)
    base = (1.0 - DAMPING) * p0
    for _ in range(iterations):
        plan.execute(p, out=new_p)
        np.multiply(new_p, DAMPING, out=new_p)
        new_p += base
        l1_delta(new_p, p, scratch=scratch)
        p, new_p = new_p, p
    return p


def bench_spmm(csr: CSRMatrix, k: int, repeats: int) -> dict:
    """Batched SpMM vs k column-wise SpMV calls on the same plan."""
    rng = np.random.default_rng(7)
    X = rng.random((csr.n_cols, k))
    Y = np.empty((csr.n_rows, k))
    ycol = np.empty(csr.n_rows)
    csr.spmm(X, out=Y)  # warm the batched buffers

    start = time.perf_counter()
    for _ in range(repeats):
        for j in range(k):
            csr.spmv(np.ascontiguousarray(X[:, j]), out=ycol)
    columnwise = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(repeats):
        csr.spmm(X, out=Y)
    batched = time.perf_counter() - start

    for j in range(k):
        csr.spmv(np.ascontiguousarray(X[:, j]), out=ycol)
        assert np.array_equal(Y[:, j], ycol), "spmm column mismatch"
    return {
        "rhs_columns": k,
        "repeats": repeats,
        "columnwise_seconds": columnwise,
        "batched_seconds": batched,
        "speedup": columnwise / batched if batched > 0 else float("inf"),
    }


def fresh_copy(graph: COOMatrix) -> COOMatrix:
    """Same contents, new object: no plan, length or setup cached."""
    return COOMatrix(
        graph.rows.copy(), graph.cols.copy(), graph.data.copy(), graph.shape
    )


def bench_cold(graph: COOMatrix, reps: int) -> dict:
    """Cold calls of each entry point, plus the parts of a cold
    one-iteration PageRank timed on their own: the source-major
    operator, its fingerprint and one SpMV on its plan (the rest is
    the power loop, result and setup bookkeeping)."""
    out = {}
    for name, call in COLD_CALLS.items():
        seconds, result = [], None
        for _ in range(reps):
            fresh = fresh_copy(graph)
            start = time.perf_counter()
            result = call(fresh)
            seconds.append(time.perf_counter() - start)
        out[name] = {
            "seconds_median": float(np.median(seconds)),
            "seconds": seconds,
            "iterations": result.iterations,
            "n_shards": result.extra["n_shards"],
        }
    parts = {"operator_s": [], "fingerprint_s": [], "spmv_s": []}
    x = np.full(graph.n_rows, 1.0 / graph.n_rows)
    for _ in range(reps):
        fresh = fresh_copy(graph)
        t0 = time.perf_counter()
        operator = pagerank_csc(fresh)
        t1 = time.perf_counter()
        matrix_fingerprint(operator)
        t2 = time.perf_counter()
        operator.spmv(x)
        t3 = time.perf_counter()
        parts["operator_s"].append(t1 - t0)
        parts["fingerprint_s"].append(t2 - t1)
        parts["spmv_s"].append(t3 - t2)
    out["pagerank_auto_one_iteration"]["parts_median_s"] = {
        name: float(np.median(values)) for name, values in parts.items()
    }
    return out


def bench_warm(graph: COOMatrix, reps: int) -> dict:
    """Warm calls of each leg on its own copy of the graph, the legs
    interleaved so host noise lands on both."""
    copies = {name: fresh_copy(graph) for name in WARM_CALLS}
    for name, call in WARM_CALLS.items():
        for _ in range(WARMUP_CALLS):
            call(copies[name])
    seconds = {name: [] for name in WARM_CALLS}
    results = {}
    for _ in range(reps):
        for name, call in WARM_CALLS.items():
            start = time.perf_counter()
            results[name] = call(copies[name])
            seconds[name].append(time.perf_counter() - start)
    out = {
        name: {
            "seconds_median": float(np.median(seconds[name])),
            "seconds": seconds[name],
            "iterations": results[name].iterations,
            "n_shards": results[name].extra["n_shards"],
        }
        for name in WARM_CALLS
    }
    out["warmup_calls"] = WARMUP_CALLS
    out["auto_speedup_over_one_shard"] = (
        out["pagerank_one_shard_converged"]["seconds_median"]
        / out["pagerank_auto_converged"]["seconds_median"]
    )
    return out


def run(quick: bool) -> dict:
    if quick:
        nodes, edges, iterations = QUICK_NODES, QUICK_EDGES, QUICK_ITERATIONS
    else:
        nodes, edges, iterations = FULL_NODES, FULL_EDGES, FULL_ITERATIONS

    graph = rmat_graph(nodes, edges, seed=5)
    operator = pagerank_operator(graph)
    csr = CSRMatrix.from_coo(operator)
    print(
        f"R-MAT n={nodes}: {csr.n_rows:,} vertices, "
        f"{csr.nnz:,} non-zeros, {iterations} PageRank iterations"
    )

    start = time.perf_counter()
    p_legacy = legacy_pagerank(csr, iterations)
    legacy_seconds = time.perf_counter() - start

    PLAN_CACHE_STATS.reset()
    start = time.perf_counter()
    plan = csr.spmv_plan()
    plan_build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    p_engine = engine_pagerank(csr, iterations)
    engine_seconds = time.perf_counter() - start

    csr.spmv_plan("numpy")  # build outside the timed region
    start = time.perf_counter()
    p_numpy = engine_pagerank(csr, iterations, backend="numpy")
    numpy_seconds = time.perf_counter() - start

    # Same fixed-point up to summation order (bincount accumulates in
    # index order, reduceat pairwise).
    assert np.allclose(p_legacy, p_engine, rtol=1e-12, atol=1e-14)
    assert np.allclose(p_legacy, p_numpy, rtol=1e-12, atol=1e-14)

    # Zero-allocation steady state: the pool must not grow any more.
    allocations_before = plan.pool.allocations
    x = np.full(csr.n_cols, 1.0 / csr.n_cols)
    y = np.empty(csr.n_rows)
    for _ in range(3):
        csr.spmv(x, out=y)
    assert plan.pool.allocations == allocations_before, (
        "workspace pool allocated in steady state"
    )

    speedup = legacy_seconds / engine_seconds if engine_seconds else float("inf")
    result = {
        "benchmark": "exec_engine",
        "host": bench_header(),
        "graph": {
            "generator": "rmat",
            "n_nodes": nodes,
            "requested_edges": edges,
            "n_rows": csr.n_rows,
            "nnz": csr.nnz,
        },
        "pagerank": {
            "iterations": iterations,
            "backend": default_backend_name(),
            "legacy_seconds": legacy_seconds,
            "engine_seconds": engine_seconds,
            "engine_numpy_seconds": numpy_seconds,
            "plan_build_seconds": plan_build_seconds,
            "legacy_iterations_per_second": iterations / legacy_seconds,
            "engine_iterations_per_second": iterations / engine_seconds,
            "speedup": speedup,
            "numpy_backend_speedup": legacy_seconds / numpy_seconds,
        },
        "spmm": bench_spmm(csr, k=8, repeats=3 if quick else 10),
        "cold_calls": bench_cold(graph, COLD_REPS[quick]),
        "warm_calls": bench_warm(graph, WARM_REPS[quick]),
        "plan_cache": {
            "builds": PLAN_CACHE_STATS.builds,
            "hits": PLAN_CACHE_STATS.hits,
        },
        "steady_state_pool_allocations": 0,
        "quick": quick,
    }

    print(
        f"legacy:  {legacy_seconds:8.3f} s "
        f"({result['pagerank']['legacy_iterations_per_second']:8.1f} it/s)"
    )
    print(
        f"engine:  {engine_seconds:8.3f} s "
        f"({result['pagerank']['engine_iterations_per_second']:8.1f} it/s)"
        f"  [{default_backend_name()} backend, "
        f"+ {plan_build_seconds * 1e3:.1f} ms one-off plan build]"
    )
    print(
        f"numpy:   {numpy_seconds:8.3f} s "
        f"({iterations / numpy_seconds:8.1f} it/s)"
    )
    print(f"speedup: {speedup:8.2f}x   spmm: {result['spmm']['speedup']:.2f}x")
    for name, cold in result["cold_calls"].items():
        print(
            f"cold {name}: {cold['seconds_median'] * 1e3:9.1f} ms median "
            f"({cold['iterations']} iterations, {cold['n_shards']} shard(s))"
        )
    warm = result["warm_calls"]
    for name in WARM_CALLS:
        print(
            f"warm {name}: {warm[name]['seconds_median'] * 1e3:9.1f} ms "
            f"median ({warm[name]['iterations']} iterations, "
            f"{warm[name]['n_shards']} shard(s))"
        )
    print(f"warm auto over one shard: {warm['auto_speedup_over_one_shard']:.2f}x")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph + regression gate (CI mode)",
    )
    args = parser.parse_args(argv)
    result = run(quick=args.quick)

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_exec.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.quick and result["pagerank"]["speedup"] < QUICK_MIN_SPEEDUP:
        print(
            f"FAIL: speedup {result['pagerank']['speedup']:.2f}x below the "
            f"{QUICK_MIN_SPEEDUP}x regression gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
