"""Wall-clock benchmark of the sharded parallel SpMV executor.

Runs a fixed-iteration PageRank power method over an R-MAT graph four
ways on the same canonical operator:

* **single** — one shard, the matrix's cached-plan engine path;
* **balanced** — the default: 4 contiguous nnz-balanced row ranges,
  zero-copy views of one CSR on the persistent thread pool;
* **bitonic** — 4 nnz-balanced serpentine shards (§3.2), ranges of one
  row-permuted CSR that scatter their rows;
* **contiguous** — 4 equal-row-block shards, the balance baseline.

The sharded runs must be **bit-identical** to the single-shard run
(hard failure otherwise), and the report records measured per-shard
wall seconds so the §3.2 balance claim is checked against a clock.
The speedup gate reads the executor's default (``balanced``) partition.

Sharding only pays on multi-core hosts (SciPy's matvec and numpy's
ufunc loops release the GIL, but one core is one core), so the speedup
gates arm only when ``os.cpu_count() >= 4``; on smaller hosts the
numbers are recorded with ``hardware_limited: true``.  The auto-policy
no-slowdown gate — a matrix below the nnz threshold must stay on the
dispatch-free single-shard path — runs everywhere.

Results go to ``benchmarks/results/BENCH_sharded.json``; ``--quick`` is
the CI mode (small graph, gates enforced).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import bench_header  # noqa: E402
from repro.exec.backends import default_backend_name  # noqa: E402
from repro.exec.sharded import (  # noqa: E402
    AUTO_MIN_NNZ_PER_SHARD,
    ShardedExecutor,
    auto_shard_count,
)
from repro.graphs.rmat import rmat_graph  # noqa: E402
from repro.mining.pagerank import pagerank_operator  # noqa: E402
from repro.mining.power_method import l1_delta  # noqa: E402
from repro.multigpu.bitonic import (  # noqa: E402
    bitonic_partition,
    contiguous_partition,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Full run: ~1.9M non-zeros, the ISSUE's paper-scale target.
FULL_NODES, FULL_EDGES, FULL_ITERATIONS = 1 << 17, 2_000_000, 100
#: Quick run (CI gate): seconds, not minutes.
QUICK_NODES, QUICK_EDGES, QUICK_ITERATIONS = 1 << 13, 150_000, 30

N_SHARDS = 4
#: Acceptance target for the full run on a >=4-core host.
FULL_MIN_SPEEDUP = 2.0
#: CI gate for the quick run on a >=4-core host (smaller matrix, more
#: dispatch overhead per flop).
QUICK_MIN_SPEEDUP = 1.2
#: Auto policy: a below-threshold matrix may cost at most this factor
#: over the plain engine path (it runs the identical code plus one
#: method indirection, so anything above noise is a regression).
NO_SLOWDOWN_TOLERANCE = 1.25

DAMPING = 0.85


def executor_pagerank(
    executor: ShardedExecutor, iterations: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Fixed-iteration power method through an executor.

    Returns the final vector, the mean per-shard wall seconds per
    iteration, and the total wall seconds.
    """
    n = executor.n_rows
    p0 = np.full(n, 1.0 / n)
    p = p0.copy()
    new_p = np.empty(n)
    scratch = np.empty(n)
    base = (1.0 - DAMPING) * p0
    executor.spmv(p, out=new_p)  # warm-up: grow every shard's pool
    shard_acc = np.zeros(executor.n_shards)
    start = time.perf_counter()
    for _ in range(iterations):
        executor.spmv(p, out=new_p)
        shard_acc += executor.last_shard_seconds
        np.multiply(new_p, DAMPING, out=new_p)
        new_p += base
        l1_delta(new_p, p, scratch=scratch)
        p, new_p = new_p, p
    elapsed = time.perf_counter() - start
    return p, shard_acc / iterations, elapsed


def plan_pagerank(matrix, iterations: int) -> tuple[np.ndarray, float]:
    """The PR-1 engine loop on the matrix's own cached plan."""
    plan = matrix.spmv_plan()
    n = matrix.n_rows
    p0 = np.full(n, 1.0 / n)
    p = p0.copy()
    new_p = np.empty(n)
    scratch = np.empty(n)
    base = (1.0 - DAMPING) * p0
    plan.execute(p, out=new_p)  # warm-up
    start = time.perf_counter()
    for _ in range(iterations):
        plan.execute(p, out=new_p)
        np.multiply(new_p, DAMPING, out=new_p)
        new_p += base
        l1_delta(new_p, p, scratch=scratch)
        p, new_p = new_p, p
    elapsed = time.perf_counter() - start
    return p, elapsed


#: The benched partitions: ``None`` is the executor's own (balanced
#: ranges); the others are passed as an explicit ``assignment=``.
PARTITIONS = {
    "balanced": None,
    "bitonic": lambda op: bitonic_partition(op.row_lengths(), N_SHARDS),
    "contiguous": lambda op: contiguous_partition(op.n_rows, N_SHARDS),
}


def bench_partition(
    operator, partition: str, iterations: int
) -> tuple[np.ndarray, dict]:
    deal = PARTITIONS[partition]
    assignment = None if deal is None else deal(operator)
    with ShardedExecutor(operator, N_SHARDS, assignment=assignment) as ex:
        vector, shard_seconds, elapsed = executor_pagerank(ex, iterations)
        balance = ex.balance()
        mean = float(shard_seconds.mean())
        stats = {
            "partition": partition,
            "n_shards": N_SHARDS,
            "seconds": elapsed,
            "iterations_per_second": iterations / elapsed,
            "nnz_per_shard": ex.shard_nnz.tolist(),
            "nnz_imbalance": float(balance.nnz_imbalance),
            "mean_shard_seconds": shard_seconds.tolist(),
            "measured_imbalance": (
                float(shard_seconds.max()) / mean if mean > 0 else None
            ),
        }
    return vector, stats


def bench_auto_policy(iterations: int = 200) -> dict:
    """A matrix under the nnz threshold must not pay for sharding."""
    graph = rmat_graph(1 << 11, 30_000, seed=9)
    operator = pagerank_operator(graph)
    assert operator.nnz < AUTO_MIN_NNZ_PER_SHARD
    with ShardedExecutor(operator, "auto") as ex:
        auto_shards = ex.n_shards
        plain_seconds = min(
            plan_pagerank(operator, iterations)[1] for _ in range(3)
        )
        auto_seconds = min(
            executor_pagerank(ex, iterations)[2] for _ in range(3)
        )
    return {
        "nnz": operator.nnz,
        "auto_shards": auto_shards,
        "iterations": iterations,
        "plain_seconds": plain_seconds,
        "auto_seconds": auto_seconds,
        "ratio": auto_seconds / plain_seconds,
        "tolerance": NO_SLOWDOWN_TOLERANCE,
    }


def run(quick: bool) -> tuple[dict, list[str]]:
    if quick:
        nodes, edges, iterations = QUICK_NODES, QUICK_EDGES, QUICK_ITERATIONS
    else:
        nodes, edges, iterations = FULL_NODES, FULL_EDGES, FULL_ITERATIONS

    cpu_count = os.cpu_count() or 1
    hardware_limited = cpu_count < N_SHARDS
    graph = rmat_graph(nodes, edges, seed=5)
    operator = pagerank_operator(graph)
    print(
        f"R-MAT n={nodes}: {operator.n_rows:,} vertices, "
        f"{operator.nnz:,} non-zeros, {iterations} PageRank iterations, "
        f"{cpu_count} cores"
    )

    with ShardedExecutor(operator, 1) as single:
        p_single, _, single_seconds = executor_pagerank(single, iterations)
    partitions = {}
    failures: list[str] = []
    for partition in PARTITIONS:
        vector, partitions[partition] = bench_partition(
            operator, partition, iterations
        )
        # Bit-identity is the hard contract — never hardware-dependent.
        if not np.array_equal(p_single, vector):
            failures.append(f"{partition} sharded PageRank diverged bitwise")
    default = partitions["balanced"]

    speedup = single_seconds / default["seconds"]
    auto = bench_auto_policy()
    if auto["auto_shards"] != auto_shard_count(auto["nnz"]):
        failures.append("auto policy ignored the nnz threshold")
    if auto["ratio"] > NO_SLOWDOWN_TOLERANCE:
        failures.append(
            f"auto-policy path {auto['ratio']:.2f}x slower than the plain "
            f"engine (tolerance {NO_SLOWDOWN_TOLERANCE}x)"
        )
    min_speedup = QUICK_MIN_SPEEDUP if quick else FULL_MIN_SPEEDUP
    if hardware_limited:
        print(
            f"note: {cpu_count} core(s) < {N_SHARDS} shards — speedup gate "
            f"disarmed (hardware_limited), recording measured numbers only"
        )
    elif speedup < min_speedup:
        failures.append(
            f"4-shard speedup {speedup:.2f}x below the {min_speedup}x gate"
        )

    result = {
        "benchmark": "sharded_executor",
        "host": bench_header(),
        "graph": {
            "generator": "rmat",
            "n_nodes": nodes,
            "requested_edges": edges,
            "n_rows": operator.n_rows,
            "nnz": operator.nnz,
        },
        "cpu_count": cpu_count,
        "hardware_limited": hardware_limited,
        "backend": default_backend_name(),
        "pagerank": {
            "iterations": iterations,
            "single_shard_seconds": single_seconds,
            "single_shard_iterations_per_second": iterations / single_seconds,
            "sharded_partition": default["partition"],
            "sharded_seconds": default["seconds"],
            "sharded_iterations_per_second": (
                iterations / default["seconds"]
            ),
            "speedup": speedup,
            "speedup_gate": None if hardware_limited else min_speedup,
        },
        "partitions": partitions,
        "auto_policy": auto,
        "bit_identical": not any("bitwise" in f for f in failures),
        "quick": quick,
    }

    print(
        f"single:     {single_seconds:8.3f} s "
        f"({iterations / single_seconds:8.1f} it/s)"
    )
    for name, stats in result["partitions"].items():
        print(
            f"{name:<11} {stats['seconds']:8.3f} s "
            f"({stats['iterations_per_second']:8.1f} it/s)  "
            f"nnz imbalance {stats['nnz_imbalance']:.3f}, "
            f"measured {stats['measured_imbalance']:.3f}"
        )
    print(
        f"speedup: {speedup:5.2f}x with {N_SHARDS} shards   "
        f"auto-policy ratio: {auto['ratio']:.2f}x "
        f"({auto['auto_shards']} shard(s) on {auto['nnz']:,} nnz)"
    )
    return result, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph + regression gates (CI mode)",
    )
    args = parser.parse_args(argv)
    result, failures = run(quick=args.quick)

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_sharded.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
