"""Wall-clock benchmark of the GIL-free multicore path.

Runs a fixed-iteration PageRank power method over a paper-scale R-MAT
graph three ways on the same canonical operator:

* **baseline** — single shard on the numpy backend, the PR-1 engine
  path every prior bench reports;
* **native** — single shard on the ``native`` backend (numba-compiled
  CSR row-split kernel, ``parallel=True`` when the affinity mask
  allows);
* **native+sharded** — 4 row shards on the ``native`` backend through
  the :class:`ShardedExecutor` thread fan-out: JIT kernels compiled
  ``nogil=True`` running on several cores at once.

Bit-identity is the hard contract and is enforced everywhere: every
sharded run must match the single-shard run **on the same
resolved backend** bit for bit (the native and numpy backends are
mutually last-ulp, not bitwise — the differential suite pins that
boundary).  The ≥2x speedup gate (≥1.2x for ``--quick``) arms only
when the host can express it: ``len(sched_getaffinity) >= 4`` *and*
the numba toolchain importable.  Anywhere else the measured numbers
are recorded with ``hardware_limited``/``native_available`` flags so a
1-core or JIT-less runner reports honestly instead of failing.

Results go to ``benchmarks/results/BENCH_native.json``; ``--quick`` is
the CI mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_sharded_executor import executor_pagerank  # noqa: E402
from harness import bench_header  # noqa: E402
from repro.exec.backends import get_backend  # noqa: E402
from repro.exec.native import native_available  # noqa: E402
from repro.exec.sharded import (  # noqa: E402
    ShardedExecutor,
    available_cpu_count,
)
from repro.graphs.rmat import rmat_graph  # noqa: E402
from repro.mining.pagerank import pagerank_operator  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

#: Full run: ~1.86M non-zeros after canonicalisation, 100 iterations.
FULL_NODES, FULL_EDGES, FULL_ITERATIONS = 1 << 17, 2_000_000, 100
#: Quick run (CI gate): seconds, not minutes.
QUICK_NODES, QUICK_EDGES, QUICK_ITERATIONS = 1 << 13, 150_000, 30

N_SHARDS = 4
#: Acceptance target for the full run: JIT kernels on sharded threads
#: must at least double the numpy single-shard baseline on a >=4-core
#: host.
FULL_MIN_SPEEDUP = 2.0
QUICK_MIN_SPEEDUP = 1.2


def bench_config(
    operator, *, n_shards: int, backend: str, iterations: int
) -> tuple[np.ndarray, dict]:
    with ShardedExecutor(operator, n_shards, backend=backend) as ex:
        vector, _, elapsed = executor_pagerank(ex, iterations)
        stats = {
            "backend_requested": backend,
            "backend_resolved": ex.backend,
            "n_shards": ex.n_shards,
            "seconds": elapsed,
            "iterations_per_second": iterations / elapsed,
        }
    return vector, stats


def run(quick: bool) -> tuple[dict, list[str]]:
    if quick:
        nodes, edges, iterations = QUICK_NODES, QUICK_EDGES, QUICK_ITERATIONS
    else:
        nodes, edges, iterations = FULL_NODES, FULL_EDGES, FULL_ITERATIONS

    host = bench_header()
    affinity = available_cpu_count()
    has_native = native_available()
    hardware_limited = affinity < N_SHARDS
    gate_armed = not hardware_limited and has_native

    graph = rmat_graph(nodes, edges, seed=5)
    operator = pagerank_operator(graph)
    print(
        f"R-MAT n={nodes}: {operator.n_rows:,} vertices, "
        f"{operator.nnz:,} non-zeros, {iterations} PageRank iterations, "
        f"affinity={affinity}, native_available={has_native}"
    )

    # The baseline is pinned to numpy (not the registry default, which
    # may be scipy): the ISSUE's 2x claim is against the GIL-bound
    # interpreter path, and on JIT-less hosts "native" resolves to
    # numpy, keeping the fallback comparison below bitwise.
    p_base, baseline = bench_config(
        operator, n_shards=1, backend="numpy", iterations=iterations,
    )
    baseline_seconds = baseline["seconds"]
    p_native, native = bench_config(
        operator, n_shards=1, backend="native", iterations=iterations,
    )
    p_multi, multicore = bench_config(
        operator, n_shards=N_SHARDS, backend="native",
        iterations=iterations,
    )
    # The bitwise reference for the native runs: the single-shard
    # executor on whatever backend "native" resolved to.
    failures: list[str] = []
    if not np.array_equal(p_multi, p_native):
        failures.append(
            "native+sharded PageRank diverged bitwise from the "
            "single-shard native run"
        )
    if get_backend("native").name == "numpy":
        # Fallback host: "native" ran the numpy plans, so everything
        # must also be bitwise against the numpy baseline.
        if not np.array_equal(p_native, p_base):
            failures.append(
                "fallback native run diverged bitwise from the numpy "
                "baseline"
            )
    else:
        np.testing.assert_allclose(
            p_native, p_base, rtol=1e-9, atol=1e-12
        )

    speedup = baseline_seconds / multicore["seconds"]
    min_speedup = QUICK_MIN_SPEEDUP if quick else FULL_MIN_SPEEDUP
    if gate_armed:
        if speedup < min_speedup:
            failures.append(
                f"native+sharded speedup {speedup:.2f}x below the "
                f"{min_speedup}x gate"
            )
    else:
        why = []
        if hardware_limited:
            why.append(f"affinity {affinity} < {N_SHARDS} shards")
        if not has_native:
            why.append("numba toolchain absent")
        print(
            f"note: speedup gate disarmed ({'; '.join(why)}) — "
            f"recording measured numbers only"
        )

    result = {
        "benchmark": "native_backend",
        "host": host,
        "graph": {
            "generator": "rmat",
            "n_nodes": nodes,
            "requested_edges": edges,
            "n_rows": operator.n_rows,
            "nnz": operator.nnz,
        },
        "native_available": has_native,
        "hardware_limited": hardware_limited,
        "gate_armed": gate_armed,
        "pagerank": {
            "iterations": iterations,
            "baseline_numpy_seconds": baseline_seconds,
            "baseline_iterations_per_second": iterations / baseline_seconds,
            "native_single": native,
            "native_sharded": multicore,
            "speedup_vs_baseline": speedup,
            "speedup_gate": min_speedup if gate_armed else None,
        },
        "bit_identical": not any("bitwise" in f for f in failures),
        "quick": quick,
    }

    print(
        f"baseline (numpy, 1 shard):   {baseline_seconds:8.3f} s "
        f"({iterations / baseline_seconds:8.1f} it/s)"
    )
    for label, stats in (
        ("native, 1 shard", native),
        (f"native+sharded, {N_SHARDS} shards", multicore),
    ):
        print(
            f"{label + ':':<29}{stats['seconds']:8.3f} s "
            f"({stats['iterations_per_second']:8.1f} it/s)  "
            f"[resolved {stats['backend_resolved']}]"
        )
    print(f"speedup vs baseline: {speedup:5.2f}x (gate "
          f"{'armed' if gate_armed else 'disarmed'})")
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
    out_path = RESULTS_DIR / "BENCH_native.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
