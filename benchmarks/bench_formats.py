"""Per-scenario leaderboard of the load-balanced format zoo (ISSUE 7).

Three scenarios stress the three failure modes the zoo attacks:

* **rmat** — the paper's power-law workhorse, moderate skew;
* **chung_lu_skewed** — a Chung–Lu graph with a heavy hub head
  (exponent < 2), the degree distribution where CSR row-split load
  imbalance is worst and merge-path's nnz-balanced splits should pay;
* **banded** — near-uniform short rows, where grouped/strip packing
  (RGCSR/CMRS) competes with DIA/ELL.

Every registered format is timed on every available backend with the
tuner's own ``_measure`` (warmup + calibrated median), so the
leaderboard and ``repro tune`` agree on methodology.  Two gates:

* **mpcsr vs csr** on the skewed Chung–Lu scenario must reach the
  ISSUE 7 speedup target on the native backend.  The gate arms only
  where the claim is expressible — ``affinity >= 4`` and numba
  importable; elsewhere the measured numbers are recorded with
  ``hardware_limited`` set, honestly, instead of failing a 1-core or
  JIT-less runner.
* **tuner discovery** — the measured grid must *contain* a zoo format
  on at least one scenario purely via registry predicates/model picks
  (asserted everywhere, it is deterministic), and when the hardware
  gate is armed ``tune`` must also *select* one.

Results go to ``benchmarks/results/BENCH_formats.json``; ``--quick``
is the CI mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import bench_header  # noqa: E402
from repro.errors import FormatNotApplicableError  # noqa: E402
from repro.exec.backends import available_backends  # noqa: E402
from repro.exec.native import native_available  # noqa: E402
from repro.exec.sharded import available_cpu_count  # noqa: E402
from repro.formats.registry import format_names  # noqa: E402
from repro.graphs.chung_lu import chung_lu_graph  # noqa: E402
from repro.graphs.rmat import rmat_graph  # noqa: E402
from repro.graphs.synthetic import banded_matrix  # noqa: E402
from repro.plotting import ascii_table  # noqa: E402
from repro.tuner.tuner import _measure, candidate_grid, tune  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

#: The ISSUE 7 zoo — formats this PR added to the registry.
NEW_FORMATS = ("cmrs", "rgcsr", "mpcsr")

#: Acceptance target: merge-path CSR over plain CSR on the skewed
#: scenario, native backend, >=4 cores (ISSUE 7).
FULL_MIN_SPEEDUP = 1.3
QUICK_MIN_SPEEDUP = 1.1

MIN_AFFINITY = 4


def scenarios(quick: bool) -> list[tuple[str, object]]:
    """(name, matrix) pairs; sizes keep the quick leg in CI seconds."""
    if quick:
        nodes, edges, band_n = 1 << 12, 60_000, 20_000
    else:
        nodes, edges, band_n = 1 << 15, 600_000, 120_000
    return [
        ("rmat", rmat_graph(nodes, edges, seed=7)),
        (
            "chung_lu_skewed",
            # exponent < 2 gives a hub head holding a large nnz share —
            # the worst case for per-row work decomposition.
            chung_lu_graph(nodes, edges, exponent=1.8, seed=7),
        ),
        ("banded", banded_matrix(band_n, 16, 12, seed=7)),
    ]


def leaderboard(
    matrix, backends: list[str], *, warmup: int, repeats: int
) -> list[dict]:
    """Time every registered format on every backend, fastest first."""
    rng = np.random.default_rng(0)
    x = rng.random(matrix.n_cols)
    out = np.empty(matrix.n_rows)
    rows: list[dict] = []
    for fmt in format_names():
        for backend in backends:
            record = {"format": fmt, "backend": backend}
            try:
                record["seconds"] = _measure(
                    matrix, fmt, backend, 1, x, out,
                    warmup=warmup, repeats=repeats,
                )
            except FormatNotApplicableError as exc:
                record["error"] = str(exc)
            rows.append(record)
    rows.sort(key=lambda r: r.get("seconds", float("inf")))
    return rows


def seconds_for(rows: list[dict], fmt: str, backend: str) -> float | None:
    for row in rows:
        if row["format"] == fmt and row["backend"] == backend:
            return row.get("seconds")
    return None


def run(quick: bool) -> tuple[dict, list[str]]:
    host = bench_header()
    affinity = available_cpu_count()
    has_native = native_available()
    hardware_limited = affinity < MIN_AFFINITY
    gate_armed = not hardware_limited and has_native
    min_speedup = QUICK_MIN_SPEEDUP if quick else FULL_MIN_SPEEDUP
    warmup, repeats = (1, 3) if quick else (2, 5)
    backends = list(available_backends())
    # The speedup claim is about the native kernels; the measured
    # comparison below picks the native backend when present and falls
    # back (recorded) to numpy otherwise.
    speedup_backend = "native" if has_native else "numpy"

    failures: list[str] = []
    per_scenario: list[dict] = []
    for name, matrix in scenarios(quick):
        print(
            f"\n=== {name}: {matrix.n_rows:,} rows, "
            f"{matrix.nnz:,} non-zeros ==="
        )
        rows = leaderboard(matrix, backends, warmup=warmup, repeats=repeats)
        table_rows = [
            [
                r["format"],
                r["backend"],
                f"{r['seconds'] * 1e3:.3f}" if "seconds" in r
                else "not applicable",
            ]
            for r in rows
        ]
        print(ascii_table(
            ["format", "backend", "ms/SpMV"], table_rows,
            title=f"{name} leaderboard",
        ))

        grid, grid_meta = candidate_grid(matrix)
        grid_formats = sorted({fmt for fmt, *_ in grid})
        decision = tune(
            matrix, cache=None, warmup=warmup, repeats=repeats
        )
        print(
            f"model kernel: {grid_meta['model_kernel']}  "
            f"grid formats: {grid_formats}"
        )
        print(
            f"tune picked: {decision.format} on {decision.backend} "
            f"({decision.n_shards} shard(s), "
            f"{decision.seconds * 1e3:.3f} ms)"
        )
        per_scenario.append({
            "scenario": name,
            "n_rows": matrix.n_rows,
            "nnz": matrix.nnz,
            "max_row_length": int(matrix.row_lengths().max()),
            "leaderboard": rows,
            "grid_formats": grid_formats,
            "model_kernel": grid_meta["model_kernel"],
            "tune": {
                "format": decision.format,
                "backend": decision.backend,
                "n_shards": decision.n_shards,
                "seconds": decision.seconds,
            },
        })

    # --- gate 1: merge-path vs CSR on the skewed scenario -------------
    skewed = next(
        s for s in per_scenario if s["scenario"] == "chung_lu_skewed"
    )
    csr_s = seconds_for(skewed["leaderboard"], "csr", speedup_backend)
    mp_s = seconds_for(skewed["leaderboard"], "mpcsr", speedup_backend)
    speedup = (csr_s / mp_s) if (csr_s and mp_s) else None
    if gate_armed:
        if speedup is None or speedup < min_speedup:
            failures.append(
                f"mpcsr speedup over csr on chung_lu_skewed "
                f"({speedup if speedup is None else f'{speedup:.2f}x'}) "
                f"below the {min_speedup}x gate"
            )
    else:
        why = []
        if hardware_limited:
            why.append(f"affinity {affinity} < {MIN_AFFINITY}")
        if not has_native:
            why.append("numba toolchain absent")
        print(
            f"\nnote: mpcsr-vs-csr gate disarmed ({'; '.join(why)}) — "
            f"recording measured numbers only"
        )
    if speedup is not None:
        print(
            f"mpcsr vs csr on chung_lu_skewed [{speedup_backend}]: "
            f"{speedup:.2f}x (gate "
            f"{'armed' if gate_armed else 'disarmed'})"
        )

    # --- gate 2: tuner discovery of the zoo ---------------------------
    grid_hits = [
        s["scenario"]
        for s in per_scenario
        if any(f in s["grid_formats"] for f in NEW_FORMATS)
    ]
    tune_hits = [
        s["scenario"]
        for s in per_scenario
        if s["tune"]["format"] in NEW_FORMATS
    ]
    print(f"zoo formats in measured grid on: {grid_hits or 'none'}")
    print(f"zoo formats selected by tune on: {tune_hits or 'none'}")
    if not grid_hits:
        failures.append(
            "no scenario put a zoo format into the tuner's measured "
            "grid — registry predicates/model picks are not flowing"
        )
    if gate_armed and not tune_hits:
        failures.append(
            "tune selected no zoo format on any scenario despite the "
            "hardware gate being armed"
        )

    result = {
        "benchmark": "formats",
        "host": host,
        "native_available": has_native,
        "hardware_limited": hardware_limited,
        "gate_armed": gate_armed,
        "speedup_backend": speedup_backend,
        "mpcsr_vs_csr_chung_lu": speedup,
        "speedup_gate": min_speedup if gate_armed else None,
        "grid_hits": grid_hits,
        "tune_hits": tune_hits,
        "scenarios": per_scenario,
        "quick": quick,
    }
    return result, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small matrices + regression gates (CI mode)",
    )
    args = parser.parse_args(argv)
    result, failures = run(quick=args.quick)

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_formats.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
