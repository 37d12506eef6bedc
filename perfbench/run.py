"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pagerank_batch --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that alternates untraced and traced
legs and reports the per-layer metrics and the layer ledger.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full record (host header, git SHA, seed, sample
counts) and, for traced runs, a Chrome trace-event file are written
under ``perfbench/out/``.  The exit status is non-zero on any
correctness mismatch, and on an overloaded ``ppr_stream`` run, whose
result line then leaves out the latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Metrics an overloaded run does not report.
OVERLOAD_DROPS = ("query_p50_ms", "query_p90_ms")


def _import_program():
    """Put the checkout's library on the path and check it is the one
    imported — an installed copy elsewhere must not stand in for it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}")
    for path in (str(HERE), str(ROOT / "benchmarks"), str(src)):
        sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(
            f"error: imported repro from {repro.__file__}, not {src}"
        )


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git
    (``None`` outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _as_json(metrics: dict) -> dict:
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pagerank_batch", "ppr_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from harness import bench_header
    from inputs import make_inputs
    from repro.obs import metrics as obs_metrics
    from spans import Tracer
    from workloads import WORKLOADS

    # End-to-end legs run with the library's own observability off.
    obs_metrics.disable()
    inputs = make_inputs(args.workload, args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    outcome = WORKLOADS[args.workload](inputs, args.seconds, tracer)

    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "host": bench_header(),
        "env": {k: v for k, v in os.environ.items()
                if k.startswith("REPRO_")},
        "inputs": inputs.describe(),
        "samples": outcome.samples,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "mismatches": outcome.mismatches,
        "overloaded": outcome.overloaded,
        "end_to_end": _as_json(outcome.end_to_end),
        "per_layer": _as_json(outcome.per_layer),
        **outcome.record,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if tracer is not None:
        (OUT_DIR / f"{stem}.trace.json").write_text(
            json.dumps(tracer.chrome_trace())
        )

    print(f"{args.workload} seed={args.seed} "
          f"nnz={inputs.graph.nnz} samples={outcome.samples}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'error_rate':28s} {record['error_rate']:14.6g} frac "
          f"({outcome.failed}/{outcome.attempted})")
    if outcome.overloaded:
        # A growing backlog has no steady latency: the latencies are
        # left out of the result line and the run fails.
        print("  OVERLOADED: the in-flight count kept rising; "
              "latencies are not steady-state", file=sys.stderr)
        metrics = {name: value for name, value in metrics.items()
                   if name not in OVERLOAD_DROPS}
    correct = outcome.mismatches == 0
    if not correct:
        print(f"  MISMATCH: {outcome.mismatches} answers differ from "
              "their references", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": _as_json(metrics),
    }))
    return 0 if correct and not outcome.overloaded else 1


if __name__ == "__main__":
    sys.exit(main())
