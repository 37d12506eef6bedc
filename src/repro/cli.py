"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library's main flows:

``datasets``
    List the registered dataset analogues with their paper statistics.
``spmv``
    Run one (or all) SpMV kernels on a named dataset and print the
    simulated GFLOPS / GB/s profile.
``pagerank``
    Run PageRank on a named dataset with a chosen kernel.
``autotune``
    Tune the tile-composite parameters for a dataset and report the
    chosen tile count / workload sizes and the model's prediction.
``info``
    Structural fingerprint of a dataset (degree skew, power-law fit).
``profile``
    Run the instrumented PageRank/HITS/RWR workload on an R-MAT graph
    with the observability layer enabled and emit the JSON profile
    report (plan-cache and pool hit rates, per-shard seconds,
    per-iteration residual traces).
``tune``
    Measured end-to-end auto-tune of a MatrixMarket file or R-MAT
    graph: prune ``format x backend x shard-count`` candidates with
    the §5 model, time the survivors with short real SpMV runs, print
    the measured table and persist the decision in the tuning cache.
``chaos``
    Arm the fault injector against an R-MAT workload and emit a JSON
    survival report: sharded SpMV under every fault site, a
    pinned-iteration PageRank at a configurable shard-failure rate,
    checkpoint/resume, and a node-failure drill — each must recover
    bit-identically.
``fit``
    Fit a declarative :class:`~repro.graphs.fit.ScenarioSpec` from a
    MatrixMarket file (or a synthetic R-MAT graph), print the fitted
    structure table and optionally write the spec JSON.
``scenarios``
    List the curated scenario corpus, or generate one scenario (or a
    user-supplied spec file) as a seeded MatrixMarket matrix.
``serve``
    Long-lived query service: register a graph (MatrixMarket or R-MAT),
    keep its plans hot and answer PPR/RWR/HITS queries over a
    JSON-lines socket with coalesced batched execution; ``--selftest``
    runs the concurrent bitwise smoke instead of serving.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from repro.errors import FormatNotApplicableError, ReproError
from repro.plotting import ascii_table
from repro.version import __version__

__all__ = ["build_parser", "main"]

_DEFAULT_KERNELS = [
    "cpu-csr", "csr", "csr-vector", "bsk-bdw", "coo", "ell", "hyb",
    "dia", "pkt", "tile-coo", "tile-composite",
]


def _shard_count(value: str):
    """``--shards`` parser: a positive int or the literal ``auto``."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast SpMV on (simulated) GPUs for graph mining — "
        "VLDB 2011 reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the registered datasets")

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("dataset", help="dataset name (see `datasets`)")
        p.add_argument(
            "--scale", type=float, default=None,
            help="down-scale factor (default: the dataset's registry "
            "default)",
        )
        p.add_argument(
            "--seed", type=int, default=7, help="generator seed"
        )

    spmv = sub.add_parser(
        "spmv", help="simulate SpMV kernels on a dataset"
    )
    add_dataset_args(spmv)
    spmv.add_argument(
        "--kernel", action="append", dest="kernels", default=None,
        help="kernel to run (repeatable; default: all)",
    )
    spmv.add_argument(
        "--tuned", action="store_true",
        help="auto-tune the tile-composite kernel",
    )

    pagerank = sub.add_parser(
        "pagerank", help="run PageRank on a dataset"
    )
    add_dataset_args(pagerank)
    pagerank.add_argument("--kernel", default="tile-composite")
    pagerank.add_argument("--damping", type=float, default=0.85)
    pagerank.add_argument("--tol", type=float, default=1e-8)
    pagerank.add_argument(
        "--top", type=int, default=5, help="print the top-k nodes"
    )
    pagerank.add_argument(
        "--shards", type=_shard_count, default=None, metavar="N|auto",
        help="run the power loop on a sharded parallel executor: a "
        "shard count, or 'auto' for the nnz-and-cores policy "
        "(default: single-shard)",
    )

    sub.add_parser(
        "formats",
        help="list registered storage formats and execution backends "
        "(including repro.formats entry-point plugins)",
    )

    autotune = sub.add_parser(
        "autotune", help="tune tile-composite parameters for a dataset"
    )
    add_dataset_args(autotune)

    info = sub.add_parser(
        "info", help="structural fingerprint of a dataset"
    )
    add_dataset_args(info)

    profile = sub.add_parser(
        "profile",
        help="instrumented PageRank/HITS/RWR run emitting a JSON "
        "profile report",
    )
    profile.add_argument(
        "--quick", action="store_true",
        help="CI-sized graph and iteration budget",
    )
    profile.add_argument(
        "--nodes", type=int, default=4096, help="R-MAT vertex count"
    )
    profile.add_argument(
        "--edges", type=int, default=65536, help="R-MAT edge draws"
    )
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument(
        "--shards", type=_shard_count, default=2, metavar="N|auto",
        help="shard count for the PageRank leg (default: 2)",
    )
    profile.add_argument("--tol", type=float, default=1e-8)
    profile.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON report here (default: print to stdout)",
    )

    tune_p = sub.add_parser(
        "tune",
        help="measured auto-tune: pick format x backend x shard count "
        "for a matrix and persist the decision",
    )
    _add_matrix_args(tune_p, "tune")
    tune_p.add_argument(
        "--quick", action="store_true",
        help="reduced warmup/repeat measurement budget (CI)",
    )
    tune_p.add_argument(
        "--force", action="store_true",
        help="re-measure even when a cached decision exists",
    )
    tune_p.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON tuning report here",
    )

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection survival drill emitting a JSON report",
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="smoke-test-sized graph and iteration budget",
    )
    chaos.add_argument(
        "--nodes", type=int, default=1024, help="R-MAT vertex count"
    )
    chaos.add_argument(
        "--edges", type=int, default=8192, help="R-MAT edge draws"
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--iterations", type=int, default=100,
        help="pinned PageRank iteration count for the acceptance "
        "scenario (default: 100)",
    )
    chaos.add_argument(
        "--failure-rate", type=float, default=0.2,
        help="per-attempt shard failure probability (default: 0.2)",
    )
    chaos.add_argument(
        "--shards", type=int, default=4,
        help="shard count for the sharded scenarios (default: 4)",
    )
    chaos.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON report here (default: print to stdout)",
    )

    fit_p = sub.add_parser(
        "fit",
        help="fit a declarative scenario spec from a matrix and "
        "optionally write it as JSON",
    )
    _add_matrix_args(fit_p, "fit")
    fit_p.add_argument(
        "--name", default=None, help="spec name (default: file stem)"
    )
    fit_p.add_argument(
        "--out", default=None, metavar="SPEC.json",
        help="write the fitted spec JSON here",
    )

    scen = sub.add_parser(
        "scenarios",
        help="list the scenario corpus or generate one scenario",
    )
    scen.add_argument(
        "--generate", default=None, metavar="NAME",
        help="generate this corpus scenario instead of listing",
    )
    scen.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help="generate from a spec JSON file instead of a corpus name",
    )
    scen.add_argument(
        "--scale", type=float, default=1.0,
        help="size multiplier for generation (default: 1.0)",
    )
    scen.add_argument("--seed", type=int, default=0)
    scen.add_argument(
        "--out", default=None, metavar="MATRIX.mtx",
        help="write the generated matrix here (MatrixMarket)",
    )

    update = sub.add_parser(
        "update",
        help="stream seeded edge updates through a dynamic matrix, "
        "timing overlay queries against full rebuilds and verifying "
        "every batch bitwise",
    )
    _add_matrix_args(
        update, "evolve",
        seed_help="seed for the graph and the update stream",
    )
    update.add_argument(
        "--format", dest="fmt", default="csr",
        help="storage format of the evolving matrix (default: csr)",
    )
    update.add_argument(
        "--backend", default=None,
        help="execution backend (default: best available)",
    )
    update.add_argument(
        "--ops", type=int, default=4096,
        help="total update operations in the stream (default: 4096)",
    )
    update.add_argument(
        "--batches", type=int, default=8,
        help="number of apply_updates batches (default: 8)",
    )
    update.add_argument(
        "--nnz-delta", type=float, default=0.25,
        help="compaction threshold: pending ops as a fraction of base "
        "nnz (float) or an absolute count (int); default 0.25",
    )
    update.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON report here",
    )

    serve = sub.add_parser(
        "serve",
        help="serve PPR/RWR/HITS queries over a JSON-lines socket with "
        "coalesced batched execution (--selftest for the CI smoke)",
    )
    serve.add_argument(
        "matrix", nargs="?", default=None, metavar="MATRIX.mtx",
        help="MatrixMarket file to serve (default: a seeded R-MAT "
        "graph)",
    )
    serve.add_argument(
        "--selftest", action="store_true",
        help="fire concurrent mixed queries at an in-process service, "
        "verify every reply bitwise against solo execution, print the "
        "SLA report and exit non-zero on any mismatch",
    )
    serve.add_argument(
        "--clients", type=int, default=32,
        help="concurrent queries for --selftest (default: 32)",
    )
    serve.add_argument(
        "--nodes", type=int, default=1024, help="R-MAT vertex count"
    )
    serve.add_argument(
        "--edges", type=int, default=8192, help="R-MAT edge draws"
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--name", default=None,
        help="graph name to register (default: file stem or 'rmat')",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7077,
        help="listening port (0 picks a free one; default: 7077)",
    )
    serve.add_argument(
        "--window-ms", type=float, default=2.0,
        help="coalescing window in milliseconds (default: 2)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8,
        help="maximum coalesced batch width (default: 8)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission-control in-flight budget (default: 64)",
    )
    serve.add_argument(
        "--max-warm", type=int, default=4,
        help="maximum graphs with live engines (default: 4)",
    )
    serve.add_argument(
        "--shards", type=_shard_count, default=None, metavar="N|auto",
        help="serve through a sharded executor (default: cached plan)",
    )
    serve.add_argument(
        "--tune", action="store_true",
        help="let the measured auto-tuner pick the execution engine",
    )
    serve.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the selftest JSON report here",
    )
    return parser


def _load(args):
    from repro.graphs import datasets

    ds = datasets.load(args.dataset, scale=args.scale, seed=args.seed)
    device = datasets.matched_device(ds)
    return ds, device


def _cmd_datasets(_args) -> int:
    from repro.graphs import datasets

    rows = []
    for name in datasets.list_datasets():
        ds_small = datasets.load(name, scale=1000)
        rows.append([
            name, ds_small.kind, ds_small.power_law,
            f"{ds_small.paper_shape[0]:,}",
            f"{ds_small.paper_shape[2]:,}",
        ])
    print(ascii_table(
        ["name", "kind", "power-law", "paper rows", "paper nnz"],
        rows, title="Registered dataset analogues",
    ))
    return 0


def _cmd_spmv(args) -> int:
    ds, device = _load(args)
    kernels_to_run = args.kernels or _DEFAULT_KERNELS
    from repro import kernels as kernel_mod

    rows = []
    for name in kernels_to_run:
        options = {}
        if name == "tile-composite" and args.tuned:
            options["tuned"] = True
        try:
            kernel = kernel_mod.create(
                name, ds.matrix, device=device, **options
            )
        except FormatNotApplicableError as exc:
            rows.append([name, "-", "-", "-", f"n/a: {exc}"[:46]])
            continue
        cost = kernel.cost()
        rows.append([
            name, cost.gflops, cost.bandwidth_gbs,
            cost.time_seconds * 1e3, "ok",
        ])
    print(ascii_table(
        ["kernel", "GFLOPS", "GB/s", "time (ms)", "status"],
        rows,
        title=f"SpMV on {ds.name} (shape {ds.matrix.shape}, "
        f"nnz {ds.nnz:,}) — simulated {device.name}",
        precision=3,
    ))
    return 0


def _cmd_pagerank(args) -> int:
    from repro.mining import pagerank

    ds, device = _load(args)
    result = pagerank(
        ds.matrix, kernel=args.kernel, device=device,
        damping=args.damping, tol=args.tol, n_shards=args.shards,
    )
    # Priced before any output: an inapplicable kernel fails here.
    cost = (f"simulated total time {result.seconds * 1e3:.3f} ms "
            f"({result.gflops:.2f} GFLOPS per iteration)")
    print(f"PageRank on {ds.name} with {result.kernel_name}: "
          f"{result.iterations} iterations, converged={result.converged}")
    shards_used = result.extra.get("n_shards", 1)
    if shards_used != 1:
        print(f"sharded executor: {shards_used} row shards")
    print(cost)
    top = np.argsort(result.vector)[::-1][: args.top]
    rows = [[int(node), result.vector[node]] for node in top]
    print(ascii_table(["node", "rank"], rows, precision=6))
    return 0


def _cmd_autotune(args) -> int:
    from repro.core.autotune import autotune

    ds, device = _load(args)
    result = autotune(ds.matrix, device)
    print(f"Auto-tuned tile-composite for {ds.name}:")
    print(f"  tiles: {result.n_tiles} "
          f"(tile width {device.tile_width_columns} columns)")
    shown = ", ".join(str(s) for s in result.workload_sizes[:10])
    suffix = ", ..." if len(result.workload_sizes) > 10 else ""
    print(f"  workload sizes: [{shown}{suffix}]")
    print(f"  remainder workload size: {result.remainder_workload_size}")
    print(f"  predicted SpMV time: "
          f"{result.predicted_seconds * 1e6:.1f} us")
    return 0


def _cmd_info(args) -> int:
    from repro.graphs import stats

    ds, _device = _load(args)
    summary = stats.summarize(ds.matrix)
    rows = [
        ["rows x cols", f"{summary.n_rows:,} x {summary.n_cols:,}"],
        ["non-zeros", f"{summary.nnz:,}"],
        ["mean row length", summary.mean_row_length],
        ["max row length", summary.max_row_length],
        ["mean column length", summary.mean_col_length],
        ["max column length", summary.max_col_length],
        ["column-length Gini", summary.col_gini],
        ["top-10% column share", summary.col_top10_share],
        ["column power-law exponent", summary.col_exponent],
        ["power-law verdict", summary.power_law],
    ]
    print(ascii_table(["property", "value"], rows,
                      title=f"{ds.name} (scale {ds.scale:g})"))
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import run_profile

    report = run_profile(
        n_nodes=args.nodes,
        n_edges=args.edges,
        seed=args.seed,
        shards=args.shards,
        tol=args.tol,
        quick=args.quick,
    )
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    derived = report["derived"]

    def _pct(rate):
        return "n/a" if rate is None else f"{100 * rate:.1f}%"

    rows = [
        ["plan-cache hit rate", _pct(derived["plan_cache_hit_rate"])],
        ["pool hit rate", _pct(derived["pool_hit_rate"])],
        ["pool bytes allocated", f"{derived['pool_bytes_allocated']:,.0f}"],
        ["shard imbalance (max/mean)",
         "n/a" if derived["shard_imbalance"] is None
         else f"{derived['shard_imbalance']:.2f}"],
    ]
    for key, seconds in derived["per_shard_seconds"].items():
        rows.append([
            key,
            f"{seconds['mean'] * 1e3:.3f} ms "
            f"(p50 {seconds['p50'] * 1e3:.3f} / "
            f"p99 {seconds['p99'] * 1e3:.3f})",
        ])
    for name, section in report["algorithms"].items():
        rows.append([
            f"{name} iterations",
            f"{section['iterations']} "
            f"(converged={section['converged']})",
        ])
    config = report["config"]
    print(ascii_table(
        ["metric", "value"], rows,
        title=f"repro profile — R-MAT {config['n_nodes']:,} nodes, "
        f"{config['nnz']:,} nnz",
    ))
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(payload)
    return 0


def _cmd_formats(_args) -> int:
    from repro.exec.backends import _BACKENDS, available_backends
    from repro.exec.native import native_available
    from repro.formats.registry import entry_point_errors, specs

    rows = []
    for spec in specs():
        rows.append([
            spec.name,
            spec.cls.__name__,
            spec.source,
            "yes" if spec.bitwise else "last-ulp",
            spec.model_kernel or "-",
            "dedicated" if spec.native_plan is not None else "seg-reduce",
            spec.description,
        ])
    print(ascii_table(
        ["format", "class", "source", "bitwise", "model kernel",
         "native plan", "description"],
        rows,
        title="Registered storage formats (repro.formats.registry)",
    ))
    available = set(available_backends())
    backend_rows = [
        [name, "available" if name in available else "unavailable"]
        for name in _BACKENDS
    ]
    print(ascii_table(
        ["backend", "status"], backend_rows,
        title="Execution backends (repro.exec.backends)",
    ))
    if not native_available():
        print("note: native backend needs numba "
              "(pip install 'repro[native]')")
    errors = entry_point_errors()
    for err in errors:
        print(f"plugin error: {err['entry_point']}: {err['error']}")
    return 0


def _add_matrix_args(
    parser: argparse.ArgumentParser, verb: str, seed_help: str | None = None
) -> None:
    """Declare the matrix source that :func:`_load_matrix` reads:
    ``MATRIX.mtx`` or ``--rmat`` with ``--nodes``/``--edges``/``--seed``."""
    parser.add_argument(
        "matrix", nargs="?", default=None, metavar="MATRIX.mtx",
        help=f"MatrixMarket file to {verb} (or use --rmat)",
    )
    parser.add_argument(
        "--rmat", action="store_true",
        help=f"{verb} a synthetic R-MAT graph instead of a file",
    )
    parser.add_argument(
        "--nodes", type=int, default=4096, help="R-MAT vertex count"
    )
    parser.add_argument(
        "--edges", type=int, default=65536, help="R-MAT edge draws"
    )
    parser.add_argument("--seed", type=int, default=7, help=seed_help)


def _load_matrix(args):
    """The input of ``tune``/``update``/``fit``: exactly one of
    ``MATRIX.mtx`` or ``--rmat``; returns ``(matrix, source label)``."""
    from repro.errors import ValidationError

    if args.rmat == (args.matrix is not None):
        raise ValidationError(
            "pass exactly one input: a MatrixMarket path or --rmat"
        )
    if args.rmat:
        from repro.graphs.rmat import rmat_graph

        matrix = rmat_graph(args.nodes, args.edges, seed=args.seed)
        return matrix, (
            f"rmat(nodes={args.nodes}, edges={args.edges}, seed={args.seed})"
        )
    from repro.io.matrix_market import read_matrix_market

    try:
        return read_matrix_market(args.matrix), args.matrix
    except OSError as exc:
        raise ValidationError(f"cannot read {args.matrix!r}: {exc}") from exc


def _cmd_tune(args) -> int:
    from repro.tuner import resolve_cache_path, tune

    matrix, source = _load_matrix(args)
    budget = {"repeats": 2, "warmup": 1} if args.quick else {}
    decision = tune(matrix, force=args.force, **budget)
    rows = []
    for cand in decision.candidates:
        chosen = (
            cand.get("format") == decision.format
            and cand.get("backend") == decision.backend
            and cand.get("n_shards") == decision.n_shards
            and "seconds" in cand
        )
        rows.append([
            cand.get("format", "-"),
            cand.get("backend", "-"),
            cand.get("n_shards", "-"),
            cand["seconds"] * 1e6 if "seconds" in cand
            else f"skipped: {cand.get('error', '?')}"[:40],
            "<== chosen" if chosen else "",
        ])
    print(ascii_table(
        ["format", "backend", "shards", "median spmv (us)", ""],
        rows,
        title=f"Measured auto-tune of {source} "
        f"(shape {matrix.shape}, nnz {matrix.nnz:,})",
        precision=2,
    ))
    cache_path = resolve_cache_path()
    print(f"decision: format={decision.format} backend={decision.backend} "
          f"n_shards={decision.n_shards} "
          f"({decision.seconds * 1e6:.2f} us median)")
    print(f"model seed: {decision.model_kernel or 'bypassed'}")
    print("source: cache hit" if decision.from_cache
          else "source: measured")
    print(f"cache: {cache_path or 'disabled'}")
    if args.out:
        report = {
            "source": source,
            "shape": list(matrix.shape),
            "nnz": matrix.nnz,
            "decision": decision.to_dict(),
            "from_cache": decision.from_cache,
            "cache_path": str(cache_path) if cache_path else None,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.out}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.resilience.chaos import run_chaos

    report = run_chaos(
        n_nodes=args.nodes,
        n_edges=args.edges,
        seed=args.seed,
        iterations=args.iterations,
        failure_rate=args.failure_rate,
        n_shards=args.shards,
        quick=args.quick,
    )
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    rows = []
    for scenario in report["scenarios"]:
        metrics = scenario.get("metrics", {})
        rows.append([
            scenario["name"],
            "survived" if scenario["survived"] else "FAILED",
            metrics.get("injected", scenario.get("injected", 0)),
            metrics.get("retries", 0),
            metrics.get("degraded", 0),
        ])
    config = report["config"]
    print(ascii_table(
        ["scenario", "verdict", "injected", "retries", "degraded"],
        rows,
        title=f"repro chaos — R-MAT {config['n_nodes']:,} nodes, "
        f"{config['nnz']:,} nnz, failure rate "
        f"{config['failure_rate']:g}",
    ))
    summary = report["summary"]
    print(f"{summary['survived']}/{summary['scenarios']} scenarios "
          "survived")
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(payload)
    return 0 if summary["all_survived"] else 1


def _spec_rows(spec):
    """Table rows for one ScenarioSpec (shared by fit/scenarios)."""
    def _opt(value):
        return "-" if value is None else value

    return [
        ["shape", f"{spec.n_rows:,} x {spec.n_cols:,}"],
        ["nnz", f"{spec.nnz:,}"],
        ["density", spec.density],
        ["row exponent", _opt(spec.row_exponent)],
        ["col exponent", _opt(spec.col_exponent)],
        ["bandedness", spec.bandedness],
        ["half bandwidth", spec.half_bandwidth],
        ["components", spec.n_components],
        ["symmetry", spec.symmetry],
        ["empty-row fraction", spec.empty_row_fraction],
        ["hub row share", spec.hub_row_share],
        ["hub col share", spec.hub_col_share],
        ["row Gini", _opt(spec.row_gini)],
        ["col Gini", _opt(spec.col_gini)],
        ["tags", ", ".join(spec.tags) or "-"],
    ]


def _cmd_fit(args) -> int:
    from repro.graphs.fit import fit, spec_name

    matrix, source = _load_matrix(args)
    spec = fit(
        matrix, name=args.name or ("rmat" if args.rmat else spec_name(source))
    )
    # Write the artifact before printing: a closed stdout pipe must
    # not lose the spec.
    if args.out:
        spec.to_json(args.out)
    print(ascii_table(
        ["property", "value"], _spec_rows(spec),
        title=f"Fitted scenario spec of {source}", precision=4,
    ))
    if args.out:
        print(f"spec written to {args.out}")
    return 0


def _cmd_scenarios(args) -> int:
    from repro.errors import ValidationError
    from repro.graphs import scenarios
    from repro.graphs.fit import ScenarioSpec, generate

    if args.generate and args.spec:
        raise ValidationError(
            "pass --generate NAME or --spec FILE, not both"
        )
    if args.generate or args.spec:
        if args.spec:
            spec = ScenarioSpec.from_json(args.spec)
        else:
            spec = scenarios.get_scenario(args.generate)
        matrix = generate(spec, scale=args.scale, seed=args.seed)
        print(f"generated {spec.name!r} at scale {args.scale:g} "
              f"(seed {args.seed}): shape {matrix.shape}, "
              f"nnz {matrix.nnz:,}")
        if args.out:
            from repro.io.matrix_market import write_matrix_market

            write_matrix_market(matrix, args.out)
            print(f"matrix written to {args.out}")
        return 0
    rows = []
    for spec in scenarios.corpus():
        structure = []
        if spec.row_exponent or spec.col_exponent:
            exponent = spec.row_exponent or spec.col_exponent
            structure.append(f"powerlaw γ={exponent:g}")
        if spec.bandedness:
            structure.append(f"band hb={spec.half_bandwidth}")
        if spec.n_components > 1:
            structure.append(f"{spec.n_components} blocks")
        if spec.symmetry:
            structure.append(f"sym {spec.symmetry:g}")
        if spec.empty_row_fraction:
            structure.append(f"{spec.empty_row_fraction:.0%} empty rows")
        if spec.hub_row_share or spec.hub_col_share:
            share = max(spec.hub_row_share, spec.hub_col_share)
            structure.append(f"hub {share:g}")
        rows.append([
            spec.name,
            f"{spec.n_rows} x {spec.n_cols}",
            f"{spec.nnz:,}",
            "yes" if spec.adversarial else "",
            "; ".join(structure) or "uniform",
        ])
    print(ascii_table(
        ["scenario", "shape", "nnz", "adversarial", "structure"],
        rows,
        title=f"Scenario corpus ({len(rows)} scenarios, "
        f"{len(scenarios.adversarial_names())} adversarial)",
    ))
    return 0


def _cmd_update(args) -> int:
    import time

    from repro.errors import ValidationError
    from repro.formats.registry import get_format
    from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream

    if args.batches < 1:
        raise ValidationError("--batches must be at least 1")
    if args.ops < args.batches:
        raise ValidationError("--ops must be at least --batches")
    matrix, source = _load_matrix(args)
    spec = get_format(args.fmt)
    dyn = DynamicMatrix(
        spec.build(matrix.to_coo()), nnz_delta=args.nnz_delta
    )
    stream = seeded_update_stream(dyn, args.ops, seed=args.seed)
    bounds = np.linspace(0, len(stream), args.batches + 1).astype(int)
    x = np.random.default_rng(args.seed).random(dyn.n_cols)
    out = np.empty(dyn.n_rows)
    rows = []
    batch_reports = []
    all_bitwise = True
    for index in range(args.batches):
        batch = stream[bounds[index]:bounds[index + 1]]
        t0 = time.perf_counter()
        dyn.apply_updates(batch)
        t_apply = time.perf_counter() - t0
        t0 = time.perf_counter()
        dyn.spmv_plan(args.backend).execute(x, out=out)
        t_query = time.perf_counter() - t0
        # Reference: the same format rebuilt from scratch at this
        # version, queried through the same backend.
        t0 = time.perf_counter()
        rebuilt = spec.build(dyn.to_coo())
        reference = rebuilt.spmv_plan(args.backend).execute(x)
        t_rebuild = time.perf_counter() - t0
        bitwise = bool(np.array_equal(out, reference))
        all_bitwise &= bitwise
        rows.append([
            index, len(batch), dyn.nnz, dyn.overlay_nnz,
            t_apply * 1e3, t_query * 1e3, t_rebuild * 1e3,
            "bitwise" if bitwise else "MISMATCH",
        ])
        batch_reports.append({
            "batch": index,
            "ops": len(batch),
            "nnz": dyn.nnz,
            "overlay_nnz": dyn.overlay_nnz,
            "apply_seconds": t_apply,
            "query_seconds": t_query,
            "rebuild_seconds": t_rebuild,
            "bitwise": bitwise,
        })
    dyn.compact()
    final = bool(np.array_equal(
        dyn.spmv_plan(args.backend).execute(x),
        spec.build(dyn.to_coo()).spmv_plan(args.backend).execute(x),
    ))
    all_bitwise &= final
    print(ascii_table(
        ["batch", "ops", "nnz", "overlay", "apply (ms)", "query (ms)",
         "rebuild+query (ms)", "verdict"],
        rows,
        title=f"repro update — {source} as {args.fmt}, "
        f"{args.ops:,} ops in {args.batches} batches",
        precision=3,
    ))
    stats = dict(dyn.stats)
    print(
        f"compactions: {stats['compactions']} "
        f"(repairs {stats['repairs']}, rebuilds {stats['rebuilds']}); "
        f"final compacted query "
        f"{'bitwise' if final else 'MISMATCH'} vs rebuild"
    )
    if args.out:
        report = {
            "source": source,
            "format": args.fmt,
            "backend": args.backend,
            "shape": list(dyn.shape),
            "ops": args.ops,
            "nnz_delta": args.nnz_delta,
            "batches": batch_reports,
            "stats": stats,
            "all_bitwise": all_bitwise,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.out}")
    if not all_bitwise:
        print("error: updated matrix diverged from full rebuild",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.errors import ValidationError
    from repro.serve import QueryService, run_selftest, serve_tcp

    if args.selftest:
        if args.matrix is not None:
            raise ValidationError(
                "--selftest runs on its own seeded R-MAT graph; do not "
                "also pass a matrix file"
            )
        report = run_selftest(
            clients=args.clients,
            n_nodes=args.nodes,
            nnz=args.edges,
            graph_seed=args.seed,
            window_seconds=args.window_ms / 1e3,
            max_batch=args.max_batch,
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
        sla = report["sla"]
        rows = [
            ["clients", report["clients"]],
            ["bitwise checked", report["bitwise_checked"]],
            ["bitwise mismatches", len(report["bitwise_mismatches"])],
            ["coalesced queries", report["coalesced_queries"]],
            ["max batch width", report["max_batch_width"]],
            ["statuses", ", ".join(report["statuses"])],
            ["rejected", sla["rejected"]],
        ]
        for label, stats in sla["latency_seconds"].items():
            rows.append([
                label,
                f"p50 {stats['p50'] * 1e3:.2f} ms / "
                f"p99 {stats['p99'] * 1e3:.2f} ms",
            ])
        print(ascii_table(
            ["metric", "value"], rows,
            title=f"repro serve --selftest — R-MAT {args.nodes:,} "
            f"nodes, {args.clients} concurrent clients",
        ))
        verdict = "ok" if report["ok"] else "FAILED"
        print(f"selftest {verdict}: every reply checked bitwise "
              "against its solo run")
        if args.out:
            print(f"report written to {args.out}")
        return 0 if report["ok"] else 1

    if args.matrix is not None:
        from repro.io.matrix_market import read_matrix_market

        try:
            matrix = read_matrix_market(args.matrix)
        except OSError as exc:
            raise ValidationError(
                f"cannot read {args.matrix!r}: {exc}"
            ) from exc
        import os

        name = args.name or os.path.splitext(
            os.path.basename(args.matrix)
        )[0]
    else:
        from repro.graphs.rmat import rmat_graph

        matrix = rmat_graph(args.nodes, args.edges, seed=args.seed)
        name = args.name or "rmat"
    from repro.obs import metrics as obs_metrics

    obs_metrics.enable()  # the stats op should report real SLA numbers
    service = QueryService(
        window_seconds=args.window_ms / 1e3,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        max_warm=args.max_warm,
    )
    service.register(name, matrix, n_shards=args.shards, tune=args.tune)

    async def main_loop():
        server = await serve_tcp(service, host=args.host, port=args.port)
        bound = server.sockets[0].getsockname()
        print(f"serving graph {name!r} (shape {matrix.shape}, "
              f"nnz {matrix.nnz:,}) on {bound[0]}:{bound[1]}")
        print('protocol: one JSON object per line, e.g. '
              '{"graph": "%s", "algorithm": "ppr", "seed": 0}' % name)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main_loop())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        service.close()
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "formats": _cmd_formats,
    "spmv": _cmd_spmv,
    "pagerank": _cmd_pagerank,
    "autotune": _cmd_autotune,
    "info": _cmd_info,
    "profile": _cmd_profile,
    "tune": _cmd_tune,
    "chaos": _cmd_chaos,
    "fit": _cmd_fit,
    "scenarios": _cmd_scenarios,
    "update": _cmd_update,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
