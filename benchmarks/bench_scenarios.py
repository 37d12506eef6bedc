"""Per-scenario format win/loss leaderboard over the scenario corpus.

Every scenario in :mod:`repro.graphs.scenarios` — the base families
plus the adversarial structure tail — is generated at a fixed seed and
timed across every registered format on every available backend with
the tuner's own ``_measure`` (same methodology as ``repro tune`` and
``bench_formats``).  Per scenario the fastest (format, backend) cell
wins; the aggregate win/loss table is the corpus-wide record future
format PRs must not regress.

Before any timing, every (scenario, format) cell is correctness-checked
against the COO reference — bitwise for formats whose plans share the
canonical reduction, last-ulp otherwise.  Gates (exit non-zero):

* **zero casualties** — no cell may produce wrong numbers;
* **csr coverage** — the baseline format must measure on every
  scenario (a casualty there means the harness itself broke);
* **corpus floor** — >= 12 scenarios, >= 6 adversarial.

Results go to ``benchmarks/results/BENCH_scenarios.json`` with the
environment header; ``--quick`` is the CI mode (smaller scale).
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
from repro.formats.convert import to_format  # noqa: E402
from repro.formats.registry import format_names, specs  # noqa: E402
from repro.graphs import scenarios as corpus_mod  # noqa: E402
from repro.plotting import ascii_table  # noqa: E402
from repro.tuner.fingerprint import matrix_fingerprint  # noqa: E402
from repro.tuner.tuner import _measure  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

SEED = 29
QUICK_SCALE = 0.5
FULL_SCALE = 2.0

BITWISE_FORMATS = {spec.name for spec in specs() if spec.bitwise}


def check_cell(matrix, fmt: str, backend: str, x, ref) -> str | None:
    """Correctness check for one cell; returns an error string or None."""
    try:
        built = to_format(matrix, fmt)
    except FormatNotApplicableError:
        return None  # recorded as not-applicable, not a casualty
    out = built.spmv_plan(backend).execute(x)
    if backend in ("scipy", "native") or fmt in BITWISE_FORMATS:
        if not np.array_equal(out, ref):
            return f"{fmt}/{backend}: bitwise mismatch vs COO reference"
    elif not np.allclose(out, ref, rtol=1e-12, atol=1e-13):
        return f"{fmt}/{backend}: drifted beyond last-ulp tolerance"
    return None


def sweep_scenario(
    spec, scale: float, backends: list[str], *, warmup: int, repeats: int
) -> tuple[dict, list[str]]:
    """Leaderboard + casualty list for one scenario."""
    matrix = corpus_mod.generate_scenario(spec.name, scale=scale, seed=SEED)
    rng = np.random.default_rng(1)
    x = rng.random(matrix.n_cols)
    out = np.empty(matrix.n_rows)
    casualties: list[str] = []
    rows: list[dict] = []
    for fmt in format_names():
        for backend in backends:
            ref = matrix.spmv_plan(backend).execute(x)
            error = check_cell(matrix, fmt, backend, x, ref)
            if error is not None:
                casualties.append(f"{spec.name}: {error}")
                continue
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
    winner = rows[0] if rows and "seconds" in rows[0] else None
    return {
        "scenario": spec.name,
        "adversarial": spec.adversarial,
        "tags": list(spec.tags),
        "shape": [matrix.n_rows, matrix.n_cols],
        "nnz": matrix.nnz,
        "fingerprint": matrix_fingerprint(matrix),
        "leaderboard": rows,
        "winner": winner,
    }, casualties


def run(quick: bool) -> tuple[dict, list[str]]:
    host = bench_header()
    scale = QUICK_SCALE if quick else FULL_SCALE
    warmup, repeats = (1, 3) if quick else (2, 5)
    backends = list(available_backends())
    corpus = corpus_mod.corpus()

    failures: list[str] = []
    casualties: list[str] = []
    per_scenario: list[dict] = []
    wins: dict[str, int] = {fmt: 0 for fmt in format_names()}
    measured: dict[str, int] = {fmt: 0 for fmt in format_names()}

    for spec in corpus:
        result, dead = sweep_scenario(
            spec, scale, backends, warmup=warmup, repeats=repeats
        )
        casualties.extend(dead)
        per_scenario.append(result)
        for row in result["leaderboard"]:
            if "seconds" in row:
                measured[row["format"]] += 1
        if result["winner"]:
            wins[result["winner"]["format"]] += 1
        winner = result["winner"]
        print(
            f"{spec.name:26s} {result['shape'][0]:>6,} x "
            f"{result['shape'][1]:<6,} nnz {result['nnz']:>8,}  "
            + (
                f"winner {winner['format']}/{winner['backend']} "
                f"({winner['seconds'] * 1e6:.1f} us)"
                if winner
                else "no measurable cell"
            )
        )

    # Win/loss aggregate: scenarios won vs scenarios measured-but-lost.
    table = [
        [fmt, wins[fmt], max(0, measured[fmt] // max(1, len(backends)) - wins[fmt])]
        for fmt in sorted(wins, key=lambda f: -wins[f])
    ]
    print(ascii_table(
        ["format", "wins", "losses"], table,
        title=f"Corpus win/loss over {len(corpus)} scenarios "
        f"({len(corpus_mod.adversarial_names())} adversarial)",
    ))

    # --- gates ---------------------------------------------------------
    if casualties:
        failures.append(
            f"{len(casualties)} correctness casualt"
            f"{'y' if len(casualties) == 1 else 'ies'}: "
            + "; ".join(casualties[:5])
        )
    csr_missing = [
        s["scenario"]
        for s in per_scenario
        if not any(
            r["format"] == "csr" and "seconds" in r
            for r in s["leaderboard"]
        )
    ]
    if csr_missing:
        failures.append(f"csr baseline unmeasured on: {csr_missing}")
    if len(corpus) < 12 or len(corpus_mod.adversarial_names()) < 6:
        failures.append(
            f"corpus floor violated: {len(corpus)} scenarios, "
            f"{len(corpus_mod.adversarial_names())} adversarial"
        )

    result = {
        "benchmark": "scenarios",
        "host": host,
        "quick": quick,
        "scale": scale,
        "seed": SEED,
        "n_scenarios": len(corpus),
        "n_adversarial": len(corpus_mod.adversarial_names()),
        "casualties": casualties,
        "wins": {f: w for f, w in wins.items() if w},
        "scenarios": per_scenario,
    }
    return result, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale + regression gates (CI mode)",
    )
    args = parser.parse_args(argv)
    result, failures = run(quick=args.quick)

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_scenarios.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
