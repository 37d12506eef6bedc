"""Tests of the benchmark itself: seeded inputs, span wrappers, the
layer ledger and failure accounting.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from inputs import Shape, make_inputs  # noqa: E402
from spans import TARGETS, Span, Tracer, ledger  # noqa: E402
import workloads  # noqa: E402

TINY = Shape(nodes=256, edges=3000, rate=40.0, update_period=0.1,
             update_ops=16, compact_ops=48)


def _originals():
    found = {}
    for module, path, _name, _layer in TARGETS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        found[(module, path)] = (owner, attr, vars(owner)[attr])
    return found


def _same_inputs(a, b) -> bool:
    return (
        np.array_equal(a.graph.rows, b.graph.rows)
        and np.array_equal(a.graph.cols, b.graph.cols)
        and np.array_equal(a.graph.data, b.graph.data)
        and np.array_equal(a.query_seeds, b.query_seeds)
        and np.array_equal(a.arrivals, b.arrivals)
        and np.array_equal(a.update_times, b.update_times)
        and a.update_batches == b.update_batches
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_every_input(workload):
    first = make_inputs(workload, 3, 1.0, TINY)
    again = make_inputs(workload, 3, 1.0, TINY)
    other = make_inputs(workload, 4, 1.0, TINY)
    assert _same_inputs(first, again)
    assert not np.array_equal(first.graph.rows, other.graph.rows)
    if workload != "pagerank_batch":
        assert not np.array_equal(first.query_seeds, other.query_seeds)
    if workload == "ppr_stream":
        assert first.update_batches
        assert not np.array_equal(first.arrivals, other.arrivals)
        assert first.update_batches != other.update_batches


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_restores_wrappers_and_ledger_sums(workload):
    before = _originals()
    inputs = make_inputs(workload, 5, 0.6, TINY)
    tracer = Tracer()
    outcome = workloads.WORKLOADS[workload](inputs, 0.6, tracer)
    for owner, attr, original in before.values():
        assert vars(owner)[attr] is original
    assert not tracer.active
    assert tracer.spans and tracer.windows
    assert outcome.mismatches == 0 and outcome.failed == 0

    layers = {
        name: value for name, (value, _) in outcome.per_layer.items()
        if name.startswith("ledger.") and name != "ledger.total_s"
    }
    total = outcome.per_layer["ledger.total_s"][0]
    assert total == pytest.approx(tracer.traced_seconds(), rel=1e-12)
    assert sum(layers.values()) == pytest.approx(total, rel=1e-9)
    assert all(value >= 0 for value in layers.values())
    json.dumps(tracer.chrome_trace())


def _span(span_id, layer, start, end, *, thread=1, parent=None, depth=1):
    return Span(span_id, f"{layer}.x", layer, start, end, thread, parent,
                depth, None)


def test_ledger_attributes_self_time_and_residual():
    spans = [
        _span(1, "mining", 1.0, 9.0),  # one call ...
        _span(2, "exec", 2.0, 4.0, parent=1, depth=2),  # ... two children
        _span(3, "kernels", 5.0, 6.0, parent=1, depth=2),
        # A request span (depth 0) never outranks a call span.
        Span(4, "serve.query", "serve", 0.5, 9.5, 2, None, 0, 4),
        # Another thread overlapping mining self time, deeper: wins.
        _span(5, "dynamic", 7.0, 8.0, thread=3, depth=2),
    ]
    led = ledger(spans, [(0.0, 10.0)])
    assert led["layers"]["exec"] == pytest.approx(2.0)
    assert led["layers"]["kernels"] == pytest.approx(1.0)
    assert led["layers"]["dynamic"] == pytest.approx(1.0)
    assert led["layers"]["mining"] == pytest.approx(8.0 - 4.0)
    assert led["layers"]["serve"] == pytest.approx(1.0)
    assert led["residual"] == pytest.approx(1.0)
    assert led["total"] == 10.0
    # Windows clip spans: only [2.5, 3.5] of the exec child is traced.
    clipped = ledger(spans, [(2.5, 3.5)])
    assert clipped["layers"]["exec"] == pytest.approx(1.0)
    assert clipped["residual"] == 0.0


def test_injected_overload_counts_as_failure(monkeypatch):
    from repro.errors import ServiceOverloadedError
    from repro.serve import QueryService

    original = QueryService.query
    calls = {"n": 0, "refused": 0}
    # Set-up and warm-up queries pass; then every third query is refused.
    passthrough = workloads.SETUP_REPS["ppr_stream"] + 1

    async def refusing(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] > passthrough and calls["n"] % 3 == 0:
            calls["refused"] += 1
            raise ServiceOverloadedError("injected")
        return await original(self, *args, **kwargs)

    monkeypatch.setattr(QueryService, "query", refusing)
    inputs = make_inputs("ppr_stream", 7, 0.5, TINY)
    outcome = workloads.ppr_stream(inputs, 0.5, None)
    assert calls["refused"] > 0
    assert not outcome.overloaded
    assert outcome.failed == calls["refused"]
    assert outcome.mismatches == 0
    assert outcome.attempted > outcome.failed


def test_overload_detection():
    assert not workloads._overloaded([0, 1, 0, 2] * 8)
    assert workloads._overloaded(list(range(32)))


def test_overloaded_run_reports_no_latency(monkeypatch, tmp_path, capsys):
    import inputs
    import run

    monkeypatch.setitem(inputs.DEFAULT_SHAPES, "ppr_stream", TINY)
    monkeypatch.setattr(workloads, "_overloaded", lambda inflight: True)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    status = run.main(["--workload", "ppr_stream", "--seed", "2",
                       "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] and result["failed"] == result["attempted"]
    assert "setup_s" in result["metrics"]
    assert not set(run.OVERLOAD_DROPS) & set(result["metrics"])
    record = json.loads(
        (tmp_path / "ppr_stream-seed2-trace0.json").read_text()
    )
    assert record["overloaded"]
