"""Spans around the public callables of each ``repro`` layer.

The benchmark installs these timing wrappers itself — no library source
is edited — only while a traced leg runs, and puts the originals back
when the leg ends.  Spans stay in memory and are written once, at the
end, as Chrome trace-event JSON (Perfetto opens it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: ``(module, attribute path, span name, layer)`` of every wrapped
#: callable.  Module-level names are wrapped in the namespace that calls
#: them (``pagerank()`` looks up ``create`` in its own module), methods
#: on the class that defines them.
TARGETS = (
    ("repro.mining.pagerank", "pagerank", "mining.pagerank", "mining"),
    ("repro.mining.pagerank", "pagerank_operator", "mining.operator_build",
     "mining"),
    ("repro.mining.pagerank", "create", "kernels.create", "kernels"),
    ("repro.mining.pagerank", "matrix_fingerprint", "tuner.fingerprint",
     "tuner"),
    ("repro.serve.service", "matrix_fingerprint", "tuner.fingerprint.slot",
     "tuner"),
    ("repro.exec.sharded", "ShardedExecutor.__init__", "exec.sharded.build",
     "exec"),
    ("repro.exec.sharded", "ShardedExecutor.spmv", "exec.sharded.spmv",
     "exec"),
    ("repro.exec.sharded", "ShardedExecutor.spmm", "exec.sharded.spmm",
     "exec"),
    ("repro.exec.sharded", "ShardedExecutor.close", "exec.sharded.close",
     "exec"),
    ("repro.formats.base", "SparseMatrix.spmv", "exec.spmv", "exec"),
    ("repro.formats.base", "SparseMatrix.spmm", "exec.spmm", "exec"),
    ("repro.serve.service", "QueryService.register", "serve.register",
     "serve"),
    ("repro.serve.service", "QueryService.query", "serve.query", "serve"),
    ("repro.serve.service", "QueryService.notify_update",
     "serve.notify_update", "serve"),
    ("repro.serve.service", "seeded_batch", "serve.seeded_batch", "serve"),
    ("repro.graphs.dynamic", "DynamicMatrix.__init__", "dynamic.build",
     "dynamic"),
    ("repro.graphs.dynamic", "DynamicMatrix.apply_updates", "dynamic.apply",
     "dynamic"),
    ("repro.graphs.dynamic", "DynamicMatrix.compact", "dynamic.compact",
     "dynamic"),
    ("repro.graphs.dynamic", "DynamicMatrix.coo_snapshot",
     "dynamic.snapshot", "dynamic"),
)

LAYERS = ("mining", "kernels", "tuner", "exec", "serve", "dynamic")

#: Layers reachable only through a private table; they are left untimed
#: and their time stays with whatever span encloses them.
UNTIMED = {
    "mining.operator_build (service)": (
        "QueryService builds operators through its private _OPERATORS "
        "table, which holds pagerank_operator directly; service-side "
        "operator builds fall into serve.wait_s and the ledger's serve "
        "time, not mining.operator_build_s"
    ),
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    thread: int
    parent: int | None
    depth: int  # 0 for request spans; 1 + nesting depth on a thread
    request: int | None
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _describe(name, call_args, kwargs):
    """Span arguments that later metrics need (read after the clock
    stops)."""
    if name == "exec.sharded.spmv":
        executor = call_args[0]
        return {
            "shard_seconds": executor.last_shard_seconds.tolist(),
            "nnz": int(executor.nnz),
            "rows": int(executor.n_rows),
        }
    if name in ("exec.spmm", "exec.sharded.spmm"):
        return {"width": int(call_args[1].shape[1])}
    if name == "serve.seeded_batch":
        return {"seeds": [int(s) for s in call_args[2]]}
    if name == "serve.query":
        return {"seed": kwargs.get("seed")}
    return {}


class Tracer:
    """Collects spans while its wrappers are installed.

    ``begin()`` installs every wrapper and opens a traced window;
    ``end()`` closes the window and restores the original callables.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.windows: list[tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._window_start: float | None = None

    @property
    def active(self) -> bool:
        return self._window_start is not None

    def begin(self) -> None:
        if self.active:
            return
        for module, path, name, layer in TARGETS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer))
        self._window_start = time.perf_counter()

    def end(self) -> None:
        if not self.active:
            return
        self.windows.append((self._window_start, time.perf_counter()))
        self._window_start = None
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, layer):
        if inspect.iscoroutinefunction(fn):
            # Requests interleave on the event loop thread, so they keep
            # no thread stack: each is a root span and its own request.
            @functools.wraps(fn)
            async def request_span(*args, **kwargs):
                span_id = next(self._ids)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self.spans.append(Span(
                        span_id, name, layer, start, end,
                        threading.get_ident(), None, 0, span_id,
                        _describe(name, args, kwargs),
                    ))

            return request_span

        @functools.wraps(fn)
        def call_span(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    span_id, name, layer, start, end,
                    threading.get_ident(), parent, len(stack) + 1, None,
                    _describe(name, args, kwargs),
                ))

        return call_span

    def traced_seconds(self) -> float:
        return sum(b - a for a, b in self.windows)

    def chrome_trace(self) -> dict:
        """The spans and traced windows as Chrome trace-event JSON."""
        origin = min((a for a, _ in self.windows), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": "traced_window", "cat": "benchmark", "ph": "X",
                "ts": (a - origin) * 1e6, "dur": (b - a) * 1e6,
                "pid": pid, "tid": 0,
            }
            for a, b in self.windows
        ]
        for span in self.spans:
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": pid, "tid": span.thread,
                "args": {
                    "span": span.id, "parent": span.parent,
                    "request": span.request, **span.args,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def ledger(spans, windows) -> dict:
    """Attribute every instant of the traced windows to exactly one
    span, or to the residual when no span is open.

    At each instant the attributed span is the deepest one open on any
    thread (ties go to the one started last), so on a single thread a
    span's share is its classic self time: its duration minus what its
    children cover.  Layer self times plus the residual therefore sum to
    the traced wall time by construction.
    """
    per_span: dict[int, float] = defaultdict(float)
    residual = 0.0
    total = 0.0
    for w0, w1 in windows:
        total += w1 - w0
        events = []
        for span in spans:
            a, b = max(span.start, w0), min(span.end, w1)
            if a < b:
                events.append((a, 1, span))
                events.append((b, 0, span))
        # Ends sort before starts at the same instant.
        events.sort(key=lambda event: (event[0], event[1]))
        open_spans: dict[int, Span] = {}
        now = w0
        for instant, is_start, span in events:
            if instant > now:
                if open_spans:
                    top = max(
                        open_spans.values(),
                        key=lambda s: (s.depth, s.start),
                    )
                    per_span[top.id] += instant - now
                else:
                    residual += instant - now
                now = instant
            if is_start:
                open_spans[span.id] = span
            else:
                del open_spans[span.id]
        residual += w1 - now
    by_id = {span.id: span for span in spans}
    layers = {layer: 0.0 for layer in LAYERS}
    names: dict[str, float] = defaultdict(float)
    for span_id, seconds in per_span.items():
        span = by_id[span_id]
        layers[span.layer] += seconds
        names[span.name] += seconds
    return {
        "layers": layers,
        "names": dict(names),
        "spans": dict(per_span),
        "residual": residual,
        "total": total,
    }
