"""Process-wide metrics registry (counters, gauges, histograms).

The paper's auto-tuner works because every kernel's cost is *measured
and modeled* (Algorithms 1-3); this module gives the host engine the
same discipline.  Instrumentation sites across ``repro.exec``,
``repro.formats`` and ``repro.mining`` report into one global
:class:`Metrics` registry — plan builds vs. cache hits, workspace-pool
hits/misses/bytes, spmv/spmm call counts per plan type and backend,
per-shard wall seconds and imbalance.

**Zero overhead when disabled.**  The whole subsystem hangs off one
module-level boolean, ``_ENABLED`` (initialised from the ``REPRO_OBS``
environment variable, toggled by :func:`enable`/:func:`disable`).  Hot
paths guard each report with a plain attribute test::

    from repro.obs import metrics as _metrics
    ...
    if _metrics._ENABLED:
        _metrics.METRICS.inc("pool.hits")

so a disabled run costs one global load per site — no function call, no
allocation — and the engine's steady-state zero-allocation guarantee
(asserted by ``tests/test_exec_engine.py``) is untouched.

Metric keys are Prometheus-style flat strings: a bare name for
unlabelled series, ``name{k=v,...}`` with sorted label keys otherwise.
The registry is lock-protected; sharded executor workers report from
multiple threads.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "METRICS",
    "Metrics",
    "count",
    "disable",
    "enable",
    "enabled",
    "observe",
    "set_gauge",
]

_TRUTHY = {"1", "true", "yes", "on"}


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "").strip().lower() in _TRUTHY


#: The master observability switch (module-private by convention, but
#: read directly by hot-path guards: ``if _metrics._ENABLED: ...``).
_ENABLED = _env_enabled()


def enabled() -> bool:
    """Whether observability is currently on."""
    return _ENABLED


def enable() -> None:
    """Turn observability on (equivalent to ``REPRO_OBS=1``)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn observability off; the hot path reverts to zero overhead."""
    global _ENABLED
    _ENABLED = False


#: Ring-buffer reservoir length per histogram series.  512 float slots
#: (4 KiB) bound memory regardless of run length while keeping enough
#: recent samples for stable p50/p99 — a sliding window, so timings
#: from an earlier phase of a long run age out instead of diluting the
#: quantiles forever.
RESERVOIR_SIZE = 512


class _Histogram:
    """Streaming summary plus a bounded recent-sample reservoir.

    ``count``/``total``/``min``/``max``/``mean`` cover the whole
    series' lifetime; ``p50``/``p99`` are exact quantiles over the last
    :data:`RESERVOIR_SIZE` samples (all samples, before the ring
    wraps).  Last-value gauges hid the distribution — a shard that is
    slow once per hundred calls is invisible to a gauge and obvious at
    p99.
    """

    __slots__ = ("count", "total", "min", "max", "_ring")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._ring: list[float] = []

    def add(self, value: float) -> None:
        if self.count < RESERVOIR_SIZE:
            self._ring.append(value)
        else:
            self._ring[self.count % RESERVOIR_SIZE] = value
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Exact ``q``-th percentile of the reservoir window
        (nearest-rank), ``None`` before the first sample."""
        if not self._ring:
            return None
        ordered = sorted(self._ring)
        rank = int(round(q / 100.0 * (len(ordered) - 1)))
        return ordered[rank]

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
        }


class Metrics:
    """Thread-safe registry of counters, gauges and histograms.

    One process-wide instance (:data:`METRICS`) backs the whole library;
    independent registries can be constructed for tests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    @staticmethod
    def key(name: str, labels: dict) -> str:
        """Flat series key: ``name`` or ``name{k=v,...}`` (sorted keys)."""
        if not labels:
            return name
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{inner}}}"

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` to a monotonically increasing counter."""
        key = self.key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Record the current value of a point-in-time quantity."""
        key = self.key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Feed one sample into a streaming histogram."""
        key = self.key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram()
            hist.add(float(value))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        """Current value of a counter series (0 when never incremented)."""
        with self._lock:
            return self._counters.get(self.key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every label combination."""
        prefix = f"{name}{{"
        with self._lock:
            return sum(
                v
                for k, v in self._counters.items()
                if k == name or k.startswith(prefix)
            )

    def counter_series(self, name: str) -> dict[str, float]:
        """All counter series sharing ``name`` (any labels), keyed by
        their full series key — the chaos report uses this to break
        injected faults / retries / degradations out by site and shard."""
        prefix = f"{name}{{"
        with self._lock:
            return {
                k: v
                for k, v in self._counters.items()
                if k == name or k.startswith(prefix)
            }

    def gauge(self, name: str, **labels) -> float | None:
        with self._lock:
            return self._gauges.get(self.key(name, labels))

    def histogram(self, name: str, **labels) -> dict | None:
        """Summary dict of a histogram series, or ``None``."""
        with self._lock:
            hist = self._histograms.get(self.key(name, labels))
            return hist.to_dict() if hist is not None else None

    def histogram_series(self, name: str) -> dict[str, dict]:
        """All histogram series sharing ``name`` (any labels), keyed by
        their full series key."""
        prefix = f"{name}{{"
        with self._lock:
            return {
                k: h.to_dict()
                for k, h in self._histograms.items()
                if k == name or k.startswith(prefix)
            }

    def snapshot(self) -> dict:
        """JSON-ready dump of every series."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Drop every series (tests and the profile runner)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Metrics(series={len(self)})"


#: The process-wide registry every instrumentation site reports into.
METRICS = Metrics()


# ----------------------------------------------------------------------
# Module-level conveniences (no-ops while disabled)
# ----------------------------------------------------------------------


def count(name: str, value: float = 1, **labels) -> None:
    """Increment a counter on the global registry (no-op when off)."""
    if _ENABLED:
        METRICS.inc(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Observe a histogram sample on the global registry (no-op when off)."""
    if _ENABLED:
        METRICS.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the global registry (no-op when off)."""
    if _ENABLED:
        METRICS.set_gauge(name, value, **labels)
