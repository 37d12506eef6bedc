"""Recovery policy for the sharded SpMV executor.

:class:`RetryPolicy` bounds how hard a shard fights before the executor
degrades it to a serial, fault-suppressed re-execution in the caller
thread.  The policy is deliberately small and immutable: the recovery
*mechanism* lives in :mod:`repro.exec.sharded`, this module only says
how many attempts, how long to back off, and whether/when to give up
waiting on a straggler.

The executor's guarantees (see DESIGN.md §10):

* every recovery path converges — the final fallback recomputes the
  shard serially with fault injection suppressed, so it cannot fail
  again by injection;
* results are bit-identical to the fault-free run — retries and the
  degraded fallback execute the *same cached plan* on the same rows,
  and a shard's output never mixes attempts: every attempt fully
  overwrites the shard's rows (its zero-copy ``out`` view, or its
  pooled buffer before the scatter), and a timed-out straggler is
  drained before its rows are recomputed, so the final bytes come from
  exactly one complete attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError

__all__ = ["DEFAULT_RETRY_POLICY", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for shard attempts.

    ``timeout_seconds`` is the per-shard wall-clock budget the caller
    waits on a worker future before declaring a timeout (None = wait
    forever).  Python threads cannot be cancelled, so a timed-out shard
    is *drained* (its late result discarded) and recomputed serially —
    the timeout is a detection and accounting mechanism, not a kill.
    ``validate_outputs`` turns on the non-finite output check that
    converts silent corruption into a retryable failure.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.001
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 0.05
    timeout_seconds: float | None = None
    validate_outputs: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ValidationError("backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValidationError("backoff_multiplier must be >= 1")
        if self.backoff_max_seconds < 0:
            raise ValidationError("backoff_max_seconds must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValidationError("timeout_seconds must be positive")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff(self, retry: int) -> float:
        """Seconds to sleep before retry number ``retry`` (1-based)."""
        if retry < 1:
            raise ValidationError("retry number is 1-based")
        raw = self.backoff_seconds * self.backoff_multiplier ** (retry - 1)
        return min(raw, self.backoff_max_seconds)


DEFAULT_RETRY_POLICY = RetryPolicy()
