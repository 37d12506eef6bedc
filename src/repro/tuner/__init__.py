"""Measured end-to-end auto-tuning (``repro.tuner``).

The paper's Algorithms 1–3 tune the *tile-composite kernel's* internal
parameters with a performance model.  This package applies the same
measure-and-choose discipline one level up, to the host engine's own
execution configuration: which **storage format**, which **execution
backend** and how many **row shards** actually run a given matrix
fastest on this machine.

The tuner is model-seeded and measurement-decided:

1. §5 kernel selection (:func:`repro.core.selector.select_kernel`) plus
   matrix statistics prune the format grid down to the model's pick and
   the CSR baseline;
2. the surviving ``format x backend x shard-count`` candidates — one
   per distinct engine — are timed with short real SpMV runs (warmup
   plus median-of-k) on the engine
   :meth:`~repro.tuner.tuner.TuningDecision.build_engine` serves, every
   measurement reported through ``repro.obs``;
3. the winning :class:`~repro.tuner.tuner.TuningDecision` is persisted
   in an on-disk JSON cache keyed by a deterministic matrix fingerprint
   and the execution environment, so the next process resolves the same
   matrix in O(1) with zero measurement runs.

``REPRO_TUNER_CACHE`` relocates the cache file, or disables caching
entirely (``off``/``0``/``none``/``disabled``).
"""

from repro.tuner.cache import (
    CACHE_ENV,
    TuningCache,
    default_cache_path,
    resolve_cache_path,
)
from repro.tuner.fingerprint import (
    environment_key,
    matrix_fingerprint,
    spec_fingerprint,
)
from repro.tuner.tuner import (
    TuningDecision,
    candidate_grid,
    tune,
)

__all__ = [
    "CACHE_ENV",
    "TuningCache",
    "TuningDecision",
    "candidate_grid",
    "default_cache_path",
    "environment_key",
    "matrix_fingerprint",
    "resolve_cache_path",
    "spec_fingerprint",
    "tune",
]
