"""Column/row reordering by length.

§3.1 "Sorting Cost": the lengths of a power-law matrix are bounded by a
small number k in the long tail, so a counting sort runs in linear time
and the preprocessing is cheap relative to the iterated SpMV it enables.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats.radix import stable_argsort

__all__ = ["counting_sort_desc", "order_by_length"]


def counting_sort_desc(lengths: np.ndarray) -> np.ndarray:
    """Stable counting sort of indices by decreasing ``lengths``.

    Returns ``order`` such that ``lengths[order]`` is non-increasing and
    ties keep their original relative order (stability keeps the
    transform deterministic).  Items are keyed by (max_length - length)
    and placed by the linear-time radix sort of
    :func:`~repro.formats.radix.stable_argsort` (one pass for lengths
    below 2**16, two below 2**32) — the counting sort the paper
    prescribes for power-law length distributions.
    """
    arr = np.asarray(lengths)
    if arr.ndim != 1:
        raise ValidationError("lengths must be one-dimensional")
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.min() < 0:
        raise ValidationError("lengths must be non-negative")
    longest = int(arr.max())
    bucket_of = longest - arr  # bucket 0 holds the longest items
    return stable_argsort(bucket_of, longest + 1).astype(np.int64)


def order_by_length(lengths: np.ndarray) -> np.ndarray:
    """Indices sorted by decreasing length (alias used by the builders)."""
    return counting_sort_desc(lengths)
