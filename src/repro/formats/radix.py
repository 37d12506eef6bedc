"""Linear-time stable sorting of bounded integer keys.

§3.1 "Sorting Cost": the sort behind SpMV preprocessing is a counting
sort over small integer keys, O(n) and paid once against the iterated
SpMV it enables.  numpy's stable argsort is a true radix sort for keys
of 16 bits or fewer, so an LSD radix over 16-bit digits sorts any key
below ``2**32`` in at most two linear passes.  Each pass is stable, so
the permutation is exactly the one ``np.argsort(kind="stable")`` (and
hence ``np.lexsort``) returns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_argsort"]

_DIGIT_BITS = 16


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable sorting permutation of integer ``keys`` in ``[0, bound)``.

    One radix pass for ``bound <= 2**16``, two for ``bound <= 2**32``;
    beyond that, and for non-integer keys, numpy's comparison-based
    stable argsort.  Integer keys outside ``[0, bound)`` give an
    unspecified order (callers validate ranges).
    """
    keys = np.asarray(keys)
    if not np.issubdtype(keys.dtype, np.integer):
        return np.argsort(keys, kind="stable")
    if bound <= 1 << _DIGIT_BITS:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if bound <= 1 << (2 * _DIGIT_BITS):
        # Low digit first; the stable high-digit pass keeps its order.
        order = np.argsort(keys.astype(np.uint16), kind="stable")
        high = (keys >> _DIGIT_BITS).astype(np.uint16)[order]
        return order[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")

