"""Unit and property tests for the counting-sort reordering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reorder import counting_sort_desc, order_by_length
from repro.errors import ValidationError


class TestCountingSortDesc:
    def test_basic(self):
        order = counting_sort_desc(np.array([1, 3, 2]))
        assert list(order) == [1, 2, 0]

    def test_stability(self):
        order = counting_sort_desc(np.array([2, 5, 2, 5]))
        assert list(order) == [1, 3, 0, 2]

    def test_empty(self):
        assert counting_sort_desc(np.array([], dtype=int)).size == 0

    def test_all_equal(self):
        order = counting_sort_desc(np.full(5, 7))
        assert list(order) == [0, 1, 2, 3, 4]

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            counting_sort_desc(np.array([1, -1]))

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            counting_sort_desc(np.ones((2, 2)))

    def test_fractional_weights(self):
        # Float weights (the sharded executor's measured-cost deal) must
        # order by value, fraction included.
        order = counting_sort_desc(np.array([1.2, 1.9, 3.5, 1.9]))
        assert list(order) == [2, 1, 3, 0]

    def test_large_float_weights(self):
        weights = np.array([1.5, 70000.25, 3.0, 70000.75, 65536.0])
        order = counting_sort_desc(weights)
        assert list(order) == [3, 1, 4, 2, 0]

    def test_large_integer_lengths(self):
        # Lengths at or above 2**16 take the two-pass radix path.
        lengths = np.array([5, 2**16, 3, 2**20 + 7, 2**16, 0])
        order = counting_sort_desc(lengths)
        assert list(order) == [3, 1, 4, 0, 2, 5]

    def test_alias(self):
        lengths = np.array([4, 1, 9])
        assert list(order_by_length(lengths)) == list(
            counting_sort_desc(lengths)
        )


@given(st.lists(st.integers(0, 1000), max_size=500))
@settings(max_examples=50, deadline=None)
def test_counting_sort_properties(values):
    lengths = np.asarray(values, dtype=np.int64)
    order = counting_sort_desc(lengths)
    # A permutation...
    assert sorted(order) == list(range(lengths.size))
    # ...producing a non-increasing sequence.
    sorted_lengths = lengths[order]
    assert np.all(np.diff(sorted_lengths) <= 0)


@given(
    st.lists(
        st.floats(0, 2.0**17, allow_nan=False, allow_infinity=False),
        max_size=300,
    )
)
@settings(max_examples=50, deadline=None)
def test_counting_sort_float_matches_stable_argsort(values):
    weights = np.asarray(values, dtype=np.float64)
    order = counting_sort_desc(weights)
    # Reference: the stable argsort of the same descending keys.
    keys = int(weights.max()) - weights if weights.size else weights
    assert list(order) == list(np.argsort(keys, kind="stable"))
