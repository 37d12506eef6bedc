"""Property tests for the linear-time radix sort behind COO builds.

Every construction that sorts through :mod:`repro.formats.radix` must
produce exactly what a ``np.lexsort`` over the same keys produces —
same permutation, same bits — and never hand back memory it shares
with its inputs.  Dimensions straddle the 2**16 one-pass/two-pass
boundary of the radix.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.formats.coo import COOMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.radix import stable_argsort
from repro.mining.hits import hits_operator
from repro.mining.pagerank import pagerank_operator
from repro.mining.rwr import rwr_operator

#: Dimensions on both sides of the 16-bit digit.
DIMS = (1, 2, 7, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5)


# ----------------------------------------------------------------------
# lexsort references
# ----------------------------------------------------------------------


def ref_from_unsorted(rows, cols, data, shape, sum_duplicates=True):
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    if sum_duplicates and rows.size:
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
        group = np.cumsum(keep) - 1
        data = np.bincount(group, weights=data)
        rows, cols = rows[keep], cols[keep]
    return COOMatrix(rows, cols, data, shape)


def ref_csc(coo):
    order = np.lexsort((coo.rows, coo.cols))
    indptr = np.zeros(coo.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(coo.cols, minlength=coo.n_cols), out=indptr[1:])
    return CSCMatrix(indptr, coo.rows[order], coo.data[order], coo.shape)


def ref_csc_to_coo(csc):
    col_of = np.repeat(np.arange(csc.n_cols), np.diff(csc.indptr))
    return ref_from_unsorted(
        csc.indices, col_of, csc.data, csc.shape, sum_duplicates=False
    )


def assert_same_coo(got, want):
    assert got.shape == want.shape
    for a, b in ((got.rows, want.rows), (got.cols, want.cols),
                 (got.data, want.data)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def assert_no_sharing(outputs, inputs):
    for out in outputs:
        for arr in inputs:
            assert not np.shares_memory(out, arr)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@st.composite
def triples(draw, square=False):
    """Raw (rows, cols, data, shape): duplicates, any order, maybe
    empty, maybe already (row, col)-sorted."""
    n_rows = draw(st.sampled_from(DIMS))
    n_cols = n_rows if square else draw(st.sampled_from(DIMS))
    nnz = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A small coordinate pool makes duplicates likely.
    pool = draw(st.integers(1, 400))
    rows = rng.integers(0, n_rows, size=pool)
    cols = rng.integers(0, n_cols, size=pool)
    pick = rng.integers(0, pool, size=nnz)
    rows, cols = rows[pick], cols[pick]
    data = rng.standard_normal(nnz)
    if draw(st.booleans()):
        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
    return rows, cols, data, (n_rows, n_cols)


def row_sorted(rows, cols, data, shape):
    """A valid COO whose columns are generally *unsorted* within a row
    (the constructor only requires sorted rows)."""
    order = np.argsort(rows, kind="stable")
    return COOMatrix(rows[order], cols[order], data[order], shape)


SETTINGS = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------


@given(
    bound=st.sampled_from(DIMS + (2**32, 2**32 + 1, 2**40)),
    size=st.integers(0, 500),
    seed=st.integers(0, 2**32 - 1),
)
@SETTINGS
def test_stable_argsort_matches_numpy(bound, size, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, bound, size=size)
    if size and rng.random() < 0.5:
        keys %= 3  # heavy ties: stability decides the order
    np.testing.assert_array_equal(
        stable_argsort(keys, bound), np.argsort(keys, kind="stable")
    )


def test_stable_argsort_float_keys_fall_back():
    # Non-integer keys keep their fraction: no truncating radix pass.
    keys = np.array([1.9, 70000.5, 1.2, 1.9, 70000.25])
    for bound in (4, 2**16 + 1, 2**17):
        np.testing.assert_array_equal(
            stable_argsort(keys, bound), np.argsort(keys, kind="stable")
        )


# ----------------------------------------------------------------------
# COO / CSC construction
# ----------------------------------------------------------------------


@given(t=triples(), sum_duplicates=st.booleans())
@SETTINGS
def test_from_unsorted_matches_lexsort(t, sum_duplicates):
    rows, cols, data, shape = t
    got = COOMatrix.from_unsorted(
        rows, cols, data, shape, sum_duplicates=sum_duplicates
    )
    assert_same_coo(
        got, ref_from_unsorted(rows, cols, data, shape, sum_duplicates)
    )
    assert_no_sharing((got.rows, got.cols, got.data), (rows, cols, data))


@given(t=triples())
@SETTINGS
def test_transpose_matches_lexsort(t):
    coo = row_sorted(*t)
    got = coo.transpose()
    assert_same_coo(got, ref_from_unsorted(
        coo.cols, coo.rows, coo.data, (coo.n_cols, coo.n_rows),
        sum_duplicates=False,
    ))
    assert_no_sharing(
        (got.rows, got.cols, got.data), (coo.rows, coo.cols, coo.data)
    )


@given(t=triples(), data=st.data())
@SETTINGS
def test_select_rows_matches_lexsort(t, data):
    coo = row_sorted(*t)
    k = data.draw(st.integers(0, min(coo.n_rows, 40)))
    row_ids = np.asarray(data.draw(st.lists(
        st.integers(0, coo.n_rows - 1), min_size=k, max_size=k, unique=True,
    )), dtype=np.int64)
    if data.draw(st.booleans()):
        row_ids.sort()  # the sharded executor's ascending slices
    got = coo.select_rows(row_ids)
    lookup = np.full(coo.n_rows, -1, dtype=np.int64)
    lookup[row_ids] = np.arange(row_ids.size)
    mask = lookup[coo.rows] >= 0
    assert_same_coo(got, ref_from_unsorted(
        lookup[coo.rows[mask]], coo.cols[mask], coo.data[mask],
        (row_ids.size, coo.n_cols), sum_duplicates=False,
    ))
    assert_no_sharing(
        (got.rows, got.cols, got.data), (coo.rows, coo.cols, coo.data)
    )


@given(t=triples())
@SETTINGS
def test_csc_from_coo_matches_lexsort(t):
    coo = row_sorted(*t)
    got = CSCMatrix.from_coo(coo)
    want = ref_csc(coo)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)
    assert_no_sharing(
        (got.indptr, got.indices, got.data), (coo.rows, coo.cols, coo.data)
    )
    back = got.to_coo()
    assert_same_coo(back, ref_csc_to_coo(got))
    assert_no_sharing(
        (back.rows, back.cols, back.data), (got.indices, got.data)
    )


# ----------------------------------------------------------------------
# Operator builders
# ----------------------------------------------------------------------


@given(t=triples(square=True))
@SETTINGS
def test_pagerank_operator_matches_lexsort(t):
    adj = row_sorted(*t)
    out_deg = np.bincount(adj.rows, minlength=adj.n_rows).astype(np.float64)
    weights = np.where(
        out_deg[adj.rows] > 0, 1.0 / np.maximum(out_deg[adj.rows], 1), 0.0
    )
    got = pagerank_operator(adj)
    assert_same_coo(got, ref_from_unsorted(
        adj.cols, adj.rows, weights, adj.shape, sum_duplicates=False
    ))
    assert_no_sharing(
        (got.rows, got.cols, got.data), (adj.rows, adj.cols, adj.data)
    )


@given(t=triples(square=True))
@SETTINGS
def test_hits_operator_matches_lexsort(t):
    adj = row_sorted(*t)
    n = adj.n_rows
    got = hits_operator(adj)
    assert_same_coo(got, ref_from_unsorted(
        np.concatenate([adj.cols, adj.rows + n]),
        np.concatenate([adj.rows + n, adj.cols]),
        np.concatenate([adj.data, adj.data]),
        (2 * n, 2 * n),
        sum_duplicates=False,
    ))
    assert_no_sharing(
        (got.rows, got.cols, got.data), (adj.rows, adj.cols, adj.data)
    )


@given(t=triples(square=True))
@SETTINGS
def test_rwr_operator_matches_lexsort(t):
    adj = row_sorted(*t)
    sym = ref_from_unsorted(
        np.concatenate([adj.rows, adj.cols]),
        np.concatenate([adj.cols, adj.rows]),
        np.ones(2 * adj.nnz),
        adj.shape,
    )
    sym.data[:] = 1.0
    want = ref_csc_to_coo(ref_csc(sym).normalize_cols())
    got = rwr_operator(adj)
    assert_same_coo(got, want)
    assert_no_sharing(
        (got.rows, got.cols, got.data), (adj.rows, adj.cols, adj.data)
    )
