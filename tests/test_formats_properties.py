"""Property-based tests: every format computes the same product as the
dense reference, on arbitrary matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatNotApplicableError
from repro.formats.convert import from_dense, to_format
from repro.formats.coo import COOMatrix
from repro.formats.registry import format_names


@st.composite
def sparse_matrices(draw, max_dim: int = 24, square: bool = False):
    """Random small COO matrices (possibly empty, possibly rectangular)."""
    n_rows = draw(st.integers(1, max_dim))
    n_cols = n_rows if square else draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, n_rows * n_cols))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    data = rng.standard_normal(nnz)
    return COOMatrix.from_unsorted(rows, cols, data, (n_rows, n_cols))


@st.composite
def vectors_for(draw, n: int):
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).standard_normal(n)


@pytest.mark.parametrize("fmt", sorted(format_names()))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_format_spmv_matches_dense(fmt, data):
    square = fmt == "pkt"
    matrix = data.draw(sparse_matrices(square=square))
    x = data.draw(vectors_for(matrix.n_cols))
    try:
        converted = to_format(matrix, fmt)
    except FormatNotApplicableError:
        return  # legitimately unrepresentable (DIA/ELL/PKT limits)
    expected = matrix.to_dense() @ x
    np.testing.assert_allclose(converted.spmv(x), expected, atol=1e-9)


@pytest.mark.parametrize("fmt", sorted(format_names()))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_format_roundtrip_preserves_structure(fmt, data):
    square = fmt == "pkt"
    matrix = data.draw(sparse_matrices(square=square))
    try:
        converted = to_format(matrix, fmt)
    except FormatNotApplicableError:
        return
    np.testing.assert_allclose(
        converted.to_coo().to_dense(), matrix.to_dense(), atol=1e-12
    )


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_nnz_never_increases_under_conversion(data):
    matrix = data.draw(sparse_matrices(square=True))
    for fmt in ("csr", "csc", "hyb"):
        converted = to_format(matrix, fmt)
        assert converted.nnz == matrix.nnz


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_from_dense_roundtrip(data):
    matrix = data.draw(sparse_matrices())
    dense = matrix.to_dense()
    again = from_dense(dense)
    np.testing.assert_allclose(again.to_dense(), dense)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_transpose_spmv_identity(data):
    """x^T A == (A^T x)^T for every matrix."""
    matrix = data.draw(sparse_matrices())
    x = data.draw(vectors_for(matrix.n_rows))
    lhs = matrix.to_dense().T @ x
    rhs = matrix.transpose().spmv(x)
    np.testing.assert_allclose(rhs, lhs, atol=1e-9)
