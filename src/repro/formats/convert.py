"""Format conversions and dense round-trips.

Every conversion goes through :mod:`repro.formats.registry`, so formats
registered later — the load-balanced zoo, test fixtures,
``repro.formats`` entry-point plugins — convert here with no code
change.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.formats import registry
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix

__all__ = ["from_dense", "to_format"]


def from_dense(dense: np.ndarray) -> COOMatrix:
    """Extract the non-zero structure of a dense array as COO."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValidationError("dense input must be two-dimensional")
    rows, cols = np.nonzero(dense)
    return COOMatrix(rows, cols, dense[rows, cols], dense.shape)


def to_format(matrix: SparseMatrix, name: str, **kwargs) -> SparseMatrix:
    """Convert any matrix to the named format.

    Raises :class:`~repro.errors.FormatNotApplicableError` for formats
    that cannot represent the matrix (DIA on non-banded, PKT on
    unclusterable inputs) — the same failures the paper reports.
    """
    build = registry.get_format(name).build
    return build(matrix.to_coo(), **kwargs)
