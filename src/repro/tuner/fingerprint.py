"""Deterministic cache keys: matrix fingerprints and environment keys.

A tuning decision is only reusable for *the same workload on the same
machine*.  The workload side is captured by a structural fingerprint of
the matrix — shape, stored non-zeros, value dtype and a CRC32 over the
row- and column-length histograms (SpMV cost is a function of the
sparsity *structure*, not the stored values, so the histograms pin the
structure class without hashing O(nnz) coordinate data).  The machine
side is captured by an environment key — available backends, CPU
count, library versions — so a cache file copied to a different host
or carried across an upgrade re-tunes instead of replaying a stale
decision.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from repro.exec.backends import available_backends, default_backend_name
from repro.version import __version__

__all__ = [
    "environment_key",
    "matrix_fingerprint",
    "spec_fingerprint",
]


def _histogram_crc(matrix) -> int:
    """CRC32 over the row- and column-length histograms.

    Histograms (not the raw length arrays) keep the hashed payload
    O(max degree) while still distinguishing every degree distribution;
    chaining the two CRCs distinguishes a matrix from its transpose.
    """
    row_hist = np.bincount(matrix.row_lengths(), minlength=1)
    col_hist = np.bincount(matrix.col_lengths(), minlength=1)
    crc = zlib.crc32(np.ascontiguousarray(row_hist, dtype="<i8").tobytes())
    return zlib.crc32(
        np.ascontiguousarray(col_hist, dtype="<i8").tobytes(), crc
    )


def _value_dtype(matrix) -> str:
    """Name of the stored value dtype (``"empty"`` without non-zeros),
    read off the matrix's own ``data`` array when it has one, so no
    format is converted to COO just to name its dtype."""
    if not matrix.nnz:
        return "empty"
    data = getattr(matrix, "data", None)
    if not isinstance(data, np.ndarray):
        data = matrix.to_coo().data
    return data.dtype.name


def matrix_fingerprint(matrix) -> str:
    """Deterministic structural fingerprint of a sparse matrix.

    Equal across processes and sessions for equal structure; two
    matrices with the same shape and nnz but different degree
    distributions fingerprint differently.
    """
    return (
        f"{matrix.n_rows}x{matrix.n_cols}-nnz{matrix.nnz}"
        f"-{_value_dtype(matrix)}-{_histogram_crc(matrix):08x}"
    )


def spec_fingerprint(spec, *, scale: float = 1.0, seed: int = 0) -> str:
    """Fingerprint of the matrix a scenario spec *would* generate.

    Generation is seeded and bit-reproducible, so the fingerprint of
    ``generate(spec, scale=..., seed=...)`` is a pure function of the
    ``(spec, scale, seed)`` triple — this realises the triple and
    fingerprints the result, which is exactly the key that
    :func:`repro.tuner.tune` will compute when handed the generated
    matrix.  Two same-spec twins at different scales therefore key
    different cache rows (no false hits), while regenerating the same
    triple anywhere hits the same row.
    """
    from repro.graphs.fit import generate

    return matrix_fingerprint(generate(spec, scale=scale, seed=seed))


def environment_key() -> dict:
    """JSON-ready description of the execution environment.

    Any difference — a backend appearing or vanishing, a different
    default, another core count, a library upgrade — invalidates cached
    decisions for re-measurement.
    """
    from repro.exec.native import numba_versions
    from repro.exec.sharded import available_cpu_count

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy present in CI
        scipy_version = None
    versions = numba_versions()
    return {
        "backends": list(available_backends()),
        "default_backend": default_backend_name(),
        "cpu_count": os.cpu_count() or 1,
        # The affinity mask, separately from cpu_count: the same image
        # on the same machine under a different CPU limit is a
        # different machine as far as shard decisions are concerned.
        "cpu_affinity": available_cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        # numba/llvmlite versions (None when absent): installing or
        # upgrading the JIT toolchain re-tunes rather than replaying a
        # decision measured on interpreter-speed kernels.
        "numba": versions["numba"],
        "llvmlite": versions["llvmlite"],
        "repro": __version__,
    }
