"""Zero-allocation SpMV execution engine.

The numerical path of every format and kernel runs through this layer:

``repro.exec.plan``
    Cached :class:`SpMVPlan` objects — precomputed reduction segments,
    gather maps and reorder buffers, built once per matrix and reused on
    every ``spmv``/``spmm`` call.
``repro.exec.workspace``
    :class:`WorkspacePool` — named scratch buffers so repeated
    executions allocate no O(nnz) temporaries.
``repro.exec.backends``
    The backend registry: the native ``numpy`` backend plus an optional
    auto-detected ``scipy`` backend (cross-check and fast path).
``repro.exec.native``
    Optional numba-JIT ``native`` backend — ``nogil`` CSR row-split,
    ELL and segmented-reduce kernels; falls back to ``numpy`` when
    numba is absent.
``repro.exec.sharded``
    :class:`ShardedExecutor` — the paper's §3.2 row sharding run as
    real parallel work on a persistent thread pool, bit-identical to
    the single-shard path.

Typical use goes through the matrix API rather than this package::

    y = matrix.spmv(x)              # plan built lazily, then cached
    matrix.spmv(x, out=y)           # zero-allocation steady state
    Y = matrix.spmm(X)              # batched multi-vector product
    plan = matrix.spmv_plan()       # the cached plan itself

    with ShardedExecutor(matrix, n_shards=4) as ex:
        ex.spmv(x, out=y)           # nnz-balanced shards in parallel

The executor serves every call through one fan-out with per-shard
timeout/retry/degradation recovery, bit-identical to the fault-free
run.  Armed fault injection (``repro.resilience``) fires inside that
same path; disarmed, the fault sites cost one boolean test and the
zero-allocation steady state is untouched.
"""

from repro.exec.backends import (
    Backend,
    NumpyBackend,
    ScipyBackend,
    available_backends,
    build_plan,
    configure_from_env,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
)
from repro.exec.native import (
    NativeBackend,
    native_available,
    numba_versions,
    row_splits,
)
from repro.exec.sharded import (
    AUTO_MIN_NNZ_PER_SHARD,
    ShardedExecutor,
    auto_shard_count,
    available_cpu_count,
    env_shard_count,
)
from repro.exec.plan import (
    PLAN_CACHE_STATS,
    COOPlan,
    CSRPlan,
    DIAPlan,
    ELLPlan,
    HYBPlan,
    PKTPlan,
    PlanCacheStats,
    SpMVPlan,
    TileCompositePlan,
    TileCOOPlan,
)
from repro.exec.workspace import WorkspacePool

__all__ = [
    "AUTO_MIN_NNZ_PER_SHARD",
    "PLAN_CACHE_STATS",
    "Backend",
    "COOPlan",
    "CSRPlan",
    "DIAPlan",
    "ELLPlan",
    "HYBPlan",
    "NativeBackend",
    "NumpyBackend",
    "PKTPlan",
    "PlanCacheStats",
    "ScipyBackend",
    "ShardedExecutor",
    "SpMVPlan",
    "TileCOOPlan",
    "TileCompositePlan",
    "WorkspacePool",
    "auto_shard_count",
    "available_backends",
    "available_cpu_count",
    "build_plan",
    "configure_from_env",
    "default_backend_name",
    "env_shard_count",
    "get_backend",
    "native_available",
    "numba_versions",
    "register_backend",
    "row_splits",
    "set_default_backend",
]
