"""Hypothesis fuzz tests for input validation (ISSUE 4 satellite b).

``check_vector`` and the SpMM RHS normalisers must raise a loud
:class:`ValidationError` — never silently propagate — for NaN/Inf,
un-coercible dtypes, wrong shapes, and negative-stride (reversed)
views, across every execution surface: bare ``check_vector``, cached
plans of each matrix format, and the sharded executor.

Finite magnitudes are drawn within ±1e75 so the allocation-free
finiteness probe, a plain sum, cannot overflow on genuinely finite
input (its documented false-positive regime starts where the sum
passes ~1.8e308).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.exec.sharded import ShardedExecutor
from repro.formats.base import all_finite, check_vector, coerce_array
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.hyb import HYBMatrix
from repro.graphs.rmat import rmat_graph

N = 32

finite = st.floats(
    min_value=-1e75, max_value=1e75, allow_nan=False, allow_infinity=False
)
poison = st.sampled_from(
    [float("nan"), float("inf"), float("-inf")]
)


def _matrix() -> COOMatrix:
    return rmat_graph(N, 4 * N, seed=3).to_coo()


def _surfaces():
    """Every spmv surface that must reject bad vectors."""
    coo = _matrix()
    return {
        "coo-plan": coo.spmv_plan(),
        "csr-plan": CSRMatrix.from_coo(coo).spmv_plan(),
        "hyb-plan": HYBMatrix.from_coo(coo).spmv_plan(),
    }


SURFACES = _surfaces()
SHARDED = ShardedExecutor(_matrix(), 2)


# ----------------------------------------------------------------------
# check_vector / coerce_array primitives
# ----------------------------------------------------------------------


@given(values=st.lists(finite, min_size=1, max_size=64),
       bad=poison, data=st.data())
@settings(max_examples=60, deadline=None)
def test_check_vector_rejects_any_poisoned_position(values, bad, data):
    index = data.draw(st.integers(0, len(values) - 1))
    x = np.array(values, dtype=np.float64)
    x[index] = bad
    with pytest.raises(ValidationError):
        check_vector(x, x.size)


@given(values=st.lists(finite, min_size=1, max_size=64))
@settings(max_examples=40, deadline=None)
def test_check_vector_accepts_all_finite(values):
    x = np.array(values, dtype=np.float64)
    out = check_vector(x, x.size)
    assert out is x  # the fast path is a pass-through
    assert all_finite(out)


@given(values=st.lists(finite, min_size=1, max_size=64),
       bad=poison, data=st.data())
@settings(max_examples=60, deadline=None)
def test_all_finite_rejects_poison_in_any_layout(values, bad, data):
    x = np.array(values, dtype=np.float64)
    x[data.draw(st.integers(0, x.size - 1))] = bad
    assert not all_finite(x)
    rows = data.draw(st.sampled_from(
        [d for d in range(1, x.size + 1) if x.size % d == 0]
    ))
    c_order = x.reshape(rows, -1)
    assert c_order.flags.c_contiguous
    assert not all_finite(c_order)
    f_order = np.asfortranarray(c_order)
    assert f_order.flags.f_contiguous
    assert not all_finite(f_order)


def test_all_finite_rejects_opposite_infinities():
    # inf + -inf is NaN; numpy also warns about it, which is not the point.
    with np.errstate(invalid="ignore"):
        assert not all_finite(np.array([np.inf, -np.inf]))
        assert not all_finite(
            np.array([[1.0, np.inf], [-np.inf, 2.0]], order="F")
        )


def test_all_finite_accepts_large_finite_magnitudes():
    """Finite values stay accepted even where their squares overflow."""
    x = np.array([1e200, -1e200, 1e200, 3.0])
    assert all_finite(x)
    assert all_finite(np.asfortranarray(x.reshape(2, 2)))
    assert check_vector(x, x.size) is x


@given(values=st.lists(finite, min_size=2, max_size=64))
@settings(max_examples=40, deadline=None)
def test_check_vector_rejects_negative_stride_views(values):
    x = np.array(values, dtype=np.float64)
    with pytest.raises(ValidationError):
        check_vector(x[::-1], x.size)


@given(dtype=st.sampled_from(["complex128", "U8", "object", "float128"]))
@settings(max_examples=8, deadline=None)
def test_check_vector_rejects_uncoercible_dtypes(dtype):
    if dtype == "float128" and not hasattr(np, "float128"):
        pytest.skip("platform lacks float128")
    x = np.ones(4, dtype=dtype)
    with pytest.raises(ValidationError):
        check_vector(x, 4)


def test_check_vector_rejects_wrong_rank_and_length():
    with pytest.raises(ValidationError):
        check_vector(np.ones((2, 2)), 4)
    with pytest.raises(ValidationError):
        check_vector(np.ones(3), 4)
    with pytest.raises(ValidationError):
        coerce_array(object(), "x", ndim=1)


def test_integer_input_is_coerced_not_rejected():
    out = check_vector(np.arange(4), 4)
    assert out.dtype == np.float64


# ----------------------------------------------------------------------
# Every execution surface, every format
# ----------------------------------------------------------------------


@pytest.mark.parametrize("surface", sorted(SURFACES))
@given(bad=poison, data=st.data())
@settings(max_examples=15, deadline=None)
def test_plans_reject_poisoned_spmv_input(surface, bad, data):
    plan = SURFACES[surface]
    x = np.ones(N)
    x[data.draw(st.integers(0, N - 1))] = bad
    with pytest.raises(ValidationError):
        plan.execute(x)


@pytest.mark.parametrize("surface", sorted(SURFACES))
@given(bad=poison, data=st.data())
@settings(max_examples=15, deadline=None)
def test_plans_reject_poisoned_spmm_input(surface, bad, data):
    plan = SURFACES[surface]
    X = np.ones((N, 3))
    X[data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, 2))] = bad
    with pytest.raises(ValidationError):
        plan.execute_many(X)


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_plans_reject_reversed_and_wrong_shape_input(surface):
    plan = SURFACES[surface]
    with pytest.raises(ValidationError):
        plan.execute(np.ones(2 * N)[::-2])
    with pytest.raises(ValidationError):
        plan.execute(np.ones((N, 1)))
    with pytest.raises(ValidationError):
        plan.execute_many(np.ones((N, 3))[:, ::-1])
    with pytest.raises(ValidationError):
        plan.execute_many(np.ones(N))
    with pytest.raises(ValidationError):
        plan.execute_many(np.ones((N, 2), dtype=np.complex128))


@given(bad=poison, data=st.data())
@settings(max_examples=15, deadline=None)
def test_sharded_executor_rejects_poisoned_input(bad, data):
    x = np.ones(N)
    x[data.draw(st.integers(0, N - 1))] = bad
    with pytest.raises(ValidationError):
        SHARDED.spmv(x)
    X = np.ones((N, 2))
    X[data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, 1))] = bad
    with pytest.raises(ValidationError):
        SHARDED.spmm(X)


def test_sharded_executor_rejects_bad_layouts():
    with pytest.raises(ValidationError):
        SHARDED.spmv(np.ones(2 * N)[::-2])
    with pytest.raises(ValidationError):
        SHARDED.spmm(np.ones((N, 2))[::-1, :])
    with pytest.raises(ValidationError):
        SHARDED.spmm(np.ones((N, 2), dtype="U4"))
    with pytest.raises(ValidationError):
        SHARDED.spmm(np.ones(N))


@given(values=st.lists(
    # Also representable in float32: the last leg round-trips through it.
    st.floats(min_value=-1e30, max_value=1e30,
              allow_nan=False, allow_infinity=False),
    min_size=N * 2, max_size=N * 2,
))
@settings(max_examples=20, deadline=None)
def test_legal_slow_layouts_still_work_everywhere(values):
    """Fortran order and other real dtypes are *staged*, not rejected —
    and the staged result matches the contiguous one bitwise."""
    X = np.array(values, dtype=np.float64).reshape(N, 2)
    expected = SHARDED.spmm(X)
    fortran = np.asfortranarray(X)
    assert np.array_equal(SHARDED.spmm(fortran), expected)
    f32 = X.astype(np.float32)
    assert np.array_equal(
        SHARDED.spmm(f32), SHARDED.spmm(f32.astype(np.float64))
    )


# ----------------------------------------------------------------------
# Walk seeds: whole node ids only, never truncated
# ----------------------------------------------------------------------

NOT_NODE_IDS = [2.7, -0.5, True, False, np.bool_(True), float("nan"),
                float("inf"), "3", None]


@pytest.mark.parametrize("seed", NOT_NODE_IDS, ids=repr)
def test_seeded_walks_refuse_seeds_that_are_not_node_ids(seed):
    from repro.serve import seeded_batch, seeded_solo

    coo = _matrix()
    with pytest.raises(ValidationError):
        seeded_batch(coo, N, [seed], alpha=0.85, tol=1e-8, max_iter=5)
    with pytest.raises(ValidationError):
        seeded_solo(coo, N, seed, alpha=0.85, tol=1e-8, max_iter=5)


@pytest.mark.parametrize("seed", NOT_NODE_IDS, ids=repr)
def test_service_refuses_seeds_that_are_not_node_ids(seed):
    import asyncio

    from repro.serve import QueryService

    async def ask():
        return await service.query(graph="g", algorithm="ppr", seed=seed)

    with QueryService(window_seconds=0.005) as service:
        service.register("g", rmat_graph(N, 4 * N, seed=3))
        with pytest.raises(ValidationError):
            asyncio.run(ask())


@pytest.mark.parametrize("queries", [[1.7], [True], [3, False], [0.5, 2]])
def test_rwr_refuses_queries_that_are_not_node_ids(queries):
    from repro.mining.rwr import random_walk_with_restart

    with pytest.raises(ValidationError):
        random_walk_with_restart(
            rmat_graph(N, 4 * N, seed=3), kernel="cpu-csr",
            queries=queries, max_iter=5,
        )


def test_whole_float_and_numpy_integer_seeds_are_node_ids():
    from repro.mining.power_method import check_seed

    assert check_seed(2.0, N) == 2
    assert check_seed(np.int32(5), N) == 5
    assert check_seed(np.float64(7.0), N) == 7
    assert type(check_seed(np.int64(3), N)) is int
