"""Tests for the lookup table, performance model and auto-tuner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.autotune import (
    autotune,
    exhaustive_search,
    partition_tile,
    workload_candidates,
)
from repro.core.lookup import LookupTable
from repro.core.perf_model import predict_tile_seconds
from repro.core.workload import STORAGE_CSR, STORAGE_ELL
from repro.errors import ValidationError
from repro.graphs.chung_lu import chung_lu_graph
from repro.gpu.spec import DeviceSpec
from repro.kernels import create


@pytest.fixture(scope="module")
def dev():
    return DeviceSpec.tesla_c1060().scaled(
        texture_cache_bytes=2048, global_latency_cycles=30.0,
        kernel_launch_seconds=7e-8,
    )


@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(3000, 30_000, exponent=2.1, seed=21)


@pytest.fixture(scope="module")
def table(dev):
    return LookupTable(dev)


class TestLookupTable:
    def test_memoisation(self, table):
        before = len(table)
        p1 = table.performance(64, 4, 60, 4, STORAGE_CSR)
        p2 = table.performance(64, 4, 60, 4, STORAGE_CSR)
        assert p1 == p2
        assert len(table) == before + 1

    def test_positive_throughput(self, table):
        assert table.performance(32, 1, 30, 1, STORAGE_CSR) > 0
        assert table.performance(3, 64, 3, 64, STORAGE_ELL) > 0

    def test_uncached_slower(self, table):
        cached = table.performance(64, 8, 60, 8, STORAGE_CSR, cached=True)
        uncached = table.performance(
            64, 8, 60, 8, STORAGE_CSR, cached=False
        )
        assert uncached < cached

    def test_rejects_bad_storage(self, table):
        with pytest.raises(ValidationError):
            table.performance(32, 1, 32, 1, 7)


class TestPerfModel:
    def test_prediction_positive(self, dev, table):
        lengths = np.sort(
            np.random.default_rng(0).integers(1, 50, 500)
        )[::-1]
        t = predict_tile_seconds(lengths, int(lengths[0]) * 2, table, dev)
        assert t > 0

    def test_empty_tile_zero(self, dev, table):
        assert predict_tile_seconds(
            np.array([], dtype=int), 4, table, dev
        ) == 0.0

    def test_more_nnz_more_time(self, dev, table):
        small = np.full(100, 10)
        large = np.full(1000, 10)
        t_small = predict_tile_seconds(small, 40, table, dev)
        t_large = predict_tile_seconds(large, 40, table, dev)
        assert t_large > t_small


class TestWorkloadCandidates:
    def test_multiples_of_first_row(self, dev):
        lengths = np.sort(
            np.random.default_rng(1).integers(1, 20, 100_000)
        )[::-1]
        first = int(lengths[0])
        for c in workload_candidates(lengths, dev):
            assert c % first == 0

    def test_bounded_count(self, dev):
        lengths = np.concatenate(
            [[10], np.ones(10_000_000, dtype=int)]
        )
        cands = workload_candidates(lengths, dev, max_candidates=16)
        assert len(cands) <= 18  # cap plus the forced endpoints

    def test_lower_bound_is_first_row(self, dev):
        lengths = np.array([50, 3, 2])
        cands = workload_candidates(lengths, dev)
        assert min(cands) == 50

    def test_empty(self, dev):
        assert workload_candidates(np.array([], dtype=int), dev) == [1]


class TestPartitionTile:
    def test_returns_feasible_size(self, dev, table):
        lengths = np.sort(
            np.random.default_rng(2).integers(1, 30, 2000)
        )[::-1]
        size, seconds = partition_tile(lengths, dev, table)
        assert size >= int(lengths[0])
        assert seconds > 0

    def test_empty_tile(self, dev, table):
        size, seconds = partition_tile(
            np.array([], dtype=int), dev, table
        )
        assert seconds == 0.0


class TestAutotune:
    def test_result_structure(self, graph, dev):
        result = autotune(graph, dev)
        assert result.n_tiles == len(result.workload_sizes)
        assert result.predicted_seconds > 0
        kwargs = result.as_build_kwargs()
        assert kwargs["n_tiles"] == result.n_tiles

    def test_workload_sizes_feasible(self, graph, dev):
        result = autotune(graph, dev)
        kernel = create(
            "tile-composite", graph, device=dev, **result.as_build_kwargs()
        )
        x = np.ones(graph.n_cols)
        np.testing.assert_allclose(
            kernel.matrix.spmv(x), graph.spmv(x), atol=1e-9
        )

    def test_tuned_kernel_flag(self, graph, dev):
        kernel = create("tile-composite", graph, device=dev, tuned=True)
        assert kernel.tuning is not None
        assert kernel.n_tiles == kernel.tuning.n_tiles

    def test_close_to_exhaustive(self, graph, dev):
        """Figure 5(b): auto-tuned performance within a few percent of
        the exhaustive search."""
        tuned = autotune(graph, dev)
        exhaustive = exhaustive_search(graph, dev, max_candidates=8)
        k_auto = create(
            "tile-composite", graph, device=dev, **tuned.as_build_kwargs()
        )
        k_best = create(
            "tile-composite", graph, device=dev,
            **exhaustive.as_build_kwargs(),
        )
        ratio = k_auto.cost().time_seconds / k_best.cost().time_seconds
        assert ratio <= 1.15

    def test_tile_count_close_to_exhaustive(self, graph, dev):
        """Figure 5(a): predicted tile count within +-2 of optimal."""
        tuned = autotune(graph, dev)
        exhaustive = exhaustive_search(graph, dev, max_candidates=8)
        assert abs(tuned.n_tiles - exhaustive.n_tiles) <= 2

    def test_prediction_within_tolerance(self, graph, dev):
        """Figure 5(c): model predictions within ~35% of 'measured'
        (simulated) kernel time (the paper reports ~20% on hardware)."""
        tuned = autotune(graph, dev)
        kernel = create(
            "tile-composite", graph, device=dev, **tuned.as_build_kwargs()
        )
        measured = kernel.cost().time_seconds
        predicted = tuned.predicted_seconds
        assert predicted == pytest.approx(measured, rel=0.35)


class _ScriptedTable:
    """Stand-in lookup table replaying scripted (possibly degenerate)
    throughput scores — ``NaN``, ``inf``, zero or negative — to model a
    corrupted or pathological offline benchmark."""

    def __init__(self, scores):
        self._scores = list(scores)
        self._calls = 0

    def performance(self, *args, **kwargs):
        score = self._scores[self._calls % len(self._scores)]
        self._calls += 1
        return score


class TestDegenerateScoreTables:
    """Regression tests: Algorithm 2 must never emit the unusable
    ``workload_size=0`` sentinel, whatever the score table predicts."""

    @pytest.fixture(scope="class")
    def lengths(self):
        return np.sort(
            np.random.default_rng(3).integers(1, 40, 1500)
        )[::-1]

    def test_all_nan_falls_back_to_first_candidate(self, dev, lengths):
        # A NaN throughput score is excluded by the model's p > 0
        # guard, and a NaN *time* is rejected by the running minimum;
        # either way the fallback must be the first feasible candidate.
        size, seconds = partition_tile(
            lengths, dev, _ScriptedTable([float("nan")])
        )
        candidates = workload_candidates(lengths, dev)
        assert size == candidates[0]
        assert size >= int(lengths[0]) > 0
        assert not np.isnan(seconds)

    def test_all_inf_returns_feasible_size(self, dev, lengths):
        # An infinite throughput score predicts a zero time for every
        # candidate; the tie must resolve to a feasible candidate.
        size, _seconds = partition_tile(
            lengths, dev, _ScriptedTable([float("inf")])
        )
        assert size in workload_candidates(lengths, dev)
        assert size >= int(lengths[0]) > 0

    def test_nan_candidates_never_win(self, dev, lengths):
        # Scores alternate NaN / finite; a NaN time must lose to any
        # finite one instead of poisoning the running minimum.
        table = _ScriptedTable([float("nan"), 1e9])
        size, seconds = partition_tile(lengths, dev, table)
        assert size in workload_candidates(lengths, dev)
        assert np.isfinite(seconds) or seconds == np.inf

    @given(
        scores=st.lists(
            st.one_of(
                st.sampled_from(
                    [float("nan"), float("inf"), 0.0, -1.0]
                ),
                st.floats(
                    min_value=1e-9,
                    max_value=1e9,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_always_feasible(self, dev, lengths, scores):
        size, _seconds = partition_tile(
            lengths, dev, _ScriptedTable(scores)
        )
        assert size in workload_candidates(lengths, dev)
        assert size >= int(lengths[0]) > 0

    def test_autotune_survives_nan_table(self, graph, dev):
        result = autotune(
            graph, dev, table=_ScriptedTable([float("nan")])
        )
        assert all(s > 0 for s in result.workload_sizes)
        if result.remainder_workload_size is not None:
            assert result.remainder_workload_size > 0
        # The fallback sizes must still build a correct kernel.
        kernel = create(
            "tile-composite", graph, device=dev,
            **result.as_build_kwargs(),
        )
        x = np.ones(graph.n_cols)
        np.testing.assert_allclose(
            kernel.matrix.spmv(x), graph.spmv(x), atol=1e-9
        )

    def test_exhaustive_search_nan_costs_fall_back(
        self, dev, monkeypatch
    ):
        from repro.kernels import tile_composite as tc

        class _NaNCost:
            time_seconds = float("nan")

        monkeypatch.setattr(
            tc, "composite_tile_cost", lambda tile, device: _NaNCost()
        )
        small = chung_lu_graph(400, 3_000, exponent=2.1, seed=5)
        result = exhaustive_search(
            small, dev, max_tiles=1, max_candidates=4
        )
        assert all(s > 0 for s in result.workload_sizes)
        if result.remainder_workload_size is not None:
            assert result.remainder_workload_size > 0
