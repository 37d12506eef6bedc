"""Tests of the measured auto-tuner (``repro.tuner``).

The contracts under test:

* **Determinism** — the same matrix always fingerprints identically,
  and with a shared cache the second ``tune()`` call returns the
  identical decision with *zero* measurement runs (asserted on both
  the ``tuner.cache.hits`` counter and the absence of new
  ``tuner.measure`` trace spans).
* **Correctness** — whatever configuration wins, the built engine's
  ``spmv``/``spmm`` match the dense reference bitwise against the
  single-plan path's guarantees.
* **Resilience** — corrupt cache files, stale (environment-mismatched)
  entries and disabled caches all fall back to measurement without
  raising.
"""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.exec.sharded import ShardedExecutor
from repro.formats.registry import format_names
from repro.graphs.rmat import rmat_graph
from repro.mining.pagerank import pagerank
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE
from repro.tuner import (
    TuningCache,
    TuningDecision,
    candidate_grid,
    default_cache_path,
    environment_key,
    matrix_fingerprint,
    resolve_cache_path,
    tune,
)
from repro.tuner.cache import CACHE_ENV

from tests.conftest import random_coo


@contextmanager
def obs():
    """Enable observability with clean registries; restore after."""
    prior = metrics_mod.enabled()
    metrics_mod.enable()
    METRICS.reset()
    TRACE.reset()
    try:
        yield
    finally:
        (metrics_mod.enable if prior else metrics_mod.disable)()
        METRICS.reset()
        TRACE.reset()


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the default cache at a per-test file — the suite must
    never read or write the developer's real ~/.cache entry."""
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "tuner_cache.json"))
    return tmp_path / "tuner_cache.json"


@pytest.fixture(scope="module")
def matrix():
    return rmat_graph(512, 4096, seed=11)


def quick_tune(matrix, **kwargs):
    kwargs.setdefault("repeats", 1)
    kwargs.setdefault("warmup", 0)
    return tune(matrix, **kwargs)


# ----------------------------------------------------------------------
# Fingerprints and environment keys
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_deterministic_across_builds(self):
        a = rmat_graph(256, 2048, seed=5)
        b = rmat_graph(256, 2048, seed=5)
        assert a is not b
        assert matrix_fingerprint(a) == matrix_fingerprint(b)

    def test_sensitive_to_structure(self):
        base = rmat_graph(256, 2048, seed=5)
        other_seed = rmat_graph(256, 2048, seed=6)
        other_shape = rmat_graph(512, 2048, seed=5)
        assert matrix_fingerprint(base) != matrix_fingerprint(other_seed)
        assert matrix_fingerprint(base) != matrix_fingerprint(other_shape)

    def test_distinguishes_transpose(self):
        m = random_coo(64, 64, 300, seed=3)
        from repro.formats.coo import COOMatrix

        t = COOMatrix.from_unsorted(
            m.cols, m.rows, m.data, (m.n_cols, m.n_rows)
        )
        # Same shape, nnz and value set; mirrored degree histograms.
        if not np.array_equal(
            np.bincount(m.row_lengths()), np.bincount(m.col_lengths())
        ):
            assert matrix_fingerprint(m) != matrix_fingerprint(t)

    def test_environment_key_is_json_stable(self):
        key = environment_key()
        assert key == json.loads(json.dumps(key))
        assert key["cpu_count"] >= 1
        assert 1 <= key["cpu_affinity"] <= key["cpu_count"]
        assert "numpy" in key
        # numba/llvmlite keys exist even when the JIT stack is absent,
        # so installing it later invalidates the cache.
        assert "numba" in key and "llvmlite" in key


# ----------------------------------------------------------------------
# Cache path resolution
# ----------------------------------------------------------------------


class TestCachePath:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "custom.json"))
        assert resolve_cache_path() == tmp_path / "custom.json"

    @pytest.mark.parametrize(
        "value", ["off", "0", "none", "disabled", "OFF", " Disabled "]
    )
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(CACHE_ENV, value)
        assert resolve_cache_path() is None
        assert not TuningCache().enabled

    def test_default_is_xdg_aware(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_path() == (
            tmp_path / "xdg" / "repro" / "tuner_cache.json"
        )
        assert resolve_cache_path() == default_cache_path()


# ----------------------------------------------------------------------
# The candidate grid
# ----------------------------------------------------------------------


class TestCandidateGrid:
    def test_model_seeded_grid_keeps_csr_baseline(self, matrix):
        candidates, meta = candidate_grid(matrix)
        formats = {fmt for fmt, _b, _s in candidates}
        assert "csr" in formats
        assert meta["model_kernel"] in (
            "csr-vector", "ell", "tile-composite"
        )

    def test_pinned_formats_bypass_model(self, matrix):
        candidates, meta = candidate_grid(matrix, formats=("coo",))
        assert {fmt for fmt, _b, _s in candidates} == {"coo"}
        assert meta["model_kernel"] is None

    def test_rejects_unknown_format(self, matrix):
        with pytest.raises(ValidationError):
            candidate_grid(matrix, formats=("bogus",))

    def test_rejects_bad_shard_count(self, matrix):
        with pytest.raises(ValidationError):
            candidate_grid(matrix, shard_counts=(0,))

    def test_format_free_candidates_keep_the_baseline_label(self, matrix):
        candidates, _ = candidate_grid(
            matrix, backends=("numpy", "scipy"), shard_counts=(1, 2)
        )
        formats = [f for f, b, s in candidates if (b, s) == ("numpy", 1)]
        assert formats[0] == "csr"
        assert ("csr", "scipy", 1) in candidates
        for backend, n_shards in (("numpy", 2), ("scipy", 2)):
            assert [
                f for f, b, s in candidates if (b, s) == (backend, n_shards)
            ] == ["csr"]
        pinned, _ = candidate_grid(
            matrix, formats=("hyb", "ell"), backends=("scipy",),
            shard_counts=(1,),
        )
        assert pinned == [("hyb", "scipy", 1)]

    @pytest.mark.parametrize("nodes, edges, full, distinct", [
        (65536, 600_000, 16, 7),
        (4096, 65_536, 8, 5),
    ])
    def test_default_grid_builds_distinct_engines(
        self, monkeypatch, nodes, edges, full, distinct
    ):
        """Every default-grid candidate builds a different engine: the
        format is only crossed where it changes what runs (numpy, one
        shard).  ``full`` is the size of the whole ``format x backend x
        shard-count`` cross; the larger R-MAT gets two shards from the
        auto policy only on two cores."""
        from repro.exec.backends import available_backends

        if os.environ.get("REPRO_SPMV_BACKEND") or (
            available_backends() != ["numpy", "scipy"]
        ):
            pytest.skip("grid sizes assume the numpy + scipy backends")
        monkeypatch.setattr(
            "repro.exec.sharded.available_cpu_count", lambda: 2
        )
        graph = rmat_graph(nodes, edges, seed=7)
        candidates, _ = candidate_grid(graph)
        formats = {f for f, b, s in candidates if b == "numpy" and s == 1}
        shard_counts = {s for _f, _b, s in candidates}
        assert len(formats) * 2 * len(shard_counts) == full
        assert len(candidates) == distinct
        if graph.nnz > 100_000:
            return  # the engine builds below run on the small R-MAT
        kinds = []
        for fmt, backend, n_shards in candidates:
            with TuningDecision(
                "x", fmt, backend, n_shards, 0.0
            ).build_engine(graph) as engine:
                kinds.append((type(engine).__name__, engine.backend,
                              getattr(engine, "n_shards", 1)))
        assert len(set(kinds)) == len(kinds)



# ----------------------------------------------------------------------
# Tuning decisions and engines
# ----------------------------------------------------------------------


class TestTune:
    def test_decision_is_valid_and_engine_correct(self, matrix):
        decision = quick_tune(matrix)
        assert decision.format in format_names()
        assert decision.n_shards >= 1
        assert decision.seconds > 0
        assert not decision.from_cache
        measured = [c for c in decision.candidates if "seconds" in c]
        assert len(measured) >= 1
        x = np.random.default_rng(2).random(matrix.n_cols)
        reference = matrix.to_dense() @ x
        with decision.build_engine(matrix) as engine:
            np.testing.assert_allclose(engine.spmv(x), reference)
            X = np.column_stack([x, 2.0 * x])
            Y = engine.spmm(X)
            np.testing.assert_allclose(Y[:, 0], engine.spmv(x))

    def test_deterministic_via_cache(self, matrix):
        first = quick_tune(matrix)
        second = quick_tune(matrix)
        assert matrix_fingerprint(matrix) == first.fingerprint
        assert second.from_cache
        assert second.to_dict() == first.to_dict()

    def test_cache_hit_skips_all_measurement(self, matrix):
        with obs():
            quick_tune(matrix)
            assert len(TRACE.find("tuner.measure")) >= 1
            METRICS.reset()
            TRACE.reset()
            decision = quick_tune(matrix)
            assert decision.from_cache
            assert METRICS.counter_total("tuner.cache.hits") == 1
            assert TRACE.find("tuner.measure") == []
            assert (
                METRICS.counter("tuner.decisions", source="cache") == 1
            )

    def test_force_remeasures(self, matrix):
        quick_tune(matrix)
        forced = quick_tune(matrix, force=True)
        assert not forced.from_cache

    def test_different_options_do_not_share_entries(self, matrix):
        quick_tune(matrix)
        other = quick_tune(matrix, formats=("csr",))
        assert not other.from_cache

    def test_measure_times_the_engine_build_engine_serves(
        self, matrix, monkeypatch
    ):
        built = []
        build = TuningDecision.build_engine

        def recording(self, m):
            engine = build(self, m)
            built.append(((self.format, self.backend, self.n_shards),
                          engine))
            return engine

        monkeypatch.setattr(TuningDecision, "build_engine", recording)
        decision = quick_tune(matrix, cache=None)
        measured = [
            (c["format"], c["backend"], c["n_shards"])
            for c in decision.candidates if "seconds" in c
        ]
        assert [config for config, _ in built] == measured
        for _, engine in built:
            assert engine.executions >= 1

    def test_build_engine_is_a_plan_or_an_executor(self, matrix, monkeypatch):
        import repro.tuner.tuner as tuner_mod
        from repro.exec.plan import SpMVPlan

        conversions = []
        convert = tuner_mod.to_format

        def counting(m, fmt):
            conversions.append(fmt)
            return convert(m, fmt)

        monkeypatch.setattr(tuner_mod, "to_format", counting)
        x = np.random.default_rng(3).random(matrix.n_cols)
        one = TuningDecision("x", "hyb", "numpy", 1, 0.0)
        with one.build_engine(matrix) as plan:
            assert isinstance(plan, SpMVPlan)
            np.testing.assert_allclose(plan.spmv(x), matrix.to_dense() @ x)
        assert conversions == ["hyb"]
        many = TuningDecision("x", "hyb", "numpy", 2, 0.0)
        with many.build_engine(matrix) as executor:
            assert isinstance(executor, ShardedExecutor)
            assert executor.n_shards == 2
            np.testing.assert_array_equal(
                executor.spmv(x), matrix.spmv_plan("numpy").execute(x)
            )
        assert conversions == ["hyb"]  # no copy for the sharded build

    def test_rejects_bad_budget(self, matrix):
        with pytest.raises(ValidationError):
            tune(matrix, repeats=0)
        with pytest.raises(ValidationError):
            tune(matrix, warmup=-1)


class TestCacheResilience:
    def test_corrupt_file_falls_back_to_measurement(
        self, matrix, isolated_cache
    ):
        quick_tune(matrix)
        isolated_cache.write_text("{ not json")
        with obs():
            decision = quick_tune(matrix)
            assert not decision.from_cache
            assert METRICS.counter_total("tuner.cache.corrupt") >= 1
        # The re-tune healed the file: next call hits again.
        assert quick_tune(matrix).from_cache

    def test_corrupt_entry_falls_back(self, matrix, isolated_cache):
        quick_tune(matrix)
        payload = json.loads(isolated_cache.read_text())
        fingerprint = matrix_fingerprint(matrix)
        payload["entries"][fingerprint]["decision"] = "garbage"
        isolated_cache.write_text(json.dumps(payload))
        assert not quick_tune(matrix).from_cache

    def test_version_mismatch_is_stale(self, matrix, isolated_cache):
        quick_tune(matrix)
        payload = json.loads(isolated_cache.read_text())
        fingerprint = matrix_fingerprint(matrix)
        entry = payload["entries"][fingerprint]
        entry["environment"]["numpy"] = "0.0.1"
        isolated_cache.write_text(json.dumps(payload))
        with obs():
            decision = quick_tune(matrix)
            assert not decision.from_cache
            assert METRICS.counter_total("tuner.cache.stale") == 1

    def test_schema_version_mismatch_orphans_file(
        self, matrix, isolated_cache
    ):
        quick_tune(matrix)
        payload = json.loads(isolated_cache.read_text())
        payload["version"] = 999
        isolated_cache.write_text(json.dumps(payload))
        assert not quick_tune(matrix).from_cache

    def test_disabled_cache_never_persists(
        self, matrix, monkeypatch, isolated_cache
    ):
        monkeypatch.setenv(CACHE_ENV, "off")
        decision = quick_tune(matrix)
        assert not decision.from_cache
        assert not quick_tune(matrix).from_cache
        assert not isolated_cache.exists()

    def test_atomic_write_leaves_no_temp_files(
        self, matrix, isolated_cache
    ):
        quick_tune(matrix)
        leftovers = list(isolated_cache.parent.glob("*.tmp.*"))
        assert leftovers == []
        json.loads(isolated_cache.read_text())  # well-formed


class TestDecisionSerialisation:
    def test_round_trip(self, matrix):
        decision = quick_tune(matrix)
        again = TuningDecision.from_dict(decision.to_dict())
        assert again.to_dict() == decision.to_dict()

    def test_rejects_unknown_format(self):
        with pytest.raises(ValidationError):
            TuningDecision.from_dict({
                "fingerprint": "x", "format": "bogus",
                "backend": "numpy", "n_shards": 1, "seconds": 1.0,
            })

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValidationError):
            TuningDecision.from_dict({
                "fingerprint": "x", "format": "csr",
                "backend": "numpy", "n_shards": 0, "seconds": 1.0,
            })


# ----------------------------------------------------------------------
# Integration: tuned_plan, mining tune=
# ----------------------------------------------------------------------


class TestIntegration:
    def test_tuned_plan_caches_engine(self):
        m = random_coo(200, 200, 1500, seed=4)
        engine = m.tuned_plan(repeats=1, warmup=0)
        assert engine is m.tuned_plan(repeats=1, warmup=0)
        x = np.random.default_rng(0).random(m.n_cols)
        np.testing.assert_allclose(engine.spmv(x), m.to_dense() @ x)

    def test_sharded_executor_has_no_tuned_shard_count(self, matrix):
        with pytest.raises(ValidationError):
            ShardedExecutor(matrix, "tuned")

    def test_pagerank_tune_matches_untuned(self, matrix):
        tuned = pagerank(matrix, tune=True, tol=1e-6)
        plain = pagerank(matrix, tol=1e-6)
        # The tuner may pick a different format/backend than the plain
        # run, so reduction order — and therefore the last ulp — can
        # differ; equality is only up to floating-point associativity.
        np.testing.assert_allclose(
            tuned.vector, plain.vector, rtol=1e-9, atol=1e-12
        )
        assert tuned.extra["n_shards"] >= 1

    def test_tune_conflicts_with_explicit_engine(self, matrix):
        with pytest.raises(ValidationError):
            pagerank(matrix, tune=True, n_shards=2)


# ----------------------------------------------------------------------
# Scenario twins: spec-generated matrices through the cache
# ----------------------------------------------------------------------


class TestScenarioTwins:
    """Same-spec twins must never share a cache row across scales."""

    def test_twins_at_different_scales_fingerprint_differently(self):
        from repro.graphs.scenarios import get_scenario
        from repro.tuner import spec_fingerprint

        spec = get_scenario("powerlaw_web")
        small = spec_fingerprint(spec, scale=0.2, seed=7)
        large = spec_fingerprint(spec, scale=0.4, seed=7)
        assert small != large
        # Regenerating the same triple rehits the same key anywhere.
        assert small == spec_fingerprint(spec, scale=0.2, seed=7)

    def test_no_false_cache_hit_across_scales(self):
        from repro.graphs.fit import generate
        from repro.graphs.scenarios import get_scenario

        spec = get_scenario("powerlaw_web")
        small = generate(spec, scale=0.2, seed=7)
        large = generate(spec, scale=0.4, seed=7)
        first = quick_tune(small)
        second = quick_tune(large)
        # The larger twin measured for itself instead of replaying the
        # small twin's decision.
        assert not second.from_cache
        assert first.fingerprint != second.fingerprint
        # And each twin replays its *own* row afterwards.
        assert quick_tune(small).from_cache
        assert quick_tune(large).from_cache

    def test_tuned_plan_keys_per_twin(self):
        from repro.graphs.fit import generate
        from repro.graphs.scenarios import get_scenario
        from repro.tuner import matrix_fingerprint

        spec = get_scenario("uniform_sparse")
        small = generate(spec, scale=0.2, seed=3)
        large = generate(spec, scale=0.5, seed=3)
        engine_small = small.tuned_plan(repeats=1, warmup=0)
        engine_large = large.tuned_plan(repeats=1, warmup=0)
        assert matrix_fingerprint(small) != matrix_fingerprint(large)
        x_small = np.random.default_rng(0).random(small.n_cols)
        x_large = np.random.default_rng(0).random(large.n_cols)
        np.testing.assert_allclose(
            engine_small.spmv(x_small), small.to_dense() @ x_small
        )
        np.testing.assert_allclose(
            engine_large.spmv(x_large), large.to_dense() @ x_large
        )


# ----------------------------------------------------------------------
# The exact cache key: fingerprint, environment and options
# ----------------------------------------------------------------------


class TestExactKey:
    @staticmethod
    def _updated(matrix, n_ops, seed=3):
        from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream

        dyn = DynamicMatrix(matrix.to_coo())
        dyn.apply_updates(seeded_update_stream(dyn, n_ops, seed=seed))
        dyn.compact()
        return dyn.base

    def test_no_false_exact_hits_across_update(self, matrix):
        seeded = quick_tune(matrix)
        updated = self._updated(matrix, 32)
        # A compaction changes the fingerprint: the updated twin must
        # measure for itself — never silently replay the stale row.
        decision = quick_tune(updated)
        assert not decision.from_cache
        assert decision.fingerprint != seeded.fingerprint
        # And each twin replays its own row afterwards.
        assert quick_tune(matrix).from_cache
        assert quick_tune(updated).from_cache

    def test_stored_entry_holds_only_key_and_decision(
        self, matrix, isolated_cache
    ):
        decision = quick_tune(matrix)
        entries = json.loads(isolated_cache.read_text())["entries"]
        entry = entries[decision.fingerprint]
        assert set(entry) == {"environment", "options", "decision"}
        assert entry["environment"] == environment_key()
        assert entry["decision"] == decision.to_dict()

    def test_entry_with_legacy_signature_key_is_an_exact_hit(
        self, matrix, isolated_cache
    ):
        seeded = quick_tune(matrix)
        # Older versions stored a degree signature beside each entry;
        # such files must still serve their exact hits.
        payload = json.loads(isolated_cache.read_text())
        entry = payload["entries"][seeded.fingerprint]
        entry["signature"] = {
            "shape": [matrix.n_rows, matrix.n_cols],
            "nnz": matrix.nnz,
            "dtype": "float64",
            "row_hist": [1.0],
            "col_hist": [1.0],
        }
        isolated_cache.write_text(json.dumps(payload))
        with obs():
            decision = quick_tune(matrix)
            assert decision.from_cache
            assert METRICS.counter_total("tuner.cache.hits") == 1
            assert TRACE.find("tuner.measure") == []
        assert decision.to_dict() == seeded.to_dict()


# ----------------------------------------------------------------------
# Stale affinity in long-lived processes (satellite regression)
# ----------------------------------------------------------------------


class TestStaleAffinity:
    """A long-lived server's affinity mask can change under it (cgroup
    resize, taskset, worker respawn under a CPU limit).  The environment
    key is computed fresh on every ``tune()`` call, so the *on-disk*
    cache already misses — but the in-memory engine cache on
    ``SparseMatrix.tuned_plan`` used to key on options alone and kept
    serving a shard-count decision measured for the old machine shape.
    """

    @staticmethod
    def _patch_affinity(monkeypatch, n: int) -> None:
        # environment_key() imports available_cpu_count from
        # repro.exec.sharded at call time, so patching the module
        # attribute changes what every fresh key sees.
        monkeypatch.setattr(
            "repro.exec.sharded.available_cpu_count", lambda: n
        )

    def test_environment_key_tracks_affinity_live(self, monkeypatch):
        self._patch_affinity(monkeypatch, 8)
        assert environment_key()["cpu_affinity"] == 8
        self._patch_affinity(monkeypatch, 2)
        assert environment_key()["cpu_affinity"] == 2

    def test_disk_cache_misses_after_affinity_change(self, monkeypatch):
        m = rmat_graph(384, 3000, seed=41)
        self._patch_affinity(monkeypatch, 8)
        first = quick_tune(m)
        assert quick_tune(m).from_cache
        self._patch_affinity(monkeypatch, 2)
        second = quick_tune(m)
        assert not second.from_cache, (
            "a shard decision measured under affinity 8 must not be "
            "replayed under affinity 2"
        )
        assert first.fingerprint == second.fingerprint

    def test_tuned_plan_retunes_after_affinity_change(self, monkeypatch):
        # The regression: before the environment-aware engine cache this
        # returned the identical (stale) engine after the mask changed.
        m = rmat_graph(384, 3000, seed=42)
        self._patch_affinity(monkeypatch, 8)
        engine_wide = m.tuned_plan(repeats=1, warmup=0)
        assert engine_wide is m.tuned_plan(repeats=1, warmup=0)
        self._patch_affinity(monkeypatch, 2)
        engine_narrow = m.tuned_plan(repeats=1, warmup=0)
        assert engine_narrow is not engine_wide
        # Stable again at the new shape, and still correct.
        assert engine_narrow is m.tuned_plan(repeats=1, warmup=0)
        # The re-tune may land on a different format/backend, so only
        # floating-point-associativity closeness holds vs the dense ref.
        x = np.random.default_rng(43).random(m.n_cols)
        np.testing.assert_allclose(engine_narrow.spmv(x), m.to_dense() @ x)
