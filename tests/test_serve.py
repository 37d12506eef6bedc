"""Tests of the query service (``repro.serve``).

The load-bearing contract is the **bitwise coalescing guarantee**:
every column of a coalesced batch equals the solo run of that query on
an engine of the same configuration, bit for bit — batching is a
throughput optimisation that must be invisible in the numbers.  Around
it: admission control, per-query deadlines, warm/cold eviction, a
machine-shape change under a warm graph, the SLA metrics, and the
JSON-lines TCP front-end.  (The hypothesis interleaving suite lives in
``test_serve_property.py``.)
"""

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.errors import (
    GraphNotRegisteredError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.exec.sharded import ShardedExecutor, available_cpu_count
from repro.formats.coo import COOMatrix
from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream
from repro.graphs.rmat import rmat_graph
from repro.mining.hits import hits
from repro.mining.pagerank import pagerank_operator
from repro.mining.rwr import random_walk_with_restart, rwr_operator
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import METRICS
from repro.serve import (
    QueryService,
    run_selftest,
    seeded_batch,
    seeded_solo,
    serve_tcp,
)


@pytest.fixture
def graph():
    return rmat_graph(256, 2048, seed=17)


@pytest.fixture
def service(graph):
    svc = QueryService(window_seconds=0.005, max_batch=8, max_queue=64)
    svc.register("g", graph)
    with svc:
        yield svc


def gather(service, requests):
    """Fire the requests concurrently from fresh asyncio clients and
    return replies (exceptions surface as result objects)."""

    async def main():
        return await asyncio.gather(
            *(service.query(**request) for request in requests),
            return_exceptions=True,
        )

    return asyncio.run(main())


def raise_errors(replies):
    for reply in replies:
        if isinstance(reply, BaseException):
            raise reply
    return replies


# ----------------------------------------------------------------------
# The batch loop itself: lockstep columns == solo runs
# ----------------------------------------------------------------------


class TestSeededBatch:
    @pytest.mark.parametrize("make_engine", [
        lambda op: op,  # cached-plan path
        lambda op: ShardedExecutor(op, 3),
    ], ids=["plan", "sharded"])
    def test_batch_columns_bitwise_equal_solo(self, graph, make_engine):
        operator = pagerank_operator(graph.to_coo())
        engine = make_engine(operator)
        try:
            n = operator.n_rows
            seeds = [3, 99, 3, 250, 17]  # duplicate seeds coalesce too
            batch = seeded_batch(
                engine, n, seeds, alpha=0.85, tol=1e-10, max_iter=200
            )
            for seed, column in zip(seeds, batch):
                solo = seeded_solo(
                    engine, n, seed, alpha=0.85, tol=1e-10, max_iter=200
                )
                assert column.iterations == solo.iterations
                assert column.converged and solo.converged
                assert np.array_equal(column.vector, solo.vector)
        finally:
            closer = getattr(engine, "close", None)
            if closer is not None and engine is not operator:
                closer()

    def test_batch_matches_rwr_mining_loop(self, graph):
        # Cross-check against the PR-1 batched-RWR path the service
        # generalises: same operator, same recurrence, same seeds.
        operator = rwr_operator(graph.to_coo())
        n = operator.n_rows
        seeds = np.array([5, 40, 199])
        batch = seeded_batch(
            operator, n, list(seeds), alpha=0.9, tol=1e-8, max_iter=200
        )
        reference = random_walk_with_restart(
            graph, kernel="cpu-csr", queries=seeds, restart=0.9,
            tol=1e-8, max_iter=200, batched=True,
        )
        # Engines differ (service plan vs kernel object), so compare up
        # to floating-point associativity; iteration counts are exact.
        assert [c.iterations for c in batch] == list(
            reference.extra["per_query_iterations"]
        )
        np.testing.assert_allclose(
            batch[-1].vector, reference.vector, rtol=1e-9, atol=1e-12
        )

    def test_deadline_expired_column_does_not_poison_batch(self, graph):
        operator = pagerank_operator(graph.to_coo())
        n = operator.n_rows
        clean = seeded_batch(
            operator, n, [7, 80], alpha=0.85, tol=1e-10, max_iter=200
        )
        mixed = seeded_batch(
            operator, n, [7, 80, 150], alpha=0.85, tol=1e-10, max_iter=200,
            deadlines=[None, None, -1.0],  # already expired at entry
        )
        assert mixed[2].expired and not mixed[2].converged
        for before, after in zip(clean, mixed[:2]):
            assert after.converged
            assert after.iterations == before.iterations
            assert np.array_equal(after.vector, before.vector)

    def test_batch_input_validation(self, graph):
        operator = pagerank_operator(graph.to_coo())
        n = operator.n_rows
        with pytest.raises(ValidationError):
            seeded_batch(operator, n, [n], alpha=0.85, tol=1e-8,
                         max_iter=10)
        with pytest.raises(ValidationError):
            seeded_solo(operator, n, 0, alpha=1.5, tol=1e-8, max_iter=10)
        assert seeded_batch(operator, n, [], alpha=0.85, tol=1e-8,
                            max_iter=10) == []


# ----------------------------------------------------------------------
# Service: coalescing, admission, deadlines
# ----------------------------------------------------------------------


class TestQueryService:
    def test_concurrent_queries_coalesce_and_stay_bitwise(self, service):
        seeds = [3, 99, 250, 17, 42, 8, 77, 101]
        replies = raise_errors(gather(service, [
            {"graph": "g", "algorithm": "ppr", "seed": s} for s in seeds
        ]))
        assert max(r.batch_width for r in replies) > 1
        for reply in replies:
            assert reply.status == "ok"
            reference = reply.solo()
            assert reply.iterations == reference.iterations
            assert np.array_equal(reply.vector, reference.vector)

    def test_distinct_params_do_not_coalesce(self, service):
        # Different tolerances change the recurrence's stopping rule;
        # fusing them would break bitwise identity, so they must not
        # share a batch.
        replies = raise_errors(gather(service, [
            {"graph": "g", "algorithm": "ppr", "seed": 5, "tol": 1e-6},
            {"graph": "g", "algorithm": "ppr", "seed": 5, "tol": 1e-10},
        ]))
        assert all(r.batch_width == 1 for r in replies)
        assert replies[0].iterations < replies[1].iterations

    def test_rwr_queries_serve_from_rwr_operator(self, service, graph):
        reply = raise_errors(gather(service, [
            {"graph": "g", "algorithm": "rwr", "seed": 31},
        ]))[0]
        operator = rwr_operator(graph.to_coo())
        solo = seeded_solo(
            operator, operator.n_rows, 31, alpha=0.9, tol=1e-8,
            max_iter=200,
        )
        assert np.array_equal(reply.vector, solo.vector)

    def test_admission_control_rejects_loudly(self, graph):
        svc = QueryService(
            window_seconds=0.02, max_batch=4, max_queue=3
        )
        svc.register("g", graph)
        with svc:
            replies = gather(svc, [
                {"graph": "g", "algorithm": "ppr", "seed": s}
                for s in range(10)
            ])
        rejected = [
            r for r in replies if isinstance(r, ServiceOverloadedError)
        ]
        served = [r for r in replies if not isinstance(r, BaseException)]
        assert rejected, "overload must reject, not queue unboundedly"
        assert served, "admitted queries must still be answered"
        for reply in served:
            assert np.array_equal(reply.vector, reply.solo().vector)

    def test_deadline_expired_query_degrades_without_poisoning(
        self, service
    ):
        replies = raise_errors(gather(service, [
            {"graph": "g", "algorithm": "ppr", "seed": 3},
            {"graph": "g", "algorithm": "ppr", "seed": 99},
            {"graph": "g", "algorithm": "ppr", "seed": 150, "deadline": 0.0},
        ]))
        expired = [r for r in replies if r.seed == 150][0]
        assert expired.status == "deadline_expired"
        assert not expired.converged
        for reply in replies:
            if reply.seed == 150:
                continue
            assert reply.status == "ok"
            assert np.array_equal(reply.vector, reply.solo().vector)

    def test_hits_queries_cache_per_version(self, service, graph):
        replies = raise_errors(gather(service, [
            {"graph": "g", "algorithm": "hits"},
            {"graph": "g", "algorithm": "hits"},
        ]))
        expected = hits(graph.to_coo(), kernel="cpu-csr", tol=1e-8)
        for reply in replies:
            assert np.array_equal(reply.vector, expected.vector)
            assert np.array_equal(reply.vector, reply.solo().vector)

    def test_validation(self, service, graph):
        with pytest.raises(GraphNotRegisteredError):
            raise_errors(gather(service, [
                {"graph": "nope", "algorithm": "ppr", "seed": 0},
            ]))
        with pytest.raises(ValidationError):
            raise_errors(gather(service, [
                {"graph": "g", "algorithm": "ppr"},  # seed missing
            ]))
        with pytest.raises(ValidationError):
            raise_errors(gather(service, [
                {"graph": "g", "algorithm": "hits", "seed": 1},
            ]))
        with pytest.raises(ValidationError):
            raise_errors(gather(service, [
                {"graph": "g", "algorithm": "walktrap", "seed": 1},
            ]))
        with pytest.raises(ValidationError):
            service.register("g", graph)  # duplicate name
        with pytest.raises(ValidationError):
            service.register("tall", COOMatrix.from_edges(
                np.array([0]), np.array([1]), (4, 5)
            ))
        with pytest.raises(ValidationError):
            QueryService(max_batch=0)

    def test_closed_service_rejects(self, graph):
        svc = QueryService()
        svc.register("g", graph)
        svc.close()
        with pytest.raises(ValidationError):
            raise_errors(gather(svc, [
                {"graph": "g", "algorithm": "ppr", "seed": 0},
            ]))


# ----------------------------------------------------------------------
# Dynamic graphs, eviction, machine shape
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_dynamic_updates_rebuild_operators(self, ):
        base = rmat_graph(128, 1024, seed=23)
        dyn = DynamicMatrix(base.to_coo())
        svc = QueryService(window_seconds=0.001)
        svc.register("dyn", dyn)
        with svc:
            before = raise_errors(gather(svc, [
                {"graph": "dyn", "algorithm": "ppr", "seed": 11},
            ]))[0]
            dyn.apply_updates(seeded_update_stream(dyn, 32, seed=5))
            svc.notify_update("dyn")
            after = raise_errors(gather(svc, [
                {"graph": "dyn", "algorithm": "ppr", "seed": 11},
            ]))[0]
            assert after.version > before.version
            assert not np.array_equal(before.vector, after.vector)
            # Each reply's solo context pins its own snapshot's operator.
            assert np.array_equal(before.vector, before.solo().vector)
            assert np.array_equal(after.vector, after.solo().vector)
            current = pagerank_operator(dyn.coo_snapshot())
            solo = seeded_solo(
                current, dyn.shape[0], 11, alpha=0.85, tol=1e-8,
                max_iter=200,
            )
            assert np.array_equal(after.vector, solo.vector)

    def test_lru_eviction_keyed_by_fingerprint(self):
        prior = metrics_mod.enabled()
        metrics_mod.enable()
        METRICS.reset()
        try:
            svc = QueryService(window_seconds=0.001, max_warm=1)
            svc.register("a", rmat_graph(128, 1024, seed=1))
            svc.register("b", rmat_graph(128, 1024, seed=2))
            with svc:
                for name in ("a", "b", "a"):
                    reply = raise_errors(gather(svc, [
                        {"graph": name, "algorithm": "ppr", "seed": 7},
                    ]))[0]
                    assert np.array_equal(
                        reply.vector, reply.solo().vector
                    )
                states = svc.graphs()
                assert sum(1 for s in states.values() if s == "warm") <= 1
            evictions = METRICS.counter_series("serve.evictions")
            assert evictions, "LRU eviction must be recorded"
            assert any("fingerprint=" in key for key in evictions)
        finally:
            METRICS.reset()
            (metrics_mod.enable if prior else metrics_mod.disable)()

    def test_affinity_change_keeps_queries_bitwise(
        self, service, monkeypatch
    ):
        # Warm the engine, then change the affinity mask under the
        # service: the next batch resolves its engine for the new shape
        # and stays bitwise-correct.
        first = raise_errors(gather(service, [
            {"graph": "g", "algorithm": "ppr", "seed": 9},
        ]))[0]
        # Derived from the real affinity, so the change is real on
        # every host shape.
        cores = available_cpu_count() + 1
        monkeypatch.setattr(
            "repro.exec.sharded.available_cpu_count", lambda: cores
        )
        second = raise_errors(gather(service, [
            {"graph": "g", "algorithm": "ppr", "seed": 9},
        ]))[0]
        assert np.array_equal(first.vector, second.vector)
        assert np.array_equal(second.vector, second.solo().vector)

    def test_sla_report_shape(self, service):
        prior = metrics_mod.enabled()
        metrics_mod.enable()
        METRICS.reset()
        try:
            raise_errors(gather(service, [
                {"graph": "g", "algorithm": "ppr", "seed": s}
                for s in (1, 2, 3)
            ]))
            report = service.sla_report()
        finally:
            METRICS.reset()
            (metrics_mod.enable if prior else metrics_mod.disable)()
        assert report["queries"] == 3
        assert report["rejected"] == 0
        assert report["batch_width"]["count"] >= 1
        assert report["graphs"]["g"] == "warm"
        latency = report["latency_seconds"]
        assert any("ppr" in key for key in latency)
        for stats in latency.values():
            assert stats["p50"] is not None
            assert stats["p99"] >= stats["p50"]


# ----------------------------------------------------------------------
# TCP front-end and selftest
# ----------------------------------------------------------------------


class TestServer:
    def test_tcp_roundtrip_with_checksum(self, graph):
        svc = QueryService(window_seconds=0.001)
        svc.register("g", graph)

        async def main():
            server = await serve_tcp(svc, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )

            async def ask(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            query = await ask({
                "graph": "g", "algorithm": "ppr", "seed": 13,
                "full": True,
            })
            stats = await ask({"op": "stats"})
            unknown = await ask({"graph": "g", "algorithm": "nope",
                                 "seed": 1})
            missing = await ask({"algorithm": "ppr", "seed": 1})
            bad_field = await ask({"graph": "g", "seed": 1, "zap": 2})
            writer.close()
            server.close()
            await server.wait_closed()
            return query, stats, unknown, missing, bad_field

        with svc:
            query, stats, unknown, missing, bad_field = asyncio.run(main())
        assert query["status"] == "ok"
        vector = np.array(query["vector"])
        digest = "sha256:" + hashlib.sha256(vector.tobytes()).hexdigest()
        assert query["checksum"] == digest
        assert len(query["top"]) == 10
        assert stats["status"] == "ok" and "graphs" in stats["stats"]
        assert unknown["status"] == "error"
        assert unknown["kind"] == "ValidationError"
        assert missing["status"] == "error"
        assert bad_field["status"] == "error"

    def test_selftest_quick(self):
        report = run_selftest(
            clients=12, n_nodes=256, nnz=2048, window_seconds=0.005
        )
        assert report["ok"] is True
        assert report["bitwise_checked"] == 12
        assert report["bitwise_mismatches"] == []
        assert report["coalesced_queries"] > 0
