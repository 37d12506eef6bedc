"""The query service runs on the mining setup cache.

A graph's operator, kernel and executors live in one place,
``adjacency.__dict__["_mining_setup"]``, whether a ``QueryService``
batch or a ``pagerank()``/``random_walk_with_restart()`` call asked for
them.  These tests pin what that buys and what it must not break:

* a graph served and mined in one process holds one operator per
  algorithm;
* every rebuild the service triggers counts as one
  ``mining.setup{result=miss}``;
* the lock order (service graph lock, then setup entry lock) holds up
  under mining threads, service queries and an update at once;
* a reply's ``solo()`` replays on its own operator, or for HITS its own
  adjacency snapshot, after the service closed or the graph moved on.
"""

import asyncio
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exec.sharded import available_cpu_count
from repro.formats.coo import COOMatrix
from repro.graphs.dynamic import DynamicMatrix, seeded_update_stream
from repro.graphs.rmat import rmat_graph
from repro.mining.pagerank import pagerank, pagerank_operator
from repro.mining.rwr import random_walk_with_restart, rwr_operator
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import METRICS
from repro.serve import QueryService, seeded_solo
from repro.tuner.cache import CACHE_ENV
from repro.tuner.fingerprint import matrix_fingerprint


def fresh(graph) -> COOMatrix:
    """Same contents, new object: nothing cached on it."""
    coo = graph.to_coo()
    return COOMatrix(
        coo.rows.copy(), coo.cols.copy(), coo.data.copy(), coo.shape
    )


def setup_entry(adjacency, algorithm="pagerank"):
    return adjacency.__dict__["_mining_setup"][algorithm]


def ask(service, requests):
    async def main():
        return await asyncio.gather(
            *(service.query(**request) for request in requests)
        )

    return asyncio.run(main())


@pytest.fixture
def counting():
    prior = metrics_mod.enabled()
    metrics_mod.enable()
    METRICS.reset()
    try:
        yield lambda result: METRICS.counter(
            "mining.setup", algorithm="pagerank", result=result
        )
    finally:
        METRICS.reset()
        (metrics_mod.enable if prior else metrics_mod.disable)()


def test_served_and_mined_graph_holds_one_operator(counting):
    graph = rmat_graph(256, 2048, seed=17)
    mined = pagerank(graph, kernel="coo")
    mined.per_iteration  # a sharded engine builds the kernel when priced
    operator = setup_entry(graph).operator
    with QueryService(window_seconds=0.001) as service:
        service.register("g", graph)
        [reply] = ask(service, [{"graph": "g", "seed": 5}])
        assert setup_entry(graph).operator is operator
        assert len(setup_entry(graph).kernels) == 1
    assert reply.fingerprint == mined.extra["operator_fingerprint"]
    assert counting("miss") == 1
    assert counting("hit") == 1
    # close() drops the one setup, for the miner too.
    assert setup_entry(graph).operator is None


def test_every_service_rebuild_is_one_miss(counting, monkeypatch):
    dyn = DynamicMatrix(rmat_graph(128, 1024, seed=23).to_coo())
    with QueryService(window_seconds=0.001) as service:
        service.register("dyn", dyn)
        query = [{"graph": "dyn", "seed": 11}]
        ask(service, query)  # cold
        assert counting("miss") == 1
        ask(service, query)
        assert counting("miss") == 1
        for seed in (5, 6):
            dyn.apply_updates(seeded_update_stream(dyn, 16, seed=seed))
            service.notify_update("dyn")
            ask(service, query)
            ask(service, query)
        assert counting("miss") == 3
        cores = available_cpu_count() + 1
        monkeypatch.setattr(
            "repro.exec.sharded.available_cpu_count", lambda: cores
        )
        # A ``None`` slot's engine does not depend on the machine
        # shape: the next batch reuses the setup.
        [reply] = ask(service, query)
        assert counting("miss") == 3
        assert counting("hit") == 4
    assert np.array_equal(reply.vector, reply.solo().vector)


def test_mining_and_service_share_one_adjacency_without_deadlock():
    """16 mining threads and a stream of coalesced service queries on
    one dynamic adjacency, with an update landing mid-run, all at a
    1 µs switch interval: every answer is bitwise equal to a reference
    on the version it ran on (told apart by operator fingerprint), and
    every thread finishes."""
    dyn = DynamicMatrix(rmat_graph(1024, 8192, seed=31).to_coo())
    versions = [dyn.to_coo()]
    update = seeded_update_stream(dyn, 64, seed=9)
    results, replies, errors = [], [], []
    # Call 32 finishes before the update lands and calls 48-63 start
    # after it, so both versions are mined; service waves 0-2 run
    # before it and waves 3-5 after.
    halfway, updated = threading.Event(), threading.Event()

    def mine(i):
        if i >= 48:
            updated.wait(timeout=60)
        if i % 2:
            result = random_walk_with_restart(dyn, kernel="coo", n_queries=3)
        else:
            result = pagerank(dyn, kernel="coo")
        if i == 32:
            halfway.set()
        return result

    def hammer():
        with ThreadPoolExecutor(max_workers=16) as pool:
            results.extend(pool.map(mine, range(64)))

    async def serve(service):
        for wave in range(6):
            if wave == 3:
                await asyncio.to_thread(halfway.wait, 60)
                await asyncio.to_thread(dyn.apply_updates, update)
                service.notify_update("g")
                versions.append(dyn.to_coo())
                updated.set()
            replies.extend(await asyncio.gather(*(
                service.query(
                    "g", algorithm=("ppr", "rwr")[seed % 2], seed=seed
                )
                for seed in range(wave, 60, 10)
            )))

    def guarded(target):
        def run():
            try:
                target()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        return threading.Thread(target=run, daemon=True)

    service = QueryService(window_seconds=0.002)
    service.register("g", dyn)
    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            guarded(hammer),
            guarded(lambda: asyncio.run(serve(service))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(prior)
    assert not any(t.is_alive() for t in threads), "deadlock"
    service.close()
    assert errors == []
    assert len(results) == 64 and len(replies) == 6 * 6

    references = {}
    for coo in versions:
        for run in (
            pagerank(fresh(coo), kernel="coo"),
            random_walk_with_restart(fresh(coo), kernel="coo", n_queries=3),
        ):
            references[run.algorithm, run.extra["operator_fingerprint"]] = run
    assert len(references) == 4  # the update moved both fingerprints
    for result in results:
        reference = references[
            result.algorithm, result.extra["operator_fingerprint"]
        ]
        assert result.iterations == reference.iterations
        assert np.array_equal(result.vector, reference.vector)
    assert len({r.extra["operator_fingerprint"] for r in results}) == 4

    operators = {}
    for coo in versions:
        for algorithm, build in (
            ("ppr", pagerank_operator), ("rwr", rwr_operator)
        ):
            operator = build(fresh(coo))
            operators[algorithm, matrix_fingerprint(operator)] = operator
    assert len(operators) == 4
    for reply in replies:
        operator = operators[reply.algorithm, reply.fingerprint]
        reference = seeded_solo(
            operator, operator.n_rows, reply.seed, alpha=reply.alpha,
            tol=reply.tol, max_iter=reply.max_iter,
        )
        assert reply.iterations == reference.iterations
        assert np.array_equal(reply.vector, reference.vector)
    assert len({r.fingerprint for r in replies}) == 4


@pytest.mark.parametrize("config", [{"n_shards": 2}, {"tune": True}],
                         ids=["n_shards=2", "tune"])
def test_solo_replays_after_close(config, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "tuner_cache.json"))
    graph = rmat_graph(512, 4096, seed=11)
    service = QueryService(window_seconds=0.005)
    service.register("g", graph, **config)
    with service:
        replies = ask(service, [
            {"graph": "g", "algorithm": algorithm, "seed": seed}
            for algorithm in ("ppr", "rwr") for seed in (3, 40, 77)
        ])
    assert max(r.batch_width for r in replies) > 1
    for reply in replies:
        reference = reply.solo()
        assert reply.iterations == reference.iterations
        assert np.array_equal(reply.vector, reference.vector)


def test_hits_reply_pins_its_snapshot():
    dyn = DynamicMatrix(rmat_graph(128, 1024, seed=23).to_coo())
    with QueryService(window_seconds=0.001) as service:
        service.register("dyn", dyn)
        [before] = ask(service, [{"graph": "dyn", "algorithm": "hits"}])
        dyn.apply_updates(seeded_update_stream(dyn, 32, seed=5))
        [after] = ask(service, [{"graph": "dyn", "algorithm": "hits"}])
    assert after.version > before.version
    assert not np.array_equal(before.vector, after.vector)
    for reply in (before, after):
        assert np.array_equal(reply.vector, reply.solo().vector)
