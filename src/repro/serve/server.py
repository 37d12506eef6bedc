"""Network front-end and self-test for the query service.

The wire protocol is one JSON object per line (newline-delimited), the
lowest-dependency framing the standard library can serve::

    -> {"graph": "demo", "algorithm": "ppr", "seed": 17}
    <- {"status": "ok", "iterations": 42, "top": [[3, 0.071], ...],
        "checksum": "sha256:...", ...}

Replies carry a SHA-256 checksum of the result vector's raw float64
bytes, so a client can assert the bitwise guarantee end-to-end without
shipping the full vector (pass ``"full": true`` to get it anyway).
``{"op": "stats"}`` returns the SLA report.

``run_selftest`` is the deployment smoke: spawn a service on a seeded
R-MAT graph, fire N concurrent mixed queries, verify every seeded
reply bitwise against its solo run, and report SLA numbers.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import numpy as np

from repro.errors import ReproError
from repro.obs import metrics as _metrics
from repro.serve.service import QueryService

__all__ = ["run_selftest", "serve_tcp"]


def _checksum(vector: np.ndarray) -> str:
    return "sha256:" + hashlib.sha256(
        np.ascontiguousarray(vector, dtype=np.float64).tobytes()
    ).hexdigest()


def reply_payload(reply, *, top_k: int = 10, full: bool = False) -> dict:
    """JSON-ready view of a :class:`~repro.serve.QueryReply`."""
    order = np.argsort(reply.vector)[::-1][:top_k]
    payload = {
        "status": reply.status,
        "graph": reply.graph,
        "algorithm": reply.algorithm,
        "seed": reply.seed,
        "iterations": reply.iterations,
        "converged": reply.converged,
        "batch_width": reply.batch_width,
        "latency_ms": reply.latency_seconds * 1e3,
        "version": reply.version,
        "fingerprint": reply.fingerprint,
        "checksum": _checksum(reply.vector),
        "top": [[int(i), float(reply.vector[i])] for i in order],
    }
    if full:
        payload["vector"] = [float(v) for v in reply.vector]
    return payload


async def _handle_line(service: QueryService, request: dict) -> dict:
    op = request.pop("op", "query")
    if op == "stats":
        return {"status": "ok", "stats": service.sla_report()}
    if op != "query":
        return {"status": "error", "error": f"unknown op {op!r}"}
    top_k = int(request.pop("top_k", 10))
    full = bool(request.pop("full", False))
    allowed = {
        "graph", "algorithm", "seed", "alpha", "tol", "max_iter",
        "deadline",
    }
    unknown = set(request) - allowed
    if unknown:
        return {
            "status": "error",
            "error": f"unknown fields {sorted(unknown)}",
        }
    graph = request.pop("graph", None)
    if graph is None:
        return {"status": "error", "error": "missing field 'graph'"}
    reply = await service.query(graph, **request)
    return reply_payload(reply, top_k=top_k, full=full)


async def serve_tcp(
    service: QueryService, host: str = "127.0.0.1", port: int = 0,
) -> asyncio.AbstractServer:
    """Start the JSON-lines front-end; returns the listening server
    (``server.sockets[0].getsockname()`` has the bound port)."""

    async def handle(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    response = await _handle_line(service, request)
                except ReproError as exc:
                    response = {
                        "status": "error",
                        "error": str(exc),
                        "kind": type(exc).__name__,
                    }
                except (json.JSONDecodeError, TypeError, ValueError) as exc:
                    response = {"status": "error", "error": str(exc)}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, host, port)


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------


def _selftest_requests(n_queries: int, n_nodes: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n_queries):
        if i % 8 == 7:
            algorithm = "hits"  # occasional global ranking in the mix
        else:
            algorithm = "ppr" if i % 2 == 0 else "rwr"
        request = {"algorithm": algorithm}
        if algorithm != "hits":
            request["seed"] = int(rng.integers(0, n_nodes))
        requests.append(request)
    return requests


def run_selftest(
    *,
    clients: int = 32,
    n_nodes: int = 1024,
    nnz: int = 8192,
    graph_seed: int = 7,
    window_seconds: float = 0.005,
    max_batch: int = 8,
) -> dict:
    """Spawn a service, fire ``clients`` concurrent queries, verify
    every reply bitwise against solo execution, report SLA numbers.

    Returns a JSON-ready report with ``"ok"`` true iff every reply was
    bitwise-identical to its solo reference and no query failed.
    """
    from repro.graphs.rmat import rmat_graph

    prior = _metrics.enabled()
    _metrics.enable()
    matrix = rmat_graph(n_nodes, nnz, seed=graph_seed)
    requests = _selftest_requests(clients, n_nodes, seed=graph_seed + 1)
    service = QueryService(
        window_seconds=window_seconds, max_batch=max_batch,
        max_queue=max(64, 2 * clients),
    )
    service.register("selftest", matrix)

    async def fire():
        return await asyncio.gather(
            *(service.query("selftest", **request) for request in requests)
        )

    try:
        replies = asyncio.run(fire())
        mismatches = []
        for request, reply in zip(requests, replies):
            # WalkResult and MiningResult both expose .vector.
            reference = reply.solo()
            if not np.array_equal(reply.vector, reference.vector):
                mismatches.append(
                    {"request": request, "status": reply.status}
                )
        widths = [r.batch_width for r in replies]
        report = {
            "ok": not mismatches,
            "clients": clients,
            "bitwise_checked": len(replies),
            "bitwise_mismatches": mismatches,
            "coalesced_queries": sum(1 for w in widths if w > 1),
            "max_batch_width": max(widths),
            "statuses": sorted({r.status for r in replies}),
            "sla": service.sla_report(),
        }
    finally:
        service.close()
        if not prior:
            _metrics.disable()
    return report
