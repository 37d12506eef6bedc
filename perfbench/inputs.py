"""Seeded inputs of the workloads.

Everything a run feeds the program — graphs, query seeds, arrival
schedules and update streams — is a pure function of the workload
seed (and of the run length, which sizes the schedules).  The program
under test only ever receives these generated values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.coo import COOMatrix
from repro.graphs.dynamic import seeded_update_stream
from repro.graphs.rmat import rmat_graph

#: Convergence tolerance of every solve (PageRank and PPR alike).
TOL = 1e-8
#: Walk probability of the PPR queries (the service's default).
ALPHA = 0.85


@dataclass(frozen=True)
class Shape:
    """Graph size and traffic of one workload."""

    nodes: int
    edges: int  # requested R-MAT edges; duplicates and self-loops drop
    rate: float = 4.0  # ppr_stream: offered queries per second
    update_period: float = 3.0  # ppr_stream: seconds between batches
    update_ops: int = 300  # ppr_stream: edge operations per batch
    compact_ops: int = 1000  # ppr_stream: DynamicMatrix nnz_delta


#: pagerank_batch: n=2^17, ~1.86M nnz — setup work dominates each call.
PAGERANK_SHAPE = Shape(nodes=1 << 17, edges=2_000_000)
#: ppr_stream: n=2^13, ~125K nnz (the BENCH_serve shape).  The width-1
#: service path measured ~60 ms per query on a 2-core host (~16
#: queries/s).  4 queries/s is a quarter of that: at half, about half
#: the queries queue behind another, and query_p50_ms sat on the edge
#: between queued and unqueued queries, where a slower second moved it
#: far more than the program did.  The update stream keeps
#: bench_dynamic.py's write volume: 400 ops per batch on a 472K-nnz base
#: is 0.085% of the base, ~100 ops at 125K nnz, here per second; its
#: 4000-op threshold becomes 1000 ops.  The ops come as one 300-op
#: batch every 3 s, so every fourth batch compacts (four times in a
#: 50 s run).  That is one write per twelve
#: offered queries: each batch makes the next query rebuild its
#: operator, and with one batch a second a quarter of the queries did,
#: which with the queued ones left query_p50_ms on the edge between
#: plain and slow queries.  Now about 8% rebuild and 15% queue, so
#: query_p50_ms lies inside the plain width-1 path and query_p90_ms
#: among the rebuilt and queued queries.
STREAM_SHAPE = Shape(nodes=1 << 13, edges=150_000)

DEFAULT_SHAPES = {
    "pagerank_batch": PAGERANK_SHAPE,
    "ppr_stream": STREAM_SHAPE,
}


@dataclass
class Inputs:
    workload: str
    seed: int
    shape: Shape
    graph: COOMatrix
    probe: int  # the set-up query's seed: the node of largest out-degree
    query_seeds: np.ndarray  # node ids, in send order
    arrivals: np.ndarray  # ppr_stream: intended send offsets (s)
    update_times: np.ndarray  # ppr_stream: batch offsets (s)
    update_batches: list  # ppr_stream: lists of (op, row, col[, value])

    def describe(self) -> dict:
        info = {
            "generator": "rmat",
            "nodes": self.shape.nodes,
            "requested_edges": self.shape.edges,
            "nnz": int(self.graph.nnz),
            "queries_drawn": int(self.query_seeds.size),
        }
        if self.workload == "ppr_stream":
            info.update(
                offered_rate_per_s=self.shape.rate,
                arrivals="poisson, fixed count over the run",
                update_period_s=self.shape.update_period,
                update_ops_per_batch=self.shape.update_ops,
                update_batches=len(self.update_batches),
                compaction_threshold_ops=self.shape.compact_ops,
            )
        return info


def _rng(seed: int, stream: int) -> np.random.Generator:
    # One independent stream per input kind, all derived from the seed
    # (reduced mod 2**64: seed sequences take no negative entropy).
    return np.random.default_rng([seed % 2**64, stream])


def copy_graph(graph: COOMatrix) -> COOMatrix:
    """A fresh matrix object (no cached plans or lengths) with the same
    contents — what a caller who has never been seen before passes."""
    return COOMatrix(
        graph.rows.copy(), graph.cols.copy(), graph.data.copy(), graph.shape
    )


def make_inputs(
    workload: str, seed: int, seconds: float, shape: Shape | None = None
) -> Inputs:
    if workload not in DEFAULT_SHAPES:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of "
            f"{sorted(DEFAULT_SHAPES)}"
        )
    shape = shape or DEFAULT_SHAPES[workload]
    graph_seed = int(_rng(seed, 0).integers(2**31))
    graph = rmat_graph(shape.nodes, shape.edges, seed=graph_seed)
    empty = np.zeros(0)
    arrivals, update_times, batches = empty, empty, []
    if workload == "pagerank_batch":
        query_seeds = np.zeros(0, dtype=np.int64)
    else:
        # Poisson arrivals conditioned on their count: the offered rate
        # is exact in every run, only the spacing is random.
        count = max(1, round(shape.rate * seconds))
        arrivals = np.sort(_rng(seed, 2).uniform(0.0, seconds, count))
        # Walks start on nodes with out-edges.  A walk from one of the
        # ~28% of R-MAT nodes without any converges in 2 iterations
        # instead of ~81, and a mix of the two puts a cliff under the
        # latency percentiles.
        starts = np.flatnonzero(
            np.bincount(graph.rows, minlength=shape.nodes)
        )
        query_seeds = _rng(seed, 1).choice(starts, count)
        n_batches = int(seconds / shape.update_period)
        update_times = (np.arange(n_batches) + 0.5) * shape.update_period
        stream = seeded_update_stream(
            graph, n_batches * shape.update_ops,
            seed=int(_rng(seed, 3).integers(2**31)),
        )
        batches = [
            stream[k * shape.update_ops:(k + 1) * shape.update_ops]
            for k in range(n_batches)
        ]
    # A random set-up query may hit a node that converges at once; the
    # hub converges like a typical query on every seed's graph.
    probe = int(np.argmax(np.bincount(graph.rows, minlength=shape.nodes)))
    return Inputs(
        workload=workload, seed=seed, shape=shape, graph=graph, probe=probe,
        query_seeds=query_seeds, arrivals=arrivals,
        update_times=update_times, update_batches=batches,
    )
