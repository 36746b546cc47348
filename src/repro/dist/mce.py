"""Distributed MCE job partitioned by root branches.

Architecture (DESIGN.md §2, the standard distributed-MCE layout of e.g.
Xu et al. [17]):

1. The driver collects the (small) canonical edge list, applies graph
   reduction (GR) and computes the exact orderings — the truss-based edge
   order for hybrid/edge frameworks, the degeneracy order for vertex
   frameworks. Orderings are inherently sequential peels; their output plus
   the reduced adjacency is broadcast to every task.
2. Root branches — one per truss-ordered edge (hybrid/edge) or one per
   degeneracy-ordered vertex (vertex) — are sorted by descending estimated
   cost (the candidate count) and shipped in the same broadcast. Salt group
   ``s`` of ``n`` owns the slice ``roots[s::n]``: round-robin over the cost
   order, so every group gets a balanced mix of heavy and light branches.
3. ``spark.range(n, numPartitions=n).mapInPandas`` runs one task per salt
   group ``s`` (its ``id``): the sequential kernel of ``repro.core`` on its
   slice, emitting one row per maximal clique (``kind='clique'``, payload =
   comma-joined vertex ids) plus one counter row (``kind='stats'``, payload
   = JSON) — strings, so results stay orderable/joinable. No shuffle on
   purpose: AQE coalesces a tiny ``groupBy(salt)`` exchange into one task.
4. The driver adds the branches it owns (GR cliques, root isolated
   vertices) and splits the result into a clique DataFrame and aggregated
   ``BranchStats``.

The whole suite (HBBMC++ and every baseline of Tables II–VI) runs through
this path; ``tests/test_dist_mce.py`` asserts the distributed clique set is
identical to the local runner's.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.hbbmc import ALGORITHMS, _ebb
from ..core.kernels import Enumerator, Pair, kernel_fn
from ..core.localgraph import LocalGraph
from ..core.ordering import degeneracy_order, edge_order_rank
from ..core.reduction import reduce_graph
from ..core.stats import BranchStats
from ..graphs.edgelist import to_local

_RESULT_SCHEMA = "kind string, payload string, size long"


@dataclass
class DistMceResult:
    cliques_df: DataFrame  # columns: clique (csv string), size
    stats: BranchStats
    n_cliques: int


def _vertex_branches(g: LocalGraph) -> tuple[list[tuple[int, int]], dict]:
    """Root branches for the vertex framework: (vertex, cost) per degeneracy
    position; shared config for the workers."""
    dg = degeneracy_order(g)
    pos = dg.pos
    branches = []
    for i, v in enumerate(dg.order):
        later = sum(1 for u in g.adj[v] if pos[u] > i)
        branches.append((v, later))
    return branches, {"pos": pos}


def _edge_branches(g: LocalGraph, edge_order: str) -> tuple[list[tuple[Pair, int]], dict]:
    """Root branches for hybrid/edge frameworks: (edge, cost estimate = min
    endpoint degree) plus the rank map for the workers."""
    rank = edge_order_rank(g, edge_order)
    adj = g.adj
    branches = [(e, min(len(adj[e[0]]), len(adj[e[1]]))) for e in rank]
    return branches, {"rank": rank}


def mce_distributed(
    spark: SparkSession,
    edges: DataFrame,
    algorithm: str = "HBBMC++",
    *,
    num_partitions: int | None = None,
    **overrides,
) -> DistMceResult:
    """Run a named algorithm (Tables II–VI labels) distributed by root
    branch. ``overrides`` tweak the configuration (``d``, ``et_t``, ``gr``,
    ``edge_order`` …) exactly like ``repro.core.hbbmc.run_named``."""
    cfg = dict(ALGORITHMS[algorithm])
    cfg.update(overrides)
    framework = cfg.get("framework", "hybrid")
    kernel = cfg.get("kernel", "tomita")
    et_t = cfg.get("et_t", 0)
    gr = cfg.get("gr", True)
    d = cfg.get("d", 1)
    edge_order = cfg.get("edge_order", "truss")
    root = cfg.get("root", "degeneracy")

    # --- driver side: GR + ordering -------------------------------------
    g = to_local(edges)
    red = reduce_graph(g, enabled=gr)
    g2 = red.reduced
    driver_cliques = [",".join(map(str, c)) for c in red.cliques]
    stats = BranchStats(gr_cliques=len(red.cliques))

    if framework in ("hybrid", "edge"):
        branches, extra = _edge_branches(g2, edge_order)
        # Isolated vertices of the reduced graph are the Eq.(3) root
        # branches; the driver owns them (they are O(1) each).
        for v in g2.vertices():
            if not g2.adj[v]:
                c = (v,)
                if not (len(c) <= 2 and frozenset(c) in red.blocked):
                    driver_cliques.append(str(v))
                    stats.cliques += 1
    else:
        branches, extra = _vertex_branches(g2)
    stats.root_branches = len(branches)

    sc = spark.sparkContext
    n_parts = num_partitions or min(sc.defaultParallelism, max(1, len(branches)))
    # Group s runs roots[s::n_parts]: round-robin over descending cost.
    ordered = sorted(branches, key=lambda b: (-b[1], b[0]))
    bc = sc.broadcast(
        {
            "adj": g2.adj,
            "blocked": red.blocked,
            "framework": framework,
            "kernel": kernel,
            "et_t": et_t,
            "d": d,
            "roots": [b for b, _ in ordered],
            **extra,
        }
    )

    def run_group(s: int) -> pd.DataFrame:
        conf = bc.value
        adj = conf["adj"]
        enum = Enumerator(
            adj,
            rank=conf.get("rank"),
            et_t=conf["et_t"],
            blocked=conf["blocked"],
            collect=True,
        )
        kfn = kernel_fn(enum, conf["kernel"])
        roots = conf["roots"][s::n_parts]
        if conf["framework"] in ("hybrid", "edge"):
            rank = conf["rank"]
            depth_limit = None if conf["framework"] == "edge" else conf["d"]
            for u, v in roots:
                r = rank[(u, v)]
                ca, cb = adj[u], adj[v]
                common = ca & cb
                C = {
                    w
                    for w in common
                    if rank[(u, w) if u < w else (w, u)] > r
                    and rank[(v, w) if v < w else (w, v)] > r
                }
                X = common - C
                if not C:
                    if not X:
                        enum.emit([u, v])
                    continue
                if any(C <= adj[x] for x in X):
                    continue
                _ebb(enum, [u, v], C, X, r, 1, depth_limit, kfn)
        else:
            pos = conf["pos"]
            for v in roots:
                i = pos[v]
                C = {u for u in adj[v] if pos[u] > i}
                X = {u for u in adj[v] if pos[u] < i}
                kfn([v], C, X)
        out = pd.DataFrame(
            {
                "kind": ["clique"] * len(enum.out),
                "payload": [",".join(map(str, c)) for c in enum.out],
                "size": [len(c) for c in enum.out],
            }
        )
        srow = pd.DataFrame(
            {
                "kind": ["stats"],
                "payload": [json.dumps(enum.stats.as_dict())],
                "size": [0],
            }
        )
        return pd.concat([out, srow], ignore_index=True)

    def run_groups(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        return (run_group(s) for pdf in batches for s in pdf["id"].tolist())

    result = (
        spark.range(n_parts, numPartitions=n_parts)
        .mapInPandas(run_groups, schema=_RESULT_SCHEMA)
        .localCheckpoint(eager=True)
    )
    for payload in result.where(F.col("kind") == "stats").select("payload").collect():
        part = BranchStats.from_dict(json.loads(payload["payload"]))
        part.gr_cliques = 0
        part.root_branches = 0
        stats.merge(part)

    worker_cliques = result.where(F.col("kind") == "clique").select(
        F.col("payload").alias("clique"), "size"
    )
    if driver_cliques:
        driver_df = spark.createDataFrame(
            [(c, c.count(",") + 1) for c in driver_cliques], "clique string, size long"
        )
        cliques_df = worker_cliques.unionAll(driver_df)
    else:
        cliques_df = worker_cliques
    # Every emitted row is counted (MceRun.n_cliques' identity): no result pass.
    n = stats.cliques + stats.gr_cliques
    return DistMceResult(cliques_df=cliques_df, stats=stats, n_cliques=n)
