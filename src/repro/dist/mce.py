"""Distributed MCE job partitioned by root branches.

Architecture (DESIGN.md §2, the standard distributed-MCE layout of e.g.
Xu et al. [17]):

1. The driver checks the configuration (the same ``ValueError`` as
   ``repro.core.hbbmc.run_named``, before any Spark job), collects the
   (small) canonical edge list and makes the same ``RootPlan`` the local
   runner makes: GR, the exact ordering (truss-based edge order for
   hybrid/edge frameworks, degeneracy order for vertex frameworks) and the
   root branches sorted by descending estimated cost — one per edge, one
   per vertex, or the single global root.
2. The plan (minus the driver's own cliques) is broadcast. Salt group ``s``
   of ``n`` owns the slice ``roots[s::n]``: round-robin over the cost
   order, so every group gets a balanced mix of heavy and light branches.
3. ``spark.range(n, numPartitions=n).mapInPandas`` runs one task per salt
   group ``s`` (its ``id``): ``repro.core.hbbmc.run_roots`` on its slice,
   emitting one row per maximal clique (``kind='clique'``, payload =
   comma-joined vertex ids) plus one counter row (``kind='stats'``, payload
   = JSON) — strings, so results stay orderable/joinable. No shuffle on
   purpose: AQE coalesces a tiny ``groupBy(salt)`` exchange into one task.
4. The driver adds what the plan owns (GR cliques, isolated vertices,
   root-level counters) and splits the result into a clique DataFrame and
   aggregated ``BranchStats``.

Since both runners share the plan and the root runner, every named
algorithm (HBBMC++ and every baseline of Tables II–VI) yields the local
runner's clique set and ``BranchStats`` here; ``tests/test_dist_mce.py``
asserts both.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.hbbmc import named_config, planner, run_roots
# GR runs inside ``planner``; the name stays a module attribute because
# perfbench/tracer.py wraps it here.
from ..core.reduction import reduce_graph  # noqa: F401
from ..core.stats import BranchStats
from ..graphs.edgelist import to_local

_RESULT_SCHEMA = "kind string, payload string, size long"


@dataclass
class DistMceResult:
    cliques_df: DataFrame  # columns: clique (csv string), size
    stats: BranchStats
    n_cliques: int


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
    make_plan = planner(**named_config(algorithm, **overrides))
    plan = make_plan(to_local(edges))
    stats = plan.stats

    sc = spark.sparkContext
    n_parts = num_partitions or min(sc.defaultParallelism, max(1, len(plan.roots)))
    bc = sc.broadcast(replace(plan, cliques=[]))

    def run_group(s: int) -> pd.DataFrame:
        shared = bc.value
        enum = run_roots(shared, shared.roots[s::n_parts])
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
        stats.merge(BranchStats.from_dict(json.loads(payload["payload"])))

    worker_cliques = result.where(F.col("kind") == "clique").select(
        F.col("payload").alias("clique"), "size"
    )
    if plan.cliques:
        driver_df = spark.createDataFrame(
            [(",".join(map(str, c)), len(c)) for c in plan.cliques], "clique string, size long"
        )
        cliques_df = worker_cliques.unionAll(driver_df)
    else:
        cliques_df = worker_cliques
    # Every emitted row is counted (MceRun.n_cliques' identity): no result pass.
    n = stats.cliques + stats.gr_cliques
    return DistMceResult(cliques_df=cliques_df, stats=stats, n_cliques=n)
