"""Benchmarks of the distributed root-branch-partitioned MCE job.

Times include Spark scheduling overhead (dominant at surrogate scale; see
EXPERIMENTS.md "Distributed execution"). The serial-vs-parallel pair on the
heavyweight OR surrogate records the scale-out behaviour of the branch
partitioning into results/dist.json.
"""
import json
import os
import time

import pytest

from benchmarks._common import RESULTS
from repro.dist.mce import mce_distributed
from repro.graphs.datasets import load_edges
from repro.graphs.edgelist import edges_df


@pytest.fixture(scope="module")
def or_edges(spark):
    df = edges_df(spark, load_edges("OR", "bench")).cache()
    df.count()
    # Start the Python workers before anything is timed.
    mce_distributed(spark, df, "HBBMC++")
    return df


def test_distributed_hbbmcpp_scaleout(benchmark, spark, or_edges):
    """One round of OR through the Spark job with 1 partition vs the default
    (one per core); the recorded pair shows the branch partitioning actually
    parallelizes the kernel work."""

    def run_pair():
        t0 = time.perf_counter()
        serial = mce_distributed(spark, or_edges, "HBBMC++", num_partitions=1)
        t1 = time.perf_counter()
        parallel = mce_distributed(spark, or_edges, "HBBMC++")
        t2 = time.perf_counter()
        assert serial.n_cliques == parallel.n_cliques
        assert serial.stats.as_dict() == parallel.stats.as_dict()
        return dict(
            dataset="OR",
            algorithm="HBBMC++",
            n_cliques=parallel.n_cliques,
            serial_s=round(t1 - t0, 3),
            parallel_s=round(t2 - t1, 3),
            parallelism=spark.sparkContext.defaultParallelism,
            nproc=os.cpu_count(),
            stats=parallel.stats.as_dict(),
        )

    row = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "dist.json").write_text(json.dumps(row, indent=1))
    assert row["n_cliques"] > 0


def test_distributed_rdegen(benchmark, spark, or_edges):
    res = benchmark.pedantic(
        lambda: mce_distributed(spark, or_edges, "RDegen"),
        rounds=1,
        iterations=1,
    )
    assert res.n_cliques > 0
