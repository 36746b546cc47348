"""The distributed root-branch-partitioned MCE job emits exactly the local
runner's clique set and counters, for every named algorithm."""
import re

import pytest
from pyspark.sql import functions as F

from repro.core.hbbmc import ALGORITHMS, run_named
from repro.core.localgraph import LocalGraph
from repro.dist.mce import mce_distributed
from repro.graphs.datasets import load_edges, load_local
from repro.graphs.edgelist import edges_df
from repro.graphs.generators import er_edges, social_edges, to_local
from repro.reference import reference_mce


def _dist_cliques(res):
    return sorted(
        tuple(int(x) for x in r.clique.split(","))
        for r in res.cliques_df.collect()
    )


@pytest.fixture(scope="module")
def social_pair(spark):
    e = social_edges(60, 3, 1, caves=(3, 9, 4), core=(20, 0.4))
    return edges_df(spark, e).cache(), to_local(e)


@pytest.mark.parametrize("alg", sorted(ALGORITHMS))
def test_distributed_matches_local(spark, social_pair, alg):
    """Same root branches, same counters: the initial-branch call, the
    global root of RRef and every kernel counter agree."""
    edf, g = social_pair
    res = mce_distributed(spark, edf, alg, num_partitions=4)
    local = run_named(g, alg)
    assert _dist_cliques(res) == local.cliques
    assert res.stats.as_dict() == local.stats.as_dict()
    assert res.n_cliques == local.n_cliques


@pytest.mark.parametrize(
    "alg,overrides",
    [
        ("NOPE", {}),
        ("HBBMC++", {"framework": "nope"}),
        ("RDegen", {"root": "nope"}),
        ("HBBMC++", {"kernel": "nope"}),
        ("HBBMC++", {"d": 0}),
        ("HBBMC++", {"d": None}),
    ],
)
def test_distributed_rejects_bad_config_on_driver(spark, alg, overrides):
    """An invalid configuration raises run_named's ValueError before any
    Spark job runs: reading this edge DataFrame would fail."""
    with pytest.raises(ValueError) as local:
        run_named(LocalGraph.from_edges([(0, 1)]), alg, **overrides)
    unreadable = spark.range(1).select(
        F.raise_error(F.lit("edges were read")).cast("long").alias("src"),
        F.lit(1).cast("long").alias("dst"),
    )
    with pytest.raises(ValueError, match=re.escape(str(local.value))):
        mce_distributed(spark, unreadable, alg, **overrides)


def test_distributed_depth_two(spark, social_pair):
    edf, g = social_pair
    res = mce_distributed(spark, edf, "HBBMC++", d=2, num_partitions=3)
    assert _dist_cliques(res) == reference_mce(g)


def test_distributed_counts_and_stats(spark, social_pair):
    edf, g = social_pair
    res = mce_distributed(spark, edf, "HBBMC++")
    assert res.n_cliques == len(reference_mce(g))
    assert res.stats.root_branches > 0
    assert res.stats.calls > 0


def test_distributed_isolated_vertices(spark):
    # er over 12 vertices, ids up to 19 exist only via... construct edges
    # with an isolated pocket: a triangle + a far id pair
    import numpy as np

    e = np.array([(0, 1), (1, 2), (0, 2), (10, 11)])
    edf = edges_df(spark, e)
    res = mce_distributed(spark, edf, "HBBMC++")
    assert _dist_cliques(res) == [(0, 1, 2), (10, 11)]
    assert res.n_cliques == 2


def test_distributed_dataset_surrogate(spark):
    edf = edges_df(spark, load_edges("DB", "test"))
    g = load_local("DB", "test")
    res = mce_distributed(spark, edf, "HBBMC++", num_partitions=8)
    assert _dist_cliques(res) == reference_mce(g)


def test_distributed_partition_count_invariance(spark):
    e = er_edges(40, 160, seed=9)
    edf = edges_df(spark, e)
    runs = [mce_distributed(spark, edf, "HBBMC++", num_partitions=n) for n in (1, 2, 16)]
    first = runs[0]
    for res in runs[1:]:
        assert _dist_cliques(res) == _dist_cliques(first)
        assert res.stats.as_dict() == first.stats.as_dict()
        assert res.n_cliques == first.n_cliques


def test_distributed_one_task_per_salt_group(spark, social_pair):
    """The kernel stage runs one partition per salt group even with adaptive
    query execution on: a shuffle there would be coalesced into one task.
    With GR off the driver owns no cliques, so the clique DataFrame is the
    kernel stage's output alone."""
    assert spark.conf.get("spark.sql.adaptive.enabled") == "true"
    edf, g = social_pair
    res = mce_distributed(spark, edf, "HBBMC++", num_partitions=3, gr=False)
    assert res.cliques_df.rdd.getNumPartitions() == 3
    ref = reference_mce(g)
    assert _dist_cliques(res) == ref
    assert res.n_cliques == len(ref)
