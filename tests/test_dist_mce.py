"""The distributed root-branch-partitioned MCE job emits exactly the local
runner's clique set, for every framework family."""
import pytest

from repro.core.hbbmc import run_named
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


@pytest.mark.parametrize(
    "alg", ["HBBMC++", "HBBMC+", "RRef", "RDegen", "RRcd", "RFac", "VBBMC-dgn", "HBBMC-dgn"]
)
def test_distributed_matches_local(spark, social_pair, alg):
    edf, g = social_pair
    res = mce_distributed(spark, edf, alg, num_partitions=4)
    assert _dist_cliques(res) == run_named(g, alg).cliques


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
