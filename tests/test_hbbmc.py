"""Integration fuzz of the frameworks: HBBMC (hybrid), EBBMC (edge), the
named algorithm registry, parameter sweeps, and counter invariants."""
import pytest

from repro.core.hbbmc import ALGORITHMS, run_mce, run_named
from repro.core.ordering import truss_order
from repro.graphs.generators import (
    ba_edges,
    caveman_edges,
    er_edges,
    powerlaw_cluster_edges,
    social_edges,
    to_local,
)
from repro.reference import reference_mce, verify_cliques

GRAPHS = [
    ("er-sparse", lambda s: to_local(er_edges(40, 120, s), 40)),
    ("er-dense", lambda s: to_local(er_edges(25, 200, s), 25)),
    ("er-very-dense", lambda s: to_local(er_edges(60, 700, s), 60)),
    ("ba", lambda s: to_local(ba_edges(60, 4, s), 60)),
    ("plc", lambda s: to_local(powerlaw_cluster_edges(50, 4, 0.7, s), 50)),
    ("caveman", lambda s: to_local(caveman_edges(5, 6, 6, s))),
    ("social", lambda s: to_local(
        social_edges(50, 3, s, caves=(3, 9, 4), core=(18, 0.4), bicore=(8, 8, 0.5))
    )),
    ("er-negative-ids", lambda s: to_local(er_edges(25, 200, s) - 12)),
]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("gname,make", GRAPHS)
def test_named_algorithms_match_reference(name, gname, make):
    g = make(0)
    r = run_named(g, name)
    assert r.cliques == reference_mce(g), f"{name} on {gname}"


@pytest.mark.parametrize("gname,make", GRAPHS)
@pytest.mark.parametrize("seed", range(3))
def test_hbbmcpp_across_seeds(gname, make, seed):
    g = make(seed)
    verify_cliques(g, run_named(g, "HBBMC++").cliques)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("gname,make", GRAPHS)
def test_depth_sweep(d, gname, make):
    g = make(1)
    assert run_named(g, "HBBMC++", d=d).cliques == reference_mce(g)


@pytest.mark.parametrize("t", [0, 1, 2, 3])
@pytest.mark.parametrize("gname,make", GRAPHS)
def test_et_threshold_sweep(t, gname, make):
    g = make(2)
    assert run_named(g, "HBBMC++", et_t=t).cliques == reference_mce(g)


@pytest.mark.parametrize("gname,make", GRAPHS)
def test_pure_ebbmc(gname, make):
    g = make(0)
    r = run_mce(g, framework="edge", et_t=0, gr=False)
    assert r.cliques == reference_mce(g)


@pytest.mark.parametrize("edge_order", ["truss", "dgn", "mdg"])
@pytest.mark.parametrize("seed", range(3))
def test_alternative_edge_orders(edge_order, seed):
    g = to_local(er_edges(35, 160, seed), 35)
    r = run_mce(g, framework="hybrid", edge_order=edge_order, et_t=3, gr=True)
    assert r.cliques == reference_mce(g)


@pytest.mark.parametrize("gr", [False, True])
@pytest.mark.parametrize("gname,make", GRAPHS)
def test_gr_toggle(gr, gname, make):
    g = make(1)
    assert run_named(g, "HBBMC++", gr=gr).cliques == reference_mce(g)


def test_isolated_vertices_and_odd_cliques():
    """Eq.(3) branches: isolated vertices are 1-cliques; odd cliques pass
    through zero-degree candidates in edge branches."""
    g = to_local(er_edges(10, 12, 3), 15)  # vertices 10..14 isolated
    ref = reference_mce(g)
    assert any(len(c) == 1 for c in ref)
    for fw in ("hybrid", "edge"):
        r = run_mce(g, framework=fw, et_t=0, gr=False)
        assert r.cliques == ref


def test_empty_graph():
    from repro.core.localgraph import LocalGraph

    g = LocalGraph({})
    assert run_named(g, "HBBMC++").cliques == []
    assert run_named(g, "RDegen").cliques == []


def test_single_edge_graph():
    from repro.core.localgraph import LocalGraph

    g = LocalGraph.from_edges([(0, 1)])
    for name in ("HBBMC++", "RRef", "RDegen", "RRcd", "RFac"):
        assert run_named(g, name).cliques == [(0, 1)]


def test_counters_root_branches_hybrid():
    g = to_local(er_edges(30, 100, 0), 30)
    r = run_named(g, "HBBMC++", gr=False)
    assert r.stats.root_branches == g.m  # one root branch per edge


def test_counters_root_branches_vertex():
    g = to_local(er_edges(30, 100, 0), 30)
    r = run_named(g, "RDegen", gr=False)
    assert r.stats.root_branches == g.n


def test_counters_et_monotone_calls():
    """Table V's qualitative claim: #calls decreases as t grows."""
    g = to_local(social_edges(80, 3, 5, caves=(4, 12, 5)))
    calls = [run_named(g, "HBBMC++", et_t=t).stats.calls for t in (0, 1, 2, 3)]
    assert calls[0] >= calls[1] >= calls[2] >= calls[3]
    assert calls[3] < calls[0]


def test_counters_depth_monotone_calls():
    """Table IV's qualitative claim on clique-rich graphs: edge-oriented
    branching beyond the root (d > 1) lacks pivot pruning, so #calls grows
    with d (the bench-scale surrogates FB/DG reproduce this too)."""
    g = to_local(social_edges(120, 3, 9, caves=(5, 16, 7), core=(30, 0.3)))
    calls = [run_named(g, "HBBMC++", d=d).stats.calls for d in (1, 2, 3)]
    assert calls[0] < calls[1] <= calls[2] * 1.2  # d=1 clearly cheapest


def test_et_ratio_between_zero_and_one():
    g = to_local(social_edges(80, 3, 6, caves=(4, 12, 5)))
    st = run_named(g, "HBBMC++").stats
    assert 0 <= st.et_applied <= st.et_plex
    assert 0.0 <= st.ratio() <= 1.0


def test_run_named_rejects_unknown():
    from repro.core.localgraph import LocalGraph

    with pytest.raises(ValueError, match="unknown algorithm"):
        run_named(LocalGraph({}), "NOPE")


def test_hybrid_rejects_bad_depth():
    from repro.core.localgraph import LocalGraph

    with pytest.raises(ValueError, match="d >= 1"):
        run_mce(LocalGraph.from_edges([(0, 1)]), framework="hybrid", d=0)


def test_collect_false_counts_only():
    g = to_local(er_edges(30, 100, 0), 30)
    r = run_named(g, "HBBMC++", collect=False)
    assert r.cliques is None
    assert r.n_cliques == len(reference_mce(g))


def test_branch_bound_tau_respected():
    """Every hybrid root branch candidate set is bounded by tau (the
    property the truss ordering buys, Theorem 2's engine)."""
    g = to_local(er_edges(40, 250, 7), 40)
    tr = truss_order(g)
    adj = g.adj
    for (u, v), r in tr.rank.items():
        c = sum(
            1
            for w in adj[u] & adj[v]
            if tr.rank[(u, w) if u < w else (w, u)] > r
            and tr.rank[(v, w) if v < w else (w, v)] > r
        )
        assert c <= tr.tau


def test_seconds_recorded():
    g = to_local(er_edges(30, 100, 0), 30)
    assert run_named(g, "HBBMC++").seconds > 0
