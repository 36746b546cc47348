"""Frameworks: VBBMC (vertex-oriented), EBBMC (edge-oriented) and HBBMC
(hybrid), plus the named-algorithm registry used by every evaluation table.

Edge-oriented branching (Algorithms 2–4 of the paper) is implemented in the
*rank-threshold* form: a branch carries the rank ``r`` of the edge that
created it, and the lazy invariant

    E(g_C) = { edges among V(g_C) with rank > r }

holds at every depth (DESIGN.md §3), so Eq.(2)'s shrinking edge sets never
need to be materialized. The sub-branch of edge e = (a, b) with rank r_e has

    C' = { w ∈ C ∩ N(a) ∩ N(b) : rank(a,w) > r_e and rank(b,w) > r_e }
    X' = ((C ∪ X) ∩ N(a) ∩ N(b)) \\ C'

— every common G-neighbor of S' lands in C' or X', so maximality checks stay
exact. Zero-degree candidates (no compat edge to another candidate) are the
Eq.(3) branches: ``S ∪ {v}`` is emitted iff no other common neighbor is
G-adjacent to v.

``d`` controls how many edge-oriented levels run before switching to the
vertex-oriented kernel (Table IV); ``d=1`` is HBBMC, ``framework="edge"``
is pure EBBMC.

A run has two halves, shared by the local runner and the Spark job
(``repro.dist.mce``): ``planner`` checks the configuration and builds the
driver-side ``RootPlan`` (GR, the initial-branch order, the cost-sorted
root branches, the driver's own cliques and root-level counters), and
``run_roots`` runs any slice of those roots. ``run_mce`` is "plan, then run
every root".
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .kernels import KERNELS, Enumerator, Pair, kernel_fn, _pair
from .localgraph import LocalGraph
from .ordering import degeneracy_order, edge_order_rank
from .reduction import reduce_graph
from .stats import BranchStats


@dataclass
class MceRun:
    """Result of one MCE run: the cliques (sorted tuples, or None when not
    collected), counters, and wall time in seconds (includes GR + ordering,
    as the paper's reported times do)."""

    cliques: list[tuple[int, ...]] | None
    stats: BranchStats
    seconds: float

    @property
    def n_cliques(self) -> int:
        return self.stats.cliques + self.stats.gr_cliques


def _ebb(
    enum: Enumerator,
    S: list[int],
    C: set[int],
    X: set[int],
    r: int,
    depth: int,
    d: int | None,
    kernel,
) -> None:
    """Edge-oriented recursion (Eq. 2 + Eq. 3) on the branch that edge rank
    ``r`` created (C is never empty: ``_edge_branch`` prunes those);
    switches to ``kernel`` once ``depth`` reaches ``d``."""
    enum.stats.calls += 1
    if d is not None and depth >= d:
        # Hand over to the vertex-oriented kernel under this branch's rank
        # threshold (dual adjacency; see repro.core.kernels docstring).
        old_r = enum.cur_r
        enum.cur_r = r
        kernel(S, C, X)
        enum.cur_r = old_r
        return
    adj = enum.adj
    rank = enum.rank
    edges: list[tuple[int, int, int]] = []
    for u in C:
        au = adj[u]
        for v in C & au:
            if u < v:
                rr = rank[(u, v)]
                if rr > r:
                    edges.append((rr, u, v))
    edges.sort()
    for re_, a, b in edges:
        _edge_branch(enum, S, C, X, a, b, re_, depth + 1, d, kernel)
    # Eq.(3): candidates with no compat edge left — their only clique in this
    # branch is S ∪ {v}, maximal iff nothing else common-adjacent touches v.
    for v in sorted(C):
        av = adj[v]
        if any(rank[_pair(v, z)] > r for z in C & av):
            continue
        if not (((C | X) - {v}) & av):
            enum.emit(S + [v])


def _edge_branch(
    enum: Enumerator,
    S: list[int],
    C: set[int],
    X: set[int],
    a: int,
    b: int,
    r: int,
    depth: int,
    d: int | None,
    kernel,
) -> None:
    """The sub-branch of the candidate edge (a, b), ranked ``r``, of branch
    (S, C, X): C' and X' as in the module docstring."""
    adj, rank = enum.adj, enum.rank
    ca, cb = adj[a], adj[b]
    common_c = C & ca & cb
    C2 = {
        w
        for w in common_c
        if rank[(a, w) if a < w else (w, a)] > r
        and rank[(b, w) if b < w else (w, b)] > r
    }
    X2 = (X & ca & cb) | (common_c - C2)
    # Prune dead sub-branches at creation (the paper's call counts on large
    # graphs — fewer calls than edges — imply the same): an empty candidate
    # set emits at most S', and an exclusion vertex adjacent to every
    # candidate blocks every clique of the sub-branch.
    if not C2:
        if not X2:
            enum.emit(S + [a, b])
        return
    if any(C2 <= adj[x] for x in X2):
        return
    _ebb(enum, S + [a, b], C2, X2, r, depth, d, kernel)


@dataclass
class RootPlan:
    """The driver-side half of a run: the reduced graph, the initial-branch
    order and its root branches sorted by descending estimated cost, plus
    what the driver owns itself — the GR cliques, the reduced graph's
    isolated vertices (the Eq.(3) branches of the initial branch) and the
    root-level counters. Any slice of ``roots`` runs on its own
    (``run_roots``); ``stats`` plus the counters of every slice are the
    run's counters."""

    adj: dict[int, set[int]]
    blocked: set[frozenset[int]]
    kernel: str
    et_t: int
    depth_limit: int | None  # edge-oriented levels; None = EBBMC all the way
    rank: dict[Pair, int] | None  # edge rank (hybrid / edge frameworks)
    pos: dict[int, int] | None  # degeneracy positions (vertex roots)
    roots: list  # edges (u, v), degeneracy-ordered vertices, or [None]
    stats: BranchStats
    cliques: list[tuple[int, ...]]


def planner(
    *,
    framework: str = "hybrid",
    kernel: str = "tomita",
    root: str = "degeneracy",
    edge_order: str = "truss",
    d: int | None = 1,
    et_t: int = 3,
    gr: bool = True,
) -> Callable[[LocalGraph], RootPlan]:
    """Check one configuration and return the function that plans it on a
    graph. This signature is the only place the defaults live, and an
    invalid configuration raises ``ValueError`` here, before any graph is
    read.

    framework: ``"hybrid"`` (edge-oriented root, Table II's HBBMC), ``"edge"``
    (pure EBBMC, edge levels all the way down; ``d`` is unused), or
    ``"vertex"`` (VBBMC).
    root (vertex framework): ``"degeneracy"`` (BK_Degen-style initial
    branching, one root per vertex) or ``"global"`` (one root branch,
    BK_Pivot/BK_Ref-style).
    """
    if framework not in ("hybrid", "edge", "vertex"):
        raise ValueError(f"unknown framework {framework!r}")
    if root not in ("degeneracy", "global"):
        raise ValueError(f"unknown root {root!r}")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; one of {sorted(KERNELS)}")
    if framework == "hybrid" and (d is None or d < 1):
        raise ValueError("hybrid framework needs d >= 1")

    def plan(g: LocalGraph) -> RootPlan:
        red = reduce_graph(g, enabled=gr)
        adj = red.reduced.adj
        stats = BranchStats(gr_cliques=len(red.cliques))
        cliques = list(red.cliques)
        rank = pos = None
        if framework != "vertex":
            rank = edge_order_rank(red.reduced, edge_order)
            # Cost estimate: min endpoint degree bounds the root's |C|. The
            # sort is stable, so ties keep the edge order.
            roots = sorted(rank, key=lambda e: -min(len(adj[e[0]]), len(adj[e[1]])))
            # The initial branch (∅, V, ∅) is one edge-oriented call. Its
            # Eq.(3) branches are the isolated vertices, each a maximal
            # clique (GR, whose blocked sets could veto one, leaves none).
            stats.calls = 1
            isolated = [(v,) for v in sorted(adj) if not adj[v]]
            stats.cliques = len(isolated)
            cliques += isolated
        elif root == "degeneracy":
            dg = degeneracy_order(red.reduced)
            pos = dg.pos
            # Cost estimate: the root's |C|, its later neighbours.
            roots = sorted(dg.order, key=lambda v: -sum(pos[u] > pos[v] for u in adj[v]))
        else:
            roots = [None]
        stats.root_branches = len(roots)
        return RootPlan(
            adj=adj,
            blocked=red.blocked,
            kernel=kernel,
            et_t=et_t,
            depth_limit=d if framework == "hybrid" else None,
            rank=rank,
            pos=pos,
            roots=roots,
            stats=stats,
            cliques=cliques,
        )

    return plan


def run_roots(plan: RootPlan, roots: list, *, collect: bool = True) -> Enumerator:
    """Run root branches of ``plan`` (all of them, or one task's slice) on a
    new Enumerator and return it with its cliques and counters. An edge
    root (u, v) is the Eq.(2) sub-branch of the initial branch (∅, V, ∅); a
    degeneracy root v is ({v}, later neighbours, earlier neighbours); the
    global root is (∅, V, ∅) itself."""
    enum = Enumerator(
        plan.adj, rank=plan.rank, et_t=plan.et_t, blocked=plan.blocked, collect=collect
    )
    kfn = kernel_fn(enum, plan.kernel)
    adj, rank, pos = plan.adj, plan.rank, plan.pos
    V = set(adj)
    for root in roots:
        if rank is not None:
            u, v = root
            _edge_branch(enum, [], V, set(), u, v, rank[root], 1, plan.depth_limit, kfn)
        elif pos is not None:
            i = pos[root]
            C = {u for u in adj[root] if pos[u] > i}
            kfn([root], C, adj[root] - C)
        else:
            kfn([], V, set())
    return enum


def run_mce(g: LocalGraph, *, collect: bool = True, **config) -> MceRun:
    """Run one configuration (``planner``'s keywords) end to end on ``g``:
    plan, then run every root."""
    t0 = time.perf_counter()
    plan = planner(**config)(g)
    enum = run_roots(plan, plan.roots, collect=collect)
    plan.stats.merge(enum.stats)
    seconds = time.perf_counter() - t0
    cliques = sorted(enum.out + plan.cliques) if collect else None
    return MceRun(cliques=cliques, stats=plan.stats, seconds=seconds)


#: Named configurations for every algorithm that appears in Tables II–VI.
ALGORITHMS: dict[str, dict] = {
    # Table II: ours vs. the four state-of-the-art VBBMC+GR baselines [15].
    "HBBMC++": dict(framework="hybrid", kernel="tomita", d=1, et_t=3, gr=True),
    "RRef": dict(framework="vertex", kernel="ref", root="global", et_t=0, gr=True),
    "RDegen": dict(framework="vertex", kernel="tomita", root="degeneracy", et_t=0, gr=True),
    "RRcd": dict(framework="vertex", kernel="rcd", root="degeneracy", et_t=0, gr=True),
    "RFac": dict(framework="vertex", kernel="fac", root="degeneracy", et_t=0, gr=True),
    # Table III: ablation + hybrid with other VBBMC kernels.
    "HBBMC+": dict(framework="hybrid", kernel="tomita", d=1, et_t=0, gr=True),
    "Ref++": dict(framework="hybrid", kernel="ref", d=1, et_t=3, gr=True),
    "Rcd++": dict(framework="hybrid", kernel="rcd", d=1, et_t=3, gr=True),
    "Fac++": dict(framework="hybrid", kernel="fac", d=1, et_t=3, gr=True),
    # Table VI: initial-branch ordering variants (all with ET + GR).
    "VBBMC-dgn": dict(framework="vertex", kernel="tomita", root="degeneracy", et_t=3, gr=True),
    "HBBMC-dgn": dict(framework="hybrid", kernel="tomita", d=1, et_t=3, gr=True, edge_order="dgn"),
    "HBBMC-mdg": dict(framework="hybrid", kernel="tomita", d=1, et_t=3, gr=True, edge_order="mdg"),
}


def named_config(name: str, **overrides) -> dict:
    """The configuration of a named algorithm (Tables II–VI row/column
    labels), with optional parameter overrides (e.g. ``d=2`` for Table IV,
    ``et_t=1`` for Table V)."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; one of {sorted(ALGORITHMS)}")
    return {**ALGORITHMS[name], **overrides}


def run_named(g: LocalGraph, name: str, **overrides) -> MceRun:
    """Run a named algorithm on ``g`` (see ``named_config``)."""
    return run_mce(g, **named_config(name, **overrides))
