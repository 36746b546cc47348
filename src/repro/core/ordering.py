"""Exact local peeling orders: degeneracy (vertex) and truss (edge).

These are the *exact* greedy peels the paper's bounds rely on:

- Degeneracy ordering: repeatedly remove a minimum-degree vertex. The largest
  degree seen at removal time is the degeneracy ``delta``; every vertex has at
  most ``delta`` later neighbors.
- Truss-based edge ordering (Wang et al. [19]): repeatedly remove the edge
  whose endpoints have the fewest common neighbors in the *remaining* graph.
  The largest support seen at removal time is ``tau`` (< delta); in HBBMC the
  candidate graph of every root edge branch has at most ``tau`` vertices.

Table I's delta and tau come from these peels too.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .localgraph import LocalGraph

Pair = tuple[int, int]


@dataclass(frozen=True)
class DegeneracyResult:
    """Degeneracy peel output: the order, per-vertex position, and delta."""

    order: list[int]
    pos: dict[int, int]
    delta: int
    core: dict[int, int]  # core number of every vertex


def degeneracy_order(g: LocalGraph) -> DegeneracyResult:
    """Bucket-queue min-degree peel, O(n + m). Ties break on vertex id so the
    order (and everything downstream) is deterministic."""
    deg = {v: len(nbrs) for v, nbrs in g.adj.items()}
    # Buckets of vertices by current degree; sorted-set semantics emulated
    # with lazy heap entries keyed (degree, vertex).
    heap: list[tuple[int, int]] = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    removed: set[int] = set()
    order: list[int] = []
    core: dict[int, int] = {}
    delta = 0
    k = 0  # running max of removal degrees = core number level
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue  # stale entry
        removed.add(v)
        order.append(v)
        k = max(k, d)
        core[v] = k
        delta = max(delta, d)
        for u in g.adj[v]:
            if u not in removed:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    pos = {v: i for i, v in enumerate(order)}
    return DegeneracyResult(order=order, pos=pos, delta=delta, core=core)


@dataclass(frozen=True)
class TrussResult:
    """Truss peel output: the edge order, per-edge rank, and tau."""

    order: list[Pair]
    rank: dict[Pair, int]
    tau: int
    truss: dict[Pair, int]  # truss number of every edge (support-at-peel + 2)


def truss_order(g: LocalGraph) -> TrussResult:
    """Greedy min-support edge peel, O(m * delta + m log m).

    ``support(e)`` = number of common neighbors of e's endpoints in the graph
    induced by the not-yet-peeled edges. Ties break first-in first-out
    (below), so the order depends only on the edge set, not on the order
    the graph was built in. ``truss[e]`` is the classic truss number
    (max-support-so-far at removal + 2).
    """
    # Integer-encode edges (u * span + v, u < v) so the hot peel loop hashes
    # ints, not tuples. The peel runs on ids shifted by the minimum id, so
    # negative ids encode too; the shift is monotone, so ties break exactly
    # as on the original ids.
    lo = min(g.adj, default=0)
    adj = {v - lo: {w - lo for w in nbrs} for v, nbrs in g.adj.items()}
    span = (max(adj) + 1) if adj else 1
    sup: dict[int, int] = {}
    for u, au in adj.items():
        for v in au:
            if u < v:
                sup[u * span + v] = len(au & adj[v])
    # Bucket queue over support values; each bucket is an insertion-ordered
    # dict used as a set, so peeling is O(m + #triangles) and deterministic:
    # edges enter buckets in sorted order, move buckets in sorted order of
    # the peeled edge's common neighbours, and leave FIFO.
    max_s = max(sup.values(), default=0)
    buckets: list[dict[int, None]] = [dict() for _ in range(max_s + 1)]
    for e in sorted(sup):
        buckets[sup[e]][e] = None
    order_codes: list[int] = []
    tau = 0
    kmax = 0
    truss_codes: dict[int, int] = {}
    cur = 0
    m = len(sup)
    while len(order_codes) < m:
        bucket = buckets[cur]
        if not bucket:
            cur += 1
            continue
        e = next(iter(bucket))
        del bucket[e]
        u, v = divmod(e, span)
        order_codes.append(e)
        if cur > kmax:
            kmax = cur
            tau = cur
        truss_codes[e] = kmax + 2
        # Peel e: every remaining triangle (u, v, w) loses it, so the
        # supports of (u, w) and (v, w) each drop by one.
        au, av = adj[u], adj[v]
        for w in sorted(au & av):
            f1 = u * span + w if u < w else w * span + u
            f2 = v * span + w if v < w else w * span + v
            for f in (f1, f2):
                sf = sup[f]
                del buckets[sf][f]
                sup[f] = sf - 1
                buckets[sf - 1][f] = None
                if sf - 1 < cur:
                    cur = sf - 1
        au.discard(v)
        av.discard(u)
    order = [(u + lo, v + lo) for u, v in (divmod(e, span) for e in order_codes)]
    rank = {e: i for i, e in enumerate(order)}
    truss = {e: truss_codes[c] for e, c in zip(order, order_codes)}
    return TrussResult(order=order, rank=rank, tau=tau, truss=truss)


def edge_order_rank(g: LocalGraph, kind: str) -> dict[Pair, int]:
    """Per-edge rank under one of the paper's initial-branch edge orders.

    - ``"truss"``: the truss-based ordering (HBBMC++ default).
    - ``"dgn"``: edges ordered lexicographically by the degeneracy positions
      of their endpoints (Table VI, HBBMC-dgn).
    - ``"mdg"``: edges in non-decreasing order of min(deg(u), deg(v)), the
      upper bound on an edge branch's candidate size (Table VI, HBBMC-mdg).

    Any total order is *correct* (each maximal clique still belongs to exactly
    one root edge — its rank-minimal edge); only the branch-size bound tau is
    specific to the truss order.
    """
    if kind == "truss":
        return truss_order(g).rank
    if kind == "dgn":
        pos = degeneracy_order(g).pos
        keyed = sorted(
            g.edges(), key=lambda e: (min(pos[e[0]], pos[e[1]]), max(pos[e[0]], pos[e[1]]), e)
        )
        return {e: i for i, e in enumerate(keyed)}
    if kind == "mdg":
        keyed = sorted(
            g.edges(),
            key=lambda e: (min(len(g.adj[e[0]]), len(g.adj[e[1]])), e),
        )
        return {e: i for i, e in enumerate(keyed)}
    raise ValueError(f"unknown edge order kind: {kind!r}")
