"""Vertex-oriented branch-and-bound kernels (VBBMC variants) and the shared
early-termination hook.

Every kernel enumerates the maximal cliques of a branch ``(S, C, X)``:

- ``S``: the partial clique (list of vertices),
- ``C``: candidate vertices, each G-adjacent to all of S,
- ``X``: exclusion vertices, each G-adjacent to all of S but banned from the
  branch's cliques (they make a super-clique, so they block maximality).

Kernels:

- ``tomita``: classic max-|N(p) ∩ C| pivot over C ∪ X (BK_Pivot [8] /
  BK_Degen [9] inner loop) — the kernel of RDegen and HBBMC++.
- ``ref``: Naudé-style refined pivoting [12] — pivot-scan early exit once a
  best-possible pivot is found (simplified; see DESIGN.md §4).
- ``rcd``: BK_Rcd [11] — repeatedly branch on the minimum-degree candidate
  until the remaining candidate graph is a clique, then emit it wholesale.
- ``fac``: BK_Fac [18] — arbitrary initial pivot, re-pivot only when the new
  branching vertex yields a smaller extension set.

Dual adjacency (DESIGN.md §3): inside an edge-oriented branch created at
truss rank ``r`` (``self.cur_r``), two candidates may only be *jointly
included* if their edge is ordered after ``r`` — that is what attributes each
maximal clique to exactly one root branch (the one of its rank-minimal edge).
When the kernel branches on ``w``, candidates G-adjacent to ``w`` whose edge
to ``w`` is ranked at or before ``r`` ("ghosts") drop into X: they still
block maximality, but the clique containing both belongs to an earlier root
branch. Pivot selection and X-blocking always use plain G-adjacency (if a
surviving extension were entirely inside N_G(p), p would G-extend it, so it
can never be maximal — valid for pivots from C or X). With ``cur_r`` unset
the two relations coincide and the kernels are the textbook algorithms.

The early-termination check exploits that the branch candidate graph's edge
set is {edges among C with rank > r}: a t-plex under it requires a t-plex
under G restricted to C (necessary, cheap, uses the degree scan the pivot
needs anyway) plus ghost-freedom of C (verified by a pair scan only in the
rare branches that pass the degree test).
"""
from __future__ import annotations

import sys
from typing import Callable, Iterable

from .early_term import enumerate_tplex
from .stats import BranchStats

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

Pair = tuple[int, int]


def _pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


class Enumerator:
    """Holds the (reduced) graph, edge ranks, ET config and counters; the
    kernel methods recurse on branch triples. One instance per MCE run (or
    per Spark task)."""

    def __init__(
        self,
        adj: dict[int, set[int]],
        *,
        rank: dict[Pair, int] | None = None,
        et_t: int = 0,
        blocked: set[frozenset[int]] | None = None,
        collect: bool = True,
    ):
        self.adj = adj
        self.rank = rank
        self.et_t = et_t
        self.blocked = blocked or set()
        self.stats = BranchStats()
        self.out: list[tuple[int, ...]] | None = [] if collect else None
        # Rank threshold of the enclosing edge-oriented branch (None outside
        # one); set/restored by repro.core.hbbmc._ebb around kernel calls.
        self.cur_r: int | None = None

    # -- emission ---------------------------------------------------------
    def emit(self, clique: Iterable[int]) -> None:
        c = tuple(sorted(clique))
        if not c:
            return
        if len(c) <= 2 and frozenset(c) in self.blocked:
            # Non-maximal against a vertex peeled by graph reduction
            # (DESIGN.md §3, "GR blocked sets").
            return
        self.stats.cliques += 1
        if self.out is not None:
            self.out.append(c)

    # -- helpers -----------------------------------------------------------
    def _single_candidate(self, S: list[int], C: set[int], X: set[int]) -> None:
        """|C| == 1 fast path shared by all kernels: the only candidate
        clique is S ∪ {v}, maximal iff no exclusion vertex is adjacent to v
        (every x in X is already adjacent to all of S). S alone can never be
        maximal here (v extends it). Counter-wise this is a 1-plex branch."""
        if self.et_t > 0:
            self.stats.et_plex += 1
            if not X:
                self.stats.et_applied += 1
        (v,) = C
        if not (X & self.adj[v]):
            self.emit(S + [v])

    def _ghost_free(self, C: set[int], nbr_in_c: dict[int, set[int]]) -> bool:
        """True iff no pair inside C is ranked at or before ``cur_r`` — then
        the branch's candidate edge set restricted to C equals G's."""
        if self.cur_r is None:
            return True
        rank, r = self.rank, self.cur_r
        for v in C:
            for z in nbr_in_c[v]:
                if v < z and rank[(v, z)] <= r:
                    return False
        return True

    def _split_child(self, w: int, gz: set[int], Xn: set[int]) -> tuple[set[int], set[int]]:
        """Child (C, X) after branching on ``w``: ``gz`` = candidates
        G-adjacent to w, ``Xn`` = exclusion vertices G-adjacent to w. Ghost
        candidates (edge to w ranked at or before cur_r) drop into X."""
        r = self.cur_r
        if r is None:
            return gz, Xn
        rank = self.rank
        Cw = {z for z in gz if rank[(w, z) if w < z else (z, w)] > r}
        if len(Cw) == len(gz):
            return Cw, Xn
        return Cw, Xn | (gz - Cw)

    # -- early termination -------------------------------------------------
    def _early_term(self, S: list[int], C: set[int], X: set[int], min_deg: int) -> bool:
        """Early termination (Section IV) of a branch whose candidates have
        minimum degree ``min_deg`` inside C. A t-plex candidate graph counts
        towards Table V's b; the branch is finished here (b0) only when the
        exclusion graph is empty and C is ghost-free. The neighbour sets are
        built only in that case, so ET adds no per-call cost on ordinary
        branches. Returns whether the branch was finished."""
        if not self.et_t or min_deg < len(C) - self.et_t:
            return False
        self.stats.et_plex += 1
        if X:
            return False
        adj = self.adj
        nbr_in_c = {v: C & adj[v] for v in C}
        if not self._ghost_free(C, nbr_in_c):
            return False
        self.stats.et_applied += 1
        self._et_emit(S, C, nbr_in_c)
        return True

    def _et_emit(self, S: list[int], C: set[int], nbr_in_c: dict[int, set[int]]) -> None:
        """Enumerate the maximal cliques of a branch whose candidate graph is
        a ghost-free t-plex and whose exclusion graph is empty directly from
        the inverse graph. Callers count the et_plex/et_applied statistics."""
        nonadj = {v: sorted(C - nbr_in_c[v] - {v}) for v in C}
        base = list(S)
        for part in enumerate_tplex(sorted(C), nonadj):
            self.emit(base + part)

    # -- kernel: tomita (classic pivot) ------------------------------------
    def vbb_tomita(self, S: list[int], C: set[int], X: set[int]) -> None:
        self.stats.calls += 1
        if not C:
            if not X:
                self.emit(S)
            return
        if len(C) == 1:
            self._single_candidate(S, C, X)
            return
        adj = self.adj
        best_p, best_cnt = -1, -1
        min_deg = len(C)
        for v in C:
            cnt = len(C & adj[v])
            if cnt > best_cnt or (cnt == best_cnt and v < best_p):
                best_cnt, best_p = cnt, v
            if cnt < min_deg:
                min_deg = cnt
        if self._early_term(S, C, X, min_deg):
            return
        for x in X:
            cnt = len(C & adj[x])
            if cnt > best_cnt or (cnt == best_cnt and x < best_p):
                best_cnt, best_p = cnt, x
        self._branch_ext(S, C, X, sorted(C - adj[best_p]), self.vbb_tomita)

    # -- kernel: ref (Naudé-style) -----------------------------------------
    def vbb_ref(self, S: list[int], C: set[int], X: set[int]) -> None:
        self.stats.calls += 1
        if not C:
            if not X:
                self.emit(S)
            return
        if len(C) == 1:
            self._single_candidate(S, C, X)
            return
        adj = self.adj
        best_p, best_cnt = -1, -1
        if self.et_t > 0:
            min_deg = len(C)
            for v in C:
                cnt = len(C & adj[v])
                if cnt > best_cnt or (cnt == best_cnt and v < best_p):
                    best_cnt, best_p = cnt, v
                if cnt < min_deg:
                    min_deg = cnt
            if self._early_term(S, C, X, min_deg):
                return
        else:
            top = len(C) - 1
            for v in sorted(C):
                cnt = len(C & adj[v])
                if cnt > best_cnt:
                    best_cnt, best_p = cnt, v
                    if cnt == top:
                        break  # cannot do better from C: a single sub-branch
        if best_cnt < len(C):
            for x in X:
                cnt = len(C & adj[x])
                if cnt > best_cnt or (cnt == best_cnt and x < best_p):
                    best_cnt, best_p = cnt, x
        self._branch_ext(S, C, X, sorted(C - adj[best_p]), self.vbb_ref)

    # -- kernel: rcd (min-degree removal) ----------------------------------
    def vbb_rcd(self, S: list[int], C: set[int], X: set[int]) -> None:
        st = self.stats
        st.calls += 1
        if not C:
            if not X:
                self.emit(S)
            return
        if len(C) == 1:
            self._single_candidate(S, C, X)
            return
        adj = self.adj
        Cc, Xc = set(C), set(X)
        while Cc:
            nc = len(Cc)
            min_v, min_deg = -1, nc
            nbr_in_c: dict[int, set[int]] = {}
            for v in Cc:
                gz = Cc & adj[v]
                nbr_in_c[v] = gz
                if len(gz) < min_deg or (len(gz) == min_deg and v < min_v):
                    min_deg, min_v = len(gz), v
            ghost_free: bool | None = None
            if self.et_t > 0 and min_deg >= nc - self.et_t:
                st.et_plex += 1
                if not Xc:
                    ghost_free = self._ghost_free(Cc, nbr_in_c)
                    if ghost_free:
                        st.et_applied += 1
                        self._et_emit(S, Cc, nbr_in_c)
                        return
            if min_deg == nc - 1:
                # Cc is a G-clique. It is this branch's single candidate
                # maximal clique, but only if it is ghost-free (otherwise a
                # pair belongs to an earlier root branch and we must keep
                # branching to split it apart).
                if ghost_free is None:
                    ghost_free = self._ghost_free(Cc, nbr_in_c)
                if ghost_free:
                    if not any(Cc <= adj[x] for x in Xc):
                        self.emit(list(S) + list(Cc))
                    return
            v = min_v
            Cv, Xv = self._split_child(v, nbr_in_c[v], Xc & adj[v])
            self.vbb_rcd(S + [v], Cv, Xv)
            Cc.discard(v)
            Xc.add(v)
        # All candidates branched away: S itself is blocked by Xc (which now
        # contains at least the last v), so nothing to emit.

    # -- kernel: fac (adaptive cheap pivot) --------------------------------
    def vbb_fac(self, S: list[int], C: set[int], X: set[int]) -> None:
        self.stats.calls += 1
        if not C:
            if not X:
                self.emit(S)
            return
        if len(C) == 1:
            self._single_candidate(S, C, X)
            return
        adj = self.adj
        if self.et_t > 0:
            min_deg = min(len(C & adj[v]) for v in C)
            if self._early_term(S, C, X, min_deg):
                return
        Cc, Xc = set(C), set(X)
        v0 = min(Cc)
        P = Cc - adj[v0]
        while P:
            u = min(P)
            Cu, Xu = self._split_child(u, Cc & adj[u], Xc & adj[u])
            self.vbb_fac(S + [u], Cu, Xu)
            Cc.discard(u)
            Xc.add(u)
            P.discard(u)
            P2 = Cc - adj[u]
            if len(P2) < len(P):
                P = P2

    # -- shared branching loop ---------------------------------------------
    def _branch_ext(
        self,
        S: list[int],
        C: set[int],
        X: set[int],
        ext: list[int],
        rec: Callable[[list[int], set[int], set[int]], None],
    ) -> None:
        """Branch on each vertex of ``ext`` in order, moving processed
        vertices from C to X (the BK 'exclude after branching' step)."""
        adj = self.adj
        Cc, Xc = set(C), set(X)
        for w in ext:
            Cw, Xw = self._split_child(w, Cc & adj[w], Xc & adj[w])
            rec(S + [w], Cw, Xw)
            Cc.discard(w)
            Xc.add(w)


KERNELS: dict[str, str] = {
    "tomita": "vbb_tomita",
    "ref": "vbb_ref",
    "rcd": "vbb_rcd",
    "fac": "vbb_fac",
}


def kernel_fn(enum: Enumerator, name: str):
    """Resolve a kernel name to the bound method of ``enum``."""
    try:
        return getattr(enum, KERNELS[name])
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; one of {sorted(KERNELS)}") from None
