"""Tests for the early-termination combinatorics (Algorithms 5–8; a 2-plex's
matched pairs are two-vertex paths of the inverse graph)."""
from itertools import combinations

import pytest

from repro.core.early_term import (
    cycle_mis,
    enumerate_tplex,
    inverse_components,
    path_mis,
)


def brute_mis(nbrs: dict[int, set[int]], verts) -> list[list[int]]:
    """All maximal independent sets of a small graph, by subset search."""
    verts = sorted(verts)
    out = []
    for size in range(0, len(verts) + 1):
        for sub in combinations(verts, size):
            s = set(sub)
            if any(b in nbrs[a] for a, b in combinations(sub, 2)):
                continue
            if all(any(w in nbrs[v] for w in s) for v in verts if v not in s):
                out.append(sorted(sub))
    return sorted(out)


# -- paths ---------------------------------------------------------------
@pytest.mark.parametrize("k", range(1, 13))
def test_path_mis_matches_brute_force(k):
    nbrs = {i: {j for j in (i - 1, i + 1) if 0 <= j < k} for i in range(k)}
    assert sorted(path_mis(k)) == brute_mis(nbrs, range(k))


def test_path_mis_trivial():
    assert path_mis(0) == [[]]
    assert path_mis(1) == [[0]]
    assert sorted(path_mis(2)) == [[0], [1]]


# -- cycles --------------------------------------------------------------
@pytest.mark.parametrize("k", range(3, 14))
def test_cycle_mis_matches_brute_force(k):
    nbrs = {i: {(i - 1) % k, (i + 1) % k} for i in range(k)}
    got = sorted(sorted(x) for x in cycle_mis(k))
    assert got == brute_mis(nbrs, range(k))


def test_cycle_too_short():
    with pytest.raises(ValueError):
        cycle_mis(2)


# -- inverse-graph decomposition ----------------------------------------
def test_inverse_components_mixed():
    # vertices 0-9: 0,1 isolated; 2-3-4 a path; 5..8 a 4-cycle; 9-10 an edge
    nonadj = {
        0: [], 1: [],
        2: [3], 3: [2, 4], 4: [3],
        5: [6, 8], 6: [5, 7], 7: [6, 8], 8: [7, 5],
        9: [10], 10: [9],
    }
    F, paths, cycles = inverse_components(list(nonadj), nonadj)
    assert F == [0, 1]
    assert sorted(len(p) for p in paths) == [2, 3]
    assert [len(c) for c in cycles] == [4]


def test_inverse_components_rejects_degree_three():
    nonadj = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
    with pytest.raises(ValueError):
        inverse_components([0, 1, 2, 3], nonadj)


# -- t-plex enumeration vs brute force ----------------------------------
def _assert_tplex_equals_brute(vertices, nonadj):
    got = sorted(tuple(c) for c in enumerate_tplex(vertices, nonadj))
    nbrs = {v: set(nonadj[v]) for v in vertices}
    want = sorted(tuple(c) for c in brute_mis(nbrs, vertices))
    assert got == want
    return got


def test_tplex_clique_case():
    # 1-plex: inverse graph empty -> single maximal clique = everything
    _assert_tplex_equals_brute([3, 1, 2], {1: [], 2: [], 3: []})


def test_tplex_two_plex_case():
    # paper's Figure 3 example: F={1,2}, pairs (3,5) and (4,6)
    nonadj = {1: [], 2: [], 3: [5], 5: [3], 4: [6], 6: [4]}
    got = sorted(tuple(c) for c in enumerate_tplex([1, 2, 3, 4, 5, 6], nonadj))
    assert got == [(1, 2, 3, 4), (1, 2, 3, 6), (1, 2, 4, 5), (1, 2, 5, 6)]


def test_tplex_three_plex_paper_example():
    # paper's Figure 4: inverse graph has path {1,2,3} and cycle {4,5,6}
    nonadj = {1: [2], 2: [1, 3], 3: [2], 4: [5, 6], 5: [4, 6], 6: [4, 5]}
    got = sorted(tuple(c) for c in enumerate_tplex([1, 2, 3, 4, 5, 6], nonadj))
    assert got == [(1, 3, 4), (1, 3, 5), (1, 3, 6), (2, 4), (2, 5), (2, 6)]


@pytest.mark.parametrize("seed", range(10))
def test_tplex_random_inverse_graphs(seed):
    """Random graphs of max degree 2 (unions of paths/cycles/isolated)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    verts = list(range(12))
    nonadj = {v: [] for v in verts}
    deg = {v: 0 for v in verts}
    for _ in range(10):
        a, b = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        if a != b and deg[a] < 2 and deg[b] < 2 and b not in nonadj[a]:
            nonadj[a].append(b)
            nonadj[b].append(a)
            deg[a] += 1
            deg[b] += 1
    _assert_tplex_equals_brute(verts, nonadj)


@pytest.mark.parametrize("n_pairs", [0, 1, 2, 3, 4])
def test_two_plex_algorithm5_equals_generic(n_pairs):
    """Algorithm 5's case, a 2-plex: the inverse graph is a perfect matching
    plus free vertices, and the generic enumeration yields the 2^pairs
    maximal cliques (one endpoint per pair) that brute force finds."""
    verts = list(range(2 * n_pairs + 3))
    nonadj = {v: [] for v in verts}
    for i in range(n_pairs):
        a, b = 2 * i, 2 * i + 1
        nonadj[a], nonadj[b] = [b], [a]
    assert len(_assert_tplex_equals_brute(verts, nonadj)) == 2 ** n_pairs


def test_tplex_output_count_is_product_of_components():
    # one path of 5 (4 MIS), one cycle of 6 (5 MIS), 2 isolated
    nonadj = {
        0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3],
        5: [6, 10], 6: [5, 7], 7: [6, 8], 8: [7, 9], 9: [8, 10], 10: [9, 5],
        11: [], 12: [],
    }
    out = list(enumerate_tplex(list(range(13)), nonadj))
    assert len(out) == len(path_mis(5)) * len(cycle_mis(6))
    assert all(11 in c and 12 in c for c in out)
