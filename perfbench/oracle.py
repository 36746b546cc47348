"""Independent clique oracle and order-independent clique-set digests.

The oracle is ``networkx.find_cliques``, which shares no code with the
program (``repro.reference`` is not used). It runs in a child process, with
the in-process reference run that Spark workloads compare counters with, so
that neither counts in the workload's peak RSS.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
from collections.abc import Iterable
from pathlib import Path

_MASK = (1 << 64) - 1
CACHE = Path(__file__).resolve().parent.parent / ".perfbench" / "oracle"


def digest(cliques: Iterable[Iterable[int]]) -> tuple[int, int]:
    """(number of cliques, sum of their hashes mod 2**64). Each clique is
    hashed as the sorted tuple of its vertex ids; hashes of int tuples do
    not depend on PYTHONHASHSEED, so digests compare across processes."""
    n = 0
    h = 0
    for c in cliques:
        n += 1
        h += hash(tuple(sorted(c)))
    return n, h & _MASK


def reference(workload: str, seed: int) -> dict:
    """For every input graph of ``workload`` at ``seed``: ``digests``, the
    networkx clique digest of the generated edge list the program receives,
    and, for Spark workloads, ``local_stats``, the BranchStats of the same
    algorithm run in-process on that edge list."""
    import networkx as nx

    from repro.core.hbbmc import run_named
    from repro.graphs.generators import to_local

    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload]
    out: dict = {"digests": {}, "local_stats": {}}
    for name, edges in wl.generate(seed).items():
        # The digest depends only on the edge list, networkx and Python's
        # tuple hash, so it is kept per (edge-list hash, networkx version,
        # Python version): the workloads share graphs, and runs repeat seeds.
        key = hashlib.sha256(edges.tobytes()).hexdigest()[:32]
        path = CACHE / f"{key}-nx{nx.__version__}-py{platform.python_version()}.json"
        if path.exists():
            out["digests"][name] = json.loads(path.read_text())
        else:
            g = nx.Graph()
            g.add_edges_from(edges.tolist())
            out["digests"][name] = digest(nx.find_cliques(g))
            CACHE.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(out["digests"][name]))
            os.replace(tmp, path)
        if wl.spark:
            run = run_named(to_local(edges), wl.algorithm, collect=False)
            out["local_stats"][name] = run.stats.as_dict()
    return out


def run_reference(workload: str, seed: int) -> dict:
    """``reference`` in a child process, waited for; results come back as
    JSON on its standard output."""
    import subprocess
    import sys

    p = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    out = json.loads(p.stdout)
    out["digests"] = {g: tuple(d) for g, d in out["digests"].items()}
    return out


if __name__ == "__main__":
    import sys

    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    print(json.dumps(reference(sys.argv[1], int(sys.argv[2]))))
