"""The benchmark's workloads: which graphs each one generates from the
seed, and which named algorithm it runs on them, in-process or on Spark.

Seed 0 gives the inputs the rest of the repo uses: the OR and DG bench
surrogates of Table I and the sparse social graph the workload notes quote.
Seed n shifts every generator seed by n, which keeps the graph shapes (and
so the work per run) while changing the edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.datasets import SURROGATES
from repro.graphs.generators import generate

# Sparse social graph: a degree-2 BA background that graph reduction peels
# away, plus 800 caves of 14 vertices minus a 6-edge matching (2^6 maximal
# cliques each) for the truss peel and the kernels. 51,200 vertices.
SPARSE_SOCIAL = dict(n=40_000, m_attach=2, caves=(800, 14, 6))


def _surrogate(name: str, seed: int) -> np.ndarray:
    s = SURROGATES[name]
    params = dict(s.bench)
    params["seed"] += seed
    return generate(s.model, **params)


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str  # a repro.core.hbbmc.ALGORITHMS name
    graphs: tuple[str, ...]  # input graphs, enumerated in this order
    spark: bool = False

    def generate(self, seed: int) -> dict[str, np.ndarray]:
        """Canonical (m, 2) edge arrays of this workload's graphs."""
        out = {}
        for g in self.graphs:
            if g == "social":
                out[g] = generate("social", seed=seed, **SPARSE_SOCIAL)
            else:
                out[g] = _surrogate(g, seed)
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("hybrid-dense", "HBBMC++", ("OR", "DG")),
        Workload("sparse-gr", "HBBMC++", ("social",)),
        Workload("spark-hybrid", "HBBMC++", ("OR",), spark=True),
    ]
}
