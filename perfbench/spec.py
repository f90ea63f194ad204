"""Inputs of the three benchmark workloads, shared by the runner and the pinning script.

Every graph is a seeded stand-in from ``repro.bench.datasets``; the
benchmark's own seed only permutes vertex ids, orders units and draws the
service schedule, so every pinned answer holds for every seed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.bench.datasets import DATASETS
from repro.graphs.builder import from_edges
from repro.graphs.csr import CSRGraph

# (dataset, scale). Cold-build stand-ins are sparse Table-2 rows; the scales
# keep one cold k=6 unit near 0.2 s so a run holds >= 100 units.
COLD_GRAPHS: Tuple[Tuple[str, float], ...] = (
    ("ca-dblp-2012", 2),
    ("tech-as-skitter", 2),
    ("orkut", 1),
)
COLD_K = 6

# High-degeneracy rows where search, not preprocessing, is the cost.
WARM_GRAPHS: Tuple[Tuple[str, float], ...] = (
    ("sbm-community", 4),
    ("chebyshev4", 10),
    ("jester2", 20),
)
WARM_KS = (6, 8, 10, 12)
# The sharded half runs under this fraction of predict_table_bytes(m, s).
SHARD_BUDGET_FRACTION = 4

# Warm reads on these cost 1-4 ms each, so warm_ms_p99 samples the
# stalls a cold build causes rather than one heavy (graph, k) pair.
SERVICE_GRAPHS: Tuple[Tuple[str, float], ...] = (
    ("sbm-community", 1),
    ("jester2", 1),
    ("ca-dblp-2012", 1),
    ("lattice-mesh", 1),
)
SERVICE_KS = (4, 5, 6)
SERVICE_COLD_GRAPH: Tuple[str, float] = ("ca-dblp-2012", 5)
SERVICE_COLD_K = 6
MUTATION_BATCH = 2  # WorkloadSpec's mutation_batch default


def key(name: str, scale: float) -> str:
    """The pinned-count key of one (dataset, scale) input."""
    return f"{name}@{scale:g}"


def generate(name: str, scale: float) -> CSRGraph:
    """Build a stand-in from scratch, bypassing the loader's memo cache."""
    return DATASETS[name].__wrapped__(float(scale))


def relabel(graph: CSRGraph, rng: np.random.Generator) -> CSRGraph:
    """The same graph under a seeded vertex permutation (clique counts unchanged)."""
    us, vs = graph.edge_array()
    perm = rng.permutation(graph.num_vertices)
    pairs = np.stack([perm[us], perm[vs]], axis=1)
    return from_edges(pairs[rng.permutation(pairs.shape[0])],
                      num_vertices=graph.num_vertices)


def mutation_batch(graph: CSRGraph, size: int = MUTATION_BATCH) -> List[List[int]]:
    """A fixed batch of absent edges that each close a wedge u-w-v.

    Closing wedges creates triangles, so the insert and the delete both
    reach the dynamic layer's community patching, not only the CSR swap.
    """
    rng = np.random.default_rng(20261017)
    chosen: set = set()
    while len(chosen) < size:
        w = int(rng.integers(graph.num_vertices))
        nbrs = graph.neighbors(w)
        if nbrs.size < 2:
            continue
        u, v = (int(x) for x in rng.choice(nbrs, size=2, replace=False))
        u, v = min(u, v), max(u, v)
        if not graph.has_edge(u, v):
            chosen.add((u, v))
    return [list(p) for p in sorted(chosen)]


def with_edges(graph: CSRGraph, batch: List[List[int]]) -> CSRGraph:
    """``graph`` plus the edges of ``batch``."""
    us, vs = graph.edge_array()
    extra = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
    pairs = np.concatenate([np.stack([us, vs], axis=1).astype(np.int64), extra])
    return from_edges(pairs, num_vertices=graph.num_vertices)
