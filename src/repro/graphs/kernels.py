"""Kernelization: shrink the instance before the clique search.

Standard FPT preprocessing the practical implementations [25, 49] all
apply: a vertex can belong to a k-clique only if its core number is at
least ``k − 1``, and an edge only if it closes at least ``k − 2``
triangles. Reducing to the (k−1)-core (optionally iterating with the
triangle filter) often shrinks the graph dramatically for large k while
preserving every k-clique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..orders.community_order import undirected_edge_ids
from ..orders.degeneracy import degeneracy_order
from ..pram.cost import Cost
from ..pram.primitives import log2p1
from ..pram.tracker import NULL_TRACKER, Tracker
from ..triangles.count import list_triangles
from .builder import from_edges
from .csr import CSRGraph
from .digraph import orient_by_order

__all__ = ["Kernel", "kcore_kernel", "triangle_kernel"]


@dataclass(frozen=True)
class Kernel:
    """A reduced instance plus the mapping back to original vertex ids."""

    graph: CSRGraph
    labels: np.ndarray  # kernel vertex i  ->  original vertex labels[i]

    def lift(self, clique) -> tuple:
        """Translate a kernel-space clique to original vertex ids."""
        return tuple(sorted(int(self.labels[v]) for v in clique))


def kcore_kernel(
    graph: CSRGraph, k: int, tracker: Tracker = NULL_TRACKER
) -> Kernel:
    """Restrict to the (k−1)-core: every k-clique survives.

    Every vertex of a k-clique has k−1 neighbors inside it, hence core
    number ≥ k−1. O(n + m) via the degeneracy peel.
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    n = graph.num_vertices
    if k <= 2 or n == 0:
        return Kernel(graph=graph, labels=np.arange(n, dtype=np.int32))
    core = degeneracy_order(graph, tracker=tracker).core
    keep = np.flatnonzero(core >= k - 1).astype(np.int32)
    tracker.charge(Cost(float(n), log2p1(n) + 1))
    sub, labels = graph.subgraph(keep)
    return Kernel(graph=sub, labels=labels)


def triangle_kernel(
    graph: CSRGraph, k: int, tracker: Tracker = NULL_TRACKER
) -> Kernel:
    """Drop edges in fewer than k−2 triangles, then take the (k−1)-core.

    Iterates the two filters to a fixed point (each can re-enable the
    other). Every k-clique survives: each of its edges closes k−2
    triangles within the clique itself.
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    kernel = kcore_kernel(graph, k, tracker=tracker)
    if k <= 3:
        return kernel
    labels = kernel.labels
    g = kernel.graph
    while True:
        if g.num_edges == 0:
            break
        dag = orient_by_order(g, np.arange(g.num_vertices), tracker=tracker)
        # Undirected triangle participation: every edge of a triangle, long
        # or short, counts it.
        tri = list_triangles(dag, tracker=tracker)
        us, vs, codes = undirected_edge_ids(g)
        participation = np.zeros(g.num_edges, dtype=np.int64)
        if tri.shape[0]:
            nloc = g.num_vertices
            a = tri[:, 0].astype(np.int64)
            w = tri[:, 1].astype(np.int64)
            c = tri[:, 2].astype(np.int64)
            for x, y in ((a, w), (a, c), (w, c)):
                eids = np.searchsorted(codes, x * nloc + y)
                np.add.at(participation, eids, 1)
        keep_edges = participation >= (k - 2)
        if keep_edges.all():
            break
        edges = np.stack(
            [us[keep_edges].astype(np.int64), vs[keep_edges].astype(np.int64)],
            axis=1,
        )
        g2 = from_edges(edges, num_vertices=g.num_vertices)
        inner = kcore_kernel(g2, k, tracker=tracker)
        labels = labels[inner.labels]
        g = inner.graph
        if g.num_vertices == g2.num_vertices and np.array_equal(
            g.indptr, g2.indptr
        ):
            break
    return Kernel(graph=g, labels=np.asarray(labels, dtype=np.int32))
