"""Exact degeneracy order (smallest-last / k-core peeling).

The Matula–Beck bucket algorithm [38]: repeatedly remove a vertex of
minimum degree in the remaining subgraph. It yields, in O(m + n) work
but Θ(n) depth (Lemma 4.1):

* the *degeneracy* ``s`` — the largest minimum degree encountered;
* the *core number* of every vertex;
* the *degeneracy order* — orienting by it gives max out-degree ≤ s.

The exact Matula–Beck order is kept (a faster batch peel would yield a
different order and move every Table-1 work number built on it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..pram.cost import Cost
from ..pram.tracker import NULL_TRACKER, Tracker

__all__ = ["DegeneracyResult", "degeneracy_order", "core_numbers"]


@dataclass(frozen=True)
class DegeneracyResult:
    """Output of the exact peeling: order, core numbers, and s."""

    order: np.ndarray  # order[i] = vertex removed at step i
    core: np.ndarray  # core[v] = core number of v
    degeneracy: int

    @property
    def rank(self) -> np.ndarray:
        """rank[v] = position of v in the order."""
        r = np.empty(self.order.size, dtype=np.int64)
        r[self.order] = np.arange(self.order.size)
        return r


def degeneracy_order(
    graph: CSRGraph, tracker: Tracker = NULL_TRACKER
) -> DegeneracyResult:
    """Matula–Beck smallest-last peeling in O(n + m) time.

    Charges O(n + m) work and O(n) depth (the peeling is inherently
    sequential — this is the linear-depth term of the paper's best-work
    variants).
    """
    n = graph.num_vertices
    m = graph.num_edges
    tracker.charge(Cost(2.0 * (n + 2 * m) + 1, float(n) + 1))

    # Batagelj–Zaveršnik bucket structure: `vert` holds the vertices sorted
    # by *current* degree, `pos[v]` is v's slot in `vert`, and `bin_[d]` is
    # the first slot of the degree-d block. O(n + m) total, on Python lists
    # (indexing them is far cheaper than numpy scalar access).
    degrees = graph.degrees.astype(np.int64)
    vert_arr = np.argsort(degrees, kind="stable")
    pos_arr = np.empty(n, dtype=np.int64)
    pos_arr[vert_arr] = np.arange(n)
    starts = np.zeros(int(degrees.max()) + 1 if n else 1, dtype=np.int64)
    np.cumsum(np.bincount(degrees)[:-1], out=starts[1:])
    deg, vert, pos, bin_ = (
        a.tolist() for a in (degrees, vert_arr, pos_arr, starts)
    )
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()

    order = [0] * n
    core = [0] * n
    cur_core = 0
    for i in range(n):
        v = vert[i]
        dv = deg[v]
        if dv > cur_core:
            cur_core = dv
        core[v] = cur_core
        order[i] = v
        for w in indices[indptr[v] : indptr[v + 1]]:
            dw = deg[w]
            if dw > dv:
                pw = pos[w]
                ps = bin_[dw]
                u = vert[ps]
                if u != w:
                    vert[ps], vert[pw] = w, u
                    pos[u], pos[w] = pw, ps
                bin_[dw] = ps + 1
                deg[w] = dw - 1
    return DegeneracyResult(
        order=np.array(order, dtype=np.int64),
        core=np.array(core, dtype=np.int64),
        degeneracy=cur_core,
    )


def core_numbers(graph: CSRGraph, tracker: Tracker = NULL_TRACKER) -> np.ndarray:
    """Core number of every vertex (convenience wrapper)."""
    return degeneracy_order(graph, tracker=tracker).core
