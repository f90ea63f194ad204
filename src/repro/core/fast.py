"""Bitset-accelerated counting engine.

The reference engine (:mod:`repro.core.recursive`) mirrors the paper's
pseudocode with sorted-array intersections — ideal for instrumentation,
slow in CPython for dense communities. This engine is the packed-word
variant of the same search, served only on explicit request
(``engine="bitset"``); ``auto`` resolves to the frontier engine
(:mod:`repro.core.frontier`) instead. Per *source vertex* it renames
the out-neighborhood N⁺(u) to ``0..u-1`` (u ≤ s̃), builds one
:class:`~repro.graphs.bitset.BitMatrix`, and serves **every** eligible
edge (u, v) out of that one matrix — the community C(u, v) = N⁺(u) ∩
N⁻(v) is simply the in-row of v in the renamed universe, so per-edge
setup is two array lookups instead of a fresh matrix build. (The seed
version rebuilt the matrix from scratch per edge, re-running the
``np.intersect1d`` + packing pass per member each time; the test suite
pins count equality against the reference engine so the hoist cannot
drift.) The recursion then runs the same relevant-pair-pruned search on
packed words, where

* edge probing is a bit test,
* ``I ∩ C(u,v)`` is a word-wise AND,
* the ``c = 1`` / ``c = 2`` base cases are popcounts.

Counts are bit-for-bit identical to the reference engine (asserted by the
test suite across all engines). No search cost tracking — use the
reference engine for work/depth instrumentation; a tracker passed here
only accounts the shared preprocessing (order/orientation/communities),
which can be amortized across queries by passing a
:class:`~repro.core.prepared.PreparedGraph`.

Honest performance note: in *CPython* the win only materializes when the
candidate universes span several words — on the Table-2 stand-ins
(γ ≤ ~20, a single word) per-call numpy overhead dominates and the
reference engine is faster. The frontier engine beats this kernel
50–100× at every measured point, so the dispatch in
:mod:`repro.core.api` never picks it. The module stays because it is the
kernel a C/Cython port would keep: every operation on the hot path is
already a fixed-width word AND/popcount.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graphs.bitset import BitMatrix, popcount, unpack_bits
from ..graphs.csr import CSRGraph
from ..pram.tracker import NULL_TRACKER, Tracker
from .prepared import PreparedGraph

__all__ = ["fast_count_cliques"]


def _count_bits_recursive(mat: BitMatrix, mask: np.ndarray, c: int) -> int:
    """Count c-cliques among the set bits of ``mask`` in the renamed DAG."""
    if c == 1:
        return popcount(mask)
    members = unpack_bits(mask, mat.universe)
    if members.size < c:
        return 0
    if c == 2:
        total = 0
        for i in members.tolist():
            total += mat.count_and(int(i), mask)
        return total
    total = 0
    gap = c - 1  # delta >= c-2 within the current candidate set
    for pos in range(members.size - gap):
        u = int(members[pos])
        # Relevant edge targets: out-neighbors of u inside the candidate
        # set whose *position* in the set is at least pos + gap.
        hits = unpack_bits(mat.and_row(u, mask), mat.universe)
        if hits.size == 0:
            continue
        positions = np.searchsorted(members, hits)
        for v in hits[positions >= pos + gap].tolist():
            # I' = I ∩ C(u, v): three word-ANDs, no index materialization.
            sub_mask = mask & mat.rows[u] & mat.rows_in[int(v)]
            if popcount(sub_mask) < c - 2:
                continue
            total += _count_bits_recursive(mat, sub_mask, c - 2)
    return total


def fast_count_cliques(
    graph: CSRGraph,
    k: int,
    prepared: Optional[PreparedGraph] = None,
    tracker: Tracker = NULL_TRACKER,
) -> int:
    """Count k-cliques with the bitset kernel (same result, no tracking).

    ``prepared`` shares the order/orientation/communities with other
    engines and queries; without it the preprocessing is built privately
    for this call (cold). ``tracker`` is charged for preprocessing built
    on a miss — the packed-word search itself is intentionally untracked.
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    n = graph.num_vertices
    if k == 1:
        return n
    if k == 2:
        return graph.num_edges
    ctx = prepared if prepared is not None else PreparedGraph(graph)
    if ctx.graph is not graph:
        raise ValueError("prepared context was built for a different graph")
    dag = ctx.dag("degeneracy", tracker)
    comms = ctx.communities("degeneracy", tracker)
    if k == 3:
        return comms.num_triangles

    eligible = np.flatnonzero(comms.sizes >= (k - 2))
    if eligible.size == 0:
        return 0
    us, vs = dag.edge_endpoints()
    total = 0
    # Edge ids are grouped by source (slots in out_indices), so the sorted
    # eligible list decomposes into runs of equal source vertex: build the
    # renamed N⁺(u) matrix once per run and serve each edge from its rows.
    elig = eligible.tolist()
    i = 0
    while i < len(elig):
        u = int(us[elig[i]])
        j = i
        while j < len(elig) and int(us[elig[j]]) == u:
            j += 1
        members = dag.out_neighbors(u).astype(np.int64)
        mat = BitMatrix.from_dag_community(dag, members)
        for idx in range(i, j):
            v = int(vs[elig[idx]])
            local_v = int(np.searchsorted(members, v))
            # C(u, v) in the renamed universe is exactly the in-row of v:
            # the members w with w -> v are the common out-neighbors of u
            # ordered strictly between u and v.
            total += _count_bits_recursive(mat, mat.rows_in[local_v], k - 2)
        i = j
    return total
