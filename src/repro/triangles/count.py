"""Triangle listing and counting on oriented DAGs.

The standard O(m·s̃)-work, O(log² n)-depth oriented enumeration
[Shi et al.'20, Chiba–Nishizeki'85]: for each directed edge ``(u, w)``
intersect ``N⁺(u)`` with ``N⁺(w)``; every completion vertex ``v`` yields
the triangle ``u < w < v`` exactly once (run here as the equivalent
wedge join). Triangles are reported with their DAG roles: ``(u, w, v)``
where ``(u, v)`` is the *supporting* edge (first and last vertex in the
order) and ``w`` the community member.
"""

from __future__ import annotations

import numpy as np

from ..graphs.digraph import OrientedDAG
from ..pram.cost import Cost
from ..pram.primitives import log2p1
from ..pram.tracker import NULL_TRACKER, Tracker

__all__ = ["list_triangles", "count_triangles", "per_edge_triangle_counts"]


# Wedges per chunk of list_triangles: caps its temporaries (a few dozen
# bytes per wedge) at a fixed size whatever the graph.
_WEDGE_CHUNK = 1 << 18


def list_triangles(
    dag: OrientedDAG, tracker: Tracker = NULL_TRACKER
) -> np.ndarray:
    """All triangles as an (T, 3) array of rows ``(u, w, v)``, ``u < w < v``.

    A wedge join: out-slots ``i < j`` of row ``u`` form the wedge
    ``(w, v) = (N⁺(u)[i], N⁺(u)[j])``, closed iff ``(w, v)`` is an edge.
    Wedges come out in ``(u, i, j)``, i.e. sorted ``(u, w, v)``, order,
    in chunks of about ``_WEDGE_CHUNK``. The charge is that of the
    per-edge intersections ``N⁺(u) ∩ N⁺(w)``:

    Work: O(m·s̃)
    Depth: O(log² n)
    """
    n = dag.num_vertices
    m = dag.num_edges
    deg = dag.out_degrees
    src, dst = dag.edge_endpoints()
    later = dag.out_indptr[1:][src] - np.arange(m) - 1  # wedges per slot
    # Σ_u [du < 2 ? du : du·(du−1) + Σ_{w ∈ N⁺(u) but last} outdeg(w)].
    work = float(
        np.sum(deg * (deg - 1))
        + np.count_nonzero(deg == 1)
        + np.sum(deg[dst][later > 0])
    )
    tracker.charge(Cost(work + m + n, 2 * log2p1(n) ** 2 + 2))

    ends = np.cumsum(later)
    cuts = np.searchsorted(
        ends, np.arange(_WEDGE_CHUNK, ends[-1] if m else 0, _WEDGE_CHUNK), "right"
    )
    bounds = np.unique(np.concatenate(([0], cuts, [m])))
    chunks = [
        _closed_wedges(dag, src, dst, later[lo:hi], lo)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if not chunks:
        return np.empty((0, 3), dtype=np.int32)
    return np.concatenate(chunks, axis=0)


def _closed_wedges(
    dag: OrientedDAG,
    src: np.ndarray,
    dst: np.ndarray,
    later: np.ndarray,
    lo: int,
) -> np.ndarray:
    """Triangle rows of the wedges opened by edge slots ``lo, lo+1, …``.

    Slot ``e`` pairs with each of the ``later[e − lo]`` slots after it in
    its row; the ``r``-th wedge of slot ``e`` has second slot ``e + 1 + r``.
    """
    slots = np.arange(lo, lo + later.size)
    first = np.repeat(slots, later)
    run_start = np.cumsum(later) - later
    second = np.arange(first.size) + np.repeat(slots + 1 - run_start, later)
    w, v = dst[first], dst[second]
    closed = dag.edge_ids(w, v) >= 0
    tri = np.empty((int(np.count_nonzero(closed)), 3), dtype=np.int32)
    tri[:, 0] = src[first[closed]]
    tri[:, 1] = w[closed]
    tri[:, 2] = v[closed]
    return tri


def count_triangles(dag: OrientedDAG, tracker: Tracker = NULL_TRACKER) -> int:
    """Total number of triangles (same cost as listing)."""
    return int(list_triangles(dag, tracker=tracker).shape[0])


def per_edge_triangle_counts(
    dag: OrientedDAG, tracker: Tracker = NULL_TRACKER
) -> np.ndarray:
    """|C(e)| for every directed edge id of ``dag``.

    ``counts[eid]`` is the size of the community of the edge with dense id
    ``eid`` — the number of triangles the edge *supports* (i.e. for which
    it connects the first and last vertex of the total order). The
    triangle pass plus one edge-key lookup per triangle:

    Work: O(m·s̃ + T log m)
    Depth: O(log² n)
    """
    tri = list_triangles(dag, tracker=tracker)
    counts = np.bincount(
        dag.edge_ids(tri[:, 0], tri[:, 2]), minlength=dag.num_edges
    ).astype(np.int64, copy=False)
    if tri.shape[0]:
        tracker.charge(Cost(float(tri.shape[0]) * (log2p1(dag.max_out_degree) + 1), log2p1(tri.shape[0]) + 1))
    return counts
