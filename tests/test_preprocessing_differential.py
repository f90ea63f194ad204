"""Differential test: vectorized cold preprocessing vs the loops it replaced.

The triangle lister, the community builder, the per-edge triangle counts
and the degeneracy peel were once per-vertex / per-triangle Python
loops. Those loops live on below as oracles, copied verbatim, and every
vectorized function must reproduce its oracle byte for byte — the same
arrays in the same row order, and the same tracked work and depth — on
every fuzz family, on hypothesis graphs, on degenerate inputs and on a
graph whose wedges span several expansion chunks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.datasets import load_dataset
from repro.fuzz.strategies import FAMILIES, build_family, random_graphs
from repro.graphs import complete_graph, empty_graph, from_edges, orient_by_order
from repro.orders.degeneracy import DegeneracyResult, degeneracy_order
from repro.pram.cost import Cost
from repro.pram.primitives import log2p1
from repro.pram.tracker import NULL_TRACKER, Tracker
from repro.triangles import count as count_module
from repro.triangles.communities import build_communities
from repro.triangles.count import list_triangles, per_edge_triangle_counts

# -- the replaced loops, kept as oracles -------------------------------------


def loop_list_triangles(dag, tracker=NULL_TRACKER):
    n = dag.num_vertices
    rows = []
    work = 0.0
    for u in range(n):
        out_u = dag.out_neighbors(u)
        du = out_u.size
        if du < 2:
            work += du
            continue
        for w in out_u[:-1]:
            out_w = dag.out_neighbors(int(w))
            work += du + out_w.size
            if out_w.size == 0:
                continue
            common = np.intersect1d(out_u, out_w, assume_unique=True)
            if common.size:
                tri = np.empty((common.size, 3), dtype=np.int32)
                tri[:, 0] = u
                tri[:, 1] = w
                tri[:, 2] = common
                rows.append(tri)
    tracker.charge(Cost(work + dag.num_edges + n, 2 * log2p1(n) ** 2 + 2))
    if not rows:
        return np.empty((0, 3), dtype=np.int32)
    return np.concatenate(rows, axis=0)


def loop_per_edge_triangle_counts(dag, tracker=NULL_TRACKER):
    tri = loop_list_triangles(dag, tracker=tracker)
    m = dag.num_edges
    counts = np.zeros(m, dtype=np.int64)
    if tri.shape[0] == 0:
        return counts
    eids = np.fromiter(
        (dag.edge_id(int(u), int(v)) for u, v in zip(tri[:, 0], tri[:, 2])),
        dtype=np.int64,
        count=tri.shape[0],
    )
    np.add.at(counts, eids, 1)
    tracker.charge(Cost(float(tri.shape[0]) * (log2p1(dag.max_out_degree) + 1), log2p1(tri.shape[0]) + 1))
    return counts


def loop_build_communities(dag, tracker=NULL_TRACKER):
    triangles = loop_list_triangles(dag, tracker=tracker)
    m = dag.num_edges
    t = triangles.shape[0]
    if t == 0:
        return np.zeros(m + 1, dtype=np.int64), np.empty(0, dtype=np.int32)
    eids = np.fromiter(
        (dag.edge_id(int(u), int(v)) for u, v in zip(triangles[:, 0], triangles[:, 2])),
        dtype=np.int64,
        count=t,
    )
    ws = triangles[:, 1].astype(np.int64)
    order = np.lexsort((ws, eids))
    eids_sorted = eids[order]
    members = ws[order].astype(np.int32)
    counts = np.bincount(eids_sorted, minlength=m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    gamma = int(counts.max()) if counts.size else 0
    tracker.charge(Cost(t * (log2p1(gamma) + 1) + m, 2 * log2p1(max(t, m)) + 2))
    return indptr, members


def loop_degeneracy_order(graph, tracker=NULL_TRACKER):
    n = graph.num_vertices
    m = graph.num_edges
    tracker.charge(Cost(2.0 * (n + 2 * m) + 1, float(n) + 1))
    deg = graph.degrees.astype(np.int64).copy()
    max_deg = int(deg.max()) if n else 0
    bin_ = np.zeros(max_deg + 2, dtype=np.int64)
    counts = np.bincount(deg, minlength=max_deg + 1)
    np.cumsum(counts, out=bin_[1:])
    fill = bin_[:-1].copy()
    vert = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    for v in range(n):
        d = deg[v]
        vert[fill[d]] = v
        pos[v] = fill[d]
        fill[d] += 1
    bin_ = bin_[:-1].copy()
    order = np.empty(n, dtype=np.int64)
    core = np.zeros(n, dtype=np.int64)
    cur_core = 0
    for i in range(n):
        v = int(vert[i])
        cur_core = max(cur_core, int(deg[v]))
        core[v] = cur_core
        order[i] = v
        for w in graph.neighbors(v):
            w = int(w)
            if deg[w] > deg[v]:
                dw = int(deg[w])
                pw = int(pos[w])
                ps = int(bin_[dw])
                u = int(vert[ps])
                if u != w:
                    vert[ps], vert[pw] = w, u
                    pos[u], pos[w] = pw, ps
                bin_[dw] = ps + 1
                deg[w] = dw - 1
    return DegeneracyResult(order=order, core=core, degeneracy=cur_core)


# -- implementations under test, each paired with its oracle -----------------
#
# Each entry maps (graph, dag, tracker) to a tuple of arrays.


def _degeneracy(fn):
    def run(graph, dag, tracker):
        res = fn(graph, tracker=tracker)
        return res.order, res.core, np.asarray(res.degeneracy)

    return run


def _communities(dag, tracker):
    comms = build_communities(dag, tracker=tracker)
    return comms.indptr, comms.members


IMPLEMENTATIONS = [
    pytest.param(
        lambda g, d, t: (loop_list_triangles(d, tracker=t),),
        lambda g, d, t: (list_triangles(d, tracker=t),),
        id="list_triangles",
    ),
    pytest.param(
        lambda g, d, t: loop_build_communities(d, tracker=t),
        lambda g, d, t: _communities(d, t),
        id="build_communities",
    ),
    pytest.param(
        lambda g, d, t: (loop_per_edge_triangle_counts(d, tracker=t),),
        lambda g, d, t: (per_edge_triangle_counts(d, tracker=t),),
        id="per_edge_triangle_counts",
    ),
    pytest.param(
        _degeneracy(loop_degeneracy_order),
        _degeneracy(degeneracy_order),
        id="degeneracy_order",
    ),
]


def _dags(graph):
    """The graph oriented by its degeneracy order and by vertex id."""
    order = loop_degeneracy_order(graph).order
    return (
        orient_by_order(graph, order),
        orient_by_order(graph, np.arange(graph.num_vertices)),
    )


def assert_identical(oracle, impl, graph):
    for dag in _dags(graph):
        t_old, t_new = Tracker(), Tracker()
        want = oracle(graph, dag, t_old)
        got = impl(graph, dag, t_new)
        assert len(got) == len(want)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert t_old.total == t_new.total


# -- inputs ------------------------------------------------------------------


def _family_graphs():
    cases = []
    for name in sorted(FAMILIES):
        for seed in range(3):
            params = FAMILIES[name].sample(np.random.default_rng(seed), 40)
            cases.append(pytest.param(build_family(name, params), id=f"{name}-{seed}"))
    return cases


DEGENERATE = [
    pytest.param(empty_graph(0), id="empty"),
    pytest.param(empty_graph(6), id="edgeless"),
    pytest.param(from_edges([(0, i) for i in range(1, 9)]), id="star"),
    pytest.param(complete_graph(9), id="K9"),
]


@pytest.mark.parametrize("oracle, impl", IMPLEMENTATIONS)
@pytest.mark.parametrize("graph", _family_graphs() + DEGENERATE)
def test_matches_loop(oracle, impl, graph):
    assert_identical(oracle, impl, graph)


@pytest.mark.parametrize("oracle, impl", IMPLEMENTATIONS)
@pytest.mark.parametrize("graph", _family_graphs()[::4] + DEGENERATE)
def test_matches_loop_in_tiny_chunks(oracle, impl, graph, monkeypatch):
    # A 3-wedge cap splits every non-trivial graph into many chunks.
    monkeypatch.setattr(count_module, "_WEDGE_CHUNK", 3)
    assert_identical(oracle, impl, graph)


@pytest.mark.parametrize("oracle, impl", IMPLEMENTATIONS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=random_graphs(max_n=14))
def test_matches_loop_on_random_graphs(oracle, impl, graph):
    assert_identical(oracle, impl, graph)


@pytest.mark.parametrize("oracle, impl", IMPLEMENTATIONS)
def test_matches_loop_across_chunks(oracle, impl):
    graph = load_dataset("sbm-community", 4)
    dag = orient_by_order(graph, loop_degeneracy_order(graph).order)
    deg = dag.out_degrees
    assert int((deg * (deg - 1) // 2).sum()) > 2 * count_module._WEDGE_CHUNK
    assert_identical(oracle, impl, graph)
