"""The two in-process, closed-loop workloads: cold-build and warm-search.

One caller issues one query at a time. Units of every (graph, k) are
interleaved round-robin in a seeded order, so a change of host speed
during the run lands on all of them alike. A round, once begun, runs to
its end, so every key has the same number of units. Graph relabeling and
``gc.collect()`` happen between units, outside the timed region.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

import numpy as np

import spec
from common import (Tracer, calib_ms, check, key_median, median, pct,
                    self_peak_rss_mb)

from repro import count_cliques
from repro.core.api import resolve_engine
from repro.core.prepared import PreparedGraph
from repro.core.sharded import predict_table_bytes
from repro.obs import MetricsRegistry
from repro.pram.tracker import Tracker

VARIANT = "degeneracy"


def _observed() -> Tuple[Tracker, MetricsRegistry]:
    tracker = Tracker()
    return tracker, tracker.attach_metrics(MetricsRegistry())


def _traced_query(tr: Tracer, unit: int, g, pg: PreparedGraph, k: int,
                  budget, tracker: Tracker):
    """One query with a span around each layer's public call.

    Pieces already memoized on ``pg`` return at once (a hit); on a fresh
    context each call builds exactly its own layer, because the earlier
    layers were built by the calls before it.
    """
    with tr.span("orders.order", unit):
        pg.order_result(VARIANT, tracker)
    with tr.span("digraph.orient", unit):
        pg.dag(VARIANT, tracker)
    with tr.span("triangles.list", unit):
        pg.triangles(VARIANT, tracker)
    with tr.span("triangles.communities", unit):
        pg.communities(VARIANT, tracker)
    with tr.span("frontier.tables", unit):
        if budget is None:
            pg.frontier_tables(VARIANT, tracker)
        else:
            pg.sharded_tables(VARIANT, tracker, memory_budget_bytes=budget)
    with tr.span("api.resolve", unit):
        engine = resolve_engine(pg, k, "best-work", True, None, tracker,
                                memory_budget_bytes=budget)
    with tr.span(f"{engine}.search", unit):
        return count_cliques(g, k, prepared=pg, tracker=tracker,
                             memory_budget_bytes=budget)


def _layer_counts(regs: List[MetricsRegistry]) -> Dict[str, float]:
    """Frontier/shard instruments summed over one warm-up unit per key."""
    def val(reg, name):
        return reg.to_dict().get(name, {}).get("value", 0.0)

    out = {
        "frontier.pairs": sum(val(r, "frontier.pairs") for r in regs),
        "frontier.children": sum(val(r, "frontier.children") for r in regs),
        "frontier.peak_width": max(val(r, "frontier.peak_width") for r in regs),
        "shard.bytes.built": sum(val(r, "shard.bytes.built") for r in regs),
        "shard.bytes.resident_peak": max(
            val(r, "shard.bytes.resident_peak") for r in regs),
    }
    out["frontier.children_per_pair"] = (
        out["frontier.children"] / out["frontier.pairs"]
        if out["frontier.pairs"] else 0.0
    )
    return out


# The preprocessing layers, in pipeline order, as named by their spans.
PREP_SPANS = ("orders.order", "digraph.orient", "triangles.list",
              "triangles.communities", "frontier.tables")


def _shares(tr: Tracer) -> Dict[str, float]:
    """Median ms per unit and share of all unit time, per preprocessing span."""
    unit_total = tr.total_ms("unit")
    out = {}
    for name in PREP_SPANS:
        durs = tr.durations_ms(name)
        out[f"{name}_ms"] = median(durs) if durs else 0.0
        out[f"{name}_share"] = sum(durs) / unit_total if unit_total else 0.0
    return out


class SetupSampler:
    """Times one graph's set-up between rounds, rotating over the graphs.

    The first set-up of every graph runs untimed before the timed loop
    and absorbs the interpreter's first-touch costs. After that, each
    round ends with one timed set-up of the next graph, so set-up samples
    are spread over the whole run, like the units, and a slow period of
    the host lands on both alike. ``setup_s`` is the sum over graphs of
    the median set-up time of each graph.
    """

    def __init__(self, names: List[str], build) -> None:
        self.names = names
        self.build = build
        self.walls: Dict[str, List[float]] = {name: [] for name in names}
        self.next = 0

    def sample(self) -> float:
        """Time the next graph's set-up; returns the wall time spent."""
        name = self.names[self.next % len(self.names)]
        self.next += 1
        gc.collect()
        t0 = time.perf_counter()
        self.build(name)
        wall = time.perf_counter() - t0
        self.walls[name].append(wall)
        return wall

    def setup_s(self) -> float:
        while any(not w for w in self.walls.values()):  # very short runs
            self.sample()
        return float(sum(median(w) for w in self.walls.values()))


def _overhead(walls: Dict[Tuple[str, bool], List[float]]) -> float:
    """Traced ÷ untraced unit time − 1, paired per key so drift cancels."""
    ratios = []
    for (key, traced), w in walls.items():
        plain = walls.get((key, False))
        if traced and plain:
            ratios.append(median(w) / median(plain))
    return float(np.mean(ratios)) - 1.0 if ratios else 0.0


def cold_build(seed: int, seconds: float, trace: bool, expected: dict,
               tr: Tracer) -> dict:
    """Fresh PreparedGraph + count k=6 per unit on a relabeled sparse graph."""
    pinned = expected["cold-build"]
    k = spec.COLD_K
    inputs = {spec.key(n, s): (n, s) for n, s in spec.COLD_GRAPHS}
    graphs = [(name, spec.generate(*inputs[name])) for name in inputs]
    setups = SetupSampler(list(inputs), lambda name: spec.generate(*inputs[name]))

    calib_start = calib_ms()
    regs = []
    tri_total = 0
    for name, g in graphs:  # untimed warm-up, one per graph, original labels
        tracker, reg = _observed()
        pg = PreparedGraph(g)
        check(f"warm-up {name} k={k}",
              count_cliques(g, k, prepared=pg, tracker=tracker).count,
              pinned[name][str(k)])
        regs.append(reg)
        tri_total += int(pg.triangles(VARIANT).shape[0])

    rng = np.random.default_rng(seed)
    cold, warm, walls = [], [], {}
    cold_by: Dict[str, List[float]] = {}
    warm_by: Dict[str, List[float]] = {}
    misses: List[float] = []
    attempted = failed = 0
    unit = 0
    deadline = time.perf_counter() + seconds
    rnd = 0
    while time.perf_counter() < deadline:
        traced = trace and rnd % 2 == 0
        for gi in rng.permutation(len(graphs)):
            name, g = graphs[gi]
            want = pinned[name][str(k)]
            h = spec.relabel(g, rng)
            gc.collect()
            attempted += 2
            unit += 1
            try:
                if traced:
                    tracker, reg = _observed()
                    t0 = time.perf_counter()
                    with tr.span("unit", unit):
                        with tr.span("prepared.init", unit):
                            pg = PreparedGraph(h)
                        got = _traced_query(tr, unit, h, pg, k, None,
                                            tracker).count
                    t1 = time.perf_counter()
                    misses.append(reg.counter("prepared.piece.miss").value)
                    with tr.span("warm.unit", unit):
                        again = count_cliques(h, k, prepared=pg).count
                    t2 = time.perf_counter()
                else:
                    t0 = time.perf_counter()
                    pg = PreparedGraph(h)
                    got = count_cliques(h, k, prepared=pg).count
                    t1 = time.perf_counter()
                    again = count_cliques(h, k, prepared=pg).count
                    t2 = time.perf_counter()
            except Exception:  # a program failure counts against ok_ratio
                failed += 2
                continue
            check(f"cold {name} k={k}", got, want)
            check(f"warm {name} k={k}", again, want)
            cold.append((t1 - t0) * 1000.0)
            warm.append((t2 - t1) * 1000.0)
            cold_by.setdefault(name, []).append(cold[-1])
            warm_by.setdefault(name, []).append(warm[-1])
            walls.setdefault((name, traced), []).append((t1 - t0) * 1000.0)
        deadline += setups.sample()
        rnd += 1
    calib_end = calib_ms()

    result = {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": setups.setup_s(),
            "queries_per_s": 1000.0 * len(cold) / sum(cold),
            "query_ms_p50": key_median(cold_by),
            "query_ms_p90": pct(cold, 90),
            "warm_ms_p50": key_median(warm_by),
            "warm_ms_p99": pct(warm, 99),
            "cold_ms_p50": key_median(cold_by),
            "peak_rss_mb": self_peak_rss_mb(),
        },
    }
    if trace:
        layers = _shares(tr)
        search = tr.durations_ms("frontier.search")
        layers.update(_layer_counts(regs))
        layers.update({
            "triangles.count": float(tri_total),
            "frontier.search_ms": median(search),
            "frontier.search_share": sum(search) / tr.total_ms("unit"),
            "api.resolve_ms": median(tr.durations_ms("api.resolve")),
            "prepared.piece.miss": median(misses),
            "machine.calib_ms": median([calib_start, calib_end]),
            "trace.overhead_share": _overhead(walls),
        })
        result["layers"] = layers
    return result


def warm_search(seed: int, seconds: float, trace: bool, expected: dict,
                tr: Tracer) -> dict:
    """Search-only units on fully prepared high-degeneracy graphs.

    Each (graph, k) runs twice back to back: once on in-RAM tables, once
    under a quarter of ``predict_table_bytes(m, s)`` so dispatch picks
    the sharded engine.
    """
    pinned = expected["warm-search"]
    first_k = spec.WARM_KS[0]
    inputs = {spec.key(n, s): (n, s) for n, s in spec.WARM_GRAPHS}

    def prepare(name: str):
        """Generate one graph and build every piece its queries use."""
        g = spec.generate(*inputs[name])
        pg = PreparedGraph(g)
        check(f"first query {name} k={first_k}",
              count_cliques(g, first_k, prepared=pg).count,
              pinned[name][str(first_k)])
        dag = pg.dag(VARIANT)
        budget = (predict_table_bytes(dag.num_edges, dag.max_out_degree)
                  // spec.SHARD_BUDGET_FRACTION)
        pg.sharded_tables(VARIANT, memory_budget_bytes=budget)
        return name, g, pg, budget

    graphs = [prepare(name) for name in inputs]
    setups = SetupSampler(list(inputs), prepare)

    calib_start = calib_ms()
    keys = [(gi, k) for gi in range(len(graphs)) for k in spec.WARM_KS]
    regs, shard_count = [], 0
    for gi, k in keys:  # untimed warm-up, one per (graph, k, placement)
        name, g, pg, budget = graphs[gi]
        for b in (None, budget):
            tracker, reg = _observed()
            r = count_cliques(g, k, prepared=pg, tracker=tracker,
                              memory_budget_bytes=b)
            check(f"warm-up {name} k={k} budget={b}", r.count,
                  pinned[name][str(k)])
            regs.append(reg)
            if b is not None and k == first_k:
                shard_count += int(reg.gauge("shard.count").value)

    rng = np.random.default_rng(seed)
    ram, sharded, slowdown, walls = [], [], [], {}
    ram_by: Dict[str, List[float]] = {}
    sharded_by: Dict[str, List[float]] = {}
    miss_total = 0.0
    attempted = failed = 0
    unit = 0
    deadline = time.perf_counter() + seconds
    rnd = 0
    while time.perf_counter() < deadline:
        traced = trace and rnd % 2 == 0
        for ki in rng.permutation(len(keys)):
            gi, k = keys[ki]
            name, g, pg, budget = graphs[gi]
            want = pinned[name][str(k)]
            pair = []
            for b in (None, budget):
                gc.collect()
                attempted += 1
                unit += 1
                try:
                    if traced:
                        tracker, reg = _observed()
                        t0 = time.perf_counter()
                        with tr.span("unit", unit):
                            got = _traced_query(tr, unit, g, pg, k, b,
                                                tracker).count
                        t1 = time.perf_counter()
                        miss_total += reg.counter("prepared.piece.miss").value
                    else:
                        t0 = time.perf_counter()
                        got = count_cliques(g, k, prepared=pg,
                                            memory_budget_bytes=b).count
                        t1 = time.perf_counter()
                except Exception:  # a program failure counts against ok_ratio
                    failed += 1
                    continue
                check(f"{name} k={k} budget={b}", got, want)
                ms = (t1 - t0) * 1000.0
                pair.append(ms)
                (ram if b is None else sharded).append(ms)
                (ram_by if b is None else sharded_by).setdefault(
                    f"{name}/{k}/{b}", []).append(ms)
                walls.setdefault((f"{name}/{k}/{b}", traced), []).append(ms)
            if len(pair) == 2 and pair[0] > 0:
                slowdown.append(pair[1] / pair[0])
        deadline += setups.sample()
        rnd += 1
    calib_end = calib_ms()

    units = ram + sharded
    result = {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": setups.setup_s(),
            "queries_per_s": 1000.0 * len(units) / sum(units),
            "query_ms_p50": key_median({**ram_by, **sharded_by}),
            "query_ms_p90": pct(units, 90),
            "warm_ms_p50": key_median(ram_by),
            "warm_ms_p99": pct(ram, 99),
            # The sharded half rebuilds its table shards on every query.
            "cold_ms_p50": key_median(sharded_by),
            "peak_rss_mb": self_peak_rss_mb(),
        },
    }
    if trace:
        layers = _shares(tr)
        layers.update(_layer_counts(regs))
        search_ram = tr.durations_ms("frontier.search")
        search_sh = tr.durations_ms("sharded.search")
        layers.update({
            "triangles.count": float(sum(
                int(pg.triangles(VARIANT).shape[0]) for _, _, pg, _ in graphs)),
            "frontier.search_ms": median(search_ram),
            "frontier.search_share": (sum(search_ram) + sum(search_sh))
            / tr.total_ms("unit"),
            "sharded.search_ms": median(search_sh),
            "sharded.slowdown": median(slowdown),
            "shard.count": float(shard_count),
            "api.resolve_ms": median(tr.durations_ms("api.resolve")),
            "prepared.piece.miss": miss_total,
            "machine.calib_ms": median([calib_start, calib_end]),
            "trace.overhead_share": _overhead(walls),
        })
        result["layers"] = layers
    return result
