"""The service-mixed workload: warm reads and writes beside a stream of cold builds.

One generator (this process) holds one pipelined TCP connection to a
daemon subprocess started with default settings. Warm reads fire on an
open-loop schedule at a fixed rate, and so do writes (insert a fixed
batch into one warm graph, then delete it at the next write). Beside
them one closed-loop cold client runs cold events back to back:
register a fresh graph inline, count k=6 on it, unregister it, pause.
Every latency runs from the event's due time, so a stall also charges
the events queued behind it.

A run is cut into segments. Each segment starts a fresh daemon, and its
set-up (generation, daemon start, register, warm-up) is timed, so
set-up samples are spread over the run like the traffic they precede.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import spec
from common import Tracer, calib_ms, check, median, pct, proc_peak_rss_mb

from repro.graphs.csr import CSRGraph

SEGMENTS = 5            # fresh daemon + timed set-up per segment
# Traffic figures. The read mix and the writes follow the repository's own
# traffic description, repro.bench.workload.WorkloadSpec: Zipf exponent
# 1.1 (its zipf_a default), count:find = 0.8:0.1 (its mix default;
# spectrum is left out, the scenario's warm reads being count and find),
# and one 2-edge write after every 8 reads (the mutation_every=8,
# mutation_batch=2 example in docs/BENCHMARKS.md). The rates below are
# chosen, not measured: reads arrive well under the daemon's idle warm
# capacity (~500/s), and the cold client runs cold events back to back,
# so that most warm reads meet a cold build.
WARM_RATE = 30.0        # warm reads per second
FIND_SHARE = 0.1 / 0.9  # share of warm reads that are `find`, the rest `count`
ZIPF_EXPONENT = 1.1
READS_PER_WRITE = 8
COLD_PAUSE = 0.1        # seconds the cold client waits between cold events
COLD_PAYLOADS = 8       # distinct relabelings, cycled; each register is a cold build
READY_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0


class Conn:
    """One pipelined NDJSON connection; responses are matched by id."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._next = 0
        self._task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                msg = json.loads(line)
                fut = self._pending.pop(msg.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((time.perf_counter(), msg))
        finally:
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("daemon closed the connection"))

    def send(self, op: str, payload: Optional[bytes] = None, **fields) -> Tuple[float, asyncio.Future]:
        """Write one request now; returns (send time, future of (recv time, msg))."""
        self._next += 1
        fut = asyncio.get_running_loop().create_future()
        self._pending[self._next] = fut
        head = json.dumps({"op": op, "id": self._next, **fields})
        if payload is not None:  # pre-encoded large field, spliced in as-is
            head = head[:-1] + ", " + payload.decode() + "}"
        self._writer.write(head.encode() + b"\n")
        return time.perf_counter(), fut

    async def call(self, op: str, **fields) -> dict:
        _, fut = self.send(op, **fields)
        _, msg = await fut
        if not msg.get("ok"):
            raise RuntimeError(f"{op} failed: {msg.get('error')}")
        return msg["result"]

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, ConnectionError):
            pass


def _start_daemon(root: str, log_path: str) -> Tuple[subprocess.Popen, int]:
    log = open(log_path, "w")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=root, stdout=log, stderr=subprocess.STDOUT,
    )
    log.close()
    deadline = time.monotonic() + READY_TIMEOUT
    while time.monotonic() < deadline:
        with open(log_path) as fh:
            for line in fh:
                if "listening on" in line:
                    return proc, int(line.rsplit(":", 1)[1])
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    _stop_daemon(proc)
    raise RuntimeError(f"daemon did not start; see {log_path}")


def _stop_daemon(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _is_clique(g: CSRGraph, extra: set, witness: List[int], k: int) -> bool:
    if len(set(witness)) != k:
        return False
    for i, u in enumerate(witness):
        for v in witness[i + 1:]:
            a, b = min(u, v), max(u, v)
            if not (g.has_edge(a, b) or (a, b) in extra):
                return False
    return True


def _schedule(rng: np.random.Generator, seconds: float, names: List[str]):
    """(due offset, kind, args) for every event of one segment, sorted by due time."""
    events = []
    # The warm reads are a seeded shuffle of a fixed multiset: Zipf
    # popularity by SERVICE_GRAPHS order, FIND_SHARE finds, k spread
    # evenly. Every seed thus offers the same mix of work; the seed
    # decides only the order.
    n_warm = int(seconds * WARM_RATE)
    weights = 1.0 / np.arange(1.0, len(names) + 1.0) ** ZIPF_EXPONENT
    per_graph = np.floor(weights / weights.sum() * n_warm).astype(int)
    per_graph[0] += n_warm - per_graph.sum()
    picks = rng.permutation(np.repeat(np.arange(len(names)), per_graph))
    n_find = int(round(n_warm * FIND_SHARE))
    ops = rng.permutation(np.array(["find"] * n_find + ["count"] * (n_warm - n_find)))
    ks = rng.permutation(np.resize(np.array(spec.SERVICE_KS), n_warm))
    for i in range(n_warm):
        events.append((i / WARM_RATE, "warm", (names[picks[i]], str(ops[i]), int(ks[i]))))
    period = READS_PER_WRITE / WARM_RATE
    t = rng.uniform(0, period)
    target = None
    while t < seconds:
        if target is None:
            target = names[int(rng.integers(len(names)))]
            events.append((t, "write", (target, "insert")))
        else:
            events.append((t, "write", (target, "delete")))
            target = None
        t += period
    events.sort(key=lambda e: e[0])
    return events


class Run:
    """State of one service-mixed run (setup, schedule, results)."""

    def __init__(self, root: str, run_dir: str, seed: int, seconds: float,
                 trace: bool, expected: dict, tr: Tracer) -> None:
        self.root = root
        self.run_dir = run_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tr = tr
        pins = expected["service-mixed"]
        self.warm_pins = pins["warm"]
        cold_key = spec.key(*spec.SERVICE_COLD_GRAPH)
        self.cold_pin = pins["cold"][cold_key][str(spec.SERVICE_COLD_K)]
        self.attempted = 0
        self.failed = 0
        self.lat: Dict[str, List[float]] = {"warm": [], "cold": [], "write": []}
        self.lag: List[float] = []
        self.warm_flights: List[Tuple[float, float, float, int]] = []
        self.cold_spans: List[Tuple[float, float]] = []
        self.op_ms: Dict[str, List[float]] = {"register": [], "cold_count": [], "mutate": []}
        self.cold_ops = 0       # cold-client operations answered ok
        self.cold_busy = 0.0    # seconds the cold client waited on the daemon
        self.cold_index = 0

    # -- setup ---------------------------------------------------------------

    def generate(self, rng: np.random.Generator) -> None:
        self.graphs: Dict[str, CSRGraph] = {}
        self.batches: Dict[str, List[List[int]]] = {}
        for name, scale in spec.SERVICE_GRAPHS:
            key = spec.key(name, scale)
            self.graphs[key] = spec.generate(name, scale)
            self.batches[key] = self.warm_pins[key]["batch"]
        cold_graph = spec.generate(*spec.SERVICE_COLD_GRAPH)
        self.cold_m = cold_graph.num_edges
        self.cold_payloads = []
        for _ in range(COLD_PAYLOADS):
            h = spec.relabel(cold_graph, rng)
            us, vs = h.edge_array()
            edges = np.stack([us, vs], axis=1).tolist()
            self.cold_payloads.append(
                ('"n": %d, "edges": %s' % (h.num_vertices, json.dumps(edges))).encode())

    async def register_and_warm(self, conn: Conn) -> None:
        for name, scale in spec.SERVICE_GRAPHS:
            key = spec.key(name, scale)
            await conn.call("register", name=key, spec=name)
        for key in self.graphs:
            for k in spec.SERVICE_KS:
                res = await conn.call("count", graph=key, k=k)
                self.check_count(key, k, res)
                res = await conn.call("find", graph=key, k=k)
                self.check_find(key, k, res)

    # -- answer checks ---------------------------------------------------------

    @staticmethod
    def _state(version: int) -> str:
        """Writes alternate insert/delete from version 0, so parity names the state."""
        return "base" if version % 2 == 0 else "inserted"

    def check_count(self, key: str, k: int, res: dict) -> None:
        want = self.warm_pins[key][self._state(res["version"])][str(k)]
        check(f"count {key} v{res['version']} k={k}", res["count"], want)

    def check_find(self, key: str, k: int, res: dict) -> None:
        state = self._state(res["version"])
        exists = self.warm_pins[key][state][str(k)] > 0
        witness = res.get("witness")
        extra = ({tuple(e) for e in self.batches[key]} if state == "inserted"
                 else set())
        ok = (witness is not None) == exists and (
            witness is None or _is_clique(self.graphs[key], extra, witness, k))
        check(f"find {key} v{res['version']} k={k}", int(ok), 1)

    # -- events ------------------------------------------------------------------

    def _done(self, msg: dict) -> bool:
        if not msg.get("ok"):
            self.failed += 1
            return False
        return True

    async def warm(self, conn: Conn, due: float, index: int, key: str, op: str, k: int) -> None:
        self.attempted += 1
        t_send, fut = conn.send(op, graph=key, k=k)
        self.lag.append((t_send - due) * 1000.0)
        t_recv, msg = await fut
        if not self._done(msg):
            return
        res = msg["result"]
        if op == "count":
            self.check_count(key, k, res)
        else:
            self.check_find(key, k, res)
        ms = (t_recv - due) * 1000.0
        self.lat["warm"].append(ms)
        self.warm_flights.append((t_send, t_recv, ms, index))
        if self.trace and index % 2 == 0:
            self.tr.add(f"warm.{op}", t_send, t_recv, index)

    async def cold(self, conn: Conn, due: float, j: int) -> None:
        name = f"cold-{j}"
        self.attempted += 1
        payload = self.cold_payloads[j % COLD_PAYLOADS]
        t_send, fut = conn.send("register", payload=payload, name=name)
        self.lag.append((t_send - due) * 1000.0)
        t_reg, msg = await fut
        if not self._done(msg):
            self.cold_busy += t_reg - t_send
            return
        check(f"register {name} m", msg["result"]["m"], self.cold_m)
        self.op_ms["register"].append((t_reg - t_send) * 1000.0)
        self.cold_ops += 1
        self.attempted += 1
        t_cnt_send, fut = conn.send("count", graph=name, k=spec.SERVICE_COLD_K)
        t_cnt, msg = await fut
        if self._done(msg):
            check(f"cold count {name}", msg["result"]["count"], self.cold_pin)
            self.op_ms["cold_count"].append((t_cnt - t_cnt_send) * 1000.0)
            self.lat["cold"].append((t_cnt - due) * 1000.0)
            self.cold_ops += 1
        self.attempted += 1
        _, fut = conn.send("unregister", name=name)
        t_end, msg = await fut
        self.cold_ops += self._done(msg)
        self.cold_busy += t_end - t_send
        self.cold_spans.append((t_send, t_end))
        if self.trace:
            self.tr.add("cold.register", t_send, t_reg, j)
            self.tr.add("cold.count", t_cnt_send, t_cnt, j)

    async def write(self, conn: Conn, due: float, key: str, mutation: str) -> None:
        self.attempted += 1
        t_send, fut = conn.send("mutate", graph=key, mutation=mutation,
                                batch=self.batches[key])
        self.lag.append((t_send - due) * 1000.0)
        t_recv, msg = await fut
        if not self._done(msg):
            return
        res = msg["result"]
        check(f"mutate {key} {mutation} applied", res["applied"], len(self.batches[key]))
        check(f"mutate {key} {mutation} version parity", res["version"] % 2,
              1 if mutation == "insert" else 0)
        self.op_ms["mutate"].append((t_recv - t_send) * 1000.0)
        self.lat["write"].append((t_recv - due) * 1000.0)
        if self.trace:
            self.tr.add(f"dynamic.{mutation}", t_send, t_recv, 0)

    async def cold_client(self, conn: Conn, end: float) -> None:
        """Closed loop: the next cold event is due when the last one ends."""
        while time.perf_counter() < end:
            await self.cold(conn, time.perf_counter(), self.cold_index)
            self.cold_index += 1
            await asyncio.sleep(COLD_PAUSE)

    async def drive(self, conn: Conn, events, seconds: float) -> None:
        start = time.perf_counter() + 0.05
        tasks = [asyncio.ensure_future(self.cold_client(conn, start + seconds))]
        for index, (offset, kind, args) in enumerate(events):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if kind == "warm":
                coro = self.warm(conn, due, index, *args)
            else:
                coro = self.write(conn, due, *args)
            tasks.append(asyncio.ensure_future(coro))
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT)
        for task in pending:
            task.cancel()
        self.failed += len(pending)
        for task in done:
            task.result()  # re-raise answer mismatches and generator bugs


def _overlaps(flight: Tuple[float, float], spans: List[Tuple[float, float]]) -> bool:
    return any(s < flight[1] and flight[0] < e for s, e in spans)


async def _segment(run: Run, seg: int, events, seconds: float,
                   stats: Dict[str, float]) -> Tuple[float, float]:
    """Set up a fresh daemon (timed), drive one segment's schedule on it.

    Returns (set-up seconds, the daemon's peak RSS in MB). With tracing
    on, the segment's deltas of the daemon's stats counters are added to
    ``stats``.
    """
    gc.collect()
    t0 = time.perf_counter()
    run.generate(np.random.default_rng([run.seed, seg]))
    proc, port = _start_daemon(run.root, os.path.join(run.run_dir, f"daemon-{seg}.log"))
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
        conn = Conn(reader, writer)
        await run.register_and_warm(conn)
        setup = time.perf_counter() - t0
        before = (await conn.call("stats"))["service"] if run.trace else {}
        gc.collect()
        await run.drive(conn, events, seconds)
        if run.trace:
            after = (await conn.call("stats"))["service"]
            for name, value in after.items():
                if isinstance(value, (int, float)):
                    stats[name] = stats.get(name, 0.0) + value - before.get(name, 0.0)
        peak_mb = proc_peak_rss_mb(proc.pid)
        await conn.call("shutdown")
        await conn.close()
    finally:
        _stop_daemon(proc)
    return setup, peak_mb


async def _main(run: Run) -> dict:
    rng = np.random.default_rng(run.seed)
    names = [spec.key(n, s) for n, s in spec.SERVICE_GRAPHS]
    seg_seconds = run.seconds / SEGMENTS
    schedules = [_schedule(rng, seg_seconds, names) for _ in range(SEGMENTS)]
    setup_walls, peaks = [], []
    stats: Dict[str, float] = {}
    calib_start = calib_ms()
    for seg, events in enumerate(schedules):
        setup, peak_mb = await _segment(run, seg, events, seg_seconds, stats)
        setup_walls.append(setup)
        peaks.append(peak_mb)
    calib_end = calib_ms()

    lat = run.lat
    everything = lat["warm"] + lat["cold"] + lat["write"]
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "e2e": {
            "setup_s": median(setup_walls),
            # The open-loop reads and writes arrive at a fixed rate whatever
            # the daemon's speed; the closed-loop cold client's rate is set
            # by the program.
            "queries_per_s": run.cold_ops / run.cold_busy,
            "query_ms_p50": median(everything),
            "query_ms_p90": pct(everything, 90),
            "warm_ms_p50": median(lat["warm"]),
            "warm_ms_p99": pct(lat["warm"], 99),
            "cold_ms_p50": median(lat["cold"]),
            "peak_rss_mb": median(peaks),
        },
    }
    if run.trace:
        overlap = [f[2] for f in run.warm_flights if _overlaps(f[:2], run.cold_spans)]
        clear = [f[2] for f in run.warm_flights if not _overlaps(f[:2], run.cold_spans)]
        recorded = [f[2] for f in run.warm_flights if f[3] % 2 == 0]
        unrecorded = [f[2] for f in run.warm_flights if f[3] % 2 == 1]

        def delta(name: str) -> float:
            return float(stats.get(name, 0.0))

        result["layers"] = {
            "registry.register_ms_p50": median(run.op_ms["register"]),
            "service.cold_count_ms_p50": median(run.op_ms["cold_count"]),
            "dynamic.mutate_ms_p50": median(run.op_ms["mutate"]),
            "service.warm_overlap_ms_p99": pct(overlap, 99) if overlap else 0.0,
            "service.warm_overlap_count": float(len(overlap)),
            "service.warm_clear_ms_p99": pct(clear, 99) if clear else 0.0,
            "service.warm_clear_count": float(len(clear)),
            "service.warm_hit": delta("service.warm_hit"),
            "service.coalesced": delta("service.coalesced"),
            "service.engine_runs": delta("service.engine_runs"),
            "service.errors": delta("service.errors"),
            "loadgen.lag_ms_p99": pct(run.lag, 99),
            "machine.calib_ms": median([calib_start, calib_end]),
            "trace.overhead_share": median(recorded) / median(unrecorded) - 1.0,
        }
    return result


def service_mixed(seed: int, seconds: float, trace: bool, expected: dict,
                  tr: Tracer, root: str, run_dir: str) -> dict:
    return asyncio.run(_main(Run(root, run_dir, seed, seconds, trace, expected, tr)))
