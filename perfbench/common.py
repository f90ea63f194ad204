"""Measurement helpers shared by the workloads: percentiles, spans, RSS, calibration."""

from __future__ import annotations

import json
import os
import resource
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np


def pct(values: Sequence[float], q: float) -> float:
    """The q-th percentile (linear interpolation); values must be non-empty."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return pct(values, 50)


def key_median(by_key: Dict[str, List[float]]) -> float:
    """Median over keys of each key's median time.

    Every key weighs the same, and the figure lies inside one key's
    samples (or between two keys' medians) rather than on the gap between
    the slowest sample of one key and the fastest of the next.
    """
    return median([median(v) for v in by_key.values()])


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def calib_ms() -> float:
    """Median wall time of a fixed mixed interpreter/numpy kernel.

    Reported next to the results so a reader can see how fast the host
    ran during a run; it normalises nothing.
    """
    rng = np.random.default_rng(7)
    data = rng.random(200_000)
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(data)
        acc = 0
        for i in range(100_000):
            acc += i & 7
        walls.append((time.perf_counter() - t0) * 1000.0)
    return median(walls)


class Tracer:
    """In-memory span recorder: (name, start, end, parent, unit) per span.

    Spans are kept in a list and written out once, by :meth:`dump`, after
    the measured region.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, unit: int) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, unit))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, unit)

    def add(self, name: str, start: float, end: float, unit: int) -> None:
        """Record a span measured elsewhere (e.g. one request's flight)."""
        self.spans.append((name, start, end, -1, unit))

    def durations_ms(self, name: str) -> List[float]:
        return [(e - s) * 1000.0 for n, s, e, _, _ in self.spans if n == name]

    def total_ms(self, name: str) -> float:
        return float(sum(self.durations_ms(name)))

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "unit": unit,
                }) + "\n")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


class AnswerMismatch(Exception):
    """A count differs from its pinned value: the run is wrong, not slow."""


def check(label: str, got: int, expected: Optional[int]) -> None:
    if expected is None or int(got) != int(expected):
        raise AnswerMismatch(f"{label}: got {got}, pinned {expected}")
