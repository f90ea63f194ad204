"""Recompute the pinned answers in ``expected.json`` with the reference engine.

Run from the repository root when a workload's inputs change:

    PYTHONPATH=src python3 perfbench/pin_counts.py > perfbench/expected.json

The benchmark never recomputes these: it compares every answer it gets
against this file and fails the run on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402

from repro import count_cliques  # noqa: E402


def reference(graph, k: int) -> int:
    return int(count_cliques(graph, k, engine="reference").count)


def main() -> None:
    out = {"engine": "reference", "cold-build": {}, "warm-search": {},
           "service-mixed": {"warm": {}, "cold": {}}}
    for name, scale in spec.COLD_GRAPHS:
        g = spec.generate(name, scale)
        out["cold-build"][spec.key(name, scale)] = {
            str(spec.COLD_K): reference(g, spec.COLD_K)
        }
    for name, scale in spec.WARM_GRAPHS:
        g = spec.generate(name, scale)
        out["warm-search"][spec.key(name, scale)] = {
            str(k): reference(g, k) for k in spec.WARM_KS
        }
    for name, scale in spec.SERVICE_GRAPHS:
        g = spec.generate(name, scale)
        batch = spec.mutation_batch(g)
        grown = spec.with_edges(g, batch)
        out["service-mixed"]["warm"][spec.key(name, scale)] = {
            "batch": batch,
            "base": {str(k): reference(g, k) for k in spec.SERVICE_KS},
            "inserted": {str(k): reference(grown, k) for k in spec.SERVICE_KS},
        }
    name, scale = spec.SERVICE_COLD_GRAPH
    g = spec.generate(name, scale)
    out["service-mixed"]["cold"][spec.key(name, scale)] = {
        str(spec.SERVICE_COLD_K): reference(g, spec.SERVICE_COLD_K)
    }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
