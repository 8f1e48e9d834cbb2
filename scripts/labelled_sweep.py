"""The labelled five-vertex triple-oracle sweep: every labelled DAG on five vertices, each with all of
its bidirected variants, through the same agreement check as `verify_sweep` (flow rank, path-system
enumeration, modal numeric rank).

    PYTHONPATH=src python3 scripts/labelled_sweep.py

The DAGs are listed by per-vertex parent masks, kept when Kahn's test empties the graph.  DAG i
takes its five parameter draws from the stream (0, 5, i), as `verify_sweep` at seed 0 does for p <= 4, and
`oracle._check` takes them in chunks of `oracle._CHUNK` with one flow memo for the whole sweep.
Prints one JSON line: the DAG, graph, check and mismatch counts, the distinct networks solved,
wall time, peak RSS and the machine facts.  Takes about a minute and 120 MB on one core.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from itertools import islice, product

import numpy as np

from admgident import MixedGraph, oracle
from admgident.simulate import _stream

P = 5


def labelled_dags(p: int):
    """Directed index-pair tuples of every labelled DAG on p vertices."""
    others = [[j for j in range(p) if j != i] for i in range(p)]
    for choice in product(range(1 << (p - 1)), repeat=p):
        pa = [sum(1 << others[i][k] for k in range(p - 1) if choice[i] >> k & 1) for i in range(p)]
        left = (1 << p) - 1
        while True:
            ready = sum(1 << i for i in range(p) if left >> i & 1 and not pa[i] & left)
            if not ready:
                break
            left &= ~ready
        if not left:
            yield tuple((j, i) for i in range(p) for j in range(p) if pa[i] >> j & 1)


def main() -> None:
    start = time.perf_counter()
    vertices = [f"v{i + 1}" for i in range(P)]
    dags = list(labelled_dags(P))
    listed = time.perf_counter() - start

    def items():
        for dag_idx, dag in enumerate(dags):
            g = MixedGraph(vertices, [(vertices[a], vertices[b]) for a, b in dag])
            yield g, True, oracle.draw_b_stack(g, _stream(0, P, dag_idx), 5)

    report, flows = {"graphs": 0, "checks": 0, "mismatches": []}, {}
    graphs = items()
    for chunk in iter(lambda: list(islice(graphs, oracle._CHUNK)), []):
        oracle._check(chunk, flows, report)
    print(json.dumps({
        "dags": len(dags),
        "graphs": report["graphs"],
        "checks": report["checks"],
        "mismatches": len(report["mismatches"]),
        "networks_solved": len(flows),
        "listing_s": round(listed, 2),
        "wall_s": round(time.perf_counter() - start, 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
