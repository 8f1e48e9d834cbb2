"""Output checks for every timed command, computed without the program's code.

Each check returns a list of problems; an empty list means the output is
correct.  Graphs are the JSON documents the benchmark wrote, so parents,
ancestors and siblings are recomputed here from the edge lists.
"""

from __future__ import annotations

import csv
import io
import json
import math

VERIFY_P4 = {"graphs": 34959, "checks": 323121, "mismatches": 0}
COEFFICIENT_BOX = 50.0


class Graph:
    """Adjacency of a graph document, in declaration order."""

    def __init__(self, doc: dict):
        self.vertices = list(doc["vertices"])
        self.directed = {tuple(e) for e in doc.get("directed", [])}
        self.parents = {v: [] for v in self.vertices}
        self.siblings = {v: {v} for v in self.vertices}
        for u, v in doc.get("directed", []):
            self.parents[v].append(u)
        for u, v in doc.get("bidirected", []):
            self.siblings[u].add(v)
            self.siblings[v].add(u)

    def ancestors(self, v: str) -> set:
        seen, todo = {v}, [v]
        while todo:
            for u in self.parents[todo.pop()]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return seen

    def removable(self, v: str) -> list:
        """Strict ancestors of v with a sibling outside Sib(v) (v counted in both)."""
        found = {u for u in self.ancestors(v) - {v} if self.siblings[u] - self.siblings[v]}
        return [u for u in self.vertices if u in found]


def check_report(graph: Graph, report: dict) -> list:
    """Problems in one `check` report: verdicts, ranks and witness path systems."""
    problems = []
    columns = report.get("columns", {})
    if set(columns) != set(graph.vertices):
        return [f"columns {sorted(columns)} do not match the vertices"]
    for v in graph.vertices:
        col = columns[v]
        pa = graph.parents[v]
        removable = graph.removable(v)
        rank = col.get("rank")
        if col.get("removable") != removable:
            problems.append(f"{v}: removable {col.get('removable')} != {removable}")
            continue
        if not isinstance(rank, int) or not 0 <= rank <= min(len(pa), len(removable)):
            problems.append(f"{v}: rank {rank!r} out of range")
            continue
        if col.get("identifiable") is not (rank == len(pa)):
            problems.append(f"{v}: identifiable={col.get('identifiable')} but rank {rank}/{len(pa)}")
        witness = col.get("witness", [])
        if col.get("identifiable") or witness:
            problems += [f"{v}: {p}" for p in witness_problems(graph, v, removable, pa, rank, witness)]
    edges = report.get("edges", {})
    if set(edges) != {f"{u}->{v}" for u, v in graph.directed}:
        problems.append("edge verdicts do not cover the directed edges")
    else:
        for u, v in graph.directed:
            if columns[v].get("identifiable") and edges[f"{u}->{v}"] is not True:
                problems.append(f"edge {u}->{v} not identifiable inside an identifiable column")
    return problems


def witness_problems(graph: Graph, v: str, removable, pa, rank: int, witness) -> list:
    """A witness must be `rank` vertex-disjoint directed paths from removable(v) into pa(v)."""
    problems = []
    if len(witness) != rank:
        problems.append(f"{len(witness)} witness paths for rank {rank}")
    used = set()
    for path in witness:
        if not path:
            problems.append("empty witness path")
            continue
        if path[0] not in removable:
            problems.append(f"path {path} starts outside removable")
        if path[-1] not in pa:
            problems.append(f"path {path} ends outside pa({v})")
        for a, b in zip(path, path[1:]):
            if (a, b) not in graph.directed:
                problems.append(f"path {path} uses missing edge {a}->{b}")
        if v in path:
            problems.append(f"path {path} runs through {v}")
        if used & set(path) or len(set(path)) != len(path):
            problems.append(f"path {path} shares a vertex")
        used |= set(path)
    return problems


def check_survey(csv_text: str, p: int, reps: int, seed: int, expected: dict) -> list:
    """Survey rows must match the proportions the `check` verdicts give.

    `expected` maps each density to the identifiable flags of its graphs, in
    repetition order, as judged by `check` on the same graphs.
    """
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if [float(r["density"]) for r in rows] != list(expected):
        return [f"survey densities {[r['density'] for r in rows]} != {list(expected)}"]
    problems = []
    for row, (density, flags) in zip(rows, expected.items()):
        want = sum(flags) / len(flags)
        got = (int(row["p"]), int(row["graphs_sampled"]), float(row["proportion_identifiable"]), int(row["seed"]))
        if got != (p, reps, want, seed):
            problems.append(f"density {density}: survey row {got} != {(p, reps, want, seed)}")
    return problems


def check_verify(stdout: str) -> list:
    doc = json.loads(stdout)
    return [] if doc == VERIFY_P4 else [f"verify summary {doc} != {VERIFY_P4}"]


def check_estimate(graph: Graph, doc: dict) -> list:
    """Coefficients finite and in the box; the fit did not end above its start."""
    problems = []
    edges = doc.get("edges", {})
    if set(edges) != {f"{u}->{v}" for u, v in graph.directed}:
        problems.append("estimated edges do not match the directed edges")
    for edge, value in edges.items():
        if not (isinstance(value, float) and math.isfinite(value) and abs(value) <= COEFFICIENT_BOX):
            problems.append(f"coefficient {edge}={value!r} not finite or outside the box")
    trace = doc.get("objective_trace") or [math.nan]
    final = doc.get("final_objective", math.nan)
    if not (math.isfinite(final) and final <= trace[0]):
        problems.append(f"final objective {final!r} above the initial {trace[0]!r}")
    if not math.isfinite(doc.get("loss", math.nan)):
        problems.append(f"loss {doc.get('loss')!r} not finite")
    return problems
