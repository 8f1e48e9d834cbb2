"""Identifiability decisions via node-capacitated maximum flow.

The v-rank of a target set Q is the size of the largest vertex-disjoint
system of directed paths from the removable ancestors of v into Q.  It is
computed exactly as an s-t maximum flow on a split-node network; all
capacities are integers, so integral optima and path decompositions exist.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .admg import (
    LatentFactorGraph,
    MixedGraph,
    is_acyclic,
    latent_projection_bidirected,
)
from .errors import (
    CyclicGraph,
    InvalidFactorGraph,
    NotAParentSubset,
    NotCycleDecomposable,
)

_SOURCE = "s"
_SINK = "t"


def removable_ancestors(g: MixedGraph, v: str) -> frozenset:
    """Ancestors u of v (u != v) that have a sibling outside Sib(v)."""
    g._require(v)
    sib_v = set(g.siblings(v)) | {v}
    out = set()
    for u in g.ancestors(v):
        if u == v:
            continue
        sib_u = set(g.siblings(u)) | {u}
        if sib_u - sib_v:
            out.add(u)
    return frozenset(out)


@dataclass(frozen=True)
class FlowNetwork:
    """A capacitated digraph with a source, a sink, and split vertices.

    Each original vertex v appears as the pair (in-node, out-node) joined by
    a single capacity-1 arc; `splits` records (original, in-node, out-node).
    Every capacity is finite: the "unbounded" arcs carry `big_m`, which
    exceeds any feasible flow value.
    """

    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str, int], ...]
    source: str
    sink: str
    splits: tuple[tuple[str, str, str], ...] = field(default=())


def build_flow_network(g: MixedGraph, v: str, q) -> FlowNetwork:
    """Network whose max flow equals the v-rank of q.

    Nodes are the strict ancestors of v (v itself excluded, so no path may
    run through v), split for unit node capacity.  The source feeds the
    removable ancestors, q drains into the sink, and the directed edges of g
    with both endpoints among the ancestors are kept.
    """
    g._require(v)
    q = g.sort_vertices(q)
    pa = set(g.parents(v))
    if not set(q) <= pa:
        raise NotAParentSubset(q, v)
    anc = g.sort_vertices(g.ancestors(v) - {v})
    removable = g.sort_vertices(removable_ancestors(g, v))
    big_m = g.num_vertices + 1

    def node_in(u):
        return f"{u}.in"

    def node_out(u):
        return f"{u}.out"

    nodes = [_SOURCE, _SINK]
    splits = []
    arcs = []
    for u in anc:
        nodes.extend([node_in(u), node_out(u)])
        splits.append((u, node_in(u), node_out(u)))
        arcs.append((node_in(u), node_out(u), 1))
    for u in removable:
        arcs.append((_SOURCE, node_in(u), big_m))
    for u in q:
        arcs.append((node_out(u), _SINK, big_m))
    anc_set = set(anc)
    for a, b in g.directed:
        if a in anc_set and b in anc_set:
            arcs.append((node_out(a), node_in(b), big_m))
    return FlowNetwork(
        nodes=tuple(nodes),
        arcs=tuple(arcs),
        source=_SOURCE,
        sink=_SINK,
        splits=tuple(splits),
    )


class _Dinic:
    """Dinitz max flow: BFS level graph plus DFS blocking flows."""

    def __init__(self, n: int):
        self.n = n
        self.adj = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_arc(self, u: int, v: int, c: int) -> int:
        arc_id = len(self.to)
        self.adj[u].append(arc_id)
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(arc_id + 1)
        self.to.append(u)
        self.cap.append(0)
        return arc_id

    def _levels(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in self.adj[u]:
                w = self.to[a]
                if self.cap[a] > 0 and level[w] < 0:
                    level[w] = level[u] + 1
                    queue.append(w)
        return level if level[t] >= 0 else None

    def _push(self, u: int, t: int, limit: int, level, it) -> int:
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            a = self.adj[u][it[u]]
            w = self.to[a]
            if self.cap[a] > 0 and level[w] == level[u] + 1:
                got = self._push(w, t, min(limit, self.cap[a]), level, it)
                if got > 0:
                    self.cap[a] -= got
                    self.cap[a ^ 1] += got
                    return got
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                got = self._push(s, t, 1 << 60, level, it)
                if got == 0:
                    break
                total += got


def max_flow_with_arc_flows(net: FlowNetwork):
    """Max flow value plus one optimal per-arc flow assignment."""
    index = {u: i for i, u in enumerate(net.nodes)}
    solver = _Dinic(len(net.nodes))
    arc_ids = []
    for u, w, c in net.arcs:
        arc_ids.append(solver.add_arc(index[u], index[w], int(c)))
    value = solver.max_flow(index[net.source], index[net.sink])
    flows = {}
    for (u, w, c), a in zip(net.arcs, arc_ids):
        flows[(u, w)] = int(c) - solver.cap[a]
    return value, flows


def max_flow(net: FlowNetwork) -> int:
    """Value of a maximum integral source-to-sink flow."""
    return max_flow_with_arc_flows(net)[0]


def v_rank(g: MixedGraph, v: str, q) -> int:
    """Largest vertex-disjoint path system from the removable ancestors into q."""
    return max_flow(build_flow_network(g, v, q))


def witness_paths(g: MixedGraph, v: str, q) -> tuple[tuple[str, ...], ...]:
    """Decompose one maximum flow into vertex-disjoint directed paths.

    Each path is a vertex sequence from a removable ancestor to a member of
    q (a single vertex for a trivial path).  Unit node capacities make every
    split node carry at most one flow unit, so the decomposition is a walk
    along saturated arcs; ties follow declaration order.  There is one path
    per flow unit, so the number of paths is the v-rank of q.
    """
    net = build_flow_network(g, v, q)
    _, flows = max_flow_with_arc_flows(net)
    out_arcs = {}
    for (a, b), f in flows.items():
        if f > 0:
            out_arcs.setdefault(a, deque()).append(b)
    in_of = {nin: u for u, nin, _ in net.splits}
    paths = []
    starts = out_arcs.get(net.source, deque())
    while starts:
        node = starts.popleft()
        path = []
        while node != net.sink:
            if node in in_of:
                path.append(in_of[node])
            node = out_arcs[node].popleft()
        paths.append(tuple(path))
    return tuple(paths)


def is_identifiable(g: MixedGraph, v: str, q) -> bool:
    """Whether the coefficient vector of q into v is generically identifiable.

    Criterion: the v-rank of pa(v) minus q drops by exactly |q|, i.e.
    r(pa \\ q) = r(pa) - |q|; the known-coefficient criterion with k empty.
    """
    return is_identifiable_with_knowledge(g, v, q, ())


def is_identifiable_with_knowledge(g: MixedGraph, v: str, q, k) -> bool:
    """Identifiability of the q-coefficients when the k-coefficients are known.

    Rank identity: r(pa \\ (k u q)) = r(pa \\ k) - |k u q| + |k|, which reduces
    to the plain criterion for empty k and is trivially true for q inside k.
    """
    if not is_acyclic(g):
        raise CyclicGraph("use cyclic_necessary_condition for cyclic graphs")
    q = g.sort_vertices(q)
    k = g.sort_vertices(k)
    pa = set(g.parents(v))
    if not set(q) <= pa:
        raise NotAParentSubset(q, v)
    if not set(k) <= pa:
        raise NotAParentSubset(k, v)
    union = set(q) | set(k)
    lhs = v_rank(g, v, pa - union)
    rhs = v_rank(g, v, pa - set(k)) - len(union) + len(k)
    return lhs == rhs


@dataclass(frozen=True)
class ColumnVerdict:
    removable: tuple[str, ...]
    rank: int
    identifiable: bool
    witness: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class IdentReport:
    """Per-column and per-edge identifiability verdicts with flow witnesses."""

    graph_id: str
    columns: dict
    edges: dict

    @property
    def all_identifiable(self) -> bool:
        return all(c.identifiable for c in self.columns.values())

    def to_json(self) -> str:
        doc = {
            "columns": {
                v: {
                    "removable": list(c.removable),
                    "rank": c.rank,
                    "identifiable": c.identifiable,
                    "witness": [list(p) for p in c.witness],
                }
                for v, c in self.columns.items()
            },
            "edges": {f"{u}->{v}": b for (u, v), b in self.edges.items()},
        }
        return json.dumps(doc, indent=2) + "\n"


def is_matrix_identifiable(g: MixedGraph, graph_id: str = "") -> IdentReport:
    """Full report: column verdicts, single-edge verdicts, and path witnesses.

    A column is identifiable iff its v-rank reaches |pa(v)|; the whole matrix
    iff every column is.  One maximum flow per column gives both the rank and,
    decomposed into a vertex-disjoint path system, the certificate carried by
    identifiable columns.  An edge u -> v into a non-identifiable column is
    identifiable iff dropping u lowers that rank by exactly one.
    """
    if not is_acyclic(g):
        raise CyclicGraph("use cyclic_necessary_condition for cyclic graphs")
    columns = {}
    for v in g.vertices:
        pa = g.parents(v)
        paths = witness_paths(g, v, pa)
        rank = len(paths)
        ok = rank == len(pa)
        columns[v] = ColumnVerdict(
            removable=g.sort_vertices(removable_ancestors(g, v)),
            rank=rank,
            identifiable=ok,
            witness=paths if ok else (),
        )
    edges = {
        (u, v): columns[v].identifiable
        or v_rank(g, v, set(g.parents(v)) - {u}) == columns[v].rank - 1
        for u, v in g.directed
    }
    return IdentReport(graph_id=graph_id, columns=columns, edges=edges)


def _column_full_rank(g: MixedGraph, v: str) -> bool:
    """Whether the v-rank of pa(v) reaches |pa(v)|; parentless columns pass unsolved."""
    pa = g.parents(v)
    return not pa or v_rank(g, v, pa) == len(pa)


def matrix_generically_identifiable(g: MixedGraph) -> bool:
    """Column check only, short-circuiting on the first failure."""
    if not is_acyclic(g):
        raise CyclicGraph("use cyclic_necessary_condition for cyclic graphs")
    return all(_column_full_rank(g, v) for v in g.vertices)


def cyclic_necessary_condition(g: MixedGraph) -> dict:
    """Per-vertex flow check valid on cyclic graphs.

    For each v, whether a vertex-disjoint path system of size |pa(v)| exists
    from the removable ancestors into pa(v).  Any False certifies that the
    coefficient matrix is not identifiable; all True is necessary but not
    sufficient on cyclic graphs (a plain 2-cycle passes yet fails).
    """
    return {v: _column_full_rank(g, v) for v in g.vertices}


def _strongly_connected_components(g: MixedGraph) -> list:
    """Kosaraju with explicit stacks; components in declaration order."""
    order = []
    seen = set()
    for root in g.vertices:
        if root in seen:
            continue
        stack = [(root, iter(g.children(root)))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(g.children(w))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    comp_of = {}
    components = []
    for root in reversed(order):
        if root in comp_of:
            continue
        comp = []
        queue = deque([root])
        comp_of[root] = len(components)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in g.parents(u):
                if w not in comp_of:
                    comp_of[w] = len(components)
                    queue.append(w)
        components.append(g.sort_vertices(comp))
    components.sort(key=lambda c: g.index(c[0]))
    return components


def cycle_decomposition_identifiable(g: MixedGraph) -> bool:
    """Identifiability for graphs that split into disjoint simple cycles.

    Requires an empty bidirected part and every strongly connected component
    to be one simple directed cycle of length >= 2.  The matrix is then
    identifiable iff no 2-cycle {a, b} has equal outside parent sets
    pa(a) \\ C = pa(b) \\ C: with equal sets the cycle can be "flipped" into a
    second valid parameterization, so such graphs are not identifiable (the
    plain 2-cycle is the extreme case, both sets empty).
    """
    if g.bidirected:
        raise NotCycleDecomposable("bidirected edges present")
    for comp in _strongly_connected_components(g):
        members = set(comp)
        if len(comp) < 2:
            raise NotCycleDecomposable(
                f"component {list(comp)!r} is not a directed cycle"
            )
        for u in comp:
            inside_out = [w for w in g.children(u) if w in members]
            inside_in = [w for w in g.parents(u) if w in members]
            if len(inside_out) != 1 or len(inside_in) != 1:
                raise NotCycleDecomposable(
                    f"component {list(comp)!r} is not a single simple cycle"
                )
        if len(comp) == 2:
            a, b = comp
            if set(g.parents(a)) - members == set(g.parents(b)) - members:
                return False
    return True


def genericity_sufficient(l) -> dict:
    """Clique-counting sufficient condition for error-distribution genericity.

    For each bidirected edge u-v of the latent projection, search for a
    clique C containing {u, v} whose dedicated latents (those loading only
    inside C) number at least |C| - 1.  Exhaustive over cliques containing
    the edge; components over ~20 vertices are out of documented range.
    """
    if not isinstance(l, LatentFactorGraph):
        raise InvalidFactorGraph("expected a LatentFactorGraph")
    proj = latent_projection_bidirected(l)
    adj = {v: set(proj.siblings(v)) for v in proj.vertices}
    latent_children = [frozenset(l.children_of(lat)) for lat in l.latents]

    def dedicated(clique: frozenset) -> int:
        return sum(1 for ch in latent_children if ch and ch <= clique)

    def search(clique: frozenset, candidates: tuple) -> bool:
        if dedicated(clique) >= len(clique) - 1:
            return True
        for i, w in enumerate(candidates):
            if all(w in adj[c] for c in clique):
                if search(clique | {w}, candidates[i + 1:]):
                    return True
        return False

    out = {}
    for u, v in proj.bidirected:
        common = proj.sort_vertices((adj[u] & adj[v]) - {u, v})
        out[(u, v)] = search(frozenset((u, v)), common)
    return out
