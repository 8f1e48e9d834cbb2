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
from typing import NamedTuple

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


class _Column:
    """Column v's split-node network, built and solved for any parent subset q.

    Node 0 is the source, node 1 the sink, and nodes 2i + 2 and 2i + 3 the
    in- and out-node of the i-th strict ancestor of v.  Arcs run `head` (split,
    then source arcs in removable order), sink arcs (q order), then `tail`
    (directed edges, `g.directed` order); Dinic's tie-breaks, and so the
    witnesses, follow this order.
    """

    def __init__(self, g: MixedGraph, v: str):
        g._require(v)
        self.g, self.v = g, v
        self.anc = g.sort_vertices(g.ancestors(v) - {v})
        self.n = 2 * len(self.anc) + 2
        self.node_in = node_in = {u: 2 * i + 2 for i, u in enumerate(self.anc)}
        self.removable = g.sort_vertices(removable_ancestors(g, v))
        self.big_m = big_m = g.num_vertices + 1
        self.head = [(node_in[u], node_in[u] + 1, 1) for u in self.anc]
        self.head += [(0, node_in[u], big_m) for u in self.removable]
        self.tail = [(node_in[a] + 1, node_in[b], big_m) for a, b in g.directed if a in node_in and b in node_in]

    def arcs(self, q):
        """q in declaration order and the integer arcs (tail, head, capacity) of its network."""
        q = self.g.sort_vertices(q)
        if not set(q) <= set(self.g.parents(self.v)):
            raise NotAParentSubset(q, self.v)
        return q, self.head + [(self.node_in[u] + 1, 1, self.big_m) for u in q] + self.tail

    def solve(self, q) -> _SolvedColumn:
        q, arcs = self.arcs(q)
        solver = _Dinic(self.n, arcs)
        return _SolvedColumn(self, q, arcs, solver, solver.max_flow(0, 1))

    def rank(self, q, memo: dict) -> int:
        """The max flow for q, memoised under the solver's complete input (node count, arcs)."""
        key = (self.n, tuple(self.arcs(q)[1]))
        if key not in memo:
            memo[key] = _Dinic(*key).max_flow(0, 1)
        return memo[key]

    def named(self, arcs) -> FlowNetwork:
        """The `FlowNetwork` of these integer arcs, with nodes named s, t, u.in, u.out."""
        names = ["s", "t"] + [f"{u}.{side}" for u in self.anc for side in ("in", "out")]
        arcs = tuple((names[a], names[b], c) for a, b, c in arcs)
        splits = tuple((u, names[i], names[i + 1]) for u, i in self.node_in.items())
        return FlowNetwork(tuple(names), arcs, names[0], names[1], splits)


class _SolvedColumn(NamedTuple):
    """A column network solved for q: its max flow and the residual graph behind it."""

    column: _Column
    q: tuple
    arcs: list
    solver: _Dinic
    rank: int

    @property
    def flows(self) -> list:
        """Flow on each arc, in arc order."""
        return self.solver.cap[1::2]

    def paths(self) -> tuple[tuple[str, ...], ...]:
        """Walk the arcs that carry flow from the source to the sink."""
        out_arcs = {}
        for (a, b, _), f in zip(self.arcs, self.flows):
            if f > 0:
                out_arcs.setdefault(a, deque()).append(b)
        paths = []
        starts = out_arcs.get(0, deque())
        while starts:
            node = starts.popleft()
            path = []
            while node != 1:
                if node % 2 == 0:
                    path.append(self.column.anc[node // 2 - 1])
                node = out_arcs[node].popleft()
            paths.append(tuple(path))
        return tuple(paths)

    def coloop(self, u: str) -> bool:
        """Whether u lies in every maximum path system into q (a coloop of the gammoid on q,
        Mason 1972): its sink arc carries flow that no residual path reroutes to the sink."""
        k = len(self.column.head) + self.q.index(u)
        return self.solver.cap[2 * k + 1] > 0 and not self.solver.reroutes(k, 1)


def build_flow_network(g: MixedGraph, v: str, q) -> FlowNetwork:
    """Network whose max flow equals the v-rank of q.

    Nodes are the strict ancestors of v (v itself excluded, so no path may
    run through v), split for unit node capacity.  The source feeds the
    removable ancestors, q drains into the sink, and the directed edges of g
    with both endpoints among the ancestors are kept.
    """
    col = _Column(g, v)
    return col.named(col.arcs(q)[1])


class _Dinic:
    """Dinitz max flow: BFS level graph plus DFS blocking flows.

    Arc k sits at index 2k and its reverse at 2k + 1, which holds its flow.
    """

    def __init__(self, n: int, arcs):
        self.n = n
        self.adj = [[] for _ in range(n)]
        self.to = []
        self.cap = []
        for u, w, c in arcs:
            self.adj[u].append(len(self.to))
            self.adj[w].append(len(self.to) + 1)
            self.to += (w, u)
            self.cap += (c, 0)

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

    def _push(self, s: int, t: int, level, it) -> int:
        """Augment along the first s-t path of the level graph; 0 when none is left.

        A depth-first search on an explicit arc stack, so path length is not
        bounded by the interpreter's recursion limit: `it[u]` is the next arc
        to try at u, and a dead end advances its parent's `it`.  Arcs are
        tried in declaration order, which fixes the flows and the witnesses.
        """
        adj, to, cap = self.adj, self.to, self.cap
        path = []
        u = s
        while u != t:
            arcs = adj[u]
            while it[u] < len(arcs):
                a = arcs[it[u]]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    path.append(a)
                    u = to[a]
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                u = to[path.pop() ^ 1]
                it[u] += 1
        got = min(cap[a] for a in path)
        for a in path:
            cap[a] -= got
            cap[a ^ 1] += got
        return got

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                got = self._push(s, t, level, it)
                if got == 0:
                    break
                total += got

    def reroutes(self, k: int, t: int) -> bool:
        """Whether a residual path leads from arc k's tail to t without arc k."""
        saved, self.cap[2 * k] = self.cap[2 * k], 0
        found = self._levels(self.to[2 * k + 1], t) is not None
        self.cap[2 * k] = saved
        return found


def max_flow(net: FlowNetwork) -> int:
    """Value of a maximum integral source-to-sink flow."""
    index = {u: i for i, u in enumerate(net.nodes)}
    solver = _Dinic(len(net.nodes), [(index[u], index[w], int(c)) for u, w, c in net.arcs])
    return solver.max_flow(index[net.source], index[net.sink])


def solved_flow_network(g: MixedGraph, v: str, q):
    """`build_flow_network`, its max flow, per-arc flows in arc order and `witness_paths`, from one solve."""
    solved = _Column(g, v).solve(q)
    return solved.column.named(solved.arcs), solved.rank, solved.flows, solved.paths()


def v_rank(g: MixedGraph, v: str, q) -> int:
    """Largest vertex-disjoint path system from the removable ancestors into q."""
    return _Column(g, v).solve(q).rank


def witness_paths(g: MixedGraph, v: str, q) -> tuple[tuple[str, ...], ...]:
    """Decompose one maximum flow into vertex-disjoint directed paths.

    Each path is a vertex sequence from a removable ancestor to a member of
    q (a single vertex for a trivial path).  Unit node capacities make every
    split node carry at most one flow unit, so the decomposition is a walk
    along saturated arcs; ties follow declaration order.  There is one path
    per flow unit, so the number of paths is the v-rank of q.
    """
    return _Column(g, v).solve(q).paths()


def is_identifiable(g: MixedGraph, v: str, q) -> bool:
    """Whether the coefficient vector of q into v is generically identifiable.

    Criterion: the v-rank of pa(v) minus q drops by exactly |q|, i.e.
    r(pa \\ q) = r(pa) - |q|; the known-coefficient criterion with k empty.
    """
    return is_identifiable_with_knowledge(g, v, q, ())


def is_identifiable_with_knowledge(g: MixedGraph, v: str, q, k) -> bool:
    """Identifiability of the q-coefficients when the k-coefficients are known.

    Rank identity: r(pa \\ (k u q)) = r(pa \\ k) - |q \\ k|, which reduces to
    the plain criterion for empty k and is trivially true for q inside k.  A
    rank drops by one per deleted element exactly when every element deleted
    is a coloop of the gammoid on pa \\ k, so one solve of pa \\ k decides it.
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
    solved = _Column(g, v).solve(pa - set(k))
    return all(solved.coloop(u) for u in q if u not in k)


@dataclass(frozen=True)
class ColumnVerdict:
    removable: tuple[str, ...]
    rank: int
    identifiable: bool
    witness: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class IdentReport:
    """Per-column and per-edge identifiability verdicts with flow witnesses."""

    columns: dict
    edges: dict

    @property
    def all_identifiable(self) -> bool:
        return all(c.identifiable for c in self.columns.values())

    def to_dict(self) -> dict:
        return {
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def is_matrix_identifiable(g: MixedGraph) -> IdentReport:
    """Full report: column verdicts, single-edge verdicts, and path witnesses.

    A column is identifiable iff its v-rank reaches |pa(v)|; the whole matrix
    iff every column is.  One maximum flow per column gives both the rank and,
    decomposed into a vertex-disjoint path system, the certificate carried by
    identifiable columns.  An edge u -> v into a non-identifiable column is
    identifiable iff dropping u lowers that rank by exactly one, which
    `_SolvedColumn.coloop` reads from the same residual graph without a
    second solve.
    """
    if not is_acyclic(g):
        raise CyclicGraph("use cyclic_necessary_condition for cyclic graphs")
    columns = {}
    verdicts = {}
    for v in g.vertices:
        pa = g.parents(v)
        col = _Column(g, v)
        solved = col.solve(pa)
        ok = solved.rank == len(pa)
        columns[v] = ColumnVerdict(
            removable=col.removable,
            rank=solved.rank,
            identifiable=ok,
            witness=solved.paths() if ok else (),
        )
        for u in pa:
            verdicts[u, v] = ok or solved.coloop(u)
    edges = {e: verdicts[e] for e in g.directed}
    return IdentReport(columns=columns, edges=edges)


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
    # Decide only once every component has passed, so the verdict does not
    # depend on the order in which the vertices were declared.
    flippable = False
    seen = set()
    for v in g.vertices:
        if v in seen:
            continue
        # The first unseen vertex opens its strongly connected component, so
        # components come in the declaration order of their first members.
        comp = g.sort_vertices(g.ancestors(v) & g.descendants(v))
        members = set(comp)
        seen |= members
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
            flippable |= set(g.parents(a)) - members == set(g.parents(b)) - members
    return not flippable


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
