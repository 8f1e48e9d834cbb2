"""Mixed graphs: data model, validation, genealogy, causal orders, latent factor graphs.

Vertex ids are opaque strings.  Dense indices follow the declared vertex
order, which also fixes every deterministic tie-break in the package.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass

from .errors import (
    CyclicGraph,
    DuplicateVertex,
    GraphFormatError,
    InvalidFactorGraph,
    SelfLoop,
    UnknownVertex,
)


class MixedGraph:
    """A mixed graph (V, directed, bidirected); immutable after construction.

    Directed edges are ordered pairs (u, v) for u -> v.  Bidirected edges are
    unordered; they are stored canonically with the lower-index endpoint
    first.  Self-loops are rejected in both edge sets, and every edge
    endpoint must be a declared vertex.
    """

    def __init__(self, vertices, directed=(), bidirected=()):
        vertices = tuple(str(v) for v in vertices)
        seen = set()
        for v in vertices:
            if v in seen:
                raise DuplicateVertex(v)
            seen.add(v)
        self.vertices = vertices
        self._index = {v: i for i, v in enumerate(vertices)}

        directed_set = set()
        for u, v in directed:
            u, v = str(u), str(v)
            self._require(u)
            self._require(v)
            if u == v:
                raise SelfLoop(u)
            directed_set.add((u, v))
        self.directed = tuple(
            sorted(directed_set, key=lambda e: (self._index[e[0]], self._index[e[1]]))
        )

        bidirected_set = set()
        for u, v in bidirected:
            u, v = str(u), str(v)
            self._require(u)
            self._require(v)
            if u == v:
                raise SelfLoop(u)
            if self._index[u] > self._index[v]:
                u, v = v, u
            bidirected_set.add((u, v))
        self.bidirected = tuple(
            sorted(bidirected_set, key=lambda e: (self._index[e[0]], self._index[e[1]]))
        )

        self._parents = {v: [] for v in vertices}
        self._children = {v: [] for v in vertices}
        for u, v in self.directed:
            self._children[u].append(v)
            self._parents[v].append(u)
        self._siblings = {v: [] for v in vertices}
        for u, v in self.bidirected:
            self._siblings[u].append(v)
            self._siblings[v].append(u)
        for v in vertices:
            self._siblings[v].sort(key=self._index.__getitem__)
        # Ancestors and descendants per vertex, filled on first use; the graph never changes.
        self._an = {}
        self._de = {}

    # -- basic accessors -------------------------------------------------

    def _require(self, v: str) -> None:
        if v not in self._index:
            raise UnknownVertex(v)

    def index(self, v: str) -> int:
        self._require(v)
        return self._index[v]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def parents(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return tuple(self._parents[v])

    def children(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return tuple(self._children[v])

    def siblings(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return tuple(self._siblings[v])

    def ancestors(self, v: str) -> frozenset:
        """All u with a directed path u -> ... -> v; contains v (trivial path)."""
        if v not in self._an:
            self._require(v)
            self._an[v] = self._reach(v, self._parents)
        return self._an[v]

    def descendants(self, v: str) -> frozenset:
        """All u with a directed path v -> ... -> u; contains v (trivial path)."""
        if v not in self._de:
            self._require(v)
            self._de[v] = self._reach(v, self._children)
        return self._de[v]

    def _reach(self, start: str, step: dict) -> frozenset:
        seen = {start}
        queue = deque([start])
        while queue:
            for w in step[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return frozenset(seen)

    def sort_vertices(self, vs) -> tuple[str, ...]:
        """Canonical tuple of a vertex collection, ordered by declaration."""
        vs = set(vs)
        for v in vs:
            self._require(v)
        return tuple(sorted(vs, key=self._index.__getitem__))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MixedGraph)
            and self.vertices == other.vertices
            and self.directed == other.directed
            and self.bidirected == other.bidirected
        )

    def __hash__(self):
        return hash((self.vertices, self.directed, self.bidirected))

    def __repr__(self) -> str:
        return (
            f"MixedGraph({len(self.vertices)} vertices, "
            f"{len(self.directed)} directed, {len(self.bidirected)} bidirected)"
        )


@dataclass(frozen=True)
class Relations:
    """Genealogy of one vertex; an/de include the vertex itself."""

    pa: frozenset
    ch: frozenset
    an: frozenset
    de: frozenset
    sib: frozenset
    sib_and_self: frozenset


def is_acyclic(g: MixedGraph) -> bool:
    """True iff the directed part has no non-trivial directed cycle: no edge u -> v with v in an(u)."""
    return not any(v in g.ancestors(u) for u, v in g.directed)


def causal_order(g: MixedGraph) -> tuple[str, ...]:
    """Topological order of the directed part, Kahn's algorithm.

    Ties are broken by declaration order, so the result is deterministic;
    raises CyclicGraph when no order exists.
    """
    indeg = {v: len(g.parents(v)) for v in g.vertices}
    ready = [v for v in g.vertices if indeg[v] == 0]
    order = []
    while ready:
        v = min(ready, key=g.index)
        ready.remove(v)
        order.append(v)
        for w in g.children(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != len(g.vertices):
        raise CyclicGraph("directed part contains a cycle")
    return tuple(order)


def relations(g: MixedGraph, v: str) -> Relations:
    """Parents, children, ancestors, descendants and siblings of v.

    Ancestor/descendant sets are computed by reachability and therefore also
    make sense on cyclic graphs.
    """
    g._require(v)
    sib = frozenset(g.siblings(v))
    return Relations(
        pa=frozenset(g.parents(v)),
        ch=frozenset(g.children(v)),
        an=g.ancestors(v),
        de=g.descendants(v),
        sib=sib,
        sib_and_self=sib | {v},
    )


def bidirected_connected_components(g: MixedGraph) -> tuple[frozenset, ...]:
    """Partition of V into connected components of the bidirected part."""
    seen = set()
    components = []
    for v in g.vertices:
        if v not in seen:
            comp = g._reach(v, g._siblings)
            seen |= comp
            components.append(comp)
    return tuple(components)


class LatentFactorGraph:
    """A factor graph: latent source nodes loading onto observed vertices.

    Loadings run latent -> observed only; anything else raises
    InvalidFactorGraph.  Optional weights attach one real number per loading.
    """

    def __init__(self, observed, latents, loadings, weights=None):
        self.observed = tuple(str(v) for v in observed)
        self.latents = tuple(str(l) for l in latents)
        seen = set()
        for v in self.observed + self.latents:
            if v in seen:
                raise DuplicateVertex(v)
            seen.add(v)
        obs_set = set(self.observed)
        lat_set = set(self.latents)

        loading_list = []
        for l, v in loadings:
            l, v = str(l), str(v)
            if l not in lat_set:
                raise InvalidFactorGraph(
                    f"loading source {l!r} is not a latent node (latents are source nodes)"
                )
            if v not in obs_set:
                raise InvalidFactorGraph(f"loading target {v!r} is not observed")
            loading_list.append((l, v))
        lat_index = {l: i for i, l in enumerate(self.latents)}
        obs_index = {v: i for i, v in enumerate(self.observed)}
        self.loadings = tuple(
            sorted(set(loading_list), key=lambda e: (lat_index[e[0]], obs_index[e[1]]))
        )

        if weights is None:
            self.weights = None
        else:
            self.weights = {}
            for (l, v), w in dict(weights).items():
                if (str(l), str(v)) not in set(self.loadings):
                    raise InvalidFactorGraph(f"weight given for missing loading {(l, v)!r}")
                self.weights[(str(l), str(v))] = float(w)

    def children_of(self, latent: str) -> tuple[str, ...]:
        return tuple(v for l, v in self.loadings if l == latent)

    def __repr__(self) -> str:
        return (
            f"LatentFactorGraph({len(self.observed)} observed, "
            f"{len(self.latents)} latents, {len(self.loadings)} loadings)"
        )


def latent_projection_bidirected(l: LatentFactorGraph) -> MixedGraph:
    """Project a factor graph onto its observed vertices.

    Two observed vertices become bidirected-adjacent iff some latent loads on
    both.  The result carries no directed edges.
    """
    edges = set()
    for latent in l.latents:
        ch = l.children_of(latent)
        for i in range(len(ch)):
            for j in range(i + 1, len(ch)):
                edges.add((ch[i], ch[j]))
    return MixedGraph(l.observed, directed=(), bidirected=sorted(edges))


# -- JSON documents ----------------------------------------------------------

_GRAPH_KEYS = {"vertices", "directed", "bidirected"}
_FACTOR_KEYS = {"vertices", "latents", "loadings", "weights"}


def graph_from_json(text: str) -> MixedGraph:
    """Parse {"vertices": [...], "directed": [[u,v],...], "bidirected": [[u,v],...]}.

    Unknown keys are rejected; bidirected pairs are order-insensitive.
    """
    doc = load_json_object(text, "graph document")
    unknown = set(doc) - _GRAPH_KEYS
    if unknown:
        raise GraphFormatError(f"unknown keys in graph document: {sorted(unknown)}")
    if "vertices" not in doc:
        raise GraphFormatError("graph document lacks 'vertices'")
    vertices = _names(doc, "vertices")
    directed = _pairs(doc, "directed")
    bidirected = _pairs(doc, "bidirected")
    try:
        return MixedGraph(vertices, directed=directed, bidirected=bidirected)
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed edge list: {exc}") from exc


def graph_to_json(g: MixedGraph) -> str:
    doc = {
        "vertices": list(g.vertices),
        "directed": [list(e) for e in g.directed],
        "bidirected": [list(e) for e in g.bidirected],
    }
    return json.dumps(doc, indent=2) + "\n"


def factor_graph_from_json(text: str) -> LatentFactorGraph:
    """Parse a factor-graph document; adds "latents"/"loadings" to the graph keys."""
    doc = load_json_object(text, "factor document")
    unknown = set(doc) - _FACTOR_KEYS
    if unknown:
        raise GraphFormatError(f"unknown keys in factor document: {sorted(unknown)}")
    for key in ("vertices", "latents", "loadings"):
        if key not in doc:
            raise GraphFormatError(f"factor document lacks {key!r}")
    vertices = _names(doc, "vertices")
    latents = _names(doc, "latents")
    loadings = _pairs(doc, "loadings")
    weights = None
    if doc.get("weights") is not None:
        vals = _array(doc, "weights")
        if len(vals) != len(loadings):
            raise GraphFormatError("weights must align with loadings")
        for w in vals:
            if not finite_number(w):
                raise GraphFormatError(f"weights must be finite numbers, got {w!r:.40}")
        weights = dict(zip(loadings, vals))
    try:
        return LatentFactorGraph(vertices, latents, loadings, weights)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"malformed factor document: {exc}") from exc


def factor_graph_to_json(l: LatentFactorGraph) -> str:
    doc = {
        "vertices": list(l.observed),
        "latents": list(l.latents),
        "loadings": [list(e) for e in l.loadings],
    }
    if l.weights is not None:
        doc["weights"] = [l.weights[e] for e in l.loadings]
    return json.dumps(doc, indent=2) + "\n"


def finite_number(x) -> bool:
    """A JSON number a float holds finitely: not a bool, NaN, infinity or an int past float range."""
    # abs(x) <= max also rejects NaN, and compares big ints exactly
    return not isinstance(x, bool) and isinstance(x, (int, float)) and abs(x) <= sys.float_info.max


def _array(doc: dict, key: str) -> list:
    """The JSON array under `key`, empty if absent; any other type is a format error."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise GraphFormatError(f"{key!r} must be a JSON array")
    return value


def _names(doc: dict, key: str) -> list:
    """The array of names under `key`; every name must be a JSON string."""
    names = _array(doc, key)
    if not all(isinstance(x, str) for x in names):
        raise GraphFormatError(f"{key!r} must be an array of strings")
    return names


def _pairs(doc: dict, key: str) -> list:
    """The edge list under `key` as tuples; every edge must be an array of name strings."""
    edges = _array(doc, key)
    if not all(isinstance(e, list) and all(isinstance(x, str) for x in e) for e in edges):
        raise GraphFormatError(f"{key!r} must be an array of [u, v] arrays of strings")
    return [tuple(e) for e in edges]


def load_json_object(text: str, what: str) -> dict:
    """`text` parsed as a JSON object; anything else is a GraphFormatError naming `what`.

    `json.loads` raises ValueError for malformed text and for integers past
    Python's digit limit, and RecursionError for nesting past the recursion
    limit.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError(f"{what} must be a JSON object")
    return doc
