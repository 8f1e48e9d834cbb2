"""Mixed graphs: data model, validation, genealogy, acyclicity, latent factor graphs.

Vertex ids are opaque strings.  Dense indices follow the declared vertex
order, which also fixes every deterministic tie-break in the package.
"""

from __future__ import annotations

import json
import sys

from .errors import (
    BindingMismatch,
    CyclicGraph,
    DuplicateVertex,
    GraphFormatError,
    InvalidFactorGraph,
    NotAParentSubset,
    SelfLoop,
    UnknownVertex,
)


class MixedGraph:
    """A mixed graph (V, directed, bidirected); immutable after construction.

    Directed edges are ordered pairs (u, v) for u -> v.  Bidirected edges are
    unordered; they are stored canonically with the lower-index endpoint
    first.  Self-loops are rejected in both edge sets, and every edge
    endpoint must be a declared vertex.

    Genealogy runs on integer masks whose bit i is the i-th declared vertex,
    so bit order is declaration order.  Vertex i has a parent mask `_pa[i]`,
    a child mask `_ch[i]` and a closed sibling mask `_csib[i]` (i and its
    siblings); its ancestor and descendant masks are closures over `_pa` and
    `_ch`, each computed once on first use.
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

        p = len(vertices)
        self._pa, self._ch, self._csib = [0] * p, [0] * p, [1 << i for i in range(p)]
        for u, v in directed:
            a, b = self._edge(u, v)
            self._ch[a] |= 1 << b
            self._pa[b] |= 1 << a
        for u, v in bidirected:
            a, b = self._edge(u, v)
            self._csib[a] |= 1 << b
            self._csib[b] |= 1 << a
        # The edge tuples read the masks in declaration order; -(2 << i) keeps the bits above i.
        self.directed = tuple((u, w) for u, ch in zip(vertices, self._ch) for w in self._names(ch))
        self.bidirected = tuple(
            (u, w) for i, (u, sib) in enumerate(zip(vertices, self._csib)) for w in self._names(sib & -(2 << i))
        )
        # Closures, filled on first use; the graph never changes.
        self._an_masks, self._de_masks = [0] * p, [0] * p

    # -- basic accessors -------------------------------------------------

    def _edge(self, u, v) -> tuple[int, int]:
        """Index pair of the edge (u, v); unknown endpoints and self-loops are rejected."""
        try:
            a, b = self._index[str(u)], self._index[str(v)]
        except KeyError as exc:
            raise UnknownVertex(exc.args[0]) from None
        if a == b:
            raise SelfLoop(str(u))
        return a, b

    def index(self, v: str) -> int:
        if v not in self._index:
            raise UnknownVertex(v)
        return self._index[v]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def parents(self, v: str) -> tuple[str, ...]:
        return self._names(self._pa[self.index(v)])

    def parent_subset(self, v: str, q) -> tuple[str, ...]:
        """q in declaration order; a vertex outside pa(v) is a NotAParentSubset."""
        mask = 0
        for u in q:
            mask |= 1 << self.index(u)
        if mask & ~self._pa[self.index(v)]:
            raise NotAParentSubset(self._names(mask), v)
        return self._names(mask)

    def children(self, v: str) -> tuple[str, ...]:
        return self._names(self._ch[self.index(v)])

    def siblings(self, v: str) -> tuple[str, ...]:
        i = self.index(v)
        return self._names(self._csib[i] & ~(1 << i))

    def ancestors(self, v: str) -> frozenset:
        """All u with a directed path u -> ... -> v; contains v (trivial path)."""
        return frozenset(self._names(self._an_mask(self.index(v))))

    def descendants(self, v: str) -> frozenset:
        """All u with a directed path v -> ... -> u; contains v (trivial path)."""
        return frozenset(self._names(self._de_mask(self.index(v))))

    def removable(self, v: str) -> tuple[str, ...]:
        """Strict ancestors u of v whose closed sibling set {u} | sib(u) is not inside v's, in declaration order."""
        return self._names(self._removable_of(self.index(v)))

    def _removable_of(self, i: int) -> int:
        """Mask of `removable` for vertex i."""
        strict, closed = self._an_mask(i) & ~(1 << i), self._csib[i]
        # Only an ancestor inside v's closed sibling set can have its own inside it too.
        inside = strict & closed
        while inside:
            low = inside & -inside
            inside ^= low
            if not self._csib[low.bit_length() - 1] & ~closed:
                strict ^= low
        return strict

    def _an_mask(self, i: int) -> int:
        return self._an_masks[i] or self._closure(i, self._pa, self._an_masks)

    def _de_mask(self, i: int) -> int:
        return self._de_masks[i] or self._closure(i, self._ch, self._de_masks)

    @staticmethod
    def _closure(i: int, step: list, memo: list) -> int:
        """Mask of everything reachable from vertex i by `step` masks, i included; stored in `memo[i]`.

        A closure already in `memo` (0 means unknown) joins whole, unexpanded: exact on cyclic
        graphs too, as every closure is closed under `step`."""
        seen = todo = 1 << i
        while todo:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() - 1
            if memo[j]:
                seen |= memo[j]
            else:
                new = step[j] & ~seen
                seen |= new
                todo |= new
        memo[i] = seen
        return seen

    def _names(self, mask: int) -> tuple[str, ...]:
        """The vertices whose bits are set in `mask`, in declaration order."""
        names = []
        while mask:
            low = mask & -mask
            names.append(self.vertices[low.bit_length() - 1])
            mask ^= low
        return tuple(names)

    def sort_vertices(self, vs) -> tuple[str, ...]:
        """Canonical tuple of a vertex collection, ordered by declaration."""
        return self._names(sum({1 << self.index(v) for v in vs}))

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


def is_acyclic(g: MixedGraph) -> bool:
    """True iff the directed part has no non-trivial directed cycle: no edge u -> v with v in an(u)."""
    return not any(g._an_mask(i) & ch for i, ch in enumerate(g._ch))


def _require_acyclic(g: MixedGraph) -> None:
    """The one "g is a DAG" test: a directed cycle is a CyclicGraph."""
    if not is_acyclic(g):
        raise CyclicGraph("this computation is defined for acyclic graphs; the graph has a directed cycle")


def edge_keys(edges) -> dict:
    """Each directed edge (u, v) mapped to its document key "u->v", in the given order.

    Vertex names may hold "->", so two edges can render one key; that is a
    BindingMismatch, as one of them would vanish from the document.
    """
    keys = {edge: f"{edge[0]}->{edge[1]}" for edge in edges}
    if len(set(keys.values())) < len(keys):
        first = {}
        for edge, key in keys.items():
            if first.setdefault(key, edge) != edge:
                raise BindingMismatch(f"edges {first[key]!r} and {edge!r} both render as the key {key!r}")
    return keys


def bidirected_connected_components(g: MixedGraph) -> tuple[frozenset, ...]:
    """Partition of V into connected components of the bidirected part."""
    seen, components, memo = 0, [], [0] * g.num_vertices
    for i in range(g.num_vertices):
        if not seen >> i & 1:
            comp = g._closure(i, g._csib, memo)
            seen |= comp
            components.append(frozenset(g._names(comp)))
    return tuple(components)


class LatentFactorGraph:
    """A factor graph: latent source nodes loading onto observed vertices.

    Loadings run latent -> observed only; anything else raises
    InvalidFactorGraph.  The graph carries no loading weights:
    `sample_factor_errors` draws them from its seed.
    """

    def __init__(self, observed, latents, loadings):
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


def graph_fields(g: MixedGraph) -> dict:
    """g's graph document fields: its vertices, then its directed and bidirected edges as [u, v] arrays."""
    return {
        "vertices": list(g.vertices),
        "directed": [list(e) for e in g.directed],
        "bidirected": [list(e) for e in g.bidirected],
    }


def graph_to_json(g: MixedGraph) -> str:
    return dump_json(graph_fields(g))


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


def dump_json(doc) -> str:
    """The text of every JSON document the package writes: two-space indent, one final newline."""
    return json.dumps(doc, indent=2) + "\n"


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
