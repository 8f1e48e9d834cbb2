"""Brute-force verifiers: path matrices, path-system enumeration, fiber dimensions.

Everything here exists to cross-check the flow engine by independent means:
numeric ranks of path-matrix blocks, exhaustive vertex-disjoint path-system
search, and the linear system whose solution space is the parameter fiber.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .admg import MixedGraph, finite_number, is_acyclic, load_json_object
from .errors import (
    BindingMismatch,
    CyclicGraph,
    GraphFormatError,
    InvalidDrawCount,
    SingularMatrix,
    SizeMismatch,
    TooLarge,
)
from .ident import _Column, removable_ancestors, v_rank

RANK_TOL = 1e-8
DET_TOL = 1e-8
ENUMERATION_CAP = 10**6
_MAX_GVL_VERTICES = 8


@dataclass(frozen=True)
class ParamMatrix:
    """A real coefficient matrix supported on the directed edges of a graph."""

    graph: MixedGraph
    values: dict

    def __post_init__(self):
        edge_set = set(self.graph.directed)
        for edge in self.values:
            if edge not in edge_set:
                raise BindingMismatch(f"{edge!r} is not a directed edge of the graph")

    def get(self, u: str, v: str) -> float:
        return self.values.get((u, v), 0.0)

    def dense(self) -> np.ndarray:
        p = self.graph.num_vertices
        lam = np.zeros((p, p))
        for (u, v), x in self.values.items():
            lam[self.graph.index(u), self.graph.index(v)] = x
        return lam

    def to_json(self) -> str:
        doc = {
            "vertices": list(self.graph.vertices),
            "edges": {f"{u}->{v}": self.values.get((u, v), 0.0) for u, v in self.graph.directed},
        }
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(graph: MixedGraph, text: str) -> "ParamMatrix":
        """Inverse of to_json; a malformed document is a GraphFormatError."""
        edges = load_json_object(text, "parameter JSON").get("edges", {})
        if not isinstance(edges, dict):
            raise GraphFormatError("parameter JSON must be an object whose 'edges' is an object")
        values = {}
        for key, x in edges.items():
            if not finite_number(x):
                raise GraphFormatError(f"parameter {key!r} must be a finite number, got {x!r:.40}")
            u, _, v = key.partition("->")
            values[(u, v)] = float(x)
        return ParamMatrix(graph, values)


def path_matrix(lam: ParamMatrix) -> np.ndarray:
    """B = (I - Lambda)^{-T}; entry (w, u) sums the path monomials u -> w.

    Acyclic bindings have det(I - Lambda) = 1 and a nilpotent Lambda, so the
    inverse is the finite power sum; that route keeps structural zeros exact,
    which the rank tolerances downstream rely on.  Cyclic bindings invert
    numerically and raise SingularMatrix near det(I - Lambda) = 0.
    """
    p = lam.graph.num_vertices
    dense = lam.dense()
    if is_acyclic(lam.graph):
        power = np.eye(p)
        total = np.eye(p)
        for _ in range(p - 1):
            power = power @ dense
            total += power
        return total.T
    a = np.eye(p) - dense
    if abs(np.linalg.det(a)) < DET_TOL:
        raise SingularMatrix("det(I - Lambda) is numerically zero")
    return np.linalg.inv(a.T)


def enumerate_path_systems(g: MixedGraph, sources, targets, cap: int = ENUMERATION_CAP):
    """All vertex-disjoint systems of directed paths mapping sources onto targets.

    A system is a tuple of paths (vertex sequences), one per source in
    declaration order, whose endpoints exhaust the target set in some
    permutation.  Trivial single-vertex paths are allowed.  Enumeration
    aborts with TooLarge after `cap` search states.
    """
    return list(_iter_path_systems(g, sources, targets, cap))


def _iter_path_systems(g: MixedGraph, sources, targets, cap: int = ENUMERATION_CAP):
    sources = g.sort_vertices(sources)
    targets = g.sort_vertices(targets)
    if len(sources) != len(targets):
        raise SizeMismatch("sources and targets must have equal cardinality")
    target_set = set(targets)
    counter = [0]

    def systems(k: int, used: frozenset):
        if k == len(sources):
            yield ()
            return
        u = sources[k]
        if u in used:
            return
        path = [u]
        on_path = {u}

        def walk(node):
            counter[0] += 1
            if counter[0] > cap:
                raise TooLarge(f"path-system enumeration exceeded {cap} states")
            if node in target_set:
                used_next = used | on_path
                head = tuple(path)
                for rest in systems(k + 1, used_next):
                    yield (head,) + rest
            for w in g.children(node):
                if w not in used and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    yield from walk(w)
                    path.pop()
                    on_path.remove(w)

        yield from walk(u)

    yield from systems(0, frozenset())


def path_system_exists(g: MixedGraph, sources, targets, cap: int = ENUMERATION_CAP) -> bool:
    return next(_iter_path_systems(g, sources, targets, cap), None) is not None


def brute_force_v_rank(g: MixedGraph, v: str, q, cap: int = ENUMERATION_CAP) -> int:
    """Max size of a vertex-disjoint path system from removable ancestors into q.

    Exhaustive over subset pairs, largest size first; independent of the flow
    engine.
    """
    removable = g.sort_vertices(removable_ancestors(g, v))
    return _enum_rank(g, removable, g.sort_vertices(q), cap)


def _enum_rank(g: MixedGraph, removable, q, cap: int) -> int:
    for k in range(min(len(removable), len(q)), 0, -1):
        if any(
            path_system_exists(g, sources, targets, cap)
            for sources in combinations(removable, k)
            for targets in combinations(q, k)
        ):
            return k
    return 0


def gvl_check(g: MixedGraph, lam: ParamMatrix, rows, cols):
    """Both sides of the path-determinant identity for the block (rows -> cols).

    Returns (det, signed path sum): the determinant of the path-matrix block
    whose (i, j) entry sums the path monomials rows[i] -> cols[j], and the
    signed sum of path monomials over vertex-disjoint systems from rows onto
    cols.  The two agree on acyclic graphs; the caller asserts closeness.
    """
    if g.num_vertices > _MAX_GVL_VERTICES:
        raise TooLarge(f"path enumeration documented up to {_MAX_GVL_VERTICES} vertices")
    rows = g.sort_vertices(rows)
    cols = g.sort_vertices(cols)
    if len(rows) != len(cols):
        raise SizeMismatch("row and column sets must have equal cardinality")
    b = path_matrix(lam)
    row_idx = [g.index(u) for u in rows]
    col_idx = [g.index(u) for u in cols]
    # b[w, u] holds paths u -> w, so sources index columns of b.
    det = float(np.linalg.det(b[np.ix_(col_idx, row_idx)])) if rows else 1.0

    col_pos = {u: i for i, u in enumerate(cols)}
    total = 0.0
    for system in _iter_path_systems(g, rows, cols):
        perm = [col_pos[path[-1]] for path in system]
        monomial = 1.0
        for path in system:
            for a, bb in zip(path, path[1:]):
                monomial *= lam.get(a, bb)
        total += _permutation_sign(perm) * monomial
    return det, total


def _permutation_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def a_matrix(g: MixedGraph, lam: ParamMatrix, lam_tilde: ParamMatrix) -> np.ndarray:
    """Mixing matrix relating the errors of two parameterizations of one graph.

    Entry (v, u) is b_vu - sum over w in pa(v) & de(u) of lt_wv * b_wu; it is
    exactly zero whenever v is not a descendant of u, and one on the diagonal.
    """
    if lam.graph != g or lam_tilde.graph != g:
        raise BindingMismatch("parameter matrices must share the graph binding")
    if not is_acyclic(g):
        raise CyclicGraph("mixing-matrix entries require an acyclic binding")
    b = path_matrix(lam)
    p = g.num_vertices
    out = np.zeros((p, p))
    for u in g.vertices:
        iu = g.index(u)
        de_u = g.descendants(u)
        for v in de_u:
            iv = g.index(v)
            acc = b[iv, iu]
            for w in g.parents(v):
                if w in de_u:
                    acc -= lam_tilde.get(w, v) * b[g.index(w), iu]
            out[iv, iu] = acc
    return out


def _rank(s: np.ndarray):
    """Numeric rank from singular values, per matrix of a stack (last axis, largest first).

    A value counts when it exceeds RANK_TOL times the largest, so an all-zero
    or empty matrix has rank 0.
    """
    return np.sum(s > RANK_TOL * s[..., :1], axis=-1)


def system_matrix(g: MixedGraph, lam: ParamMatrix, v: str, pinned=()) -> np.ndarray:
    """Coefficient block of the column-v linear system, pinned columns removed.

    Rows are indexed by the removable ancestors of v, columns by the free
    parents pa(v) minus pinned; entry (u, w) sums path monomials u -> w.
    """
    free = [w for w in g.parents(v) if w not in set(pinned)]
    removable = g.sort_vertices(removable_ancestors(g, v))
    b = path_matrix(lam)
    if not free or not removable:
        return np.zeros((len(removable), len(free)))
    cols = [g.index(w) for w in free]
    rows = [g.index(u) for u in removable]
    return b[np.ix_(cols, rows)].T


def fiber_dimension(g: MixedGraph, lam: ParamMatrix, v: str, pinned=()) -> int:
    """Dimension of the solution space for column v with pinned coordinates.

    Zero means the free coefficients into v are uniquely recoverable at this
    parameter point.
    """
    if not is_acyclic(g):
        raise CyclicGraph("fiber dimension is defined for acyclic bindings")
    pinned = g.sort_vertices(pinned)
    free = [w for w in g.parents(v) if w not in set(pinned)]
    s = np.linalg.svd(system_matrix(g, lam, v, pinned), compute_uv=False)
    return len(free) - int(_rank(s))


def fiber_dimension_modal(g: MixedGraph, v: str, pinned=(), seed: int = 0, draws: int = 5) -> int:
    """Modal fiber dimension over several generic parameter draws.

    Guards against a single draw landing near the non-generic locus.
    """
    if not is_acyclic(g):
        raise CyclicGraph("fiber dimension is defined for acyclic bindings")
    pinned = g.sort_vertices(pinned)
    free = [w for w in g.parents(v) if w not in pinned]
    removable = g.sort_vertices(removable_ancestors(g, v))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return len(free) - _modal_rank(g, draw_b_stack(g, rng, draws), removable, free)


def fiber_q_unique(g: MixedGraph, lam: ParamMatrix, v: str, q, k=()) -> bool:
    """Whether the q-coordinates are constant across the pinned-k solution space.

    Solves the column-v system with the k-coordinates fixed and inspects the
    null space: unique q-coordinates iff every null direction vanishes on q.
    """
    q = g.sort_vertices(q)
    k = g.sort_vertices(k)
    free = [w for w in g.parents(v) if w not in set(k)]
    _, s, vt = np.linalg.svd(system_matrix(g, lam, v, k))
    null_basis = vt[_rank(s):].T
    q_rows = [i for i, w in enumerate(free) if w in set(q)]
    return bool(np.all(np.abs(null_basis[q_rows, :]) < 1e-8))


def nongeneric_locus_check(g: MixedGraph, lam: ParamMatrix, v: str) -> bool:
    """True iff the column-v system rank at lam falls below the generic rank.

    The generic rank is the flow-computed v-rank of pa(v); a strict drop at
    the supplied parameter point marks it as non-generic for column v.
    """
    rank_here = int(_rank(np.linalg.svd(system_matrix(g, lam, v), compute_uv=False)))
    return rank_here < v_rank(g, v, g.parents(v))


def generic_parameters(g: MixedGraph, rng) -> ParamMatrix:
    """Parameter draw staying clear of zero: uniform on +-[0.05, 1] per edge."""
    values = {}
    for u, v in g.directed:
        magnitude = rng.uniform(0.05, 1.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        values[(u, v)] = sign * magnitude
    return ParamMatrix(g, values)


# -- exhaustive cross-checking ------------------------------------------------


def all_dags(p: int):
    """All labeled DAGs on p vertices as directed index-pair tuples."""
    if p > 4:
        raise TooLarge("exhaustive DAG enumeration documented up to 4 vertices")
    pairs = [(i, j) for i in range(p) for j in range(p) if i != j]
    dags = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        if is_acyclic(MixedGraph(range(p), edges)):
            dags.append(tuple(edges))
    return dags


def all_bidirected_sets(p: int):
    pairs = list(combinations(range(p), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1)


def cross_check_graph(g: MixedGraph, seed: int = 0, draws: int = 5, v_rank_fn=None):
    """Compare flow rank, brute-force rank, and modal numeric rank on one graph.

    Checks every (v, Q) with Q a subset of pa(v); returns a list of mismatch
    records (empty on agreement).  `v_rank_fn` may substitute the flow engine
    under test.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _check_graph(g, draw_b_stack(g, rng, draws), v_rank_fn, {}, {}, {})


def _check_graph(g: MixedGraph, b_stack, v_rank_fn, enum_cache: dict, rank_cache: dict, flows: dict):
    """Mismatch records of one graph; see cross_check_graph.

    Both caches are keyed by (removable, Q).  The enumeration rank depends
    only on that key and the directed part, the modal rank on that key and
    `b_stack`, so callers may share the caches across graphs that agree on
    the directed part and the parameter draws.  `flows` is `_Column.rank`'s
    memo, keyed by the built network (node count, arcs): the key is the whole
    input of the solver, so any graph may share it.  A substituted
    `v_rank_fn` is called for every (v, Q) instead.
    """
    mismatches = []
    for v in g.vertices:
        col = _Column(g, v)
        removable = col.removable
        pa = g.parents(v)
        for size in range(len(pa) + 1):
            for q in combinations(pa, size):
                key = (removable, q)
                flow = col.rank(q, flows) if v_rank_fn is None else v_rank_fn(g, v, q)
                if key not in enum_cache:
                    enum_cache[key] = _enum_rank(g, removable, q, ENUMERATION_CAP)
                if key not in rank_cache:
                    rank_cache[key] = _modal_rank(g, b_stack, removable, q)
                enum = enum_cache[key]
                modal = rank_cache[key]
                if not flow == enum == modal:
                    mismatches.append(
                        {
                            "vertices": list(g.vertices),
                            "directed": [list(e) for e in g.directed],
                            "bidirected": [list(e) for e in g.bidirected],
                            "v": v,
                            "q": list(q),
                            "flow": flow,
                            "enumeration": enum,
                            "numeric_rank": modal,
                        }
                    )
    return mismatches


def _modal_rank(g: MixedGraph, b_stack, removable, q) -> int:
    """Most common numeric rank of the (q, removable) path-matrix block over the draws."""
    if not removable or not q:
        return 0
    rows = [g.index(u) for u in q]
    cols = [g.index(u) for u in removable]
    blocks = b_stack[:, rows, :][:, :, cols]
    ranks = _rank(np.linalg.svd(blocks, compute_uv=False))
    return int(Counter(ranks.tolist()).most_common(1)[0][0])


def draw_b_stack(g: MixedGraph, rng, draws: int) -> np.ndarray:
    """Stack of path matrices at independent generic parameter draws."""
    if draws < 1:
        raise InvalidDrawCount(draws)
    p = g.num_vertices
    stack = np.empty((draws, p, p))
    for d in range(draws):
        stack[d] = path_matrix(generic_parameters(g, rng))
    return stack


def verify_sweep(max_vertices: int = 4, seed: int = 0, sample_count: int = 1000, v_rank_fn=None):
    """Exhaustive (p <= 4) plus sampled (p = 5, 6) triple-oracle agreement sweep.

    Returns {"graphs": count, "checks": count, "mismatches": [...]}.  The
    parameter draws behind the numeric ranks are shared per directed part so
    rank and enumeration results can be cached across bidirected variants.
    Max flows are memoised for the whole sweep under the built network, the
    solver's complete input, so each distinct network is solved once.
    """
    from .simulate import random_admg

    graphs = 0
    checks = 0
    mismatches = []
    flows = {}
    for p in range(1, min(max_vertices, 4) + 1):
        vertices = [f"v{i + 1}" for i in range(p)]
        for dag_idx, dag in enumerate(all_dags(p)):
            directed = [(vertices[a], vertices[b]) for a, b in dag]
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p, dag_idx)))
            b_stack = draw_b_stack(MixedGraph(vertices, directed), rng, 5)
            rank_cache = {}
            enum_cache = {}
            for bid in all_bidirected_sets(p):
                bidirected = [(vertices[a], vertices[b]) for a, b in bid]
                g = MixedGraph(vertices, directed, bidirected)
                found = _check_graph(g, b_stack, v_rank_fn, enum_cache, rank_cache, flows)
                graphs += 1
                checks += sum(2 ** len(g.parents(v)) for v in g.vertices)
                mismatches.extend(found)
    for p in range(5, max_vertices + 1):
        densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        for i in range(sample_count):
            g = random_admg(p, densities[i % len(densities)], seed=seed * 100003 + i)
            rng = np.random.default_rng(np.random.SeedSequence(seed + i))
            found = _check_graph(g, draw_b_stack(g, rng, 5), v_rank_fn, {}, {}, flows)
            graphs += 1
            checks += sum(2 ** len(g.parents(v)) for v in g.vertices)
            mismatches.extend(found)
    return {"graphs": graphs, "checks": checks, "mismatches": mismatches}
