"""Brute-force verifiers of the flow engine.

The verifiers cross-check the flow engine by independent means: numeric
ranks of path-matrix blocks, exhaustive vertex-disjoint path-system search,
and the linear system whose solution space is the parameter fiber.
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

from .admg import MixedGraph, _require_acyclic, graph_fields
from .errors import InvalidDrawCount, SizeMismatch, TooLarge
from .ident import _Column, v_rank
from .simulate import ParamMatrix, _power_sum, _require_binding, _stream, path_matrix, random_admg

RANK_TOL = 1e-8
ENUMERATION_CAP = 10**6
_MAX_GVL_VERTICES = 8
# Graphs per `_check` call in `verify_sweep`: enough to batch the SVDs, few enough to keep memory flat.
_CHUNK = 16


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


def path_system_exists(g: MixedGraph, sources, targets) -> bool:
    return next(_iter_path_systems(g, sources, targets), None) is not None


def brute_force_v_rank(g: MixedGraph, v: str, q) -> int:
    """Max size of a vertex-disjoint path system from removable ancestors into q.

    Exhaustive over subset pairs, largest size first; independent of the flow
    engine, with a search memo of its own.  A q outside pa(v) is a
    NotAParentSubset.
    """
    return _enum_rank(g, g.removable(v), g.parent_subset(v, q), {})


def _enum_rank(g: MixedGraph, removable, q, memo: dict) -> int:
    """`brute_force_v_rank` from (removable, q); `memo` keeps each (sources, targets) search's
    answer, so share it only among calls on one directed part."""
    for k in range(min(len(removable), len(q)), 0, -1):
        for sources in combinations(removable, k):
            for targets in combinations(q, k):
                if (sources, targets) not in memo:
                    memo[sources, targets] = path_system_exists(g, sources, targets)
                if memo[sources, targets]:
                    return k
    return 0


def gvl_check(g: MixedGraph, lam: ParamMatrix, rows, cols):
    """Both sides of the path-determinant identity for the block (rows -> cols).

    Returns (det, signed path sum): the determinant of the path-matrix block
    whose (i, j) entry sums the path monomials rows[i] -> cols[j], and the
    signed sum of path monomials over vertex-disjoint systems from rows onto
    cols.  The two agree, and a cyclic g is a CyclicGraph; the caller asserts closeness.
    """
    _require_binding(g, lam)
    if g.num_vertices > _MAX_GVL_VERTICES:
        raise TooLarge(f"path enumeration documented up to {_MAX_GVL_VERTICES} vertices")
    rows = g.sort_vertices(rows)
    cols = g.sort_vertices(cols)
    if len(rows) != len(cols):
        raise SizeMismatch("row and column sets must have equal cardinality")
    _require_acyclic(g)
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
    _require_binding(g, lam, lam_tilde)
    _require_acyclic(g)
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


def _free_parents(g: MixedGraph, v: str, pinned) -> list:
    """pa(v) minus pinned, in declaration order; a pinned vertex outside pa(v) is a NotAParentSubset."""
    pinned = g.parent_subset(v, pinned)
    return [w for w in g.parents(v) if w not in pinned]


def system_matrix(g: MixedGraph, lam: ParamMatrix, v: str, pinned=()) -> np.ndarray:
    """Coefficient block of the column-v linear system, pinned columns removed.

    Rows are indexed by the removable ancestors of v, columns by the free
    parents pa(v) minus pinned; entry (u, w) sums path monomials u -> w.
    Pinning a vertex outside pa(v) is a NotAParentSubset, and a cyclic g a CyclicGraph.
    """
    _require_binding(g, lam)
    cols = [g.index(w) for w in _free_parents(g, v, pinned)]
    rows = [g.index(u) for u in g.removable(v)]
    _require_acyclic(g)
    return path_matrix(lam)[np.ix_(cols, rows)].T


def fiber_dimension(g: MixedGraph, lam: ParamMatrix, v: str, pinned=()) -> int:
    """Dimension of the solution space for column v with pinned coordinates.

    Zero means the free coefficients into v are uniquely recoverable at this
    parameter point.  Pinning a vertex outside pa(v) is a NotAParentSubset.
    """
    system = system_matrix(g, lam, v, pinned)
    return system.shape[1] - int(_rank(np.linalg.svd(system, compute_uv=False)))


def fiber_dimension_modal(g: MixedGraph, v: str, pinned=(), seed: int = 0, draws: int = 5) -> int:
    """Modal fiber dimension over several generic parameter draws.

    Guards against a single draw landing near the non-generic locus.
    Pinning a vertex outside pa(v) is a NotAParentSubset.
    """
    free = _free_parents(g, v, pinned)
    rng = _stream(seed)
    return len(free) - _modal_ranks([(g, draw_b_stack(g, rng, draws), [(g.removable(v), free)])])[0][0]


def fiber_q_unique(g: MixedGraph, lam: ParamMatrix, v: str, q, k=()) -> bool:
    """Whether the q-coordinates are constant across the pinned-k solution space.

    Solves the column-v system with the k-coordinates fixed and inspects the
    null space: unique q-coordinates iff every null direction vanishes on q.
    A q or k with a vertex outside pa(v) is a NotAParentSubset, and a cyclic g a CyclicGraph.
    """
    q = g.parent_subset(v, q)
    free = _free_parents(g, v, k)
    _, s, vt = np.linalg.svd(system_matrix(g, lam, v, k))
    null_basis = vt[_rank(s):].T
    q_rows = [i for i, w in enumerate(free) if w in set(q)]
    return bool(np.all(np.abs(null_basis[q_rows, :]) < 1e-8))


def nongeneric_locus_check(g: MixedGraph, lam: ParamMatrix, v: str) -> bool:
    """True iff the column-v system rank at lam falls below the generic rank.

    The generic rank is the flow-computed v-rank of pa(v); a strict drop at
    the supplied parameter point marks it as non-generic for column v; a cyclic g is a CyclicGraph.
    """
    rank_here = int(_rank(np.linalg.svd(system_matrix(g, lam, v), compute_uv=False)))
    return rank_here < v_rank(g, v, g.parents(v))


def generic_parameters(g: MixedGraph, rng) -> ParamMatrix:
    """Parameter draw staying clear of zero: uniform on +-[0.05, 1] per edge."""
    return ParamMatrix(g, dict(zip(g.directed, _draws(rng, 1, len(g.directed))[0].tolist())))


def _draws(rng, draws: int, edges: int) -> np.ndarray:
    """(draws, edges) `generic_parameters` values from one `rng` call: per value a
    magnitude 0.05 + 0.95 u from one double u, then negative iff the next double is >= 0.5."""
    u = rng.random((draws, edges, 2))
    return np.where(u[..., 1] < 0.5, 1.0, -1.0) * (0.05 + (1.0 - 0.05) * u[..., 0])


# -- exhaustive cross-checking ------------------------------------------------


def all_dags(p: int):
    """All labeled DAGs on p vertices as directed index-pair tuples.

    Every subset of the ordered vertex pairs is a candidate, kept when no
    edge i -> j has j among i's ancestors, read off its parent masks.
    TooLarge covers any p outside 0..4, a negative p included.
    """
    if not 0 <= p <= 4:
        raise TooLarge(f"exhaustive DAG enumeration documented for 0 to 4 vertices, got {p}")
    pairs = [(i, j) for i in range(p) for j in range(p) if i != j]
    dags = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        pa, ancestors = [0] * p, [0] * p
        for i, j in edges:
            pa[j] |= 1 << i
        if not any(MixedGraph._closure(i, pa, ancestors) >> j & 1 for i, j in edges):
            dags.append(tuple(edges))
    return dags


def all_bidirected_sets(p: int):
    pairs = list(combinations(range(p), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1)


def cross_check_graph(g: MixedGraph, seed: int = 0, draws: int = 5):
    """Compare flow rank, brute-force rank, and modal numeric rank on one acyclic graph.

    Checks every (v, Q) with Q a subset of pa(v); returns a list of mismatch
    records (empty on agreement).  The graph must be acyclic: the
    enumeration and the path matrix count paths through v, which the flow
    network excludes.
    """
    rng = _stream(seed)
    report = {"graphs": 0, "checks": 0, "mismatches": []}
    _check([(g, False, draw_b_stack(g, rng, draws))], {}, report)
    return report["mismatches"]


def _subsets(items):
    """Every sub-tuple of `items`, by size, then in combinations order."""
    return [sub for size in range(len(items) + 1) for sub in combinations(items, size)]


def _check(graphs, flows: dict, report: dict):
    """Add the graphs, checks and mismatch records of each `(g, variants, b_stack)` to `report`.

    With `variants` the DAG g stands for its 2^C(p,2) bidirected variants,
    else for itself.  A check is fixed by its key (v, removable, Q): the
    column network reads only g's directed part, removable and Q, the ranks
    only (removable, Q).  Three phases: a key table per graph (flows and
    enumeration ranks), one `_modal_ranks` call for all the graphs, then
    agreement and records per graph, in the given order.
    """
    tables = [(g, variants, b_stack, *_key_table(g, variants, flows)) for g, variants, b_stack in graphs]
    modals = _modal_ranks([(g, b_stack, list(enums)) for g, _, b_stack, _, _, enums in tables])
    for (g, variants, _, plan, table, enums), modal in zip(tables, modals):
        ranks = {key: (enum, m) for (key, enum), m in zip(enums.items(), modal)}
        _record(g, variants, plan, table, ranks, report)


def _key_table(g: MixedGraph, variants: bool, flows: dict):
    """g's (v, subsets of pa(v)) plan, its {(v, removable, Q): flow} table and {(removable, Q): enumeration rank}.

    Over the variants removable(v) takes every subset of v's strict
    ancestors, so one `_Column` on g per (v, subset) gives every key's flow,
    read from the sweep-wide `flows` memo.  The enumeration ranks share one
    memo of (sources, targets) searches, as every variant has g's paths.
    """
    plan = [(v, _subsets(g.parents(v))) for v in g.vertices]
    table = {}
    for i, (v, qs) in enumerate(plan):
        for removable in _subsets(g._names(g._an_mask(i) & ~(1 << i))) if variants else [g.removable(v)]:
            col = _Column(g, v, removable)
            for q in qs:
                table[v, removable, q] = col.rank(q, flows)
    searches = {}
    enums = {key: _enum_rank(g, *key, searches) for key in dict.fromkeys(key[1:] for key in table)}
    return plan, table, enums


def _record(g: MixedGraph, variants: bool, plan, table: dict, ranks: dict, report: dict):
    """Add g's totals, in closed form, to `report`, and a record per failing check of a disagreeing key.

    Graphs are built only then: the variants of g in order, each failing
    (v, Q) read from the key table.
    """
    vs, p = g.vertices, g.num_vertices
    count = 1 << p * (p - 1) // 2 if variants else 1
    report["graphs"] += count
    report["checks"] += count * sum(len(qs) for _, qs in plan)
    if all((flow, flow) == ranks[key[1:]] for key, flow in table.items()):
        return
    graphs = [g]
    if variants:
        graphs = (MixedGraph(vs, g.directed, [(vs[a], vs[b]) for a, b in bid]) for bid in all_bidirected_sets(p))
    for h in graphs:
        for v, qs in plan:
            removable = h.removable(v)
            for q in qs:
                flow, (enum, modal) = table[v, removable, q], ranks[removable, q]
                if not flow == enum == modal:
                    values = {"flow": flow, "enumeration": enum, "numeric_rank": modal}
                    report["mismatches"].append({**graph_fields(h), "v": v, "q": list(q), **values})


def _modal_ranks(items) -> list:
    """Per `(g, b_stack, keys)` item, the most common numeric rank over the draws of each
    (removable, q) key's (q, removable) path-matrix block.

    A key with an empty side has rank 0.  The items' stacks, of one draw
    count, are zero-padded into one array, so the blocks of one shape over
    all items take one gather and one SVD call over keys x draws.
    """
    out = [[0] * len(keys) for _, _, keys in items]
    p = max(g.num_vertices for g, _, _ in items)
    stacks = np.zeros((len(items[0][1]), len(items), p, p))
    shapes = {}
    for i, (g, b_stack, keys) in enumerate(items):
        stacks[:, i, : g.num_vertices, : g.num_vertices] = b_stack
        for k, (removable, q) in enumerate(keys):
            if removable and q:
                at, rows, cols = shapes.setdefault((len(q), len(removable)), ([], [], []))
                at.append((i, k))
                rows.append([g.index(u) for u in q])
                cols.append([g.index(u) for u in removable])
    for at, rows, cols in shapes.values():
        item = np.array([i for i, _ in at])
        # (draws, keys, |q|, |removable|) blocks, ranked per draw, then moded per key.
        blocks = stacks[:, item[:, None, None], np.array(rows)[:, :, None], np.array(cols)[:, None, :]]
        for (i, k), mode in zip(at, _modes(_rank(np.linalg.svd(blocks, compute_uv=False)).T).tolist()):
            out[i][k] = mode
    return out


def _modes(rows: np.ndarray) -> np.ndarray:
    """Each row's most common value; a tie goes to the value that comes first in the row,
    as with `Counter(row).most_common(1)`."""
    counts = (rows[:, :, None] == rows[:, None, :]).sum(-1)
    return rows[np.arange(len(rows)), counts.argmax(1)]


def draw_b_stack(g: MixedGraph, rng, draws: int) -> np.ndarray:
    """Path matrices of an acyclic g at `draws` independent `generic_parameters` draws, stacked;
    one `_draws` call and one batched `_power_sum`, with the stream and values of a draw at a time."""
    _require_acyclic(g)
    if draws < 1:
        raise InvalidDrawCount(draws)
    p = g.num_vertices
    rows, cols = [g.index(u) for u, _ in g.directed], [g.index(v) for _, v in g.directed]
    dense = np.zeros((draws, p, p))
    dense[:, rows, cols] = _draws(rng, draws, len(g.directed))
    return _power_sum(dense)


def verify_sweep(max_vertices: int = 4, seed: int = 0, sample_count: int = 1000):
    """Exhaustive (p <= 4) plus sampled (p = 5, 6) triple-oracle agreement sweep.

    Returns {"graphs": count, "checks": count, "mismatches": [...]}.  On
    p <= 4 vertices each directed part stands for its 2^C(p,2) bidirected
    variants, which share its parameter draws; each sampled graph stands
    for itself.  `_check` decides every check from its (v, removable, Q) key,
    `_CHUNK` graphs at a time, drawn as the chunk is reached, so the modal
    ranks of a chunk share their SVD calls and only one chunk's key tables
    are held.  Max flows are memoised for the whole sweep under the built
    network, the solver's complete input, so each distinct network is
    solved once.
    """
    report = {"graphs": 0, "checks": 0, "mismatches": []}
    flows = {}
    graphs = _sweep_graphs(max_vertices, seed, sample_count)
    for chunk in iter(lambda: list(islice(graphs, _CHUNK)), []):
        _check(chunk, flows, report)
    return report


def _sweep_graphs(max_vertices: int, seed: int, sample_count: int):
    """`verify_sweep`'s (g, variants, b_stack) items in order, each drawn from its own seed."""
    for p in range(1, min(max_vertices, 4) + 1):
        vertices = [f"v{i + 1}" for i in range(p)]
        for dag_idx, dag in enumerate(all_dags(p)):
            base = MixedGraph(vertices, [(vertices[a], vertices[b]) for a, b in dag])
            rng = _stream(seed, p, dag_idx)
            yield base, True, draw_b_stack(base, rng, 5)
    for p in range(5, max_vertices + 1):
        densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        for i in range(sample_count):
            g = random_admg(p, densities[i % len(densities)], seed=seed * 100003 + i)
            rng = _stream(seed + i)
            yield g, False, draw_b_stack(g, rng, 5)
