"""The mask genealogy of MixedGraph against the set-based code it replaced.

The references below are the breadth-first searches and the set-difference
removable test the package used before ancestors, descendants, acyclicity,
bidirected components and removable sets were read off integer masks.  They
build their adjacency from the edge tuples alone.
"""

from collections import deque

import pytest

from admgident import (
    MixedGraph,
    bidirected_connected_components,
    is_acyclic,
    random_admg,
    removable_ancestors,
)
from admgident.oracle import all_bidirected_sets, all_dags
from figures import seeded_cyclic_graphs


def _reach(start, step: dict) -> frozenset:
    seen = {start}
    queue = deque([start])
    while queue:
        for w in step[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def _reference(g: MixedGraph) -> dict:
    parents = {v: [] for v in g.vertices}
    children = {v: [] for v in g.vertices}
    siblings = {v: [] for v in g.vertices}
    for u, v in g.directed:
        children[u].append(v)
        parents[v].append(u)
    for u, v in g.bidirected:
        siblings[u].append(v)
        siblings[v].append(u)
    an = {v: _reach(v, parents) for v in g.vertices}
    de = {v: _reach(v, children) for v in g.vertices}
    removable = {}
    for v in g.vertices:
        sib_v = set(siblings[v]) | {v}
        removable[v] = frozenset(u for u in an[v] if u != v and (set(siblings[u]) | {u}) - sib_v)
    components, seen = [], set()
    for v in g.vertices:
        if v not in seen:
            components.append(_reach(v, siblings))
            seen |= components[-1]
    return {
        "an": an,
        "de": de,
        "acyclic": not any(v in an[u] for u, v in g.directed),
        "components": tuple(components),
        "removable": removable,
    }


def _assert_same_genealogy(g: MixedGraph) -> None:
    ref = _reference(g)
    assert {v: g.ancestors(v) for v in g.vertices} == ref["an"], g
    assert {v: g.descendants(v) for v in g.vertices} == ref["de"], g
    assert is_acyclic(g) == ref["acyclic"], g
    assert bidirected_connected_components(g) == ref["components"], g
    for v in g.vertices:
        assert g.removable(v) == tuple(sorted(ref["removable"][v], key=g.index)), (g, v)
        assert removable_ancestors(g, v) == ref["removable"][v], (g, v)


def test_every_admg_up_to_four_vertices():
    graphs = 0
    for p in range(1, 5):
        vs = [f"v{i + 1}" for i in range(p)]
        bidirected_sets = [[(vs[a], vs[b]) for a, b in bid] for bid in all_bidirected_sets(p)]
        for dag in all_dags(p):
            directed = [(vs[a], vs[b]) for a, b in dag]
            for bidirected in bidirected_sets:
                _assert_same_genealogy(MixedGraph(vs, directed, bidirected))
                graphs += 1
    assert graphs == 34959


def test_every_digraph_up_to_four_vertices():
    # Cycles included; the k-th digraph takes the k-th bidirected set, cyclically.
    cyclic = 0
    for p in range(1, 5):
        vs = [f"v{i + 1}" for i in range(p)]
        pairs = [(a, b) for a in vs for b in vs if a != b]
        bidirected_sets = [[(vs[a], vs[b]) for a, b in bid] for bid in all_bidirected_sets(p)]
        for mask in range(1 << len(pairs)):
            directed = [e for k, e in enumerate(pairs) if mask >> k & 1]
            g = MixedGraph(vs, directed, bidirected_sets[mask % len(bidirected_sets)])
            _assert_same_genealogy(g)
            cyclic += not is_acyclic(g)
    assert cyclic == 4165 - 572  # all digraphs less the DAGs: 1 + 3 + 25 + 543


@pytest.mark.parametrize("p", [12, 25])
def test_random_admgs(p):
    for density in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for seed in range(10):
            _assert_same_genealogy(random_admg(p, density, seed))


def test_seeded_cyclic_graphs():
    for _, g in seeded_cyclic_graphs(3000):
        _assert_same_genealogy(g)


def test_chain_longer_than_the_recursion_limit():
    # v1 -> ... -> v600 with v2..v599 <-> v600, as in the CLI test of the same length.
    vs = [f"v{i}" for i in range(1, 601)]
    g = MixedGraph(vs, list(zip(vs, vs[1:])), [(u, vs[-1]) for u in vs[1:-1]])
    _assert_same_genealogy(g)
    assert g.removable(vs[-1]) == ("v1",)
