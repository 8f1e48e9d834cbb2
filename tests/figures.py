"""Small worked-example graphs, seeded cyclic graphs and a random-JSON strategy, shared across the test suite."""

import random
from itertools import combinations

from hypothesis import strategies as st

from admgident import LatentFactorGraph, MixedGraph, is_acyclic

# Any JSON value, for fuzzing the document readers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def iv_graph() -> MixedGraph:
    """Instrumental variable chain: v1 -> v2 -> v3 with v2 <-> v3."""
    return MixedGraph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")], [("v2", "v3")])


def confounded_diamond() -> MixedGraph:
    """Four-vertex diamond with three bidirected edges; only the last column
    is identifiable in full."""
    return MixedGraph(
        ["v1", "v2", "v3", "v4"],
        [("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v4")],
        [("v1", "v2"), ("v2", "v4"), ("v3", "v4")],
    )


def half_identifiable_collider() -> MixedGraph:
    """v2 -> v4 <- v3 with confounding placed so only the v2 edge resolves."""
    return MixedGraph(
        ["v1", "v2", "v3", "v4"],
        [("v2", "v4"), ("v3", "v4")],
        [("v1", "v2"), ("v2", "v4"), ("v3", "v4")],
    )


def double_confounder() -> MixedGraph:
    """Chain v1 -> v2 -> v3 plus v1 -> v3, with v1 confounded against both."""
    return MixedGraph(
        ["v1", "v2", "v3"],
        [("v1", "v2"), ("v2", "v3"), ("v1", "v3")],
        [("v1", "v2"), ("v1", "v3")],
    )


def confounded_feedback() -> MixedGraph:
    """v1 -> v2 <-> v3 with the 2-cycle v2 <-> v3 in the directed part too."""
    return MixedGraph(
        ["v1", "v2", "v3"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v2")],
        [("v2", "v3")],
    )


def two_cycle() -> MixedGraph:
    return MixedGraph(["v1", "v2"], [("v1", "v2"), ("v2", "v1")])


def k_cycle(k: int) -> MixedGraph:
    vs = [f"v{i + 1}" for i in range(k)]
    return MixedGraph(vs, [(vs[i], vs[(i + 1) % k]) for i in range(k)])


def factor_one_big_latent() -> LatentFactorGraph:
    """One latent spanning four vertices plus two small latents; fails the
    clique counting condition at v2 <-> v3."""
    return LatentFactorGraph(
        observed=["v1", "v2", "v3", "v4", "v5"],
        latents=["l1", "l2", "l3"],
        loadings=[
            ("l1", "v1"), ("l1", "v2"), ("l1", "v3"), ("l1", "v4"),
            ("l2", "v4"), ("l2", "v5"),
            ("l3", "v3"), ("l3", "v5"),
        ],
    )


def factor_three_big_latents() -> LatentFactorGraph:
    """Same projection with the big clique covered by three latents; the
    clique counting condition holds on every projected edge."""
    return LatentFactorGraph(
        observed=["v1", "v2", "v3", "v4", "v5"],
        latents=["l1", "l2", "l3", "l4", "l5"],
        loadings=[
            ("l1", "v1"), ("l1", "v2"), ("l1", "v3"), ("l1", "v4"),
            ("l2", "v4"), ("l2", "v5"),
            ("l3", "v3"), ("l3", "v5"),
            ("l4", "v1"), ("l4", "v2"), ("l4", "v3"), ("l4", "v4"),
            ("l5", "v1"), ("l5", "v2"), ("l5", "v3"), ("l5", "v4"),
        ],
    )


def seeded_cyclic_graph(seed: int) -> MixedGraph:
    """Even seeds: disjoint cycles (some of length 1) fed by forward edges, rarely
    a stray edge; odd seeds: a random digraph.  About one in seven gets a
    bidirected edge."""
    rng = random.Random(seed)
    p = rng.randint(2, 8)
    vs = [f"v{i + 1}" for i in range(p)]
    directed = set()
    if seed % 2 == 0:
        order = rng.sample(vs, p)
        cycles = []
        while order:
            k = min(len(order), rng.choice((1, 2, 2, 3, 4)))
            cycles.append(order[:k])
            order = order[k:]
        for c in cycles:
            if len(c) > 1:
                directed |= {(c[i], c[(i + 1) % len(c)]) for i in range(len(c))}
        for i, j in combinations(range(len(cycles)), 2):
            for u in cycles[i]:
                for w in cycles[j]:
                    if rng.random() < 0.3:
                        directed.add((u, w))
        if rng.random() < 0.1:
            a, b = rng.sample(vs, 2)
            directed.add((a, b))
    else:
        d = rng.uniform(0.15, 0.6)
        directed = {(a, b) for a in vs for b in vs if a != b and rng.random() < d}
    bidirected = [tuple(rng.sample(vs, 2))] if rng.random() < 0.15 else []
    return MixedGraph(vs, sorted(directed), bidirected)


def seeded_cyclic_graphs(count: int):
    """(seed, graph) for the first `count` cyclic graphs among the `seeded_cyclic_graph` seeds."""
    seed = 0
    while count:
        g = seeded_cyclic_graph(seed)
        if not is_acyclic(g):
            count -= 1
            yield seed, g
        seed += 1
