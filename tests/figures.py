"""Small worked-example graphs, and a random-JSON strategy, shared across the test suite."""

from hypothesis import strategies as st

from admgident import LatentFactorGraph, MixedGraph

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
