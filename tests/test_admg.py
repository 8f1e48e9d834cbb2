import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admgident import (
    MixedGraph,
    LatentFactorGraph,
    bidirected_connected_components,
    graph_from_json,
    graph_to_json,
    is_acyclic,
    latent_projection_bidirected,
)
from admgident.errors import (
    DuplicateVertex,
    GraphFormatError,
    InvalidFactorGraph,
    SelfLoop,
    UnknownVertex,
)
from figures import confounded_diamond, iv_graph, two_cycle


@st.composite
def small_graphs(draw):
    p = draw(st.integers(min_value=1, max_value=5))
    vs = [f"v{i + 1}" for i in range(p)]
    pairs = [(a, b) for a in vs for b in vs if a != b]
    directed = draw(st.lists(st.sampled_from(pairs), max_size=8) if pairs else st.just([]))
    unordered = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    bidirected = draw(st.lists(st.sampled_from(unordered), max_size=6) if unordered else st.just([]))
    return MixedGraph(vs, directed, bidirected)


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            MixedGraph(["v1", "v2"], [("v1", "v1")])

    def test_bidirected_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            MixedGraph(["v1", "v2"], [], [("v2", "v2")])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            MixedGraph(["v1", "v2"], [("v1", "v9")])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertex):
            MixedGraph(["v1", "v1"])


class TestAcyclicityAndOrder:
    def test_diamond_acyclic(self):
        assert is_acyclic(confounded_diamond())

    def test_two_cycle_not_acyclic(self):
        assert not is_acyclic(two_cycle())

    def test_empty_graph_acyclic(self):
        assert is_acyclic(MixedGraph(["v1", "v2", "v3"]))


class TestRelations:
    def test_diamond_v4(self):
        g = confounded_diamond()
        assert g.parents("v4") == ("v2", "v3")
        assert g.ancestors("v4") == {"v1", "v2", "v3", "v4"}
        assert g.siblings("v4") == ("v2", "v3")

    def test_diamond_v1(self):
        g = confounded_diamond()
        assert g.parents("v1") == ()
        assert g.ancestors("v1") == {"v1"}
        assert g.siblings("v1") == ("v2",)

    def test_isolated_vertex_trivial_paths(self):
        g = MixedGraph(["u", "w"], [], [])
        assert g.parents("u") == () and g.children("u") == () and g.siblings("u") == ()
        assert g.ancestors("u") == {"u"} and g.descendants("u") == {"u"}

    def test_unknown_vertex(self):
        g = confounded_diamond()
        for lookup in (g.parents, g.children, g.siblings):
            with pytest.raises(UnknownVertex):
                lookup("v9")
        for lookup in (g.ancestors, g.descendants):
            for _ in range(2):  # a failed lookup stores nothing
                with pytest.raises(UnknownVertex):
                    lookup("v9")

    def test_each_search_runs_once_per_graph(self, monkeypatch):
        # One mask closure per vertex and direction; every later lookup reads the memo.
        searches = []
        closure = MixedGraph._closure

        def counting_closure(i, step, memo):
            searches.append((i, id(memo)))
            return closure(i, step, memo)

        monkeypatch.setattr(MixedGraph, "_closure", staticmethod(counting_closure))
        g = confounded_diamond()
        for _ in range(3):
            assert [g.ancestors(v) for v in g.vertices] == [{"v1"}, {"v1", "v2"}, {"v1", "v3"}, set(g.vertices)]
            assert [g.descendants(v) for v in g.vertices] == [set(g.vertices), {"v2", "v4"}, {"v3", "v4"}, {"v4"}]
            assert is_acyclic(g)
        assert sorted(searches) == sorted({(i, id(m)) for i in range(4) for m in (g._an_masks, g._de_masks)})

    def test_reachability_on_cyclic_graph(self):
        g = MixedGraph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3"), ("v3", "v2")])
        assert g.ancestors("v2") == {"v1", "v2", "v3"}
        assert g.descendants("v2") == {"v2", "v3"}

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_genealogy_conventions(self, g):
        for v in g.vertices:
            assert set(g.parents(v)) <= g.ancestors(v)
            assert set(g.children(v)) <= g.descendants(v)
            assert v in g.ancestors(v) and v in g.descendants(v)
            for u in g.siblings(v):
                assert v in g.siblings(u)


class TestBidirectedComponents:
    def test_diamond_single_component(self):
        assert bidirected_connected_components(confounded_diamond()) == (
            frozenset({"v1", "v2", "v3", "v4"}),
        )

    def test_iv_graph_components(self):
        assert bidirected_connected_components(iv_graph()) == (
            frozenset({"v1"}),
            frozenset({"v2", "v3"}),
        )

    def test_no_bidirected_all_singletons(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b")])
        assert bidirected_connected_components(g) == (
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
        )


    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_match_union_find(self, seed):
        rng = random.Random(seed)
        p = rng.randint(1, 12)
        vs = [f"v{i + 1}" for i in range(p)]
        d = rng.uniform(0.0, 0.4)
        bidirected = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < d]
        directed = [(a, b) for a in vs for b in vs if a != b and rng.random() < 0.2]
        parent = {v: v for v in vs}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for a, b in bidirected:
            parent[find(b)] = find(a)
        expected = {}
        for v in vs:  # first members in declaration order, members too
            expected.setdefault(find(v), []).append(v)
        g = MixedGraph(vs, directed, bidirected)
        got = [sorted(c, key=g.index) for c in bidirected_connected_components(g)]
        assert got == list(expected.values())


class TestLatentProjection:
    def test_pure_factor_required(self):
        for loadings, needle in (
            ([("a", "b")], "is not a latent node"),
            ([("l", "m")], "'m' is not observed"),
        ):
            with pytest.raises(InvalidFactorGraph, match=needle):
                LatentFactorGraph(["a", "b"], ["l", "m"], loadings)

    @pytest.mark.parametrize("observed, latents", [(["a", "a"], ["l"]), (["a", "b"], ["b"])])
    def test_duplicate_name_rejected(self, observed, latents):
        # observed and latent nodes share one name space
        with pytest.raises(DuplicateVertex):
            LatentFactorGraph(observed, latents, [])

    def test_single_latent_two_children(self):
        l = LatentFactorGraph(["a", "b"], ["l"], [("l", "a"), ("l", "b")])
        assert latent_projection_bidirected(l).bidirected == (("a", "b"),)

    def test_single_child_no_edges(self):
        l = LatentFactorGraph(["a", "b"], ["l"], [("l", "a")])
        assert latent_projection_bidirected(l).bidirected == ()

    def test_overlapping_latents(self):
        l = LatentFactorGraph(
            ["v1", "v2", "v3", "v4", "v5"],
            ["l1", "l2", "l3"],
            [("l1", "v1"), ("l1", "v2"), ("l1", "v3"), ("l1", "v4"),
             ("l2", "v4"), ("l2", "v5"), ("l3", "v3"), ("l3", "v5")],
        )
        proj = latent_projection_bidirected(l)
        expected = {
            ("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v3"),
            ("v2", "v4"), ("v3", "v4"), ("v4", "v5"), ("v3", "v5"),
        }
        assert set(proj.bidirected) == expected
        assert proj.directed == ()

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(["l1", "l2", "l3"]))
    def test_projection_invariant_to_latent_relabeling(self, names):
        base = ["l1", "l2", "l3"]
        rename = dict(zip(base, names))
        loadings = [("l1", "v1"), ("l1", "v2"), ("l2", "v2"), ("l2", "v3"), ("l3", "v1")]
        l1 = LatentFactorGraph(["v1", "v2", "v3"], base, loadings)
        l2 = LatentFactorGraph(
            ["v1", "v2", "v3"], names, [(rename[l], v) for l, v in loadings]
        )
        assert latent_projection_bidirected(l1) == latent_projection_bidirected(l2)


class TestJson:
    def test_round_trip(self):
        g = confounded_diamond()
        assert graph_from_json(graph_to_json(g)) == g

    def test_bidirected_order_insensitive(self):
        a = graph_from_json('{"vertices": ["a", "b"], "bidirected": [["b", "a"]]}')
        b = graph_from_json('{"vertices": ["a", "b"], "bidirected": [["a", "b"]]}')
        assert a == b

    def test_unknown_keys_rejected(self):
        with pytest.raises(GraphFormatError):
            graph_from_json('{"vertices": ["a"], "extra": 1}')

    def test_not_json(self):
        with pytest.raises(GraphFormatError):
            graph_from_json("not json")

    def test_vertices_required(self):
        with pytest.raises(GraphFormatError):
            graph_from_json('{"directed": []}')
