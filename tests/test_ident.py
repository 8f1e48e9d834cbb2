import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admgident import (
    MixedGraph,
    brute_force_v_rank,
    build_flow_network,
    is_acyclic,
    cycle_decomposition_identifiable,
    cyclic_necessary_condition,
    genericity_sufficient,
    is_identifiable,
    is_identifiable_with_knowledge,
    is_matrix_identifiable,
    matrix_generically_identifiable,
    max_flow,
    random_admg,
    removable_ancestors,
    v_rank,
    witness_paths,
)
from admgident import ident
from admgident.errors import CyclicGraph, NotAParentSubset, NotCycleDecomposable
from admgident.ident import FlowNetwork
from figures import (
    confounded_diamond,
    confounded_feedback,
    double_confounder,
    factor_one_big_latent,
    factor_three_big_latents,
    half_identifiable_collider,
    iv_graph,
    k_cycle,
    two_cycle,
)


class TestRemovableAncestors:
    def test_diamond(self):
        g = confounded_diamond()
        assert removable_ancestors(g, "v2") == frozenset()
        assert removable_ancestors(g, "v4") == {"v1", "v2"}

    def test_collider(self):
        assert removable_ancestors(half_identifiable_collider(), "v4") == {"v2"}

    def test_never_contains_the_vertex(self):
        for g in (confounded_diamond(), double_confounder(), two_cycle()):
            for v in g.vertices:
                assert v not in removable_ancestors(g, v)


class TestFlowNetwork:
    def test_diamond_v2_structure(self):
        net = build_flow_network(confounded_diamond(), "v2", ["v1"])
        arcs = {(u, w) for u, w, _ in net.arcs}
        # no source arcs: the removable set is empty
        assert not any(u == net.source for u, w in arcs)
        assert ("v1.out", net.sink) in arcs
        assert max_flow(net) == 0

    def test_diamond_v4_structure(self):
        net = build_flow_network(confounded_diamond(), "v4", ["v2", "v3"])
        arcs = {(u, w) for u, w, _ in net.arcs}
        expected = {
            ("s", "v1.in"), ("s", "v2.in"),
            ("v1.out", "v2.in"), ("v1.out", "v3.in"),
            ("v2.out", "t"), ("v3.out", "t"),
            ("v1.in", "v1.out"), ("v2.in", "v2.out"), ("v3.in", "v3.out"),
        }
        assert arcs == expected
        assert max_flow(net) == 2

    def test_diamond_v4_order(self):
        # Dinic's tie-breaks, and so the witness paths, follow this exact order.
        net = build_flow_network(confounded_diamond(), "v4", ["v2", "v3"])
        assert net.nodes == ("s", "t", "v1.in", "v1.out", "v2.in", "v2.out", "v3.in", "v3.out")
        assert net.arcs == (
            ("v1.in", "v1.out", 1), ("v2.in", "v2.out", 1), ("v3.in", "v3.out", 1),
            ("s", "v1.in", 5), ("s", "v2.in", 5),
            ("v2.out", "t", 5), ("v3.out", "t", 5),
            ("v1.out", "v2.in", 5), ("v1.out", "v3.in", 5),
        )
        assert net.splits == (
            ("v1", "v1.in", "v1.out"), ("v2", "v2.in", "v2.out"), ("v3", "v3.in", "v3.out"),
        )

    def test_empty_target_set(self):
        net = build_flow_network(confounded_diamond(), "v4", [])
        assert max_flow(net) == 0

    def test_split_capacities_are_one(self):
        net = build_flow_network(confounded_diamond(), "v4", ["v2"])
        split_arcs = {(u, w): c for u, w, c in net.arcs}
        for _, nin, nout in net.splits:
            assert split_arcs[(nin, nout)] == 1

    def test_big_m_is_finite(self):
        net = build_flow_network(confounded_diamond(), "v4", ["v2", "v3"])
        assert all(c <= 5 for _, _, c in net.arcs)

    def test_not_a_parent_subset(self):
        with pytest.raises(NotAParentSubset):
            build_flow_network(confounded_diamond(), "v4", ["v1"])

    def test_hand_built_unit_network(self):
        net = FlowNetwork(
            nodes=("s", "t", "a.in", "a.out"),
            arcs=(("a.in", "a.out", 1), ("s", "a.in", 9), ("a.out", "t", 9)),
            source="s",
            sink="t",
            splits=(("a", "a.in", "a.out"),),
        )
        assert max_flow(net) == 1


def _network_one_piece(g, v, q):
    """The network builder as it was before the per-column template, kept as the reference."""
    g._require(v)
    q = g.sort_vertices(q)
    if not set(q) <= set(g.parents(v)):
        raise NotAParentSubset(q, v)
    anc = g.sort_vertices(g.ancestors(v) - {v})
    node_in = {u: 2 * i + 2 for i, u in enumerate(anc)}
    big_m = g.num_vertices + 1
    arcs = [(node_in[u], node_in[u] + 1, 1) for u in anc]
    arcs += [(0, node_in[u], big_m) for u in g.sort_vertices(removable_ancestors(g, v))]
    arcs += [(node_in[u] + 1, 1, big_m) for u in q]
    arcs += [(node_in[a] + 1, node_in[b], big_m) for a, b in g.directed if a in node_in and b in node_in]
    return anc, arcs


def _random_mixed_graph(p: int, density: float, seed: int) -> MixedGraph:
    """Directed edges in both directions with probability `density`, so mostly cyclic."""
    rng = random.Random(seed)
    vs = [f"v{i + 1}" for i in range(p)]
    directed = [(a, b) for a in vs for b in vs if a != b and rng.random() < density]
    bidirected = [(a, b) for a, b in combinations(vs, 2) if rng.random() < density / 2]
    return MixedGraph(vs, directed, bidirected)


class TestColumnTemplate:
    @pytest.mark.parametrize("p", [4, 7, 12, 25])
    def test_template_arcs_match_one_piece_builder(self, p):
        cyclic_graphs = 0
        for seed in range(6):
            density = (0.2, 0.5, 0.8)[seed % 3]
            for g in (random_admg(p, density, seed), _random_mixed_graph(p, min(density, 3 / p), seed)):
                cyclic_graphs += not is_acyclic(g)
                for v in g.vertices:
                    pa = g.parents(v)
                    if p <= 7:
                        targets = [q for k in range(len(pa) + 1) for q in combinations(pa, k)]
                    else:
                        targets = [pa] + [tuple(w for w in pa if w != u) for u in pa]
                    col = ident._column(g, v)
                    assert col.removable == g.sort_vertices(removable_ancestors(g, v))
                    for q in targets:
                        # combinations follow pa order; the builders sort q themselves
                        q = q[::-1]
                        expected = _network_one_piece(g, v, q)
                        assert ident._network(g, v, q) == expected
                        assert ident._network(g, v, q, col) == expected
        assert cyclic_graphs

    def test_template_keeps_the_parent_subset_check(self):
        g = confounded_diamond()
        with pytest.raises(NotAParentSubset):
            ident._network(g, "v4", ["v1"], ident._column(g, "v4"))


class TestVRank:
    def test_diamond_full_rank(self):
        assert v_rank(confounded_diamond(), "v4", ["v2", "v3"]) == 2

    def test_collider_deficient(self):
        assert v_rank(half_identifiable_collider(), "v4", ["v2", "v3"]) == 1

    def test_no_removable_ancestors(self):
        assert v_rank(confounded_diamond(), "v2", ["v1"]) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_targets(self, seed):
        g = random_admg(4, 0.6, seed)
        for v in g.vertices:
            pa = g.parents(v)
            removable = removable_ancestors(g, v)
            full = v_rank(g, v, pa)
            for size in range(len(pa) + 1):
                for q in combinations(pa, size):
                    r = v_rank(g, v, q)
                    assert r <= min(len(removable), len(q))
                    assert r <= full <= r + len(pa) - len(q)


class TestLocalCriterion:
    def test_diamond_first_column_not_identifiable(self):
        assert not is_identifiable(confounded_diamond(), "v2", ["v1"])

    def test_collider_split_verdicts(self):
        g = half_identifiable_collider()
        assert is_identifiable(g, "v4", ["v2"])
        assert not is_identifiable(g, "v4", ["v3"])

    def test_iv_graph(self):
        g = iv_graph()
        assert is_identifiable(g, "v2", ["v1"])
        assert is_identifiable(g, "v3", ["v2"])

    def test_cyclic_input_rejected(self):
        with pytest.raises(CyclicGraph):
            is_identifiable(two_cycle(), "v1", ["v2"])


def _rank_identity(g, v, q, k, rank) -> bool:
    """The known-coefficient criterion written out: r(pa - (k u q)) = r(pa - k) - |q - k|."""
    pa, q, k = set(g.parents(v)), set(q), set(k)
    return rank(g, v, pa - k - q) == rank(g, v, pa - k) - len(q - k)


def _memo(rank):
    """`rank` cached per (graph, v, target set); the identity asks for the same sets often."""
    cache = {}

    def cached(g, v, q):
        key = (id(g), v, frozenset(q))
        if key not in cache:
            cache[key] = rank(g, v, q)
        return cache[key]

    return cached


class TestKnowledgeCriterion:
    @pytest.mark.parametrize("p, cases", [(4, 2000), (5, 3000), (6, 3400), (7, 3600), (12, 3700), (25, 3800)])
    def test_agrees_with_the_rank_identity(self, p, cases):
        # The criterion runs the coloop test on one solve of pa - k; the identity
        # solves pa - (k u q) and pa - k apart.  q and k are drawn independently,
        # so they overlap, nest, or one is empty.
        rng = random.Random(p)
        rank = _memo(v_rank)
        graphs = [random_admg(p, density, seed) for seed in range(40) for density in (0.3, 0.6, 0.9)]
        checked = 0
        verdicts = Counter()
        for g in graphs:
            targets = [v for v in g.vertices if g.parents(v)]
            for v in rng.sample(targets, min(len(targets), 4)):
                pa = g.parents(v)
                for _ in range(8):
                    q = [w for w in pa if rng.random() < 0.5]
                    k = [w for w in pa if rng.random() < 0.3]
                    verdict = is_identifiable_with_knowledge(g, v, q, k)
                    assert verdict == _rank_identity(g, v, q, k, rank), (g, v, q, k)
                    verdicts[verdict] += 1
                    checked += 1
        assert checked >= cases
        assert verdicts[True] and verdicts[False]

    def test_agrees_with_the_enumerated_rank_identity(self):
        # Every (q, k) pair of every column, against ranks from exhaustive
        # path-system search, which does not use the flow engine.
        checked = 0
        for p in (3, 4, 5):
            for seed in range(60):
                g = random_admg(p, (0.4, 0.7, 0.9)[seed % 3], seed)
                rank = _memo(brute_force_v_rank)
                for v in g.vertices:
                    subsets = [q for size in range(len(g.parents(v)) + 1) for q in combinations(g.parents(v), size)]
                    for q in subsets:
                        for k in subsets:
                            assert is_identifiable_with_knowledge(g, v, q, k) == _rank_identity(g, v, q, k, rank)
                            checked += 1
        assert checked >= 10_000

    def test_one_max_flow_solve_per_query(self, monkeypatch):
        solves = []
        solve = ident._Dinic.max_flow

        def counting_solve(self, s, t):
            solves.append((s, t))
            return solve(self, s, t)

        monkeypatch.setattr(ident._Dinic, "max_flow", counting_solve)
        queries = 0
        for density in (0.3, 0.6, 0.9):
            for seed in range(10):
                g = random_admg(7, density, seed)
                for u, v in g.directed:
                    others = [w for w in g.parents(v) if w != u]
                    for k in ((), others[:1], others, (u,)):
                        solves.clear()
                        is_identifiable_with_knowledge(g, v, (u,), k)
                        assert len(solves) == 1
                        queries += 1
                    solves.clear()
                    is_identifiable(g, v, (u,))
                    assert len(solves) == 1
        assert queries > 100

    def test_known_parameters_are_identifiable(self):
        g = half_identifiable_collider()
        assert is_identifiable_with_knowledge(g, "v4", ["v2"], ["v2", "v3"])
        assert is_identifiable_with_knowledge(g, "v4", ["v3"], ["v3"])

    def test_collider_knowledge_does_not_rescue(self):
        # knowing the v2 coefficient adds no directed path into v3
        assert not is_identifiable_with_knowledge(
            half_identifiable_collider(), "v4", ["v3"], ["v2"]
        )


class TestMatrixReport:
    def test_diamond_report(self):
        report = is_matrix_identifiable(confounded_diamond())
        assert not report.all_identifiable
        assert report.edges == {
            ("v1", "v2"): False,
            ("v1", "v3"): True,
            ("v2", "v4"): True,
            ("v3", "v4"): True,
        }
        assert report.columns["v4"].identifiable
        assert report.columns["v4"].rank == 2
        assert not report.columns["v2"].identifiable

    def test_double_confounder_all_identifiable(self):
        report = is_matrix_identifiable(double_confounder())
        assert report.all_identifiable
        assert all(report.edges.values())

    def test_dag_without_confounding_identifiable(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        assert matrix_generically_identifiable(g)

    def test_witnesses_are_disjoint_paths(self):
        g = confounded_diamond()
        report = is_matrix_identifiable(g)
        col = report.columns["v4"]
        used = set()
        targets = []
        for path in col.witness:
            assert removable_ancestors(g, "v4") >= {path[0]}
            for a, b in zip(path, path[1:]):
                assert (a, b) in set(g.directed)
            assert not used & set(path)
            used |= set(path)
            targets.append(path[-1])
        assert sorted(targets) == ["v2", "v3"]

    def test_deterministic_reports(self):
        a = is_matrix_identifiable(confounded_diamond())
        b = is_matrix_identifiable(confounded_diamond())
        assert a == b

    def test_report_json_shape(self):
        doc = json.loads(is_matrix_identifiable(confounded_diamond()).to_json())
        assert set(doc) == {"columns", "edges"}
        assert doc["edges"]["v2->v4"] is True
        assert doc["columns"]["v4"]["removable"] == ["v1", "v2"]
        assert doc["columns"]["v4"]["witness"] == [["v1", "v3"], ["v2"]]

    @pytest.mark.parametrize("p", [4, 5, 6, 7, 12, 25])
    @pytest.mark.parametrize("density", [0.3, 0.6, 0.9])
    def test_report_agrees_with_single_edge_and_rank_criteria(self, p, density):
        # The edge verdicts come from one residual graph per column; the rank
        # identity r(pa(v) - u) = r(pa(v)) - 1 solves the two sets apart, so it
        # is the differential oracle.  is_identifiable runs the report's own test.
        for seed in range(10 if p < 12 else 5):
            g = random_admg(p, density, seed)
            report = is_matrix_identifiable(g)
            for (u, v), ok in report.edges.items():
                assert ok == _rank_identity(g, v, (u,), (), v_rank) == is_identifiable(g, v, (u,))
            for v, col in report.columns.items():
                assert col.rank == v_rank(g, v, g.parents(v))
                if col.identifiable:
                    assert col.rank == len(col.witness) == len(g.parents(v))
                else:
                    assert col.witness == ()

    def test_one_max_flow_solve_per_column(self, monkeypatch):
        solves = []
        solve = ident._Dinic.max_flow

        def counting_solve(self, s, t):
            solves.append((s, t))
            return solve(self, s, t)

        monkeypatch.setattr(ident._Dinic, "max_flow", counting_solve)
        graphs_with_a_failing_column = 0
        for density in (0.3, 0.6, 0.9):
            for seed in range(10):
                g = random_admg(6, density, seed)
                solves.clear()
                report = is_matrix_identifiable(g)
                graphs_with_a_failing_column += not report.all_identifiable
                assert len(solves) == g.num_vertices
        assert graphs_with_a_failing_column  # edges into failing columns are decided too

    def test_reports_match_stored_digest(self):
        # SHA-256 of the concatenated reports, recorded when each edge verdict
        # still took a second flow solve on pa(v) - u.
        digest = hashlib.sha256()
        for p in (5, 12, 25):
            for density in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                for seed in range(10):
                    digest.update(is_matrix_identifiable(random_admg(p, density, seed)).to_json().encode())
        assert digest.hexdigest() == "5d717f77284bd6337ea35dfb80a7af62c50959d9f939b414c4249d2c981b7d35"

    def test_one_ancestor_search_and_one_removable_set_per_column(self, monkeypatch):
        # Each column's network needs an(v) and its removable subset; the report
        # reads both from that network instead of computing them again.
        reaches = []
        removables = []
        reach = MixedGraph._reach
        removable = ident.removable_ancestors

        def counting_reach(self, start, step):
            reaches.append(start)
            return reach(self, start, step)

        def counting_removable(g, v):
            removables.append(v)
            return removable(g, v)

        g = random_admg(25, 0.5, 0)
        monkeypatch.setattr(MixedGraph, "_reach", counting_reach)
        monkeypatch.setattr(ident, "removable_ancestors", counting_removable)
        report = is_matrix_identifiable(g)
        assert len(reaches) <= g.num_vertices
        assert sorted(removables) == sorted(g.vertices)
        for v, col in report.columns.items():
            assert col.removable == g.sort_vertices(removable(g, v))

    def test_fast_path_agrees_with_report(self):
        for seed in range(40):
            g = random_admg(5, 0.5, seed)
            assert matrix_generically_identifiable(g) == is_matrix_identifiable(g).all_identifiable


class TestCyclicChecks:
    def test_feedback_graph_fails_at_v2(self):
        verdicts = cyclic_necessary_condition(confounded_feedback())
        assert verdicts == {"v1": True, "v2": False, "v3": True}

    def test_two_cycle_passes_necessary_condition(self):
        assert all(cyclic_necessary_condition(two_cycle()).values())

    def test_dag_matches_column_verdicts(self):
        for seed in range(20):
            g = random_admg(4, 0.6, seed)
            report = is_matrix_identifiable(g)
            necessary = cyclic_necessary_condition(g)
            for v in g.vertices:
                assert necessary[v] == report.columns[v].identifiable


def _cyclic_graph(seed: int) -> MixedGraph:
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


class TestCycleDecomposition:
    def test_seeded_cyclic_graphs_match_stored_digest(self):
        # Verdicts and NotCycleDecomposable messages of the first 3,000 cyclic
        # graphs, recorded when components came from a Kosaraju pass; the
        # messages list each component's members, so order and membership count.
        digest = hashlib.sha256()
        kinds = Counter()
        seed = 0
        while sum(kinds.values()) < 3000:
            g = _cyclic_graph(seed)
            seed += 1
            if is_acyclic(g):
                continue
            try:
                out = str(cycle_decomposition_identifiable(g))
                kinds[out] += 1
            except NotCycleDecomposable as exc:
                out = f"NotCycleDecomposable: {exc}"
                kinds[next(w for w in ("bidirected", "simple", "directed") if w in str(exc))] += 1
            digest.update((out + "\n").encode())
        assert seed == 3725
        assert kinds == {"True": 276, "False": 763, "bidirected": 449, "simple": 704, "directed": 808}
        assert digest.hexdigest() == "1a967b65435fd894ead2c1040fb28e31d593738a86c7b84d20803c9237b20fe0"

    def test_two_cycle_not_identifiable(self):
        assert not cycle_decomposition_identifiable(two_cycle())

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_longer_cycles_identifiable(self, k):
        assert cycle_decomposition_identifiable(k_cycle(k))

    def test_fed_two_cycle_with_shared_parents_flips(self):
        # both members read the same outside parent, so the cycle reversal
        # extends to a second valid parameterization
        g = MixedGraph(
            ["a", "b", "c", "x", "y"],
            [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "x"), ("a", "x"), ("a", "y")],
        )
        assert not cycle_decomposition_identifiable(g)

    def test_fed_two_cycle_with_distinct_parents_identifiable(self):
        g = MixedGraph(
            ["a", "b", "c", "x", "y"],
            [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "x"), ("a", "x")],
        )
        assert cycle_decomposition_identifiable(g)

    def test_bidirected_edges_not_decomposable(self):
        with pytest.raises(NotCycleDecomposable):
            cycle_decomposition_identifiable(confounded_feedback())

    def test_singleton_component_not_decomposable(self):
        g = MixedGraph(["a", "x", "y"], [("a", "x"), ("x", "y"), ("y", "x")])
        with pytest.raises(NotCycleDecomposable):
            cycle_decomposition_identifiable(g)

    def test_chorded_component_not_a_simple_cycle(self):
        vs = ["a", "b", "c", "d"]
        g = MixedGraph(vs, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"), ("c", "a")])
        with pytest.raises(NotCycleDecomposable):
            cycle_decomposition_identifiable(g)


class TestGenericitySufficient:
    def test_big_latent_fails_at_inner_edge(self):
        verdicts = genericity_sufficient(factor_one_big_latent())
        assert verdicts[("v2", "v3")] is False
        assert verdicts[("v4", "v5")] is True

    def test_three_big_latents_pass_everywhere(self):
        verdicts = genericity_sufficient(factor_three_big_latents())
        assert verdicts and all(verdicts.values())

    def test_one_latent_two_children(self):
        from admgident import LatentFactorGraph

        l = LatentFactorGraph(["a", "b"], ["l"], [("l", "a"), ("l", "b")])
        assert genericity_sufficient(l) == {("a", "b"): True}
