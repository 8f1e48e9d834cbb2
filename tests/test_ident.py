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
from admgident.errors import CyclicGraph, InvalidFactorGraph, NotAParentSubset, NotCycleDecomposable
from admgident.ident import ColumnVerdict, FlowNetwork
from admgident.oracle import _enum_rank, all_bidirected_sets, all_dags
from figures import (
    confounded_diamond,
    confounded_feedback,
    double_confounder,
    factor_one_big_latent,
    factor_three_big_latents,
    half_identifiable_collider,
    iv_graph,
    k_cycle,
    seeded_cyclic_graphs,
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
    g.index(v)
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
                    col = ident._Column(g, v, g.removable(v))
                    for q in targets:
                        # combinations follow pa order; the builder sorts q itself
                        q = q[::-1]
                        assert (col.anc, col.arcs(q)[1]) == _network_one_piece(g, v, q)
        assert cyclic_graphs

    def test_template_keeps_the_parent_subset_check(self):
        # the memoised rank validates q before it reads the memo
        g = confounded_diamond()
        col, memo = ident._Column(g, "v4", g.removable("v4")), {}
        assert col.rank(["v3", "v2"], memo) == 2 and len(memo) == 1
        for call in (col.arcs, col.solve, lambda q: col.rank(q, memo)):
            with pytest.raises(NotAParentSubset):
                call(["v1"])
            with pytest.raises(NotAParentSubset):
                call(["v2", "v3", "v1"])


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


def _assert_path_system(g, paths, sources, targets, v):
    """`paths` are vertex-disjoint directed paths from `sources` onto `targets`, avoiding v."""
    used = set()
    for path in paths:
        assert path[0] in sources and path[-1] in targets and v not in path
        assert all(e in g.directed for e in zip(path, path[1:]))
        assert not used & set(path) and len(set(path)) == len(path)
        used |= set(path)
    assert sorted(path[-1] for path in paths) == sorted(targets)


DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
MERSENNE_61 = 2**61 - 1


def _rank_mod(rows, prime: int) -> int:
    """Rank over the integers mod `prime`, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], -1, prime)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inverse % prime
            if f:
                rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _modular_v_ranks(g: MixedGraph, rng: random.Random) -> dict:
    """Each column's rank of the (removable x pa) block of the path matrix, at edge
    weights drawn uniformly mod 2^61 - 1.

    By Lindstrom-Gessel-Viennot a minor of the path matrix sums the vertex-disjoint
    path systems between its rows and columns, distinct monomials in the weights,
    so the generic rank of the block is the v-rank of pa(v); by Schwartz-Zippel a
    random draw drops a nonzero minor with probability at most its degree / 2^61.
    """
    weight = {e: rng.randrange(MERSENNE_61) for e in g.directed}
    into = {}  # into[w][i]: summed weight of the directed paths from vertex i to w
    # a topological order: on a DAG u -> w implies an(u) is a proper subset of an(w)
    for w in sorted(g.vertices, key=lambda w: len(g.ancestors(w))):
        row = [0] * g.num_vertices
        row[g.index(w)] = 1
        for u in g.parents(w):
            lam = weight[u, w]
            row = [(a + lam * b) % MERSENNE_61 for a, b in zip(row, into[u])]
        into[w] = row
    ranks = {}
    for v in g.vertices:
        sources = [g.index(u) for u in removable_ancestors(g, v)]
        block = [[into[w][i] for w in g.parents(v)] for i in sources]
        ranks[v] = _rank_mod(block, MERSENNE_61)
    return ranks


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

    def test_every_report_up_to_four_vertices_agrees_with_enumeration(self):
        # All 34,959 graphs of verify's exhaustive sweep.  Ranks come from
        # path-system enumeration, cached per DAG under (removable, Q) and with
        # one search memo per DAG, as verify does.
        graphs = columns = edges = 0
        for p in range(1, 5):
            vs = [f"v{i + 1}" for i in range(p)]
            for dag in all_dags(p):
                directed = [(vs[a], vs[b]) for a, b in dag]
                ranks, searches = {}, {}

                def rank(g, removable, q):
                    if (removable, q) not in ranks:
                        ranks[removable, q] = _enum_rank(g, removable, q, searches)
                    return ranks[removable, q]

                for bid in all_bidirected_sets(p):
                    g = MixedGraph(vs, directed, [(vs[a], vs[b]) for a, b in bid])
                    report = is_matrix_identifiable(g)
                    for v, col in report.columns.items():
                        pa = g.parents(v)
                        assert col.removable == g.sort_vertices(removable_ancestors(g, v))
                        assert col.rank == rank(g, col.removable, pa)
                        assert col.identifiable == (col.rank == len(pa))
                        for u in pa:
                            drop = rank(g, col.removable, tuple(w for w in pa if w != u))
                            assert report.edges[u, v] == (drop == col.rank - 1), (g, u, v)
                            edges += 1
                        if col.identifiable:
                            _assert_path_system(g, col.witness, col.removable, pa, v)
                        assert len(col.witness) == (col.rank if col.identifiable else 0)
                        columns += 1
                    graphs += 1
        assert (graphs, columns, edges) == (34_959, 139_621, 129_412)

    def test_one_max_flow_solve_per_column(self, monkeypatch):
        # A column with pa(v) inside removable(v) is decided without a network;
        # every other column, |pa(v)| > |removable(v)| included, takes one solve.
        solves = []
        solve = ident._Dinic.max_flow

        def counting_solve(self, s, t):
            solves.append((s, t))
            return solve(self, s, t)

        monkeypatch.setattr(ident._Dinic, "max_flow", counting_solve)
        graphs_with_a_failing_column = 0
        classes = Counter()
        for density in (0.3, 0.6, 0.9):
            for seed in range(10):
                g = random_admg(6, density, seed)
                solves.clear()
                report = is_matrix_identifiable(g)
                graphs_with_a_failing_column += not report.all_identifiable
                outside = 0
                for v in g.vertices:
                    pa, removable = set(g.parents(v)), removable_ancestors(g, v)
                    inside = pa <= removable
                    outside += not inside
                    classes["inside" if inside else "too many" if len(pa) > len(removable) else "flow"] += 1
                assert len(solves) == outside
        assert graphs_with_a_failing_column  # edges into failing columns are decided too
        assert set(classes) == {"inside", "too many", "flow"}, classes

    def test_set_size_rule_agrees_with_a_forced_solve(self):
        # The report decides a column with pa(v) inside removable(v) without a
        # network, and the survey also fails |pa(v)| > |removable(v)| unsolved.
        # Here every column is solved as well, and both must agree.
        rule = Counter()
        for density in DENSITIES:
            for seed in range(10):
                g = random_admg(25, density, seed)
                report = is_matrix_identifiable(g)
                forced = {}
                for v, col in report.columns.items():
                    pa = g.parents(v)
                    removable = g.sort_vertices(removable_ancestors(g, v))
                    solved = ident._Column(g, v, g.removable(v)).solve(pa)
                    ok = forced[v] = solved.rank == len(pa)
                    assert col == ColumnVerdict(removable, solved.rank, ok, solved.paths() if ok else ()), (g, v)
                    for u in pa:
                        assert report.edges[u, v] == (ok or solved.coloop(u)), (g, u, v)
                    rule["inside" if set(pa) <= set(removable) else "too many" if len(pa) > len(removable) else "flow"] += 1
                assert matrix_generically_identifiable(g) == all(forced.values())
                assert cyclic_necessary_condition(g) == forced
        assert set(rule) == {"inside", "too many", "flow"}, rule
        for _, g in seeded_cyclic_graphs(3000):
            forced = {v: v_rank(g, v, g.parents(v)) == len(g.parents(v)) for v in g.vertices}
            assert cyclic_necessary_condition(g) == forced, g

    @pytest.mark.parametrize("p", [12, 25])
    def test_rank_equals_path_matrix_rank_mod_a_prime(self, p):
        # A third rank oracle, exact up to a Schwartz-Zippel miss, on both routes.
        rng = random.Random(p)
        routes = Counter()
        for density in DENSITIES:
            for seed in range(10):
                g = random_admg(p, density, seed)
                ranks = _modular_v_ranks(g, rng)
                for v, col in is_matrix_identifiable(g).columns.items():
                    assert col.rank == ranks[v], (g, v)
                    routes[set(g.parents(v)) <= set(col.removable)] += 1
        assert routes[True] and routes[False], routes

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
        # Each column's network needs an(v) and its removable subset; the graph
        # computes each once per column, as a memoised mask closure and a mask,
        # and the acyclicity test, the size test and the network all read them.
        closures = []
        removables = []
        closure = MixedGraph._closure
        removable_of = MixedGraph._removable_of

        def counting_closure(i, step, memo):
            closures.append(i)
            return closure(i, step, memo)

        def counting_removable_of(self, i):
            removables.append(i)
            return removable_of(self, i)

        g = random_admg(25, 0.5, 0)
        monkeypatch.setattr(MixedGraph, "_closure", staticmethod(counting_closure))
        monkeypatch.setattr(MixedGraph, "_removable_of", counting_removable_of)
        report = is_matrix_identifiable(g)
        assert sorted(closures) == list(range(g.num_vertices))
        assert sorted(removables) == list(range(g.num_vertices))
        for v, col in report.columns.items():
            assert col.removable == g.sort_vertices(removable_ancestors(g, v))

    def test_fast_path_agrees_with_report(self):
        for seed in range(40):
            g = random_admg(5, 0.5, seed)
            assert matrix_generically_identifiable(g) == is_matrix_identifiable(g).all_identifiable

    def test_size_rule_decides_dags_on_masks_without_names(self, monkeypatch):
        # With no bidirected edge every strict ancestor is removable, so pa(v) lies inside
        # removable(v): the size rule decides each column from masks, and no name is made.
        dags = []
        for seed in range(40):
            g = random_admg(25, DENSITIES[seed % len(DENSITIES)], seed)
            dags.append(MixedGraph(g.vertices, g.directed))
        calls = []
        names = MixedGraph._names

        def counting_names(self, mask):
            calls.append(mask)
            return names(self, mask)

        monkeypatch.setattr(MixedGraph, "_names", counting_names)
        for g in dags:
            assert all(ident._full_rank_by_sizes(g._pa[i], g._removable_of(i)) for i in range(25))
            assert matrix_generically_identifiable(g)
        assert calls == []


class TestCyclicChecks:
    def test_feedback_graph_fails_at_v2(self):
        verdicts = cyclic_necessary_condition(confounded_feedback())
        assert verdicts == {"v1": True, "v2": False, "v3": True}

    def test_two_cycle_passes_necessary_condition(self):
        assert all(cyclic_necessary_condition(two_cycle()).values())

    def test_seeded_cyclic_graphs_agree_with_enumeration(self):
        # The flow route on cyclic input against the path-system enumeration,
        # on the cyclic graphs of the cycle-decomposition digest.
        digest = hashlib.sha256()
        failing = 0
        for _, g in seeded_cyclic_graphs(3000):
            necessary = cyclic_necessary_condition(g)
            for v in g.vertices:
                pa = g.parents(v)
                assert necessary[v] == (brute_force_v_rank(g, v, pa) == len(pa)), (g, v)
            failing += not all(necessary.values())
            digest.update(("".join("1" if necessary[v] else "0" for v in g.vertices) + "\n").encode())
        assert failing == 137
        assert digest.hexdigest() == "0b28d40f6ac16359929dd0bfa379ef1d79e9db678913100481499d626b93118e"

    def test_dag_matches_column_verdicts(self):
        for seed in range(20):
            g = random_admg(4, 0.6, seed)
            report = is_matrix_identifiable(g)
            necessary = cyclic_necessary_condition(g)
            for v in g.vertices:
                assert necessary[v] == report.columns[v].identifiable


def _cycle_verdict(g: MixedGraph):
    try:
        return cycle_decomposition_identifiable(g)
    except NotCycleDecomposable:
        return None


class TestCycleDecomposition:
    def test_seeded_cyclic_graphs_match_stored_digest(self):
        # Verdicts and NotCycleDecomposable messages of the first 3,000 cyclic
        # graphs; the messages list each component's members, so order and
        # membership count.  A graph that does not decompose raises even when
        # a flippable 2-cycle comes before the failing component.
        digest = hashlib.sha256()
        kinds = Counter()
        for seed, g in seeded_cyclic_graphs(3000):
            try:
                out = str(cycle_decomposition_identifiable(g))
                kinds[out] += 1
            except NotCycleDecomposable as exc:
                out = f"NotCycleDecomposable: {exc}"
                kinds[next(w for w in ("bidirected", "simple", "directed") if w in str(exc))] += 1
            digest.update((out + "\n").encode())
        assert seed + 1 == 3725
        assert kinds == {"True": 276, "False": 457, "bidirected": 449, "simple": 705, "directed": 1113}
        assert digest.hexdigest() == "52f8f2b8aaa40f89c3ce34ebe0ef4cf45fc19d8ded420807f18129a365f6da2c"

    def test_verdict_does_not_depend_on_vertex_order(self):
        # Every rotation of the declaration order and of its reverse; on these
        # graphs that finds every order dependence all permutations find.
        for _, g in seeded_cyclic_graphs(1000):
            verdict = _cycle_verdict(g)
            for order in (list(g.vertices), list(reversed(g.vertices))):
                for i in range(len(order)):
                    h = MixedGraph(order[i:] + order[:i], g.directed, g.bidirected)
                    assert _cycle_verdict(h) == verdict, (g, order[i:] + order[:i])

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
        # The last two declare the flippable 2-cycle x <-> y before and after the singleton.
        graphs = [MixedGraph(["a", "x", "y"], [("a", "x"), ("x", "y"), ("y", "x")])]
        graphs += [MixedGraph(order, [("x", "y"), ("y", "x"), ("y", "a")]) for order in (["x", "y", "a"], ["a", "x", "y"])]
        for g in graphs:
            with pytest.raises(NotCycleDecomposable, match=r"component \['a'\] is not a directed cycle"):
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

    def test_mixed_graph_refused(self):
        with pytest.raises(InvalidFactorGraph, match="expected a LatentFactorGraph"):
            genericity_sufficient(confounded_diamond())

    def test_one_latent_two_children(self):
        from admgident import LatentFactorGraph

        l = LatentFactorGraph(["a", "b"], ["l"], [("l", "a"), ("l", "b")])
        assert genericity_sufficient(l) == {("a", "b"): True}
