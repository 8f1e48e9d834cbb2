import hashlib
import json
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product

import numpy as np
import pytest

from admgident import (
    MixedGraph,
    ParamMatrix,
    a_matrix,
    brute_force_v_rank,
    cross_check_graph,
    enumerate_path_systems,
    fiber_dimension,
    fiber_dimension_modal,
    fiber_q_unique,
    gvl_check,
    is_identifiable_with_knowledge,
    nongeneric_locus_check,
    path_matrix,
    random_admg,
    removable_ancestors,
    v_rank,
    verify_sweep,
)
from admgident import ident, oracle
from admgident.errors import (
    BindingMismatch,
    CyclicGraph,
    InvalidDrawCount,
    NotAParentSubset,
    SingularMatrix,
    SizeMismatch,
    TooLarge,
)
from admgident.oracle import all_bidirected_sets, all_dags, generic_parameters
from figures import confounded_diamond, double_confounder, half_identifiable_collider, two_cycle


def diamond_params(l12=2.0, l13=3.0, l24=4.0, l34=5.0):
    return ParamMatrix(
        confounded_diamond(),
        {("v1", "v2"): l12, ("v1", "v3"): l13, ("v2", "v4"): l24, ("v3", "v4"): l34},
    )


class TestParamMatrix:
    def test_support_must_be_directed_edges(self):
        with pytest.raises(BindingMismatch):
            ParamMatrix(confounded_diamond(), {("v4", "v1"): 1.0})

    def test_dense_layout(self):
        lam = diamond_params()
        dense = lam.dense()
        g = lam.graph
        assert dense[g.index("v1"), g.index("v2")] == 2.0
        assert dense[g.index("v2"), g.index("v1")] == 0.0

    def test_json_round_trip(self):
        # Keys are read against the graph's edges, so a vertex name may hold "->".
        arrow = MixedGraph(["x->y", "z", "w"], [("x->y", "z"), ("z", "w")])
        for lam in (diamond_params(), ParamMatrix(arrow, {("x->y", "z"): 1.5, ("z", "w"): -0.25})):
            back = ParamMatrix.from_json(lam.graph, lam.to_json())
            assert back.values == lam.values

    def test_edges_rendering_one_key_are_refused(self):
        # a -> "b->c" and "a->b" -> c both render as "a->b->c": writing must not drop either
        # coefficient, and reading must not bind the key to one of them.
        g = MixedGraph(["a", "b->c", "a->b", "c"], [("a", "b->c"), ("a->b", "c")])
        for call in (
            lambda: ParamMatrix(g, {("a", "b->c"): 1.0, ("a->b", "c"): 2.0}).to_json(),
            lambda: ParamMatrix.from_json(g, '{"edges": {"a->b->c": 1.0}}'),
        ):
            with pytest.raises(BindingMismatch, match=r"\('a', 'b->c'\) and \('a->b', 'c'\).*'a->b->c'"):
                call()


class TestParentSubset:
    """Every entry point that takes a parent subset q (or pinned k) of column v checks it with
    `MixedGraph.parent_subset`, so each refuses a non-parent with one message."""

    # On a -> b -> c -> d with b <-> c, a is an ancestor of c but not a parent, and d a child: as
    # a target the enumeration would count the trivial path d, as a pinned vertex a fiber would
    # drop no coordinate.  The refused set is always ["a", "d"].
    G = MixedGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")], [("b", "c")])
    LAM = generic_parameters(G, np.random.default_rng(16))
    BAD = ["d", "a"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, lam, bad: v_rank(g, "c", bad),
            lambda g, lam, bad: ident.witness_paths(g, "c", bad),
            lambda g, lam, bad: ident.build_flow_network(g, "c", bad),
            lambda g, lam, bad: is_identifiable_with_knowledge(g, "c", bad, ()),
            lambda g, lam, bad: is_identifiable_with_knowledge(g, "c", ["b"], bad),
            lambda g, lam, bad: brute_force_v_rank(g, "c", bad),
            lambda g, lam, bad: fiber_dimension(g, lam, "c", pinned=bad),
            lambda g, lam, bad: fiber_dimension_modal(g, "c", pinned=bad),
            lambda g, lam, bad: fiber_q_unique(g, lam, "c", bad),
            lambda g, lam, bad: fiber_q_unique(g, lam, "c", ["b"], bad),
        ],
        ids=[
            "v_rank",
            "witness_paths",
            "build_flow_network",
            "is_identifiable_with_knowledge-q",
            "is_identifiable_with_knowledge-k",
            "brute_force_v_rank",
            "fiber_dimension",
            "fiber_dimension_modal",
            "fiber_q_unique-q",
            "fiber_q_unique-k",
        ],
    )
    def test_every_entry_point_refuses_a_non_parent(self, call):
        with pytest.raises(NotAParentSubset) as caught:
            call(self.G, self.LAM, self.BAD)
        assert str(caught.value) == "['a', 'd'] is not a subset of the parents of 'c'"

    def test_parent_subset_returns_declaration_order(self):
        g = half_identifiable_collider()
        pa = g.parents("v4")
        assert len(pa) > 1 and g.parent_subset("v4", pa[::-1]) == pa
        assert g.parent_subset("v4", set(pa)) == pa
        assert g.parent_subset("v4", ()) == ()

    def test_a_non_parent_in_q_wins_over_an_unknown_vertex_in_k(self):
        with pytest.raises(NotAParentSubset):
            is_identifiable_with_knowledge(self.G, "c", ["a"], ["nowhere"])


class TestBinding:
    """Every function that takes (g, lam) refuses a lam bound to another graph, one that declares
    g's own vertices in another order included, with BindingMismatch."""

    # Read at g's indices, lam's path matrix would give wrong values, not an error: the two
    # sides of the gvl identity disagree.
    EDGES = [("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v4")]
    G = MixedGraph(["v1", "v2", "v3", "v4"], EDGES, [("v1", "v4")])
    VALUES = {("v1", "v2"): 2.0, ("v1", "v3"): -1.5, ("v2", "v4"): 3.0, ("v3", "v4"): 2.7}
    FOREIGN = ParamMatrix(MixedGraph(["v4", "v3", "v2", "v1"], EDGES, [("v1", "v4")]), VALUES)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, lam: gvl_check(g, lam, ["v1"], ["v4"]),
            lambda g, lam: oracle.system_matrix(g, lam, "v4"),
            lambda g, lam: fiber_dimension(g, lam, "v4"),
            lambda g, lam: fiber_q_unique(g, lam, "v4", ["v2"]),
            lambda g, lam: nongeneric_locus_check(g, lam, "v4"),
        ],
        ids=["gvl_check", "system_matrix", "fiber_dimension", "fiber_q_unique", "nongeneric_locus_check"],
    )
    def test_every_entry_point_refuses_a_foreign_binding(self, call):
        with pytest.raises(BindingMismatch, match="bound to a different graph"):
            call(self.G, self.FOREIGN)
        call(self.G, ParamMatrix(self.G, self.VALUES))

    def test_gvl_sides_agree_when_bound(self):
        det, path_sum = gvl_check(self.G, ParamMatrix(self.G, self.VALUES), ["v1"], ["v4"])
        assert det == pytest.approx(path_sum, abs=1e-12) and path_sum == pytest.approx(2.0 * 3.0 - 1.5 * 2.7)


class TestPathMatrix:
    def test_diamond_path_entry(self):
        b = path_matrix(diamond_params())
        g = confounded_diamond()
        # two directed paths from v1 to v4: 2*4 + 3*5
        assert b[g.index("v4"), g.index("v1")] == pytest.approx(23.0, abs=1e-12)

    def test_zero_matrix_gives_identity(self):
        lam = ParamMatrix(confounded_diamond(), {})
        assert np.array_equal(path_matrix(lam), np.eye(4))

    def test_structural_zeros_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            lam = generic_parameters(confounded_diamond(), rng)
            b = path_matrix(lam)
            g = lam.graph
            for u in g.vertices:
                for w in g.vertices:
                    if w not in g.descendants(u):
                        assert b[g.index(w), g.index(u)] == 0.0

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        lam = generic_parameters(confounded_diamond(), rng)
        b = path_matrix(lam)
        res = b @ (np.eye(4) - lam.dense()).T
        assert np.max(np.abs(res - np.eye(4))) < 1e-10

    def test_singular_cycle_detected(self):
        g = two_cycle()
        lam = ParamMatrix(g, {("v1", "v2"): 1.0, ("v2", "v1"): 1.0})
        with pytest.raises(SingularMatrix):
            path_matrix(lam)

    def test_regular_cycle_inverts(self):
        g = two_cycle()
        lam = ParamMatrix(g, {("v1", "v2"): 0.5, ("v2", "v1"): 0.5})
        b = path_matrix(lam)
        res = b @ (np.eye(2) - lam.dense()).T
        assert np.max(np.abs(res - np.eye(2))) < 1e-10


class TestEnumeration:
    def test_diamond_contains_trivial_and_real_path(self):
        systems = enumerate_path_systems(confounded_diamond(), ["v1", "v2"], ["v2", "v3"])
        assert (("v1", "v3"), ("v2",)) in systems

    def test_empty_sets_single_empty_system(self):
        assert enumerate_path_systems(confounded_diamond(), [], []) == [()]

    def test_no_paths(self):
        assert enumerate_path_systems(half_identifiable_collider(), ["v2"], ["v3"]) == []

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            enumerate_path_systems(confounded_diamond(), ["v1"], ["v2", "v3"])

    def test_cap_enforced(self):
        with pytest.raises(TooLarge):
            enumerate_path_systems(confounded_diamond(), ["v1", "v2"], ["v3", "v4"], cap=2)

    def test_systems_are_vertex_disjoint(self):
        for system in enumerate_path_systems(confounded_diamond(), ["v1", "v2"], ["v2", "v4"]):
            seen = set()
            for path in system:
                assert not seen & set(path)
                seen |= set(path)


class TestGvl:
    def test_diamond_agreement_random_draws(self):
        g = confounded_diamond()
        rng = np.random.default_rng(42)
        for _ in range(100):
            lam = generic_parameters(g, rng)
            det, path_sum = gvl_check(g, lam, ["v1", "v2"], ["v3", "v4"])
            assert abs(det - path_sum) <= 1e-8 * (1 + abs(det))

    def test_odd_permutation_enters_with_a_minus_sign(self):
        # K_{2,2}: one system keeps the column order, the other swaps it, so
        # det = ac * bd - ad * bc = 0.125 + 3.0.
        g = MixedGraph(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        lam = ParamMatrix(g, {("a", "c"): 0.5, ("a", "d"): 2.0, ("b", "c"): -1.5, ("b", "d"): 0.25})
        ends = sorted(tuple(path[-1] for path in system) for system in enumerate_path_systems(g, ["a", "b"], ["c", "d"]))
        assert ends == [("c", "d"), ("d", "c")]
        det, path_sum = gvl_check(g, lam, ["a", "b"], ["c", "d"])
        assert path_sum == 3.125
        assert det == pytest.approx(3.125, abs=1e-12)

    def test_empty_system_means_zero_determinant(self):
        g = half_identifiable_collider()
        lam = generic_parameters(g, np.random.default_rng(3))
        det, path_sum = gvl_check(g, lam, ["v2"], ["v3"])
        assert path_sum == 0.0
        assert abs(det) <= 1e-12

    def test_antichain_identity(self):
        g = confounded_diamond()
        lam = generic_parameters(g, np.random.default_rng(4))
        det, path_sum = gvl_check(g, lam, ["v2", "v3"], ["v2", "v3"])
        assert det == pytest.approx(1.0, abs=1e-12)
        assert path_sum == 1.0

    def test_too_many_vertices(self):
        g = MixedGraph([f"v{i}" for i in range(9)])
        with pytest.raises(TooLarge):
            gvl_check(g, ParamMatrix(g, {}), [], [])

    def test_unequal_sizes(self):
        g = confounded_diamond()
        with pytest.raises(SizeMismatch):
            gvl_check(g, ParamMatrix(g, {}), ["v1"], ["v3", "v4"])


class TestAMatrix:
    def test_same_parameters_give_identity(self):
        lam = diamond_params()
        assert np.allclose(a_matrix(lam.graph, lam, lam), np.eye(4), atol=1e-12)

    def test_zero_parameters_give_identity(self):
        g = confounded_diamond()
        zero = ParamMatrix(g, {})
        assert np.array_equal(a_matrix(g, zero, zero), np.eye(4))

    def test_single_column_change_keeps_other_rows(self):
        g = confounded_diamond()
        rng = np.random.default_rng(9)
        lam = generic_parameters(g, rng)
        changed = dict(lam.values)
        changed[("v2", "v4")] = changed[("v2", "v4")] + 1.5
        changed[("v3", "v4")] = changed[("v3", "v4")] - 0.5
        a = a_matrix(g, lam, ParamMatrix(g, changed))
        for v in ("v1", "v2", "v3"):
            iv = g.index(v)
            assert np.allclose(a[iv], np.eye(4)[iv], atol=1e-12)
        assert not np.allclose(a[g.index("v4")], np.eye(4)[g.index("v4")])

    def test_matches_matrix_product(self):
        g = confounded_diamond()
        rng = np.random.default_rng(10)
        lam, lt = generic_parameters(g, rng), generic_parameters(g, rng)
        direct = (np.eye(4) - lt.dense()).T @ path_matrix(lam)
        assert np.allclose(a_matrix(g, lam, lt), direct, atol=1e-10)

    def test_zero_pattern_exact(self):
        g = confounded_diamond()
        rng = np.random.default_rng(11)
        lam, lt = generic_parameters(g, rng), generic_parameters(g, rng)
        a = a_matrix(g, lam, lt)
        for u in g.vertices:
            for v in g.vertices:
                if v not in g.descendants(u):
                    assert a[g.index(v), g.index(u)] == 0.0

    def test_binding_mismatch(self):
        with pytest.raises(BindingMismatch):
            a_matrix(confounded_diamond(), diamond_params(), ParamMatrix(iv(), {}))

    def test_cyclic_graph_rejected(self):
        lam = ParamMatrix(two_cycle(), {("v1", "v2"): 0.5})
        with pytest.raises(CyclicGraph):
            a_matrix(two_cycle(), lam, lam)


def iv():
    return MixedGraph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")], [("v2", "v3")])


class TestFiber:
    def test_diamond_unique_last_column(self):
        lam = generic_parameters(confounded_diamond(), np.random.default_rng(12))
        assert fiber_dimension(lam.graph, lam, "v4") == 0

    def test_diamond_free_first_column(self):
        lam = generic_parameters(confounded_diamond(), np.random.default_rng(13))
        assert fiber_dimension(lam.graph, lam, "v2") == 1

    def test_collider_one_free_direction(self):
        g = half_identifiable_collider()
        lam = generic_parameters(g, np.random.default_rng(14))
        assert fiber_dimension(g, lam, "v4") == 1
        assert fiber_q_unique(g, lam, "v4", ["v2"])
        assert not fiber_q_unique(g, lam, "v4", ["v3"])

    def test_modal_dimensions(self):
        assert fiber_dimension_modal(confounded_diamond(), "v4", seed=5) == 0
        assert fiber_dimension_modal(confounded_diamond(), "v2", seed=5) == 1

    def test_modal_dimensions_match_stored_digest(self):
        # Every pinned subset of every column of 54 seeded graphs, with 1-5 draws;
        # recorded when each draw ran `fiber_dimension` and a Counter took the mode.
        digest = hashlib.sha256()
        values = Counter()
        for p in (4, 5, 6):
            for density in (0.3, 0.6, 0.9):
                for seed in range(6):
                    g = random_admg(p, density, seed)
                    for v in g.vertices:
                        pa = g.parents(v)
                        for pinned in (c for size in range(len(pa) + 1) for c in combinations(pa, size)):
                            d = fiber_dimension_modal(g, v, pinned, seed=seed, draws=1 + seed % 5)
                            digest.update(f"{d}\n".encode())
                            values[d] += 1
        assert values == {0: 683, 1: 155, 2: 106, 3: 53, 4: 15, 5: 2}
        assert digest.hexdigest() == "660a325e8c421b27b459e58685e4dd5fe1f1717de481408b67d7e41ff9aebb5c"

    def test_dimension_rejects_cyclic_graphs(self):
        with pytest.raises(CyclicGraph):
            fiber_dimension(two_cycle(), ParamMatrix(two_cycle(), {("v1", "v2"): 0.5}), "v1")

    def test_modal_dimension_rejects_cyclic_graphs(self):
        with pytest.raises(CyclicGraph):
            fiber_dimension_modal(two_cycle(), "v1")
        # The batched draws sum a power series, which only a nilpotent binding ends.
        with pytest.raises(CyclicGraph):
            oracle.draw_b_stack(two_cycle(), np.random.default_rng(0), 5)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_draw_count_below_one_rejected(self, draws):
        # v4 has removable ancestors and free parents, so a modal rank over no draws has no mode
        for call in (
            lambda: fiber_dimension_modal(confounded_diamond(), "v4", draws=draws),
            lambda: cross_check_graph(confounded_diamond(), draws=draws),
        ):
            with pytest.raises(InvalidDrawCount, match=f"got {draws}$"):
                call()

    def test_pinning_reduces_dimension(self):
        g = confounded_diamond()
        lam = generic_parameters(g, np.random.default_rng(15))
        assert fiber_dimension(g, lam, "v2", pinned=["v1"]) == 0

    def test_fiber_matches_flow_rank(self):
        for seed in range(25):
            g = random_admg(4, 0.6, seed)
            lam = generic_parameters(g, np.random.default_rng(seed))
            for v in g.vertices:
                pa = g.parents(v)
                assert fiber_dimension(g, lam, v) == len(pa) - v_rank(g, v, pa)


class TestNongenericLocus:
    def test_rank_drop_detected_on_diamond(self):
        # the last column loses rank exactly when the v1 -> v3 weight vanishes
        g = confounded_diamond()
        lam = ParamMatrix(
            g, {("v1", "v2"): 2.0, ("v1", "v3"): 0.0, ("v2", "v4"): 4.0, ("v3", "v4"): 5.0}
        )
        assert nongeneric_locus_check(g, lam, "v4")
        assert not nongeneric_locus_check(g, diamond_params(), "v4")

    def test_double_confounder_minor_is_unimodular(self):
        # the parent-by-removable block of this graph has determinant
        # identically one, so no parameter point can drop its rank
        g = double_confounder()
        lam = ParamMatrix(g, {("v1", "v2"): 1.0, ("v2", "v3"): 0.5, ("v1", "v3"): 0.5})
        assert not nongeneric_locus_check(g, lam, "v3")
        assert not nongeneric_locus_check(g, ParamMatrix(g, {}), "v3")


class TestAllDags:
    def test_counts_and_stored_digest(self):
        # Labeled DAG counts are OEIS A003024; the digest of the lists was
        # recorded when the enumeration ran its own acyclicity test.
        dags = [all_dags(p) for p in range(1, 5)]
        assert [len(d) for d in dags] == [1, 3, 25, 543]
        digest = hashlib.sha256()
        for d in dags:
            digest.update(repr(d).encode())
        assert digest.hexdigest() == "622a631b6ff8d1e69a54f2e10214708bbd0c43dce45ebe5d1767741cd864d3bc"

    def test_more_than_four_vertices_refused(self):
        with pytest.raises(TooLarge):
            all_dags(5)

    def test_negative_vertex_count_refused(self):
        # There is no graph on -1 vertices, not even the empty one on 0.
        assert all_dags(0) == [()]
        with pytest.raises(TooLarge, match="got -1$"):
            all_dags(-1)


class TestBruteForce:
    def test_matches_flow_on_worked_examples(self):
        g = confounded_diamond()
        assert brute_force_v_rank(g, "v4", ["v2", "v3"]) == 2
        assert brute_force_v_rank(g, "v2", ["v1"]) == 0
        assert brute_force_v_rank(half_identifiable_collider(), "v4", ["v2", "v3"]) == 1

    def test_refuses_a_q_outside_the_parents(self):
        # d is a child of c, not a parent: v_rank refuses (c, {d}), and so
        # must the enumeration, which would otherwise count the trivial path d.
        g = MixedGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")], [("b", "c")])
        for rank in (v_rank, brute_force_v_rank):
            with pytest.raises(NotAParentSubset):
                rank(g, "c", ["d"])

    def test_cross_check_clean_on_random_graphs(self):
        for seed in range(10):
            g = random_admg(4, 0.7, seed)
            assert cross_check_graph(g, seed=seed) == []

    def test_injected_fault_is_caught(self, monkeypatch):
        g = confounded_diamond()
        count_solves(monkeypatch, broken=True)
        mismatches = cross_check_graph(g, seed=0)
        assert mismatches
        assert {"v", "q", "flow", "enumeration", "numeric_rank"} <= set(mismatches[0])

    def test_cross_check_refuses_cyclic_graphs(self):
        # Enumeration and the path matrix count the path v -> y through v,
        # which the flow network excludes, so (v, {y}) would read 0 against 1.
        g = MixedGraph(["x", "v", "y"], [("x", "v"), ("v", "y"), ("y", "v")], [("v", "y")])
        with pytest.raises(CyclicGraph):
            cross_check_graph(g)


def count_solves(monkeypatch, broken=False):
    """Count `_Dinic.max_flow` calls; `broken` adds 1 to every network with a sink arc."""
    solves = []
    solve = ident._Dinic.max_flow

    def counting_solve(self, s, t):
        solves.append((s, t))
        return solve(self, s, t) + (broken and bool(self.adj[t]))

    monkeypatch.setattr(ident._Dinic, "max_flow", counting_solve)
    return solves


def scalar_draw(g, rng):
    """`generic_parameters` one double at a time: per edge a magnitude, then a sign."""
    values = {}
    for edge in g.directed:
        magnitude = rng.uniform(0.05, 1.0)
        values[edge] = (1.0 if rng.random() < 0.5 else -1.0) * magnitude
    return ParamMatrix(g, values)


def per_key_modal_rank(g, b_stack, removable, q):
    """Most common numeric rank of the (q, removable) path-matrix block over the draws, one SVD per key."""
    if not (removable and q):
        return 0
    block = b_stack[:, [g.index(u) for u in q], :][:, :, [g.index(u) for u in removable]]
    ranks = oracle._rank(np.linalg.svd(block, compute_uv=False))
    return Counter(ranks.tolist()).most_common(1)[0][0]


def dag_modal_items(seed):
    """Per DAG with p <= 4, in sweep order: (g, its sweep draws, its sorted non-empty (removable, Q) keys)."""
    for p in range(1, 5):
        vertices = [f"v{i + 1}" for i in range(p)]
        for dag_idx, dag in enumerate(all_dags(p)):
            g = MixedGraph(vertices, [(vertices[a], vertices[b]) for a, b in dag])
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p, dag_idx)))
            keys = set()
            for v in vertices:
                anc = g.sort_vertices(g.ancestors(v) - {v})
                pa = g.parents(v)
                for r in range(1, len(anc) + 1):
                    for removable in combinations(anc, r):
                        for size in range(1, len(pa) + 1):
                            keys.update((removable, q) for q in combinations(pa, size))
            yield g, oracle.draw_b_stack(g, rng, 5), sorted(keys)


def reference_report(graphs):
    """The verify report of (graph, draws) pairs, one check at a time.

    Each (v, Q) takes its flow from `v_rank`, its enumeration from
    `brute_force_v_rank` and its modal rank from one SVD per key, on the
    graph itself, so no key table or memo is shared.
    """
    report = {"graphs": 0, "checks": 0, "mismatches": []}
    for g, b_stack in graphs:
        report["graphs"] += 1
        for v in g.vertices:
            pa = g.parents(v)
            for q in (q for size in range(len(pa) + 1) for q in combinations(pa, size)):
                report["checks"] += 1
                flow, enum = v_rank(g, v, q), brute_force_v_rank(g, v, q)
                modal = per_key_modal_rank(g, b_stack, g.removable(v), q)
                if not flow == enum == modal:
                    report["mismatches"].append(
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
    return report


def exhaustive_graphs(max_vertices, seed):
    """Every bidirected variant of every DAG on up to 4 vertices, with its DAG's draws, in sweep order."""
    for p in range(1, max_vertices + 1):
        vertices = [f"v{i + 1}" for i in range(p)]
        for dag_idx, dag in enumerate(all_dags(p)):
            base = MixedGraph(vertices, [(vertices[a], vertices[b]) for a, b in dag])
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p, dag_idx)))
            b_stack = oracle.draw_b_stack(base, rng, 5)
            for bid in all_bidirected_sets(p):
                yield MixedGraph(vertices, base.directed, [(vertices[a], vertices[b]) for a, b in bid]), b_stack


def sampled_graphs(p, seed, count):
    """The sweep's sampled graphs on p > 4 vertices, each with its own draws."""
    densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for i in range(count):
        g = random_admg(p, densities[i % len(densities)], seed=seed * 100003 + i)
        yield g, oracle.draw_b_stack(g, np.random.default_rng(np.random.SeedSequence(seed + i)), 5)


class TestVerifySweep:
    def test_one_solve_per_distinct_network(self, monkeypatch):
        solves = count_solves(monkeypatch)
        report = verify_sweep(3, 0)
        assert (report["graphs"], report["checks"], report["mismatches"]) == (207, 1073, [])
        assert len(solves) == 56

    def test_broken_engine_is_caught_through_the_memo(self, monkeypatch):
        count_solves(monkeypatch, broken=True)
        report = verify_sweep(3, 0)
        # Every check with a non-empty Q has a sink arc and must disagree; the
        # empty Q, one per (graph, v) over 1 + 6 + 200 graphs on 1, 2, 3
        # vertices, has none and must agree.
        assert len(report["mismatches"]) == 1073 - (1 * 1 + 6 * 2 + 200 * 3)
        assert all(m["q"] and m["flow"] == m["enumeration"] + 1 for m in report["mismatches"])

    @pytest.mark.parametrize("field", ["enumeration", "numeric_rank"])
    def test_broken_rank_oracle_is_caught(self, field, monkeypatch):
        # One rank oracle off by one on every non-empty Q, the flow engine
        # sound: the same checks as for a broken engine must disagree.
        if field == "enumeration":
            enum = oracle._enum_rank
            monkeypatch.setattr(
                oracle, "_enum_rank", lambda g, removable, q, cap, memo: enum(g, removable, q, cap, memo) + bool(q)
            )
        else:
            modal = oracle._modal_ranks

            def broken_modal(items):
                return [[r + bool(q) for r, (_, q) in zip(ranks, keys)] for ranks, (_, _, keys) in zip(modal(items), items)]

            monkeypatch.setattr(oracle, "_modal_ranks", broken_modal)
        report = verify_sweep(3, 0)
        assert len(report["mismatches"]) == 1073 - (1 * 1 + 6 * 2 + 200 * 3)
        assert all(m["q"] and m[field] == m["flow"] + 1 for m in report["mismatches"])

    def test_four_vertex_sweep_builds_one_column_per_dag_and_removable_set(self, monkeypatch):
        solves = count_solves(monkeypatch)
        builds, lookups = [], []
        build, rank = ident._Column.__init__, ident._Column.rank

        def counting_build(self, g, v, removable):
            builds.append(v)
            build(self, g, v, removable)

        def counting_rank(self, q, memo):
            lookups.append(q)
            return rank(self, q, memo)

        monkeypatch.setattr(ident._Column, "__init__", counting_build)
        monkeypatch.setattr(ident._Column, "rank", counting_rank)
        report = verify_sweep(4, 0)
        assert (report["graphs"], report["checks"], report["mismatches"]) == (34959, 323121, [])
        assert len(solves) == 1706
        assert len(builds) == 6553
        assert len(lookups) == 21937

    def test_dag_removable_and_q_fix_the_column_network(self):
        # The sweep shares one column per (v, removable) across the
        # bidirected variants of a directed part: every check with the same
        # (v, removable, Q) there must build the same network.
        columns = networks_built = 0
        for p in range(1, 5):
            vertices = [f"v{i + 1}" for i in range(p)]
            for dag in all_dags(p):
                directed = [(vertices[a], vertices[b]) for a, b in dag]
                networks = {}
                for bid in all_bidirected_sets(p):
                    g = MixedGraph(vertices, directed, [(vertices[a], vertices[b]) for a, b in bid])
                    for v in vertices:
                        col = ident._Column(g, v, g.removable(v))
                        pa = g.parents(v)
                        for q in (q for size in range(len(pa) + 1) for q in combinations(pa, size)):
                            network = (col.n, col.arcs(q)[1])
                            assert networks.setdefault((v, g.removable(v), q), network) == network
                columns += len({key[:2] for key in networks})
                networks_built += len(networks)
        assert (columns, networks_built) == (6553, 21937)

    def test_bidirected_variants_realise_every_removable_set_and_stars_suffice(self):
        # The key-space sweep rests on this: over the bidirected variants of a
        # DAG, removable(v) takes exactly the values A - N for N a subset of
        # v's strict ancestors A, and the star {v <-> u : u in N} gives A - N.
        for p in range(1, 5):
            vertices = [f"v{i + 1}" for i in range(p)]
            for dag in all_dags(p):
                base = MixedGraph(vertices, [(vertices[a], vertices[b]) for a, b in dag])
                directed = base.directed
                seen = {v: set() for v in vertices}
                for bid in all_bidirected_sets(p):
                    g = MixedGraph(vertices, directed, [(vertices[a], vertices[b]) for a, b in bid])
                    for v in vertices:
                        seen[v].add(g.removable(v))
                for v in vertices:
                    anc = base.sort_vertices(base.ancestors(v) - {v})
                    subsets = [n for size in range(len(anc) + 1) for n in combinations(anc, size)]
                    assert seen[v] == {tuple(u for u in anc if u not in n) for n in subsets}
                    for n in subsets:
                        star = MixedGraph(vertices, directed, [(v, u) for u in n])
                        assert star.removable(v) == tuple(u for u in anc if u not in n)

    def test_key_space_totals_equal_the_per_graph_route(self):
        expected = reference_report(exhaustive_graphs(3, 0))
        assert expected["mismatches"] == []
        assert verify_sweep(3, 0) == expected

    def test_broken_engine_records_equal_the_per_graph_route(self, monkeypatch):
        # With the solver off by one on every non-empty Q, the sweep must
        # write, from its key table, the very records of the check-by-check
        # reference over every variant graph.
        count_solves(monkeypatch, broken=True)
        expected = reference_report(exhaustive_graphs(3, 0))
        assert expected["mismatches"]
        assert all(m["q"] and m["flow"] == m["enumeration"] + 1 for m in expected["mismatches"])
        assert json.dumps(verify_sweep(3, 0)) == json.dumps(expected)

    def test_broken_engine_records_on_sampled_graphs_equal_the_per_graph_route(self, monkeypatch):
        # The sampled p = 5 graphs alone: with no DAG to enumerate, the sweep
        # runs only its sampled part.
        count_solves(monkeypatch, broken=True)
        monkeypatch.setattr(oracle, "all_dags", lambda p: [])
        expected = reference_report(sampled_graphs(5, 0, 36))
        assert expected["graphs"] == 36 and expected["mismatches"]
        assert json.dumps(verify_sweep(5, 0, 36)) == json.dumps(expected)

    def test_dag_columns_equal_the_star_columns(self):
        # The sweep builds the column of key (v, A - N, Q) on the DAG itself,
        # where the realisation test above builds the star v <-> N: both must
        # give the same network for every v, N inside A and Q.
        networks = 0
        for p in range(1, 5):
            vertices = [f"v{i + 1}" for i in range(p)]
            for dag in all_dags(p):
                g = MixedGraph(vertices, [(vertices[a], vertices[b]) for a, b in dag])
                for v in vertices:
                    anc = g.sort_vertices(g.ancestors(v) - {v})
                    pa = g.parents(v)
                    for n in (n for size in range(len(anc) + 1) for n in combinations(anc, size)):
                        star = MixedGraph(vertices, g.directed, [(v, u) for u in n])
                        on_star = ident._Column(star, v, star.removable(v))
                        on_dag = ident._Column(g, v, tuple(u for u in anc if u not in n))
                        for q in (q for size in range(len(pa) + 1) for q in combinations(pa, size)):
                            assert (on_dag.n, on_dag.arcs(q)) == (on_star.n, on_star.arcs(q))
                            networks += 1
        assert networks == 21937

    def test_four_vertex_sweep_builds_no_variant_graph(self, monkeypatch):
        # The 572 directed parts and nothing else: no bidirected variant, no
        # star, and no candidate digraph inside `all_dags`.
        builds = []
        build = MixedGraph.__init__

        def counting_build(self, *args, **kwargs):
            builds.append(args)
            build(self, *args, **kwargs)

        monkeypatch.setattr(MixedGraph, "__init__", counting_build)
        assert [len(all_dags(p)) for p in range(1, 5)] == [1, 3, 25, 543]
        assert builds == []
        report = verify_sweep(4, 0)
        assert (report["graphs"], report["checks"], report["mismatches"]) == (34959, 323121, [])
        assert len(builds) == 572

    def test_four_vertex_sweep_searches_each_path_system_once_per_dag(self, monkeypatch):
        searches = []
        search = oracle.path_system_exists

        def counting_search(g, sources, targets, cap):
            searches.append((g.vertices, g.directed, sources, targets))
            return search(g, sources, targets, cap)

        monkeypatch.setattr(oracle, "path_system_exists", counting_search)
        report = verify_sweep(4, 0)
        assert (report["graphs"], report["checks"], report["mismatches"]) == (34959, 323121, [])
        assert len(searches) == len(set(searches)) == 4996

    def test_bulk_draws_equal_one_path_matrix_per_draw(self):
        # Every DAG's stack in the sweep, byte for byte, against one
        # `path_matrix` per draw of coefficients taken one double at a time.
        for p in range(1, 5):
            vertices = [f"v{i + 1}" for i in range(p)]
            for dag_idx, dag in enumerate(all_dags(p)):
                g = MixedGraph(vertices, [(vertices[a], vertices[b]) for a, b in dag])
                seeds = [np.random.SeedSequence(0, spawn_key=(p, dag_idx)) for _ in range(2)]
                stack = oracle.draw_b_stack(g, np.random.default_rng(seeds[0]), 5)
                rng = np.random.default_rng(seeds[1])
                expected = np.array([path_matrix(scalar_draw(g, rng)) for _ in range(5)])
                assert stack.shape == expected.shape == (5, p, p)
                assert stack.tobytes() == expected.tobytes()

    def test_generic_parameters_keep_the_scalar_stream(self):
        for seed in range(20):
            g = random_admg(6, 0.6, seed)
            rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert generic_parameters(g, rng).values == scalar_draw(g, scalar_rng).values
            assert rng.random() == scalar_rng.random()

    def test_batched_modal_ranks_equal_the_per_key_mode(self):
        # Every non-empty (removable, Q) key of every DAG with p <= 4, on the
        # sweep's seeded draws, one DAG per call; the reference takes one SVD per key.
        keys_checked = 0
        for g, b_stack, keys in dag_modal_items(0):
            expected = [per_key_modal_rank(g, b_stack, removable, q) for removable, q in keys]
            assert oracle._modal_ranks([(g, b_stack, keys)]) == [expected]
            keys_checked += len(keys)
        assert keys_checked == 11122

    def test_one_modal_call_over_every_dag_equals_the_per_key_mode(self):
        # All 572 DAGs in one call: stacks of 1 to 4 vertices padded into one
        # array, every block shape gathered across DAGs.
        items = list(dag_modal_items(0))
        assert len(items) == 572
        expected = [[per_key_modal_rank(g, b_stack, removable, q) for removable, q in keys] for g, b_stack, keys in items]
        assert oracle._modal_ranks(items) == expected
        assert sum(map(len, expected)) == 11122

    def test_vectorised_mode_breaks_ties_as_counter_does(self):
        # Every row of five ranks in 0..3, so every tie pattern of five draws.
        rows = np.array(list(product(range(4), repeat=5)))
        assert rows.shape == (1024, 5)
        assert oracle._modes(rows).tolist() == [Counter(row).most_common(1)[0][0] for row in rows.tolist()]

    def test_four_vertex_sweep_batches_its_svds(self, monkeypatch):
        # One SVD call per block shape per chunk of DAGs; one per shape per DAG made 2,811.
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        report = verify_sweep(4, 0)
        assert (report["graphs"], report["checks"], report["mismatches"]) == (34959, 323121, [])
        assert len(calls) == 281
        assert sum(shape[1] for shape in calls) == 11122

    def test_four_vertex_sweep_holds_one_chunk_at_a_time(self):
        # Holding every DAG's key table at once peaked near 12 MB; chunks of
        # 16 DAGs peak near 2 MB.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            verify_sweep(4, 0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 3 * 10**6

    def test_every_five_vertex_dag_class_agrees(self):
        # Flow, enumeration and modal ranks are invariant under relabelling, and every DAG is
        # isomorphic to one whose edges run from lower to higher index: so the least relabelling
        # of each of those 1,024 DAGs, with its bidirected variants, covers every acyclic mixed
        # graph on 5 vertices.  Every key must agree before `_check`, which would otherwise
        # write a record per failing check of every variant.
        vs = [f"v{i + 1}" for i in range(5)]
        perms = list(permutations(range(5)))
        classes = sorted({
            min(tuple(sorted((pi[a], pi[b]) for a, b in dag)) for pi in perms)
            for dag in oracle._subsets(list(combinations(range(5), 2)))
        })
        assert len(classes) == 302
        items = []
        for idx, dag in enumerate(classes):
            g = MixedGraph(vs, [(vs[a], vs[b]) for a, b in dag])
            items.append((g, True, oracle.draw_b_stack(g, oracle._stream(0, 5, idx), 5)))
        flows = {}
        tables = [oracle._key_table(g, True, flows)[1:] for g, _, _ in items]
        modals = oracle._modal_ranks([(g, b_stack, list(enums)) for (g, _, b_stack), (_, enums) in zip(items, tables)])
        keys, disagreeing = 0, []
        for (table, enums), modal in zip(tables, modals):
            ranks = dict(zip(enums, zip(enums.values(), modal)))
            keys += len(table)
            disagreeing += [(key, flow, ranks[key[1:]]) for key, flow in table.items() if (flow, flow) != ranks[key[1:]]]
        assert (keys, len(disagreeing), disagreeing[:3]) == (35584, 0, [])
        report = {"graphs": 0, "checks": 0, "mismatches": []}
        oracle._check(items, flows, report)
        assert (report["graphs"], report["checks"], report["mismatches"]) == (309248, 4689920, [])

    def test_broken_engine_four_vertex_report_matches_stored_digest(self, monkeypatch):
        # Chunks of DAGs cross vertex counts and the record writer; the report
        # was recorded when each DAG went through its own modal-rank call.
        count_solves(monkeypatch, broken=True)
        report = verify_sweep(4, 0)
        assert len(report["mismatches"]) == 183500
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        assert digest == "aeb450bf9c772244d333836abf7d9b354184f8c759e3770f6a4ac40faaba08f2"
