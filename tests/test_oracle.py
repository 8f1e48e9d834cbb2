import hashlib
from collections import Counter
from itertools import combinations

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
    nongeneric_locus_check,
    path_matrix,
    random_admg,
    removable_ancestors,
    v_rank,
    verify_sweep,
)
from admgident import ident
from admgident.errors import (
    BindingMismatch,
    CyclicGraph,
    InvalidDrawCount,
    SingularMatrix,
    SizeMismatch,
    TooLarge,
)
from admgident.oracle import all_dags, generic_parameters
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
        lam = diamond_params()
        back = ParamMatrix.from_json(lam.graph, lam.to_json())
        assert back.values == lam.values


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

    def test_modal_dimension_rejects_cyclic_graphs(self):
        with pytest.raises(CyclicGraph):
            fiber_dimension_modal(two_cycle(), "v1")

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


class TestBruteForce:
    def test_matches_flow_on_worked_examples(self):
        g = confounded_diamond()
        assert brute_force_v_rank(g, "v4", ["v2", "v3"]) == 2
        assert brute_force_v_rank(g, "v2", ["v1"]) == 0
        assert brute_force_v_rank(half_identifiable_collider(), "v4", ["v2", "v3"]) == 1

    def test_cross_check_clean_on_random_graphs(self):
        for seed in range(10):
            g = random_admg(4, 0.7, seed)
            assert cross_check_graph(g, seed=seed) == []

    def test_injected_fault_is_caught(self):
        g = confounded_diamond()

        def broken(graph, v, q):
            return min(len(q), v_rank(graph, v, q) + 1)

        mismatches = cross_check_graph(g, seed=0, v_rank_fn=broken)
        assert mismatches
        assert {"v", "q", "flow", "enumeration", "numeric_rank"} <= set(mismatches[0])


class TestVerifySweep:
    @staticmethod
    def _count_solves(monkeypatch, broken=False):
        """Count `_Dinic.max_flow` calls; `broken` adds 1 to every network with a sink arc."""
        solves = []
        solve = ident._Dinic.max_flow

        def counting_solve(self, s, t):
            solves.append((s, t))
            return solve(self, s, t) + (broken and bool(self.adj[t]))

        monkeypatch.setattr(ident._Dinic, "max_flow", counting_solve)
        return solves

    def test_one_solve_per_distinct_network(self, monkeypatch):
        solves = self._count_solves(monkeypatch)
        report = verify_sweep(3, 0)
        assert (report["graphs"], report["checks"], report["mismatches"]) == (207, 1073, [])
        assert len(solves) == 56

    def test_broken_engine_is_caught_through_the_memo(self, monkeypatch):
        self._count_solves(monkeypatch, broken=True)
        report = verify_sweep(3, 0)
        # Every check with a non-empty Q has a sink arc and must disagree; the
        # empty Q, one per (graph, v) over 1 + 6 + 200 graphs on 1, 2, 3
        # vertices, has none and must agree.
        assert len(report["mismatches"]) == 1073 - (1 * 1 + 6 * 2 + 200 * 3)
        assert all(m["q"] and m["flow"] == m["enumeration"] + 1 for m in report["mismatches"])

    def test_substituted_engine_sees_every_check(self, monkeypatch):
        solves = self._count_solves(monkeypatch)
        calls = []

        def engine(g, v, q):
            calls.append((g, v, q))
            return v_rank(g, v, q)

        report = verify_sweep(3, 0, v_rank_fn=engine)
        assert report["mismatches"] == []
        assert len(calls) == report["checks"] == 1073
        assert len(solves) == 1073
