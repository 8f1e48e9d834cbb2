import math

import numpy as np
import pytest

from admgident import (
    Dataset,
    ErrorModel,
    MixedGraph,
    ParamMatrix,
    empirical_cumulant,
    generate_data,
    is_acyclic,
    random_admg,
    read_dataset,
    sample_errors,
    sample_factor_errors,
    sample_parameters,
    write_dataset,
)
from admgident.admg import LatentFactorGraph, bidirected_connected_components
from admgident.errors import (
    BindingMismatch,
    InvalidDensity,
    SingularMatrix,
    UnsupportedOrder,
)
from admgident import simulate
from admgident.simulate import LAPLACE, UNIFORM, _laplace_draw
from figures import confounded_diamond, iv_graph, two_cycle


class TestRandomAdmg:
    def test_edge_budget(self):
        g = random_admg(4, 0.5, seed=0)
        assert len(g.directed) + len(g.bidirected) == 6
        assert 1 <= len(g.directed) <= 6

    def test_directed_part_is_acyclic(self):
        for seed in range(50):
            assert is_acyclic(random_admg(5, 0.6, seed))

    def test_deterministic(self):
        assert random_admg(6, 0.4, seed=9) == random_admg(6, 0.4, seed=9)

    def test_density_too_small(self):
        with pytest.raises(InvalidDensity):
            random_admg(3, 0.05, seed=0)

    def test_density_above_one(self):
        with pytest.raises(InvalidDensity):
            random_admg(5, 1.5, seed=0)

    def test_high_density_feasible(self):
        g = random_admg(5, 1.0, seed=3)
        assert len(g.directed) + len(g.bidirected) == 20
        assert len(g.directed) <= 10 and len(g.bidirected) <= 10


class TestSeeds:
    def test_float_seeds_are_refused(self):
        g = iv_graph()
        with pytest.raises(TypeError):
            sample_parameters(g, 3.7)
        with pytest.raises(TypeError):
            random_admg(4, 0.5, 3.0)
        with pytest.raises(TypeError):
            sample_errors(g, ErrorModel(), 5, 3.7)

    def test_numpy_integer_seeds_draw_like_python_ints(self):
        g = confounded_diamond()
        assert sample_parameters(g, np.int64(3)) == sample_parameters(g, 3)
        assert random_admg(6, 0.4, np.int64(3)) == random_admg(6, 0.4, 3)
        assert np.array_equal(sample_errors(g, ErrorModel(), 20, np.int64(3)).values, sample_errors(g, ErrorModel(), 20, 3).values)


class TestSampleParameters:
    def test_diamond_support_and_range(self):
        lam = sample_parameters(confounded_diamond(), seed=1)
        assert set(lam.values) == set(confounded_diamond().directed)
        assert all(-5 <= x <= 5 for x in lam.values.values())

    def test_no_directed_edges(self):
        g = MixedGraph(["a", "b"], [], [("a", "b")])
        assert sample_parameters(g, seed=0).values == {}

    def test_cycles_redrawn_until_regular(self):
        g = two_cycle()
        for seed in range(50):
            lam = sample_parameters(g, seed)
            det = 1 - lam.get("v1", "v2") * lam.get("v2", "v1")
            assert abs(det) > 1e-8


class TestSampleErrors:
    def test_deterministic(self):
        a = sample_errors(confounded_diamond(), ErrorModel(), 500, seed=5)
        b = sample_errors(confounded_diamond(), ErrorModel(), 500, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_unlinked_pair_uncorrelated(self):
        n = 100_000
        ds = sample_errors(confounded_diamond(), ErrorModel(), n, seed=11)
        r = np.corrcoef(ds.column("v1"), ds.column("v3"))[0, 1]
        assert abs(r) <= 3 / math.sqrt(n)

    def test_single_edge_confounding_pattern(self):
        g = MixedGraph(["a", "b", "c"], [], [("a", "b")])
        n = 50_000
        ds = sample_errors(g, ErrorModel(), n, seed=2)
        corr = np.corrcoef(ds.values.T)
        # clearly above sampling noise for the linked pair, at noise level else
        assert abs(corr[0, 1]) > 10 / math.sqrt(n)
        assert abs(corr[0, 2]) <= 4 / math.sqrt(n)
        assert abs(corr[1, 2]) <= 4 / math.sqrt(n)

    def test_markov_diagnostic_across_components(self):
        n = 40_000
        for seed in range(5):
            g = random_admg(5, 0.4, seed=seed + 100)
            ds = sample_errors(g, ErrorModel(), n, seed=seed)
            comps = bidirected_connected_components(g)
            comp_of = {v: i for i, c in enumerate(comps) for v in c}
            corr = np.corrcoef(ds.values.T)
            for i, u in enumerate(g.vertices):
                for j, v in enumerate(g.vertices):
                    if i < j and comp_of[u] != comp_of[v]:
                        assert abs(corr[i, j]) <= 4 / math.sqrt(n)

    def test_uniform_variant_matches_second_moment(self):
        g = MixedGraph(["a"])
        lap = sample_errors(g, ErrorModel(kind=LAPLACE), 200_000, seed=3)
        uni = sample_errors(g, ErrorModel(kind=UNIFORM), 200_000, seed=3)
        assert lap.values.std() == pytest.approx(uni.values.std(), rel=0.02)
        assert abs(uni.values).max() < lap.values.std() * math.sqrt(3) * 1.1


class TestInputGuards:
    @pytest.mark.parametrize(
        "values, needle",
        [(np.ones((3, 2)), "shape"), (np.ones(3), "shape"), (np.ones((0, 1)), "at least one"), ([[math.nan]], "finite")],
    )
    def test_dataset_guards(self, values, needle):
        with pytest.raises(BindingMismatch, match=needle):
            Dataset(("x",), values)

    def test_unknown_error_model_kind(self):
        with pytest.raises(ValueError, match="unknown error model kind"):
            ErrorModel(kind="gaussian")

    def test_no_samples_refused(self):
        with pytest.raises(ValueError, match="n >= 1"):
            sample_errors(iv_graph(), ErrorModel(), 0, seed=0)
        with pytest.raises(ValueError, match="n >= 1"):
            sample_factor_errors(LatentFactorGraph(["a", "b"], ["l"], [("l", "a"), ("l", "b")]), 0, seed=0)


class TestFactorErrors:
    def test_no_latents_independent(self):
        l = LatentFactorGraph(["a", "b"], [], [])
        ds = sample_factor_errors(l, 50_000, seed=1)
        assert abs(np.corrcoef(ds.values.T)[0, 1]) < 0.02

    def test_single_latent_constant_covariance(self, monkeypatch):
        # Every loading weight drawn as 1.0: equal loadings give equal covariances.
        monkeypatch.setattr(simulate, "_WEIGHT_RANGE", (1.0, 1.0))
        l = LatentFactorGraph(["a", "b", "c"], ["l"], [("l", "a"), ("l", "b"), ("l", "c")])
        n = 400_000
        ds = sample_factor_errors(l, n, seed=4)
        cov = np.cov(ds.values.T)
        assert cov[0, 1] == pytest.approx(cov[0, 2], rel=0.05)
        assert cov[0, 1] == pytest.approx(cov[1, 2], rel=0.05)

    def test_projection_independence_pattern(self):
        l = LatentFactorGraph(
            ["a", "b", "c"], ["l"], [("l", "a"), ("l", "b")]
        )
        ds = sample_factor_errors(l, 50_000, seed=5)
        corr = np.corrcoef(ds.values.T)
        assert abs(corr[0, 1]) > 0.1
        assert abs(corr[0, 2]) < 0.02
        assert abs(corr[1, 2]) < 0.02


class TestGenerateData:
    def test_iv_single_sample_by_hand(self):
        g = iv_graph()
        lam = ParamMatrix(g, {("v1", "v2"): 1.0, ("v2", "v3"): 1.0})
        errors = Dataset(g.vertices, np.array([[1.0, 0.0, 0.0]]))
        x = generate_data(g, lam, errors)
        assert np.array_equal(x.values, np.array([[1.0, 1.0, 1.0]]))

    def test_zero_parameters_identity(self):
        g = confounded_diamond()
        errors = sample_errors(g, ErrorModel(), 100, seed=0)
        x = generate_data(g, ParamMatrix(g, {}), errors)
        assert np.array_equal(x.values, errors.values)

    def test_structural_equation_identity(self):
        g = confounded_diamond()
        lam = sample_parameters(g, seed=7)
        errors = sample_errors(g, ErrorModel(), 1000, seed=7)
        x = generate_data(g, lam, errors)
        lhs = x.column("v4")
        rhs = (
            lam.get("v2", "v4") * x.column("v2")
            + lam.get("v3", "v4") * x.column("v3")
            + errors.column("v4")
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_ols_recovery_without_confounding(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        lam = sample_parameters(g, seed=3)
        x = generate_data(g, lam, sample_errors(g, ErrorModel(), 30_000, seed=3))
        from admgident import regression_init

        init = regression_init(g, x)
        for edge in g.directed:
            assert abs(init.get(*edge) - lam.get(*edge)) < 0.05 * (1 + abs(lam.get(*edge)))

    def test_singular_cycle_rejected(self):
        g = two_cycle()
        lam = ParamMatrix(g, {("v1", "v2"): 1.0, ("v2", "v1"): 1.0})
        errors = Dataset(g.vertices, np.zeros((3, 2)) + 1.0)
        with pytest.raises(SingularMatrix):
            generate_data(g, lam, errors)

    def test_binding_checked(self):
        g = confounded_diamond()
        errors = Dataset(("a", "b", "c", "d"), np.ones((2, 4)))
        with pytest.raises(BindingMismatch):
            generate_data(g, sample_parameters(g, 0), errors)
        # the same edges declared in another vertex order are another graph
        foreign = ParamMatrix(MixedGraph(g.vertices[::-1], g.directed, g.bidirected), {})
        with pytest.raises(BindingMismatch, match="bound to a different graph"):
            generate_data(g, foreign, Dataset(g.vertices, np.ones((2, 4))))


class TestCumulants:
    def test_standard_laplace_variance(self):
        rng = np.random.default_rng(0)
        col = _laplace_draw(rng, math.sqrt(2.0), 200_000)  # scale b = 1
        ds = Dataset(("x",), col[:, None])
        assert empirical_cumulant(ds, ("x", "x")) == pytest.approx(2.0, rel=0.05)

    def test_order_two_is_sample_covariance(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(300, 2))
        ds = Dataset(("x", "y"), values)
        expected = float(np.cov(values.T, ddof=1)[0, 1])
        assert empirical_cumulant(ds, ("x", "y")) == pytest.approx(expected, abs=1e-12)

    def test_constant_column_zero(self):
        ds = Dataset(("x",), np.full((50, 1), 4.0))
        assert empirical_cumulant(ds, ("x", "x")) == 0.0
        assert empirical_cumulant(ds, ("x", "x", "x", "x")) == 0.0
        # non-representable constants only leave mean-rounding dust
        dusty = Dataset(("x",), np.full((50, 1), 3.7))
        assert abs(empirical_cumulant(dusty, ("x", "x"))) < 1e-28

    def test_disconnected_indices_near_zero(self):
        n = 100_000
        err = sample_errors(confounded_diamond(), ErrorModel(), n, seed=11)
        std = Dataset(err.columns, err.values / err.values.std(axis=0))
        for idx in (("v1", "v3"), ("v1", "v4"), ("v2", "v3"), ("v1", "v3", "v4")):
            assert abs(empirical_cumulant(std, idx)) <= 5 / math.sqrt(n)

    def test_laplace_excess_kurtosis(self):
        rng = np.random.default_rng(2)
        col = _laplace_draw(rng, 1.7, 200_000)
        ds = Dataset(("x",), col[:, None])
        k4 = empirical_cumulant(ds, ("x",) * 4)
        k2 = empirical_cumulant(ds, ("x", "x"))
        assert k4 / k2**2 == pytest.approx(3.0, rel=0.1)

    def test_unsupported_orders(self):
        ds = Dataset(("x",), np.ones((10, 1)))
        with pytest.raises(UnsupportedOrder):
            empirical_cumulant(ds, ("x",))
        with pytest.raises(UnsupportedOrder):
            empirical_cumulant(ds, ("x",) * 5)
        # an order-k k-statistic needs more than k samples
        with pytest.raises(UnsupportedOrder, match="more than 3 samples"):
            empirical_cumulant(Dataset(("x",), np.ones((3, 1))), ("x",) * 3)


class TestCsvRoundTrip:
    def test_byte_identical_rewrite(self, tmp_path):
        ds = sample_errors(confounded_diamond(), ErrorModel(), 50, seed=8)
        path = tmp_path / "data.csv"
        write_dataset(ds, str(path))
        first = path.read_bytes()
        back = read_dataset(str(path))
        assert back.columns == ds.columns
        assert np.array_equal(back.values, ds.values)
        write_dataset(back, str(path))
        assert path.read_bytes() == first

    def test_provenance_sidecar(self, tmp_path):
        ds = sample_errors(confounded_diamond(), ErrorModel(), 10, seed=8)
        path = tmp_path / "data.csv"
        write_dataset(ds, str(path))
        assert (tmp_path / "data.csv.meta.json").exists()
        back = read_dataset(str(path))
        assert back.provenance["seed"] == 8
