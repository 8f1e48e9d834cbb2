import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from admgident import (
    Dataset,
    ErrorModel,
    MixedGraph,
    ParamMatrix,
    fit,
    generate_data,
    gradient,
    hsic_biased,
    normalized_frobenius_loss,
    objective,
    random_admg,
    regression_init,
    residuals,
    sample_errors,
    sample_parameters,
)
from admgident.errors import (
    BindingMismatch,
    LengthMismatch,
    NonFiniteObjective,
    RankDeficientParents,
    ZeroTrueMatrix,
)
from admgident.estimate import (
    median_bandwidth,
    polynomial_kernel,
    rbf_kernel,
    resolve_kernel,
    _Layout,
    _center,
    _gram,
    _gram_side,
    _value_and_gradient,
)
from admgident import estimate
from admgident.simulate import LAPLACE
from figures import confounded_diamond, iv_graph


def hsic_trace_reference(x, y, kx, ky):
    """Literal trace(K H L H) / n^2 with explicit matrices."""
    n = len(x)
    k = np.array([[kernel_value(kx, a, b) for b in x] for a in x])
    l = np.array([[kernel_value(ky, a, b) for b in y] for a in y])
    h = np.eye(n) - np.ones((n, n)) / n
    return float(np.trace(k @ h @ l @ h)) / n**2


def hsic_grads_gram(x, y, kx, ky, need_gx, need_gy):
    """The pairwise reference: one pair's HSIC and its sides' gradients; kernels must be resolved.

    The value is `hsic_biased`'s.  An RBF side's gradient comes from `_gram_side`, so the
    evaluation's RBF gradients are held to it bit for bit; a polynomial side's from the closed
    form d/dx_a sum_ij K_ij (HLH)_ij = 2 sum_j (HLH)_aj d (x_a x_j + c)^(d-1) x_j.
    """
    n = len(x)

    def side(x, spec, y, other):
        lc = _center(_gram(y, other))
        if spec.kind == "polynomial":
            base = spec.degree * (np.outer(x, x) + spec.offset) ** (spec.degree - 1)
            return (2.0 / n**2) * ((base * lc) @ x)
        return _gram_side(x, spec, _gram(x, spec), lc, n)[0]

    return hsic_biased(x, y, kx, ky), side(x, kx, y, ky) if need_gx else None, side(y, ky, x, kx) if need_gy else None


def kernel_value(spec, a, b):
    if spec.kind == "polynomial":
        return (a * b + spec.offset) ** spec.degree
    return np.exp(-((a - b) ** 2) / (2 * spec.bandwidth**2))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "sigmoid"},
        {"kind": "polynomial", "degree": 0},
        {"kind": "polynomial", "offset": -1.0},
        {"kind": "polynomial", "offset": math.nan},
        {"kind": "polynomial", "offset": math.inf},
        {"kind": "rbf", "bandwidth": 0.0},
        {"kind": "rbf", "bandwidth": math.nan},
        {"kind": "rbf", "bandwidth": math.inf},
        {"kind": "polynomial", "degree": 2.5},
        {"kind": "polynomial", "degree": 2.0},
        {"kind": "polynomial", "degree": True},
        {"kind": "polynomial", "degree": np.float64(2.0)},
    ],
)
def test_kernel_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        estimate.KernelSpec(**kwargs)


def test_numpy_integer_degree_is_the_int_degree():
    # Degrees are checked by type: numpy integers pass, bools and floats do not.
    g = iv_graph()
    data = generate_data(g, sample_parameters(g, 0), sample_errors(g, ErrorModel(), 50, seed=0))
    point = ParamMatrix(g, {("v1", "v2"): 0.5, ("v2", "v3"): -0.3})
    grads = [gradient(g, point, data, polynomial_kernel(degree, 1.0)).values for degree in (np.int64(3), 3)]
    assert grads[0] == grads[1]


class TestResiduals:
    def test_true_parameters_recover_errors(self):
        g = confounded_diamond()
        lam = sample_parameters(g, seed=2)
        errors = sample_errors(g, ErrorModel(), 200, seed=2)
        data = generate_data(g, lam, errors)
        r = residuals(g, lam, data)
        assert np.max(np.abs(r.values - errors.values)) < 1e-9

    def test_zero_parameters_passthrough(self):
        g = confounded_diamond()
        data = sample_errors(g, ErrorModel(), 50, seed=1)
        r = residuals(g, ParamMatrix(g, {}), data)
        assert np.array_equal(r.values, data.values)

    def test_perturbation_is_linear(self):
        g = iv_graph()
        lam = sample_parameters(g, seed=3)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 100, seed=3))
        bumped = dict(lam.values)
        bumped[("v2", "v3")] += 0.25
        base = residuals(g, lam, data).values
        moved = residuals(g, ParamMatrix(g, bumped), data).values
        shift = moved[:, 2] - base[:, 2]
        assert np.max(np.abs(shift + 0.25 * data.column("v2"))) < 1e-12

    def test_binding_guards(self):
        g = iv_graph()
        data = sample_errors(g, ErrorModel(), 10, seed=0)
        foreign = ParamMatrix(MixedGraph(g.vertices[::-1], g.directed, g.bidirected), {})
        with pytest.raises(BindingMismatch, match="bound to a different graph"):
            residuals(g, foreign, data)
        with pytest.raises(BindingMismatch, match="dataset columns"):
            residuals(g, ParamMatrix(g, {}), Dataset(("a", "b", "c"), data.values))

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, lam, ds: residuals(g, lam, ds),
            lambda g, lam, ds: objective(g, lam, ds, polynomial_kernel()),
            lambda g, lam, ds: gradient(g, lam, ds, polynomial_kernel()),
            lambda g, lam, ds: regression_init(g, ds),
            lambda g, lam, ds: fit(g, ds, polynomial_kernel(), lam),
            lambda g, lam, ds: generate_data(g, lam, ds),
        ],
        ids=["residuals", "objective", "gradient", "regression_init", "fit", "generate_data"],
    )
    def test_every_entry_point_refuses_reordered_columns(self, call):
        # g's own vertices in another order: read at g's indices, the data would fit the wrong columns.
        g = iv_graph()
        values = np.random.default_rng(0).standard_normal((20, 3))
        with pytest.raises(BindingMismatch, match="^dataset columns must match the graph vertices$"):
            call(g, ParamMatrix(g, {}), Dataset(g.vertices[::-1], values))
        call(g, ParamMatrix(g, {}), Dataset(g.vertices, values))


class TestHsic:
    def test_constant_input_exactly_zero(self):
        x = np.full(20, 2.5)
        y = np.random.default_rng(0).normal(size=20)
        assert hsic_biased(x, y, polynomial_kernel(), polynomial_kernel()) == 0.0

    def test_three_point_value_matches_trace_reference(self):
        x = np.array([-1.0, 0.0, 1.0])
        k = polynomial_kernel(2, 1.0)
        assert hsic_biased(x, x, k, k) == pytest.approx(hsic_trace_reference(x, x, k, k), rel=1e-12)

    def test_dependent_vs_independent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=2000)
        y_ind = rng.normal(size=2000)
        k = polynomial_kernel(2, 1.0)
        assert hsic_biased(x, x + 0.1 * y_ind, k, k) > 50 * hsic_biased(x, y_ind, k, k)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hsic_biased(np.ones(3), np.ones(4), polynomial_kernel(), polynomial_kernel())
        with pytest.raises(LengthMismatch, match="at least 2 samples"):
            hsic_biased(np.ones(1), np.ones(1), polynomial_kernel(), polynomial_kernel())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        x, y = rng.normal(size=n), rng.normal(size=n)
        kx = polynomial_kernel(2, 1.0) if seed % 2 else resolve_kernel(rbf_kernel(), x)
        ky = resolve_kernel(rbf_kernel(), y) if seed % 3 else polynomial_kernel(3, 0.5)
        a = hsic_biased(x, y, kx, ky)
        assert a == hsic_biased(y, x, ky, kx)
        assert a >= -1e-12

    def test_poly_fast_path_equals_gram_path(self):
        # a and b form the only independent pair; parent p_i is the unit vector
        # e_i, so the (p_i, a) gradient reads entry i of a's residual gradient
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=80), rng.normal(size=80)
        parents = [f"p{i}" for i in range(80)]
        g = MixedGraph(
            ["a", "b"] + parents,
            [(u, v) for u in parents for v in ("a", "b")],
            [(u, v) for i, u in enumerate(parents) for v in ["a", "b"] + parents[i + 1:]],
        )
        data = np.column_stack([x, y, np.eye(80)])
        for deg, off in ((1, 1.0), (2, 1.0), (2, 0.0), (3, 2.0)):
            kx = ky = polynomial_kernel(deg, off)
            vg, gxg, gyg = hsic_grads_gram(x, y, kx, ky, True, True)
            vp, grad = _value_and_gradient(_Layout(g, {v: kx for v in g.vertices}, data), np.zeros((82, 82)))
            by_edge = dict(zip(g.directed, grad))
            gxp = -np.array([by_edge[(u, "a")] for u in parents])
            gyp = -np.array([by_edge[(u, "b")] for u in parents])
            assert vg == pytest.approx(vp, rel=1e-10)
            assert np.allclose(gxg, gxp, atol=1e-12)
            assert np.allclose(gyg, gyp, atol=1e-12)

    def test_median_bandwidth_permutation_invariant(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=75)
        shuffled = x[rng.permutation(75)]
        assert median_bandwidth(x) == median_bandwidth(shuffled)

    MEDIAN_INPUTS = {
        "empty": [],
        "one": [4.0],
        "n=2": [0.3, -1.7],
        "constant": [2.5] * 7,
        "ties": [1.0, 2.0, 1.0, 2.0, 4.0, 1.0, 2.0, 1.0, -3.0, 2.0],
        "signed-zeros": [0.0, -0.0, 1.5, 0.0, -2.25, -0.0, 3.0],
        "laplace-50": np.random.default_rng(9).laplace(size=50),
        "laplace-1000": np.random.default_rng(10).laplace(size=1000),
        "shifted-laplace-50": 1e3 + 0.1 * np.random.default_rng(11).laplace(size=50),
        "shifted-laplace-1000": -7.25 + np.random.default_rng(12).laplace(size=1000),
        "rounded-laplace-1000": np.round(np.random.default_rng(13).laplace(size=1000), 1),
    }

    @staticmethod
    def matrix_median_bandwidth(x):
        """The n x n expression the sorted differences replaced."""
        x = np.asarray(x, dtype=float).ravel()
        d = np.abs(x[:, None] - x[None, :])
        d = d[np.triu_indices_from(d, k=1)]
        d = d[d > 0]
        return float(np.median(d)) if d.size else 1.0

    @pytest.mark.parametrize("name", MEDIAN_INPUTS)
    def test_median_bandwidth_equals_the_matrix_expression(self, name):
        x = self.MEDIAN_INPUTS[name]
        assert median_bandwidth(x) == self.matrix_median_bandwidth(x)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-3, 0.05, 1.0, 5.0, 1e150, 1e154])
    def test_rbf_gram_equals_the_five_pass_expression(self, sigma):
        # -(d**2) / (2 sigma^2) and d**2 / -(2 sigma^2) round alike.  The sample holds
        # repeated values (d = 0) and spreads wide enough for exp to underflow to 0 at
        # every sigma up to 5; 2 sigma^2 is subnormal at 1e-160 and infinite at 1e154.
        rng = np.random.default_rng(17)
        x = np.concatenate([rng.laplace(size=300), [0.0, 0.0, 1.0, 1.0, -400.0, 400.0]])
        with np.errstate(over="ignore"):  # d**2 over a subnormal 2 sigma^2
            k = np.subtract.outer(x, x)
            np.square(k, out=k)
            np.negative(k, out=k)
            np.divide(k, 2.0 * sigma**2, out=k)
            np.exp(k, out=k)
            got = _gram(x, rbf_kernel(sigma))
        assert got.tobytes() == k.tobytes()
        assert (got == 1.0).sum() >= x.size + 4 and (sigma > 5.0 or (got == 0.0).any())

    @pytest.mark.parametrize("sigma", [1.5e154, 1e200, sys.float_info.max])
    def test_rbf_bandwidth_whose_square_overflows_gives_the_infinite_limit(self, sigma):
        # sigma**2 overflows past about 1.34e154; at 1e154, where 2 sigma^2 is already
        # infinite, the Gram is constant, and the HSIC and its gradient are zero.
        rng = np.random.default_rng(18)
        x, y = rng.laplace(size=40), rng.laplace(size=40)
        spec, limit = rbf_kernel(sigma), rbf_kernel(1e154)
        assert _gram(x, spec).tobytes() == _gram(x, limit).tobytes() == np.ones((40, 40)).tobytes()
        assert hsic_biased(x, y, spec, spec) == hsic_biased(x, y, limit, limit) == 0.0
        value, gx, gy = hsic_grads_gram(x, y, spec, spec, True, True)
        assert value == 0.0 and not gx.any() and not gy.any()


class TestObjective:
    def test_complete_bidirected_part_empty_sum(self):
        g = MixedGraph(
            ["a", "b", "c"],
            [("a", "b")],
            [("a", "b"), ("a", "c"), ("b", "c")],
        )
        data = sample_errors(g, ErrorModel(), 50, seed=0)
        assert objective(g, ParamMatrix(g, {}), data, polynomial_kernel()) == 0.0

    def test_iv_pairs_sum(self):
        g = iv_graph()
        lam = sample_parameters(g, seed=4)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 120, seed=4))
        k = polynomial_kernel(2, 1.0)
        r = residuals(g, lam, data)
        manual = hsic_biased(r.column("v1"), r.column("v2"), k, k) + hsic_biased(
            r.column("v1"), r.column("v3"), k, k
        )
        assert objective(g, lam, data, k) == pytest.approx(manual, rel=1e-12)

    def test_median_objective_at_truth_decreases_with_n(self):
        g = iv_graph()
        k = polynomial_kernel(2, 1.0)
        medians = []
        for n in (200, 600, 1800):
            vals = []
            for s in range(20):
                lam = sample_parameters(g, seed=100 + s)
                data = generate_data(g, lam, sample_errors(g, ErrorModel(), n, seed=400 + s))
                vals.append(objective(g, lam, data, k))
            medians.append(float(np.median(vals)))
        assert medians[0] > medians[1] > medians[2]

    def test_small_at_truth_for_large_n(self):
        g = iv_graph()
        lam = sample_parameters(g, seed=6)
        small = generate_data(g, lam, sample_errors(g, ErrorModel(), 200, seed=6))
        big = generate_data(g, lam, sample_errors(g, ErrorModel(), 5000, seed=6))
        k = polynomial_kernel(2, 1.0)
        # normalize out the data scale: compare on standardized copies
        def standardized_objective(data):
            std = Dataset(data.columns, data.values / data.values.std(axis=0))
            return objective(g, regression_scaled(lam, data, g), std, k)

        def regression_scaled(lam, data, g):
            sd = data.values.std(axis=0)
            return ParamMatrix(
                g,
                {(u, v): x * sd[g.index(u)] / sd[g.index(v)] for (u, v), x in lam.values.items()},
            )

        assert standardized_objective(big) < standardized_objective(small)


class TestGradient:
    def test_matches_finite_differences(self):
        for seed, kern in ((0, polynomial_kernel(2, 1.0)), (1, polynomial_kernel(3, 0.5)), (2, rbf_kernel())):
            g = random_admg(4, 0.6, seed + 50)
            lam = sample_parameters(g, seed)
            data = generate_data(g, lam, sample_errors(g, ErrorModel(), 120, seed=seed))
            point = ParamMatrix(g, {e: v * 0.8 + 0.1 for e, v in lam.values.items()})
            resolved = {
                v: resolve_kernel(kern, residuals(g, point, data).column(v)) for v in g.vertices
            }
            grad = gradient(g, point, data, resolved)
            for edge in g.directed:
                step = 1e-5 * (1 + abs(point.get(*edge)))
                up, dn = dict(point.values), dict(point.values)
                up[edge] = up.get(edge, 0.0) + step
                dn[edge] = dn.get(edge, 0.0) - step
                fd = (
                    objective(g, ParamMatrix(g, up), data, resolved)
                    - objective(g, ParamMatrix(g, dn), data, resolved)
                ) / (2 * step)
                assert abs(grad.get(*edge) - fd) <= 1e-5 * max(abs(fd), abs(grad.get(*edge)), 1e-8)

    def test_complete_bidirected_zero_gradient(self):
        g = MixedGraph(["a", "b"], [("a", "b")], [("a", "b")])
        data = sample_errors(g, ErrorModel(), 60, seed=1)
        grad = gradient(g, ParamMatrix(g, {("a", "b"): 0.3}), data, polynomial_kernel())
        assert grad.get("a", "b") == 0.0

    def test_unpaired_column_zero_gradient(self):
        # c's residual feeds no objective pair, so its incoming coefficient is flat
        g = MixedGraph(["a", "b", "c"], [("a", "c")], [("a", "c"), ("b", "c")])
        data = sample_errors(g, ErrorModel(), 60, seed=2)
        grad = gradient(g, ParamMatrix(g, {("a", "c"): 0.5}), data, polynomial_kernel())
        assert grad.get("a", "c") == 0.0

    @pytest.mark.parametrize(
        "second", [rbf_kernel(1.0), polynomial_kernel(3, 1.0), polynomial_kernel(2, 0.5)], ids=["rbf", "degree", "offset"]
    )
    def test_mixed_kernel_mapping_refused_before_evaluation(self, second, monkeypatch):
        # gradient and fit evaluate one kernel over every column; the pairwise oracles take any mapping.
        g = iv_graph()
        data = generate_data(g, sample_parameters(g, 3), sample_errors(g, ErrorModel(), 80, seed=3))
        point = ParamMatrix(g, {("v1", "v2"): 0.5, ("v2", "v3"): -0.3})
        kernels = {"v1": polynomial_kernel(2, 1.0), "v2": second, "v3": polynomial_kernel(2, 1.0)}
        evaluations = []
        monkeypatch.setattr(estimate, "_value_and_gradient", lambda *args: evaluations.append(args))
        with pytest.raises(ValueError, match="one kernel per objective"):
            gradient(g, point, data, kernels)
        with pytest.raises(ValueError, match="one kernel per objective"):
            fit(g, data, kernels, regression_init(g, data))
        assert evaluations == []
        r = residuals(g, point, data)
        expected = sum(hsic_biased(r.column(u), r.column(v), kernels[u], kernels[v]) for u, v in (("v1", "v2"), ("v1", "v3")))
        assert objective(g, point, data, kernels) == expected

    KERNELS = [polynomial_kernel(d, c) for d in (1, 2, 3) for c in (0.0, 0.5, 1.0, 2.0)] + [rbf_kernel()]

    @pytest.mark.parametrize("seed", range(24))
    def test_stacked_evaluation_matches_pairwise_gram_path(self, seed):
        rng = np.random.default_rng(seed)
        g = random_admg(int(rng.integers(3, 7)), float(rng.uniform(0.2, 0.8)), seed)
        data = generate_data(g, sample_parameters(g, seed), sample_errors(g, ErrorModel(), 60, seed=seed))
        point = ParamMatrix(g, {e: float(rng.normal()) for e in g.directed})
        x, lam = data.values, point.dense()
        r = residuals(g, point, data).values
        kernel = self.KERNELS[rng.integers(len(self.KERNELS))]
        kernels = {v: resolve_kernel(kernel, r[:, g.index(v)]) for v in g.vertices}
        value, gcol = 0.0, np.zeros_like(r)
        for u, v in estimate.independent_pairs(g):
            i, j = g.index(u), g.index(v)
            pair_value, gi, gj = hsic_grads_gram(r[:, i], r[:, j], kernels[u], kernels[v], True, True)
            value += pair_value
            gcol[:, i] += gi
            gcol[:, j] += gj
        expected = np.array([-x[:, g.index(u)] @ gcol[:, g.index(v)] for u, v in g.directed])
        got_value, got = _value_and_gradient(_Layout(g, kernels, x), lam)
        assert got_value == pytest.approx(value, rel=1e-10)
        assert np.abs(got - expected).max(initial=0.0) <= 1e-10 * np.abs(expected).max(initial=0.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_rbf_evaluation_equals_the_pairwise_loop_exactly(self, seed):
        # The gradient is the pair loop's to the bit.  The value is sum(K * HLH) where the
        # loop sums Kc * Lc, so it agrees to rounding: at most 1.8e-15 relative measured.
        rng = np.random.default_rng(200 + seed)
        g = random_admg(int(rng.integers(3, 7)), float(rng.uniform(0.2, 0.8)), seed)
        data = generate_data(g, sample_parameters(g, seed), sample_errors(g, ErrorModel(), 60, seed=seed))
        x, lam = data.values, ParamMatrix(g, {e: float(rng.normal()) for e in g.directed}).dense()
        r = x @ (np.eye(g.num_vertices) - lam)
        kernels = {v: resolve_kernel(rbf_kernel(), r[:, g.index(v)]) for v in g.vertices}
        value, gcol = 0.0, np.zeros(r.T.shape)
        for u, v in estimate.independent_pairs(g):
            i, j = g.index(u), g.index(v)
            pair_value, gi, gj = hsic_grads_gram(
                r[:, i], r[:, j], kernels[u], kernels[v], bool(g.parents(u)), bool(g.parents(v))
            )
            value += pair_value
            if gi is not None:
                gcol[i] += gi
            if gj is not None:
                gcol[j] += gj
        tails = [g.index(u) for u, _ in g.directed]
        heads = [g.index(v) for _, v in g.directed]
        expected = -np.einsum("ne,en->e", x[:, tails], gcol[heads])
        got_value, got = _value_and_gradient(_Layout(g, kernels, x), lam)
        assert got_value == pytest.approx(value, rel=1e-12, abs=0)
        assert got.tobytes() == expected.tobytes()

    def test_parentless_residual_is_the_data_column(self, monkeypatch):
        # The layout's fixed Grams rest on this, at every point a fit evaluates.
        g = random_admg(5, 0.3, 0)
        data = generate_data(g, sample_parameters(g, 0), sample_errors(g, ErrorModel(kind=LAPLACE), 100, 0))
        seen = []
        inner = estimate._value_and_gradient

        def recording(layout, lam_dense):
            seen.append((layout, lam_dense.copy()))
            return inner(layout, lam_dense)

        monkeypatch.setattr(estimate, "_value_and_gradient", recording)
        fit(g, data, rbf_kernel(), regression_init(g, data))
        roots = [g.index(v) for v in g.vertices if not g.parents(v)]
        assert roots == [0, 4] and len(seen) > 2
        for layout, lam_dense in seen:
            x = layout.x
            r = x @ (np.eye(5) - lam_dense)
            for c in roots:
                assert r[:, c].tobytes() == x[:, c].tobytes()
        layout, x = seen[0][0], seen[0][0].x
        assert layout.fixed.keys() == set(roots)
        for c in roots:
            # a parentless column's bandwidth is resolved on its data column too
            gram = _gram(x[:, c], resolve_kernel(rbf_kernel(), x[:, c]))
            assert layout.fixed[c].tobytes() == _center(gram).tobytes()

    # RBF fits recorded with every Gram built inside its pair by _hsic_grads_gram, as repr floats:
    # graph, data seed, iterations, coefficients, objective trace.  Regression init,
    # n=300 Laplace.  Parentless v1 and v5 of the random graph sit in 4 and 3 pairs.
    # The evaluation's value differs from the pair loop's by rounding, so the fits keep
    # their iterations and agree to rounding: coefficients within 4.0e-13 and traces
    # within 1.1e-12 relative measured, both on random5-0.
    RBF_FITS = (
        (iv_graph, 0, 7, {"v1->v2": 3.04060046114828, "v2->v3": 1.3180168078289478}, (
            0.0018823575265056423, 0.0018005031131192303, 0.0012438764653331493, 0.001075799246114738,
            0.0010041057362861054, 0.000994709355620895, 0.000994557234908792, 0.0009945562175715495,
        )),
        (iv_graph, 1, 7, {"v1->v2": -4.027373710216125, "v2->v3": 4.172204282604957}, (
            0.006611925489854355, 0.0013871228592617709, 0.0011342689774003294, 0.0010992677731887263,
            0.001064359099442709, 0.0010590670013399422, 0.0010590373596474898, 0.0010590372429189034,
        )),
        (iv_graph, 2, 5, {"v1->v2": -2.7943318158282895, "v2->v3": 4.767757886430442}, (
            0.017163316463856645, 0.0008114949851224812, 0.0008111718157487205, 0.0008104092627636804,
            0.0008103156878383486, 0.0008102670007619997,
        )),
        (functools.partial(random_admg, 5, 0.3, 0), 0, 28, {
            "v3->v2": -2.1345534707056872, "v4->v3": -3.346056829571886,
            "v5->v2": 3.5978490593863026, "v5->v4": -2.0252107457531174,
        }, (
            0.0067171561231213145, 0.006461228796677438, 0.006453868689482882, 0.006414954870702108,
            0.006349847851293577, 0.006154246083408497, 0.005813907084898293, 0.005510103446389889,
            0.005397079415435169, 0.005371584999678296, 0.005369876505134341, 0.00536963258178334,
            0.0053694400285601435, 0.005368799880172115, 0.005367342083603386, 0.005365883402956014,
            0.005361036350200122, 0.005347436668428568, 0.005334455336178743, 0.005300961682317384,
            0.005297677012221917, 0.005296943151220841, 0.005294706306346717, 0.0052943971903220205,
            0.005294339529595545, 0.005294338167840415, 0.005294337802084236, 0.005294337801574449,
            0.0052943378014012376,
        )),
    )

    @pytest.mark.parametrize(
        "graph,seed,iterations,coefficients,trace", RBF_FITS, ids=["iv-0", "iv-1", "iv-2", "random5-0"]
    )
    def test_rbf_fit_matches_the_per_pair_gram_fits_exactly(self, graph, seed, iterations, coefficients, trace):
        g = graph()
        data = generate_data(g, sample_parameters(g, seed), sample_errors(g, ErrorModel(kind=LAPLACE), 300, seed))
        res = fit(g, data, rbf_kernel(), regression_init(g, data))
        assert res.iterations == iterations
        got = {f"{u}->{v}": x for (u, v), x in res.lam_hat.values.items()}
        assert got == pytest.approx(coefficients, rel=0, abs=1e-9)
        assert res.objective_trace == pytest.approx(trace, rel=1e-11, abs=0)

    # Fits of the per-pair evaluation loop that the stacked evaluation replaced:
    # graph seed, iterations, coefficients.  Poly2, regression init, n=500 Laplace.
    PAIRWISE_FITS = (
        (0, 40, {
            "v1->v2": 0.812919351867289, "v1->v6": 1.832699499820961, "v3->v1": 2.298147792987362,
            "v3->v2": 0.8743693794620859, "v3->v6": -4.042994972423942, "v4->v2": 3.4783040586641643,
            "v4->v6": -1.6436853080517724, "v5->v1": 3.156991471557695, "v5->v2": 10.00743964399114,
            "v5->v4": -1.3112556733850675,
        }),
        (3, 54, {
            "v1->v5": 1.042708221788508, "v1->v6": -2.8231041754144908, "v2->v5": 3.044225947287312,
            "v3->v1": 4.588522939955532, "v3->v2": -1.4400099271054707, "v3->v4": -1.9448766455654063,
            "v3->v5": -5.00532729199589, "v4->v2": 0.2305895650031409,
        }),
        (8, 42, {
            "v1->v2": -1.22107541610151, "v1->v5": 3.3977567483202065, "v3->v2": 0.7193643396593502,
            "v4->v3": -0.8657234470884199, "v4->v6": -0.7292426337382171, "v5->v2": 3.552132339739455,
            "v6->v1": 3.318570527887919, "v6->v5": -1.2797131911675723,
        }),
    )

    @pytest.mark.parametrize("seed,iterations,coefficients", PAIRWISE_FITS)
    def test_fit_agrees_with_pairwise_evaluation(self, seed, iterations, coefficients):
        g = random_admg(6, 0.5, seed)
        lam = sample_parameters(g, seed)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(kind=LAPLACE), 500, seed))
        res = fit(g, data, polynomial_kernel(2, 1.0), regression_init(g, data))
        assert res.iterations == iterations
        got = {f"{u}->{v}": x for (u, v), x in res.lam_hat.values.items()}
        assert got.keys() == coefficients.keys()
        assert all(abs(got[e] - coefficients[e]) <= 1e-8 for e in coefficients)


class TestRegressionInit:
    def test_consistent_without_confounding(self):
        g = MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        lam = sample_parameters(g, seed=5)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 40_000, seed=5))
        init = regression_init(g, data)
        for edge in g.directed:
            assert abs(init.get(*edge) - lam.get(*edge)) < 0.05 * (1 + abs(lam.get(*edge)))

    def test_orphan_column_empty(self):
        g = iv_graph()
        data = sample_errors(g, ErrorModel(), 100, seed=0)
        init = regression_init(g, data)
        assert ("v1", "v2") in init.values
        assert all(v != "v1" for _, v in init.values)

    def test_scalar_ols_formula(self):
        g = iv_graph()
        lam = sample_parameters(g, seed=9)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 2000, seed=9))
        init = regression_init(g, data)
        x1 = data.column("v1") - data.column("v1").mean()
        x2 = data.column("v2") - data.column("v2").mean()
        assert init.get("v1", "v2") == pytest.approx(float(x1 @ x2 / (x1 @ x1)), rel=1e-9)

    def test_collinear_parents_rejected(self):
        g = MixedGraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        values = np.random.default_rng(0).normal(size=(100, 3))
        values[:, 1] = 2 * values[:, 0]
        with pytest.raises(RankDeficientParents):
            regression_init(g, Dataset(g.vertices, values))

    def test_columns_must_match_the_graph(self):
        g = iv_graph()
        with pytest.raises(BindingMismatch, match="dataset columns"):
            regression_init(g, Dataset(g.vertices[::-1], np.ones((5, 3))))


class TestFit:
    def test_trace_non_increasing_and_descent(self):
        g = iv_graph()
        lam = sample_parameters(g, seed=12)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 800, seed=12))
        res = fit(g, data, polynomial_kernel(2, 1.0), lam, init_kind="true-value")
        trace = res.objective_trace
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))
        assert res.final_objective <= trace[0]
        assert res.converged

    def test_improves_on_regression_init(self):
        g = iv_graph()
        lam = sample_parameters(g, seed=14)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 4000, seed=14))
        init = regression_init(g, data)
        res = fit(g, data, polynomial_kernel(2, 1.0), init, init_kind="regression")
        assert normalized_frobenius_loss(res.lam_hat, lam) < normalized_frobenius_loss(init, lam)

    def test_respects_bounds(self, monkeypatch):
        monkeypatch.setattr(estimate, "_BOUND", 0.5)
        g = iv_graph()
        lam = sample_parameters(g, seed=15)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 300, seed=15))
        res = fit(g, data, polynomial_kernel(2, 1.0), ParamMatrix(g, {}))
        assert all(abs(v) <= 0.5 + 1e-9 for v in res.lam_hat.values.values())

    @pytest.mark.parametrize("scale", [0.3, 1.0, 11.0])
    def test_coefficients_on_the_bound_stay_in_the_box(self, scale, monkeypatch):
        # Both coefficients end on the standardised bound 0.1 * sd_u / sd_v; mapped back,
        # v2->v3 at scale 11 used to read 0.10000000000000002.
        monkeypatch.setattr(estimate, "_BOUND", 0.1)
        g = iv_graph()
        data = generate_data(g, sample_parameters(g, seed=0), sample_errors(g, ErrorModel(kind=LAPLACE), 200, seed=0))
        data = Dataset(data.columns, data.values * np.array([1.0, scale, 1.0]), data.provenance)
        res = fit(g, data, polynomial_kernel(2, 1.0), regression_init(g, data))
        assert all(abs(v) <= 0.1 for v in res.lam_hat.values.values())
        assert res.lam_hat.get("v1", "v2") == 0.1

    def test_rbf_bandwidths_are_set_at_the_clipped_start(self):
        # v1->v2 = 50, 80 and 500 all clip to the same standardised bound, so the three
        # fits start at one point and must resolve one bandwidth there, not one per start.
        g = iv_graph()
        data = generate_data(g, sample_parameters(g, 1), sample_errors(g, ErrorModel(), 300, seed=1))
        fits = [fit(g, data, rbf_kernel(), ParamMatrix(g, {("v1", "v2"): a, ("v2", "v3"): 0.5})) for a in (50, 80, 500)]
        assert [f.objective_trace[0] for f in fits] == [fits[0].objective_trace[0]] * 3
        assert [f.iterations for f in fits] == [fits[0].iterations] * 3
        assert [f.lam_hat.values for f in fits] == [fits[0].lam_hat.values] * 3

    @pytest.mark.parametrize("failing_call", [1, 4], ids=["start", "later"])
    def test_non_finite_objective_raises_with_the_last_iterate(self, failing_call, monkeypatch):
        # The columns' scales differ, so standardised and original coordinates differ;
        # the start (3.0, -0.2) lies outside the box, which clips it to (1.0, -0.2).
        monkeypatch.setattr(estimate, "_BOUND", 1.0)
        g = iv_graph()
        data = generate_data(g, sample_parameters(g, seed=3), sample_errors(g, ErrorModel(), 200, seed=3))
        data = Dataset(data.columns, data.values * np.array([0.5, 7.0, 3.0]), data.provenance)
        real, seen = _value_and_gradient, []

        def failing(layout, lam):
            seen.append(lam.copy())
            value, grad = real(layout, lam)
            return (math.inf if len(seen) == failing_call else value), grad

        monkeypatch.setattr(estimate, "_value_and_gradient", failing)
        with pytest.raises(NonFiniteObjective) as exc:
            fit(g, data, polynomial_kernel(2, 1.0), ParamMatrix(g, {("v1", "v2"): 3.0, ("v2", "v3"): -0.2}))
        assert len(seen) == failing_call
        last = exc.value.last_iterate
        assert all(abs(x) <= estimate._BOUND for x in last.values.values())
        sd = data.values.std(axis=0)
        for u, v in g.directed:
            standardised = seen[-1][g.index(u), g.index(v)]
            assert last.get(u, v) == pytest.approx(standardised * sd[g.index(v)] / sd[g.index(u)], rel=1e-12)
        if failing_call == 1:
            assert last.get("v1", "v2") == pytest.approx(1.0, rel=1e-15)
            assert last.get("v2", "v3") == pytest.approx(-0.2, rel=1e-15)

    def test_no_edges_graph(self):
        g = MixedGraph(["a", "b"], [], [])
        data = sample_errors(g, ErrorModel(), 50, seed=0)
        res = fit(g, data, polynomial_kernel(), ParamMatrix(g, {}))
        assert res.lam_hat.values == {} and res.converged

    def test_one_evaluation_per_scipy_call_and_one_feature_matrix_per_evaluation(self, monkeypatch):
        g = confounded_diamond()
        lam = sample_parameters(g, seed=16)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 400, seed=16))
        calls = {"_value_and_gradient": 0, "_Layout": 0, "cross-covariance": 0}
        scipy_results = []

        def counted(name):
            inner = getattr(estimate, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(estimate, name, wrapper)

        real_minimize = scipy.optimize.minimize

        def minimize(*args, **kwargs):
            scipy_results.append(real_minimize(*args, **kwargs))
            return scipy_results[-1]

        real_einsum = np.einsum

        def einsum(subscripts, *operands, **kwargs):
            # C = F F' of the stacked feature matrix, taken once per feature build
            calls["cross-covariance"] += subscripts == "in,jn->ij"
            return real_einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", minimize)
        monkeypatch.setattr(np, "einsum", einsum)
        counted("_value_and_gradient")
        counted("_Layout")
        res = fit(g, data, polynomial_kernel(2, 1.0), regression_init(g, data))
        evaluations = calls["_value_and_gradient"]
        assert res.iterations > 1
        assert evaluations == scipy_results[0].nfev
        assert calls["_Layout"] == 1
        assert calls["cross-covariance"] == evaluations
        assert len(res.objective_trace) == res.iterations + 1

    @staticmethod
    def evaluation_peak(layout, lam_dense):
        _value_and_gradient(layout, lam_dense)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _value_and_gradient(layout, lam_dense)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    @staticmethod
    def evaluation_calls(monkeypatch, layout, lam_dense):
        """_gram and _center calls in one evaluation of a layout built beforehand."""
        calls = {"_gram": 0, "_center": 0}
        for name in calls:
            inner = getattr(estimate, name)

            def counted(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(estimate, name, counted)
        value, grad = _value_and_gradient(layout, lam_dense)
        return calls, value, grad

    @staticmethod
    def rbf_layout(g, seed, n):
        data = generate_data(g, sample_parameters(g, seed), sample_errors(g, ErrorModel(kind=LAPLACE), n, seed=seed))
        point = ParamMatrix(g, {e: float(x) for e, x in zip(g.directed, np.random.default_rng(seed).normal(size=9))})
        kernels = {v: resolve_kernel(rbf_kernel(), data.column(v)) for v in g.vertices}
        return _Layout(g, kernels, data.values), point, data, kernels

    def test_iv_evaluation_centres_no_gram(self, monkeypatch):
        # Both pairs are (v1, vk): v1's centred Gram is held, so each pair builds vk's raw Gram only.
        g = iv_graph()
        layout, point, data, kernels = self.rbf_layout(g, 0, 80)
        assert layout.fixed.keys() == {0}
        calls, value, _ = self.evaluation_calls(monkeypatch, layout, point.dense())
        assert calls == {"_gram": 2, "_center": 0}
        assert value == pytest.approx(objective(g, point, data, kernels), rel=1e-12, abs=0)

    def test_pair_of_two_sides_with_parents_centres_both(self, monkeypatch):
        # c and d are each other's only partner, and each needs the other's centred Gram.
        g = MixedGraph(["a", "b", "c", "d"], [("a", "c"), ("b", "d")], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        layout, point, data, kernels = self.rbf_layout(g, 1, 80)
        assert estimate.independent_pairs(g) == (("a", "b"), ("c", "d")) and layout.fixed == {}
        calls, value, _ = self.evaluation_calls(monkeypatch, layout, point.dense())
        assert calls == {"_gram": 2, "_center": 2}
        assert value == pytest.approx(objective(g, point, data, kernels), rel=1e-12, abs=0)

    def test_pair_of_two_parentless_sides_is_constant(self, monkeypatch):
        # a and b are held for their pairs with c; the pair (a, b) is valued once, in the layout.
        g = MixedGraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        layout, point, data, kernels = self.rbf_layout(g, 2, 80)
        assert layout.fixed.keys() == {0, 1}
        assert layout.constant == hsic_biased(data.column("a"), data.column("b"), kernels["a"], kernels["b"])
        calls, value, _ = self.evaluation_calls(monkeypatch, layout, point.dense())
        assert calls == {"_gram": 2, "_center": 0}
        assert value == pytest.approx(objective(g, point, data, kernels), rel=1e-12, abs=0)

    def test_rbf_evaluation_peak_memory(self):
        # The pairwise oracle loop peaked at 5.02 n x n arrays per evaluation, the loop that
        # centred every non-held side at 3.05.  Each pair now builds one raw Gram, freed
        # before the next: 1.05 measured, plus v1's centred Gram held for the fit.
        n = 600
        g = iv_graph()
        lam = sample_parameters(g, seed=0)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(kind=LAPLACE), n, seed=0))
        x = data.values / data.values.std(axis=0)
        kernels = {v: resolve_kernel(rbf_kernel(), x[:, g.index(v)]) for v in g.vertices}
        layout = _Layout(g, kernels, x)
        assert layout.fixed.keys() == {g.index("v1")}
        assert layout.fixed[0].tobytes() == _center(_gram(x[:, 0], kernels["v1"])).tobytes()
        assert sum(gram.nbytes for gram in layout.fixed.values()) == 8 * n**2
        assert self.evaluation_peak(layout, lam.dense()) <= 1.1 * 8 * n**2

    def test_rbf_evaluation_peak_memory_does_not_grow_with_pairs(self):
        # 26 all-RBF pairs: (v1, v5) joins two parentless columns and is valued once, in the
        # layout; the other 25 are evaluated, each column in at least 5 of them.  One evaluation
        # still peaks at the pair-by-pair loop's 5 n x n arrays (5.06 measured there, 4.05 now),
        # and the layout holds exactly one centred Gram per parentless column, v1 and v5.
        n = 600
        g = random_admg(8, 0.3, 2)
        lam = sample_parameters(g, seed=2)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(kind=LAPLACE), n, seed=2))
        x = data.values / data.values.std(axis=0)
        r = x @ (np.eye(8) - lam.dense())
        kernels = {v: resolve_kernel(rbf_kernel(), r[:, g.index(v)]) for v in g.vertices}
        layout = _Layout(g, kernels, x)
        sides = [c for pair in layout.gram_pairs for c in pair]
        assert len(layout.gram_pairs) == 25 and min(map(sides.count, sides)) == 5
        roots = [g.index(v) for v in g.vertices if not g.parents(v)]
        assert layout.fixed.keys() == set(roots) == {0, 4}
        assert layout.constant == hsic_biased(x[:, 0], x[:, 4], kernels["v1"], kernels["v5"])
        for c in roots:
            assert layout.fixed[c].tobytes() == _center(_gram(x[:, c], kernels[g.vertices[c]])).tobytes()
        assert self.evaluation_peak(layout, lam.dense()) <= 5.1 * 8 * n**2

    def test_binding_mismatch(self):
        g = iv_graph()
        with pytest.raises(BindingMismatch):
            fit(g, Dataset(("a", "b", "c"), np.ones((5, 3))), polynomial_kernel(), ParamMatrix(g, {}))

    @pytest.mark.parametrize(
        "other",
        [
            MixedGraph(["v3", "v2", "v1"], [("v1", "v2"), ("v2", "v3")], [("v2", "v3")]),
            MixedGraph(["a", "b"], [("a", "b")]),
        ],
        ids=["reordered", "unrelated"],
    )
    def test_init_bound_to_another_graph(self, other):
        # residuals, gradient and objective refuse such a start; so does fit
        g = iv_graph()
        ds = generate_data(g, sample_parameters(g, 1), sample_errors(g, ErrorModel(), 50, 1))
        init = ParamMatrix(other, {other.directed[0]: 0.5})
        with pytest.raises(BindingMismatch, match="bound to a different graph"):
            fit(g, ds, polynomial_kernel(), init)


class TestLoss:
    def test_exact_zero(self):
        lam = sample_parameters(iv_graph(), seed=1)
        assert normalized_frobenius_loss(lam, lam) == 0.0

    def test_doubling_gives_one(self):
        lam = sample_parameters(iv_graph(), seed=1)
        doubled = ParamMatrix(lam.graph, {e: 2 * v for e, v in lam.values.items()})
        assert normalized_frobenius_loss(doubled, lam) == pytest.approx(1.0, rel=1e-12)

    def test_zero_estimate_gives_one(self):
        lam = sample_parameters(iv_graph(), seed=1)
        assert normalized_frobenius_loss(ParamMatrix(lam.graph, {}), lam) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_same_ratio_at_every_binary_scale(self, seed):
        # Scaling both matrices by 2**k changes no ratio; unscaled norms overflow
        # to inf (loss NaN) near k = 1000 and underflow to 0 near k = -1000.
        g = random_admg(6, 0.6, seed)
        true = sample_parameters(g, seed)
        rng = np.random.default_rng(seed)
        hat = ParamMatrix(g, {e: x + float(rng.normal()) for e, x in true.values.items()})
        loss = normalized_frobenius_loss(hat, true)
        for k in (-1000, -500, -1, 1, 500, 1000):
            scaled = [ParamMatrix(g, {e: math.ldexp(x, k) for e, x in m.values.items()}) for m in (hat, true)]
            assert normalized_frobenius_loss(*scaled) == loss

    def test_zero_reference_rejected(self):
        g = iv_graph()
        with pytest.raises(ZeroTrueMatrix):
            normalized_frobenius_loss(ParamMatrix(g, {}), ParamMatrix(g, {}))

    def test_matrices_on_different_graphs_rejected(self):
        lam = sample_parameters(iv_graph(), seed=1)
        with pytest.raises(BindingMismatch, match="bound to a different graph"):
            normalized_frobenius_loss(lam, ParamMatrix(confounded_diamond(), {("v1", "v2"): 1.0}))
