"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 2d is a known-red check: it asserts a rank
degeneration that cannot occur (the relevant path-matrix block is
unimodular); it is kept faithful to its stated expectation rather than
weakened, and the failure message carries the analysis.
"""

import math
import time
from itertools import combinations

import numpy as np

from admgident import (
    Dataset,
    ErrorModel,
    MixedGraph,
    ParamMatrix,
    build_flow_network,
    cycle_decomposition_identifiable,
    cyclic_necessary_condition,
    empirical_cumulant,
    fit,
    generate_data,
    genericity_sufficient,
    gradient,
    hsic_biased,
    is_identifiable,
    is_matrix_identifiable,
    max_flow,
    nongeneric_locus_check,
    normalized_frobenius_loss,
    objective,
    random_admg,
    regression_init,
    removable_ancestors,
    residuals,
    sample_errors,
    sample_parameters,
    verify_sweep,
)
from admgident.cli import survey
from admgident.estimate import polynomial_kernel, rbf_kernel, resolve_kernel
from admgident.oracle import generic_parameters
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

LAM_SEED_BASE = 1000
DATA_SEED_BASE = 5000
SAMPLE_SIZES = (500, 1000, 2000, 4000)
N_SEEDS = 20


def _report(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {tag}] {status} {detail}".rstrip())


def test_criterion_1_triple_oracle_agreement():
    """Flow rank = exhaustive path-system rank = modal numeric rank, with zero
    mismatches over all mixed graphs on <= 4 vertices plus 1000 seeded
    5-vertex samples (runtime target: two minutes)."""
    t0 = time.time()
    report = verify_sweep(max_vertices=5, seed=0, sample_count=1000)
    elapsed = time.time() - t0
    ok = report["mismatches"] == [] and report["graphs"] > 35_000
    _report(
        "1",
        ok,
        f"graphs={report['graphs']} checks={report['checks']} "
        f"mismatches={len(report['mismatches'])} time={elapsed:.1f}s (target 120s)",
    )
    assert report["mismatches"] == []
    assert report["graphs"] == 35_959


def test_criterion_2a_confounded_diamond():
    g = confounded_diamond()
    removable_ok = (
        removable_ancestors(g, "v2") == frozenset()
        and removable_ancestors(g, "v4") == {"v1", "v2"}
    )
    verdicts = is_matrix_identifiable(g).edges
    verdict_ok = (
        verdicts[("v1", "v2")] is False
        and verdicts[("v2", "v4")] is True
        and verdicts[("v3", "v4")] is True
    )
    flow0 = max_flow(build_flow_network(g, "v2", g.parents("v2")))
    flow2 = max_flow(build_flow_network(g, "v4", g.parents("v4")))
    ok = removable_ok and verdict_ok and flow0 == 0 and flow2 == 2
    _report("2a", ok, f"flows=({flow0},{flow2})")
    assert ok


def test_criterion_2b_half_identifiable_collider():
    g = half_identifiable_collider()
    ok = (
        removable_ancestors(g, "v4") == {"v2"}
        and is_identifiable(g, "v4", ["v2"])
        and not is_identifiable(g, "v4", ["v3"])
    )
    _report("2b", ok, "only the v2 -> v4 coefficient resolves")
    assert ok


def test_criterion_2c_double_confounder_identifiable():
    report = is_matrix_identifiable(double_confounder())
    ok = report.all_identifiable and all(report.edges.values())
    _report("2c", ok, "all columns and edges identifiable")
    assert ok


def test_criterion_2d_double_confounder_rank_drop_locus():
    """Stated expectation: a rank drop of the column-v3 system at a point with
    l01*(l01*l12 + l02) = 1.  The block in question is [[1, l01], [0, 1]] for
    every parameter value (the only vertex-disjoint system from the removable
    ancestors onto the parents is the trivial identity pairing, so its
    determinant is identically one), hence no rank drop exists anywhere; the
    fiber solver confirms unique recovery at the stated point.  Kept faithful
    and expected to fail; see the decisions ledger."""
    g = double_confounder()
    lam = ParamMatrix(g, {("v1", "v2"): 1.0, ("v2", "v3"): 0.5, ("v1", "v3"): 0.5})
    detected = nongeneric_locus_check(g, lam, "v3")
    _report("2d", detected, "rank drop at l01*(l01*l12+l02)=1")
    assert detected, (
        "no rank drop detected at the stated locus: the parent-by-removable "
        "path-matrix block of this graph is unimodular (determinant "
        "identically 1), so its numeric rank equals the flow rank at every "
        "parameter point, including l01=1, l12=l02=0.5"
    )


def test_criterion_2e_instrumental_variable():
    g = iv_graph()
    ok = is_identifiable(g, "v2", ["v1"]) and is_identifiable(g, "v3", ["v2"])
    _report("2e", ok, "both IV coefficients identifiable")
    assert ok


def test_criterion_3_cyclic_results():
    two_cycle_bad = not cycle_decomposition_identifiable(two_cycle())
    longer_good = all(cycle_decomposition_identifiable(k_cycle(k)) for k in (3, 4, 5))
    verdicts = cyclic_necessary_condition(confounded_feedback())
    feedback_fails = verdicts == {"v1": True, "v2": False, "v3": True}
    ok = two_cycle_bad and longer_good and feedback_fails
    _report("3", ok, f"2-cycle={not two_cycle_bad} k-cycles ok={longer_good} v2-fail={feedback_fails}")
    assert ok


def test_criterion_4_survey_shape():
    """Proportion of identifiable random 25-vertex graphs: high at density
    0.1, near zero at 0.9, weakly decreasing within 0.05 noise (runtime
    target: five minutes)."""
    t0 = time.time()
    densities = [round(0.1 * k, 1) for k in range(1, 10)]
    rows = survey(25, densities, reps=500, seed=0)
    elapsed = time.time() - t0
    props = [r.proportion_identifiable for r in rows]
    low_ok = props[0] >= 0.7
    high_ok = props[-1] <= 0.1
    monotone_ok = all(b <= a + 0.05 for a, b in zip(props, props[1:]))
    ok = low_ok and high_ok and monotone_ok
    _report("4", ok, f"proportions={[round(p, 3) for p in props]} time={elapsed:.0f}s (target 300s)")
    assert ok


def _hsic_double_sum(x, y, kx, ky):
    """Independent O(n^2) oracle: the centered-trace expansion, plain loops."""

    def kval(spec, a, b):
        if spec.kind == "polynomial":
            return (a * b + spec.offset) ** spec.degree
        return math.exp(-((a - b) ** 2) / (2 * spec.bandwidth**2))

    n = len(x)
    k = [[kval(kx, x[i], x[j]) for j in range(n)] for i in range(n)]
    l = [[kval(ky, y[i], y[j]) for j in range(n)] for i in range(n)]
    term1 = sum(k[i][j] * l[i][j] for i in range(n) for j in range(n)) / n**2
    total_k = sum(sum(row) for row in k)
    total_l = sum(sum(row) for row in l)
    term2 = total_k * total_l / n**4
    term3 = 2.0 / n**3 * sum(sum(k[i]) * sum(l[i]) for i in range(n))
    return term1 + term2 - term3


def test_criterion_5_hsic_against_double_sum():
    """Estimator equals the direct double-sum oracle to 1e-10 relative on 100
    random inputs with n <= 50; symmetric; >= -1e-12; zero on constants
    (runtime target: ten seconds)."""
    t0 = time.time()
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 51))
        x = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
        y = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
        if trial % 3 == 0:
            y = y + 0.5 * x**2
        if trial % 4 == 0:
            kx = resolve_kernel(rbf_kernel(), x)
            ky = resolve_kernel(rbf_kernel(), y)
        else:
            kx = polynomial_kernel(2, 1.0)
            ky = polynomial_kernel(int(rng.integers(1, 4)), 1.0)
        got = hsic_biased(x, y, kx, ky)
        want = _hsic_double_sum(x, y, kx, ky)
        worst = max(worst, abs(got - want) / (1 + abs(want)))
        assert abs(got - want) <= 1e-10 * (1 + abs(want))
        assert got == hsic_biased(y, x, ky, kx)
        assert got >= -1e-12
    const = hsic_biased(np.full(25, 1.3), rng.normal(size=25), polynomial_kernel(), polynomial_kernel())
    elapsed = time.time() - t0
    ok = const == 0.0 and worst <= 1e-10
    _report("5", ok, f"worst rel dev={worst:.2e} time={elapsed:.1f}s (target 10s)")
    assert const == 0.0


def test_criterion_6_gradient_against_finite_differences():
    """Analytic gradient vs central finite differences, relative error 1e-5,
    over 50 random (graph, point, n=200) triples (runtime target: 30s)."""
    t0 = time.time()
    worst = 0.0
    for trial in range(50):
        g = random_admg(3 + trial % 2, 0.6, seed=300 + trial)
        lam = sample_parameters(g, seed=trial)
        data = generate_data(g, lam, sample_errors(g, ErrorModel(), 200, seed=trial))
        rng = np.random.default_rng(trial)
        point = generic_parameters(g, rng)
        base = rbf_kernel() if trial % 5 == 0 else polynomial_kernel(2, 1.0)
        kernels = {
            v: resolve_kernel(base, residuals(g, point, data).column(v)) for v in g.vertices
        }
        grad = gradient(g, point, data, kernels)
        for edge in g.directed:
            step = 1e-5 * (1 + abs(point.get(*edge)))
            up, dn = dict(point.values), dict(point.values)
            up[edge] = up.get(edge, 0.0) + step
            dn[edge] = dn.get(edge, 0.0) - step
            fd = (
                objective(g, ParamMatrix(g, up), data, kernels)
                - objective(g, ParamMatrix(g, dn), data, kernels)
            ) / (2 * step)
            rel = abs(grad.get(*edge) - fd) / max(abs(fd), abs(grad.get(*edge)), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-5, f"gradient mismatch at {edge}: rel={rel:.2e}"
    elapsed = time.time() - t0
    _report("6", worst <= 1e-5, f"worst rel err={worst:.2e} time={elapsed:.1f}s (target 30s)")


def _median_losses(g):
    medians = {}
    for n in SAMPLE_SIZES:
        losses = []
        for s in range(N_SEEDS):
            lam = sample_parameters(g, seed=LAM_SEED_BASE + s)
            errors = sample_errors(g, ErrorModel(), n, seed=DATA_SEED_BASE + s)
            data = generate_data(g, lam, errors)
            init = regression_init(g, data)
            res = fit(g, data, polynomial_kernel(2, 1.0), init, init_kind="regression")
            losses.append(normalized_frobenius_loss(res.lam_hat, lam))
        medians[n] = float(np.median(losses))
    return medians


def _median_edge_errors(g, edge):
    medians = {}
    for n in SAMPLE_SIZES:
        errs = []
        for s in range(N_SEEDS):
            lam = sample_parameters(g, seed=LAM_SEED_BASE + s)
            errors = sample_errors(g, ErrorModel(), n, seed=DATA_SEED_BASE + s)
            data = generate_data(g, lam, errors)
            init = regression_init(g, data)
            res = fit(g, data, polynomial_kernel(2, 1.0), init, init_kind="regression")
            errs.append(abs(res.lam_hat.get(*edge) - lam.get(*edge)))
        medians[n] = float(np.median(errs))
    return medians


def _strictly_decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def test_criterion_7a_instrumental_variable_convergence():
    """Median loss strictly decreasing in n with the n=4000 median under half
    the n=500 median (20 seeds, Laplace errors, degree-2 kernel, regression
    init; runtime target for all of criterion 7: fifteen minutes)."""
    t0 = time.time()
    med = _median_losses(iv_graph())
    values = [med[n] for n in SAMPLE_SIZES]
    ok = _strictly_decreasing(values) and med[4000] < 0.5 * med[500]
    _report(
        "7a",
        ok,
        f"IV medians={[round(v, 4) for v in values]} time={time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_7b_double_confounder_convergence():
    """Same protocol on the double-confounder graph.  The degree-2 kernel only
    constrains four joint moments, and under the heavy shared-latent
    confounding of the sampling recipe the objective carries spurious
    attractors whose basins capture the regression init for a stable fraction
    of seeds; their loss does not shrink with n, so the median neither halves
    nor strictly decreases.  Kept faithful and expected to fail; see the
    decisions ledger."""
    t0 = time.time()
    med = _median_losses(double_confounder())
    values = [med[n] for n in SAMPLE_SIZES]
    ok = _strictly_decreasing(values) and med[4000] < 0.5 * med[500]
    _report(
        "7b",
        ok,
        f"double-confounder medians={[round(v, 4) for v in values]} time={time.time() - t0:.0f}s",
    )
    assert ok, (
        "double-confounder medians do not strictly decrease and halve: "
        f"{[round(v, 4) for v in values]}; the degree-2 objective admits "
        "spurious minimizers under the mandated error recipe, and no "
        "initialization-faithful optimizer choice changes which basin the "
        "regression start falls into"
    )


def test_criterion_7c_partially_identifiable_column():
    """On the half-identifiable collider, the identifiable coefficient's
    median absolute error decreases in n while the non-identifiable one does
    not halve."""
    t0 = time.time()
    g = half_identifiable_collider()
    med24 = _median_edge_errors(g, ("v2", "v4"))
    med34 = _median_edge_errors(g, ("v3", "v4"))
    vals24 = [med24[n] for n in SAMPLE_SIZES]
    vals34 = [med34[n] for n in SAMPLE_SIZES]
    ok = _strictly_decreasing(vals24) and not med34[4000] < 0.5 * med34[500]
    _report(
        "7c",
        ok,
        f"identifiable={[round(v, 4) for v in vals24]} "
        f"non-identifiable={[round(v, 4) for v in vals34]} time={time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_8_simulator_diagnostics():
    """Cross-cumulants over bidirected-disconnected index sets vanish to
    5/sqrt(n) on standardized errors, and Laplace marginals show excess
    kurtosis 3 within 10% (runtime target: one minute)."""
    t0 = time.time()
    n = 100_000
    bound = 5 / math.sqrt(n)
    g = confounded_diamond()
    errors = sample_errors(g, ErrorModel(), n, seed=11)
    std = Dataset(errors.columns, errors.values / errors.values.std(axis=0))
    disconnected = (
        ("v1", "v3"),
        ("v1", "v4"),
        ("v2", "v3"),
        ("v1", "v3", "v4"),
        ("v1", "v1", "v3"),
        ("v2", "v3", "v3"),
        ("v1", "v4", "v4"),
    )
    worst = max(abs(empirical_cumulant(std, idx)) for idx in disconnected)

    skeleton = MixedGraph(g.vertices, g.directed)
    marginals = sample_errors(skeleton, ErrorModel(), n, seed=11)
    kurt_dev = 0.0
    for v in skeleton.vertices:
        col = Dataset((v,), marginals.column(v)[:, None])
        excess = empirical_cumulant(col, (v,) * 4) / empirical_cumulant(col, (v, v)) ** 2
        kurt_dev = max(kurt_dev, abs(excess - 3.0))
    ok = worst <= bound and kurt_dev <= 0.3
    _report(
        "8",
        ok,
        f"worst cumulant={worst:.4f} (bound {bound:.4f}) "
        f"worst kurtosis dev={kurt_dev:.3f} time={time.time() - t0:.0f}s (target 60s)",
    )
    assert worst <= bound
    assert kurt_dev <= 0.3


def test_criterion_9_genericity_checker():
    one_big = genericity_sufficient(factor_one_big_latent())
    three_big = genericity_sufficient(factor_three_big_latents())
    ok = one_big[("v2", "v3")] is False and all(three_big.values()) and len(three_big) == 8
    _report("9", ok, f"single-latent inner edge={one_big[('v2', 'v3')]} padded all={all(three_big.values())}")
    assert ok
