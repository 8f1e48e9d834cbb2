"""Coefficient estimation by minimizing residual dependence.

The sample objective sums the biased HSIC estimator over all vertex pairs
that carry no bidirected edge, applied to the residual columns of a
candidate coefficient matrix.  Gradients are analytic; the optimizer is
box-constrained L-BFGS (memory 10) from scipy, with the search space
clamped to |coefficient| <= _BOUND.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .admg import MixedGraph, edge_keys
from .errors import (
    BindingMismatch,
    LengthMismatch,
    NonFiniteObjective,
    RankDeficientParents,
    ZeroTrueMatrix,
)
from .simulate import Dataset, ParamMatrix, _require_binding

POLYNOMIAL = "polynomial"
RBF = "rbf"


@dataclass(frozen=True)
class KernelSpec:
    """A scalar kernel: polynomial (x*y + offset)^degree, degree an integer >= 1, or Gaussian RBF.

    An RBF bandwidth of None means "resolve by the median heuristic on the
    data it is first applied to"; fit() resolves bandwidths once, at the
    residuals of its start clipped into the box, and holds them fixed during
    optimization.  `gradient` and `fit` take one kernel for every column.
    """

    kind: str
    degree: int = 2
    offset: float = 1.0
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in (POLYNOMIAL, RBF):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == POLYNOMIAL and (
            isinstance(self.degree, bool) or not isinstance(self.degree, numbers.Integral) or self.degree < 1
        ):
            raise ValueError(f"polynomial degree must be an integer >= 1, got {self.degree!r}")
        if self.kind == POLYNOMIAL and not 0 <= self.offset < math.inf:
            raise ValueError("polynomial offset must be finite and >= 0")
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")


def polynomial_kernel(degree: int = 2, offset: float = 1.0) -> KernelSpec:
    return KernelSpec(kind=POLYNOMIAL, degree=degree, offset=offset)


def rbf_kernel(bandwidth: float | None = None) -> KernelSpec:
    return KernelSpec(kind=RBF, bandwidth=bandwidth)


def median_bandwidth(x: np.ndarray) -> float:
    """Median of the nonzero pairwise distances; 1.0 for constant input."""
    xs = np.sort(np.asarray(x, dtype=float).ravel())  # xs[j] - xs[i], i < j: the same doubles as |x_a - x_b|
    d = np.concatenate([xs[i + 1:] - xs[i] for i in range(xs.size - 1)] or [xs[:0]])
    d = d[d > 0]
    return float(np.median(d)) if d.size else 1.0


def resolve_kernel(spec: KernelSpec, x: np.ndarray) -> KernelSpec:
    """Freeze an unresolved RBF bandwidth using the median heuristic on x."""
    if spec.kind == RBF and spec.bandwidth is None:
        return KernelSpec(kind=RBF, bandwidth=median_bandwidth(x))
    return spec


def _bandwidth_sq(spec: KernelSpec) -> float:
    """sigma**2, or inf where it overflows: the sigma -> inf limit, a constant Gram with zero gradient."""
    try:
        return spec.bandwidth**2
    except OverflowError:
        return math.inf


def _gram(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    if spec.kind == POLYNOMIAL:
        return (np.outer(x, x) + spec.offset) ** spec.degree
    spec = resolve_kernel(spec, x)
    # exp(d**2 / -(2 sigma^2)) in one n x n buffer: division rounds sign-symmetrically,
    # so this is bit for bit exp(-(d**2) / (2 sigma^2))
    k = np.subtract.outer(x, x)
    np.square(k, out=k)
    np.divide(k, -2.0 * _bandwidth_sq(spec), out=k)
    return np.exp(k, out=k)


def _center(k: np.ndarray) -> np.ndarray:
    c = k - k.mean(axis=1, keepdims=True)
    c -= k.mean(axis=0, keepdims=True)
    c += k.mean()
    return c


def hsic_biased(x, y, kx: KernelSpec, ky: KernelSpec) -> float:
    """Biased HSIC estimator trace(Kx H Ky H) / n^2.

    Computed with both Gram matrices double-centered, which makes the value
    exactly symmetric in (x, y); it is nonnegative up to rounding.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"column lengths differ: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 2:
        raise LengthMismatch("need at least 2 samples")
    kc = _center(_gram(x, kx))
    lc = _center(_gram(y, ky))
    return float(np.sum(kc * lc)) / n**2


def independent_pairs(g: MixedGraph) -> tuple:
    """Unordered vertex pairs without a bidirected edge, in declaration order."""
    sib = {v: set(g.siblings(v)) for v in g.vertices}
    out = []
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            if v not in sib[u]:
                out.append((u, v))
    return tuple(out)


def residuals(g: MixedGraph, lam_tilde: ParamMatrix, ds: Dataset) -> Dataset:
    """Residual columns X_v - sum over parents u of lam[u, v] * X_u."""
    _require_binding(g, lam_tilde)
    if ds.columns != g.vertices:
        raise BindingMismatch("dataset columns must match the graph vertices")
    p = g.num_vertices
    r = ds.values @ (np.eye(p) - lam_tilde.dense())
    return Dataset(columns=g.vertices, values=r, provenance={"generator": "residuals"})


def _kernel_for(kernels, v: str) -> KernelSpec:
    if isinstance(kernels, KernelSpec):
        return kernels
    return kernels[v]


def objective(g: MixedGraph, lam_tilde: ParamMatrix, ds: Dataset, kernels) -> float:
    """Sum of hsic_biased over residual pairs lacking a bidirected edge."""
    r = residuals(g, lam_tilde, ds).values
    total = 0.0
    for u, v in independent_pairs(g):
        total += hsic_biased(
            r[:, g.index(u)], r[:, g.index(v)], _kernel_for(kernels, u), _kernel_for(kernels, v)
        )
    return total


def gradient(g: MixedGraph, lam_tilde: ParamMatrix, ds: Dataset, kernels) -> ParamMatrix:
    """Exact partial derivatives of the objective in each free coefficient, under one kernel (see `_Layout`)."""
    layout = _Layout(g, _resolved(g, kernels, ds, lam_tilde), ds.values)
    _, grad_vec = _value_and_gradient(layout, lam_tilde.dense())
    return ParamMatrix(g, {edge: float(x) for edge, x in zip(g.directed, grad_vec)})


def _resolved(g: MixedGraph, kernels, ds: Dataset, lam_tilde: ParamMatrix) -> dict:
    """Per-vertex kernels with RBF bandwidths frozen at the given residuals."""
    r = residuals(g, lam_tilde, ds).values
    return {v: resolve_kernel(_kernel_for(kernels, v), r[:, g.index(v)]) for v in g.vertices}


class _Layout:
    """Index arrays, feature coefficients and fixed Grams of one objective over data x.

    One kernel serves every column: a per-vertex mapping whose specs differ
    in kind, or in polynomial degree or offset, is a ValueError; RBF
    bandwidths may differ per column.  The polynomial kernel (x*y + c)^d
    has the explicit features sqrt(C(d,k) c^(d-k)) x^k; power 0 is constant
    and centres to zero, so only powers 1..d are kept.  Features are stacked
    power-major, one row of n samples each: row k*p + j holds power k+1 of
    column j, scaled by `coef[k]`.  `mask` is 1 on the blocks of independent
    pairs, in both orders.  Under RBF (degree 0, no features) every
    independent pair goes to `gram_pairs`.  A parentless column's residual
    is its data column for every coefficient, so a Gram pair of two
    parentless sides adds the constant `constant`, and `fixed` holds the
    centred Gram of each parentless side paired with a column that has
    parents.
    """

    def __init__(self, g: MixedGraph, kernels: dict, x: np.ndarray):
        specs = [kernels[v] for v in g.vertices]
        shapes = {(s.kind, s.degree, s.offset) if s.kind == POLYNOMIAL else (RBF, 0, 0.0) for s in specs}
        if len(shapes) > 1:
            raise ValueError("one kernel per objective: the columns' kernels differ in kind, degree or offset")
        _, d, offset = shapes.pop() if shapes else (RBF, 0, 0.0)
        p, has_parents = g.num_vertices, [bool(g.parents(v)) for v in g.vertices]
        pairs = [(g.index(u), g.index(v)) for u, v in independent_pairs(g)]
        self.x, self.degree = x, d
        self.coef = np.array([math.sqrt(math.comb(d, k) * offset ** (d - k)) for k in range(1, d + 1)])
        pair_mask = np.zeros((p, p))
        for i, j in pairs:
            pair_mask[i, j] = pair_mask[j, i] = 1.0
        self.mask = np.tile(pair_mask, (d, d))
        # columns whose residual depends on a coefficient, and their features
        self.grad = np.flatnonzero(has_parents)
        self.grad_feats = (np.arange(d)[:, None] * p + self.grad).ravel()
        self.grad_coef = self.coef * np.arange(1, d + 1)
        self.gram_pairs = [] if d else [(i, j, specs[i], specs[j], has_parents[i], has_parents[j]) for i, j in pairs]
        self.constant = sum(
            hsic_biased(x[:, i], x[:, j], ki, kj) for i, j, ki, kj, need_i, need_j in self.gram_pairs
            if not (need_i or need_j)
        )
        held = {c for i, j, _, _, need_i, need_j in self.gram_pairs for c, need in ((i, need_i), (j, need_j))
                if need_i != need_j and not need}
        self.fixed = {c: _center(_gram(x[:, c], specs[c])) for c in sorted(held)}
        self.edges = (
            np.array([g.index(u) for u, _ in g.directed], dtype=int),
            np.array([g.index(v) for _, v in g.directed], dtype=int),
        )


def _value_and_gradient(layout: _Layout, lam_dense: np.ndarray):
    """Objective value plus the gradient vector over the directed edges of the layout's data.

    The chain rule runs through the residual columns: residual v moves by
    -X_u per unit of the (u, v) coefficient, so each edge gradient is the
    inner product of -X_u with the accumulated HSIC gradient of column v.

    Under the polynomial kernel trace(Kx H Ky H) is the squared Frobenius
    norm of the centred feature cross-covariance, so one stacked feature
    matrix F gives every pair at once: C = F'F, the value is half the masked
    sum of C*C, and F (mask*C) is every column's feature-space gradient.
    The contractions use einsum's own loops rather than BLAS: inside the
    L-BFGS loop, waking a second BLAS thread per product costs more than it
    saves.

    Under RBF, Gram pairs use trace(K H L H) = sum(K * HLH), H being
    idempotent: one raw and one centred side give the value, by the rule in
    `_gram_pair`.  Gradients are bit for bit those of the tests' pairwise
    reference; the value differs from it by rounding.
    """
    x = layout.x
    n, p = x.shape
    r = x @ (np.eye(p) - lam_dense)
    gcol = np.zeros((p, n))  # residual-space gradient of each column, one row per column
    total = 0.0
    if layout.degree:
        powers = np.empty((layout.degree, p, n))
        powers[0] = r.T
        for k in range(1, layout.degree):
            np.multiply(powers[k - 1], r.T, out=powers[k])
        f = (powers * layout.coef[:, None, None]).reshape(-1, n)
        f -= f.mean(axis=1, keepdims=True)
        c = np.einsum("in,jn->ij", f, f)
        mc = layout.mask * c
        total = 0.5 * float(np.einsum("ij,ij->", mc, c)) / n**2
        gf = np.einsum("ij,in->jn", mc[:, layout.grad_feats], f).reshape(layout.degree, layout.grad.size, n)
        # d/dx of power k+1 is (k+1) x^k: the constant for the first power, then the powers below
        deriv = np.empty_like(gf)
        deriv[0] = 1.0
        deriv[1:] = powers[:-1, layout.grad]
        gcol[layout.grad] = (2.0 / n**2) * np.einsum("kjn,kjn,k->jn", deriv, gf, layout.grad_coef)
    total += layout.constant
    for pair in layout.gram_pairs:
        if pair[4] or pair[5]:  # else both residuals are data columns, in layout.constant
            total += _gram_pair(layout, r, gcol, *pair)
    u, v = layout.edges
    return total, -np.einsum("ne,en->e", x[:, u], gcol[v])


def _gram_pair(layout, r, gcol, i, j, ki, kj, need_i, need_j) -> float:
    """HSIC of one RBF pair with a side that has parents; adds its side gradients to gcol.

    Each side with parents builds its raw Gram.  A side its partner needs is
    centred, or held by the layout when it has no parents.  Each side with
    parents adds its gradient, and the last one gives the value.  The pair's
    n x n arrays are freed on return, before the next pair builds its own.
    """
    n = r.shape[0]
    raw = {c: _gram(r[:, c], spec) for c, spec, need in ((i, ki, need_i), (j, kj, need_j)) if need}
    centred = {c: _center(raw[c]) if c in raw else layout.fixed[c] for c, partner in ((i, j), (j, i)) if partner in raw}
    for c, spec, partner in ((i, ki, j), (j, kj, i)):
        if c in raw:
            grad, value = _gram_side(r[:, c], spec, raw[c], centred[partner], n)
            gcol[c] += grad
    return value


def _gram_side(x, spec, k, other_centered, n):
    """An RBF side's gradient and the pair value sum(K * HLH) / n^2, from its raw Gram k, which it overwrites."""
    # d/dx_a of sum_ij K_ij (H L H)_ij = 2 sum_j (HLH)_aj dK_aj/dx_a; w = K * (HLH), its row sums give the value
    w = np.multiply(k, other_centered, out=k)
    rows = w.sum(axis=1)
    return (2.0 / (n**2 * _bandwidth_sq(spec))) * (w @ x - rows * x), float(rows.sum()) / n**2


def regression_init(g: MixedGraph, ds: Dataset) -> ParamMatrix:
    """Per-vertex least squares of X_v on its parent columns, centered."""
    if ds.columns != g.vertices:
        raise BindingMismatch("dataset columns must match the graph vertices")
    with np.errstate(over="ignore"):  # the finite check reports an overflow
        x = ds.values - ds.values.mean(axis=0)
    if not np.all(np.isfinite(x)):
        raise BindingMismatch("centring the data overflows: values too large for float arithmetic")
    values = {}
    for v in g.vertices:
        pa = g.parents(v)
        if not pa:
            continue
        if ds.n <= len(pa):
            raise RankDeficientParents(f"need more than {len(pa)} samples for column {v!r}")
        xp = x[:, [g.index(u) for u in pa]]
        coef, _, rank, _ = np.linalg.lstsq(xp, x[:, g.index(v)], rcond=None)
        if rank < len(pa):
            raise RankDeficientParents(f"parent columns of {v!r} are collinear")
        if not np.all(np.isfinite(coef)):
            raise BindingMismatch(f"regression coefficients of {v!r} overflow: values too far apart for float arithmetic")
        for u, b in zip(pa, coef):
            values[(u, v)] = float(b)
    return ParamMatrix(g, values)


# coefficient box |value| <= _BOUND, L-BFGS-B iteration cap and projected-gradient tolerance
_BOUND = 50.0
_MAX_ITER = 500
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class EstimateResult:
    """Fitted coefficients plus optimizer diagnostics."""

    lam_hat: ParamMatrix
    objective_trace: tuple
    iterations: int
    converged: bool
    init_kind: str
    final_objective: float

    def to_dict(self) -> dict:
        return {
            "edges": {key: self.lam_hat.values.get(edge, 0.0) for edge, key in edge_keys(self.lam_hat.graph.directed).items()},
            "final_objective": self.final_objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "init": self.init_kind,
            "objective_trace": list(self.objective_trace),
        }


def fit(
    g: MixedGraph,
    ds: Dataset,
    kernels,
    init: ParamMatrix,
    init_kind: str = "custom",
) -> EstimateResult:
    """Minimize the residual-dependence objective from the given start.

    `kernels` is one kernel, as for `gradient`: a mixed mapping is a
    ValueError before any evaluation.  Coefficients are box-constrained to
    |value| <= _BOUND.  RBF bandwidths
    are resolved once at the residuals of the start, clipped into the box,
    and then held fixed, keeping the objective smooth in the coefficients.
    The search runs on columns scaled to unit variance: independence is scale-invariant, so the
    population zero set is unchanged, while conditioning improves a lot on
    data whose column variances span orders of magnitude.  Results come
    back in the original coordinates.
    """
    _require_binding(g, init)
    if ds.columns != g.vertices:
        raise BindingMismatch("dataset columns must match the graph vertices")
    if ds.n < 2:
        raise LengthMismatch(f"need at least 2 samples, got {ds.n}")
    edges = g.directed
    p = g.num_vertices

    # std of each column scaled into [0.5, 1) by a power of two, scaled back:
    # exact, and no square overflows however large the cells are
    top = np.abs(ds.values).max(axis=0, initial=0.0)
    _, exponent = np.frexp(top)
    sd = np.ldexp(np.ldexp(ds.values, -exponent).std(axis=0), exponent)
    # a constant column is scaled to +-1 instead, and an all-zero one by 1
    sd = np.where(sd > 0.0, sd, np.where(top > 0.0, top, 1.0))
    # lam_std[u, v] = lam[u, v] * sd_u / sd_v, an exact reparameterization;
    # a scale or box past the float range is inf, which bounds nothing
    with np.errstate(over="ignore"):
        edge_scale = np.array([sd[g.index(u)] / sd[g.index(v)] for u, v in edges])
        init = ParamMatrix(
            g, {(u, v): x * sd[g.index(u)] / sd[g.index(v)] for (u, v), x in init.values.items()}
        )
        box = _BOUND * edge_scale
    ds = Dataset(ds.columns, ds.values / sd, ds.provenance)

    x0 = np.clip([init.values.get(edge, 0.0) for edge in edges], -box, box)
    layout = _Layout(g, _resolved(g, kernels, ds, ParamMatrix(g, dict(zip(edges, x0)))), ds.values)

    def pack(vec: np.ndarray) -> np.ndarray:
        lam = np.zeros((p, p))
        lam[layout.edges] = vec
        return lam

    trace = []  # opened by fun's first call, at x0, where L-BFGS-B starts

    def fun(vec):
        with np.errstate(over="ignore", invalid="ignore"):  # the finite check reports an overflow
            value, grad = _value_and_gradient(layout, pack(vec))
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise _NonFinite(vec)
        if not trace:
            trace.append(value)
        return value, grad

    def unscale(vec: np.ndarray) -> ParamMatrix:
        # a coefficient on a standardised bound can round past the box on the way back;
        # a scale that underflowed to 0 pins its edge at 0, which stays 0
        lam = np.divide(vec, edge_scale, out=np.zeros(len(vec)), where=edge_scale != 0)
        lam = np.clip(lam, -_BOUND, _BOUND)
        return ParamMatrix(g, {edge: float(lam[i]) for i, edge in enumerate(edges)})

    def record(intermediate_result):
        trace.append(intermediate_result.fun)

    try:
        if edges:
            # imported here, not at the top: it is most of the package's import time, and only fits use it
            from scipy.optimize import minimize

            res = minimize(
                fun,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=list(zip(-box, box)),
                callback=record,
                options={
                    "maxiter": _MAX_ITER,
                    "maxcor": 10,
                    "gtol": _GRAD_TOL,
                    "ftol": 1e-14,
                },
            )
            x, iterations, converged, final = res.x, int(res.nit), bool(res.status == 0), float(res.fun)
        else:
            x, iterations, converged, final = x0, 0, True, fun(x0)[0]
    except _NonFinite as exc:
        message = "objective became non-finite during optimization"
        raise NonFiniteObjective(message, last_iterate=unscale(exc.vec)) from None

    return EstimateResult(
        lam_hat=unscale(x),
        objective_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
        init_kind=init_kind,
        final_objective=final,
    )


class _NonFinite(Exception):
    def __init__(self, vec):
        self.vec = vec


def normalized_frobenius_loss(lam_hat: ParamMatrix, lam_true: ParamMatrix) -> float:
    """||hat - true||_F / ||true||_F over a shared graph binding.

    Both matrices are first scaled by the power of two that brings their
    largest |entry| into [0.5, 1), so no square overflows or underflows to
    zero.  Scaling by a power of two is exact, so the ratio does not change.
    """
    _require_binding(lam_hat.graph, lam_true)
    hat, true = lam_hat.dense(), lam_true.dense()
    largest = max(np.abs(hat).max(initial=0.0), np.abs(true).max(initial=0.0))
    exponent = math.frexp(largest)[1]
    hat, true = np.ldexp(hat, -exponent), np.ldexp(true, -exponent)
    denom = float(np.linalg.norm(true))
    if denom == 0.0:
        raise ZeroTrueMatrix("reference matrix is zero")
    return float(np.linalg.norm(hat - true)) / denom
