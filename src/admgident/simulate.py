"""Random graphs, non-Gaussian error sampling, SEM data generation, cumulants.

All randomness flows through seeded, splittable streams: each column, edge,
or latent draws from its own stream keyed by stable indices, so enlarging a
graph never perturbs the draws of existing columns.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .admg import MixedGraph, load_json_object
from .errors import (
    BindingMismatch,
    DegenerateParameters,
    GraphFormatError,
    InvalidDensity,
    UnsupportedOrder,
)
from .oracle import ParamMatrix, path_matrix

# stream kinds; part of the on-disk reproducibility contract
_K_GRAPH = 1
_K_LAMBDA = 2
_K_SCALE = 3
_K_IDIO = 4
_K_EDGE_SCALE = 5
_K_EDGE_NOISE = 6
_K_EDGE_WEIGHT = 7
_K_FACTOR_SCALE = 8
_K_FACTOR_NOISE = 9
_K_FACTOR_WEIGHT = 10

LAPLACE = "shared-latent-laplace"
UNIFORM = "shared-latent-uniform"
_KINDS = (LAPLACE, UNIFORM)

# error standard deviations and shared-latent weights are drawn uniform on these
_SCALE_RANGE = (0.2, 3.0)
_WEIGHT_RANGE = (-5.0, 5.0)


def _stream(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))


@dataclass(frozen=True)
class Dataset:
    """An n x p sample matrix with vertex-name column binding."""

    columns: tuple
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != len(self.columns):
            raise BindingMismatch("value matrix shape does not match the column binding")
        if values.shape[0] < 1:
            raise BindingMismatch("a dataset needs at least one sample row")
        if not np.all(np.isfinite(values)):
            raise BindingMismatch("dataset values must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


@dataclass(frozen=True)
class ErrorModel:
    """How to sample the error vector: the Laplace or uniform shared-latent recipe.

    Both kinds draw one idiosyncratic term per vertex plus two shared latents
    per bidirected edge, each entering both endpoints with its own uniform
    weight.  Scales are standard deviations; the Laplace scale parameter is
    sd/sqrt(2) and the centered-uniform half-width sd*sqrt(3), so second
    moments match across kinds.
    """

    kind: str = LAPLACE

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown error model kind {self.kind!r}")


def _laplace_draw(rng: np.random.Generator, sd: float, n: int) -> np.ndarray:
    """Laplace(0, sd/sqrt(2)) by inverse CDF from uniforms."""
    b = sd / math.sqrt(2.0)
    u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
    return np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 * (1.0 - u)))


def _uniform_draw(rng: np.random.Generator, sd: float, n: int) -> np.ndarray:
    """Centered uniform with standard deviation sd (half-width sd*sqrt(3))."""
    half = sd * math.sqrt(3.0)
    return (rng.random(n) * 2.0 - 1.0) * half


def random_admg(p: int, density: float, seed: int) -> MixedGraph:
    """Random mixed graph: e = floor(density * p * (p-1)) edges split at random.

    A uniform integer e_d of them become directed edges of a random DAG (a
    random causal order plus e_d forward pairs without replacement); the rest
    become bidirected edges.  e_d is clamped to the feasible window when e
    exceeds the p-choose-2 capacity of either edge class.
    """
    if p < 2:
        raise InvalidDensity("need at least 2 vertices")
    e = math.floor(density * p * (p - 1))
    if e < 1:
        raise InvalidDensity(f"density {density} yields no edges for p={p}")
    if e > p * (p - 1):
        raise InvalidDensity(f"density {density} yields {e} edges, more than the {p * (p - 1)} possible for p={p}")
    max_pairs = p * (p - 1) // 2
    rng = _stream(seed, _K_GRAPH)
    order = rng.permutation(p)
    lo, hi = max(1, e - max_pairs), min(e, max_pairs)
    e_d = int(rng.integers(lo, hi + 1))

    vertices = [f"v{i + 1}" for i in range(p)]
    forward = [(i, j) for i in range(p) for j in range(i + 1, p)]
    picks = rng.choice(max_pairs, size=e_d, replace=False)
    directed = [(vertices[order[forward[k][0]]], vertices[order[forward[k][1]]]) for k in sorted(picks)]
    picks = rng.choice(max_pairs, size=e - e_d, replace=False)
    bidirected = [(vertices[forward[k][0]], vertices[forward[k][1]]) for k in sorted(picks)]
    return MixedGraph(vertices, directed, bidirected)


def sample_parameters(g: MixedGraph, seed: int) -> ParamMatrix:
    """Edge coefficients i.i.d. uniform on [-5, 5], one stream per edge.

    Cyclic graphs are redrawn until det(I - Lambda) clears the singularity
    tolerance, up to 100 attempts.
    """
    p = g.num_vertices
    for attempt in range(100):
        values = {}
        for u, v in g.directed:
            rng = _stream(seed, _K_LAMBDA, attempt, g.index(u), g.index(v))
            values[(u, v)] = float(rng.uniform(-5.0, 5.0))
        lam = ParamMatrix(g, values)
        if abs(np.linalg.det(np.eye(p) - lam.dense())) > 1e-8:
            return lam
    raise DegenerateParameters("no nonsingular draw in 100 attempts")


def sample_errors(g: MixedGraph, model: ErrorModel, n: int, seed: int) -> Dataset:
    """Error samples following the bidirected structure of g.

    eps_v = eta_v + sum over edges u<->v of w1 * eta1_uv + w2 * eta2_uv with
    per-endpoint weights.  Factor models sample with sample_factor_errors.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    draw = _laplace_draw if model.kind == LAPLACE else _uniform_draw
    eps = np.zeros((n, g.num_vertices))
    for v in g.vertices:
        iv = g.index(v)
        sd = float(_stream(seed, _K_SCALE, iv).uniform(*_SCALE_RANGE))
        eps[:, iv] = draw(_stream(seed, _K_IDIO, iv), sd, n)
    for u, w in g.bidirected:
        iu, iw = g.index(u), g.index(w)
        sd1, sd2 = _stream(seed, _K_EDGE_SCALE, iu, iw).uniform(*_SCALE_RANGE, 2)
        eta1 = draw(_stream(seed, _K_EDGE_NOISE, iu, iw, 1), float(sd1), n)
        eta2 = draw(_stream(seed, _K_EDGE_NOISE, iu, iw, 2), float(sd2), n)
        for endpoint in (iu, iw):
            w1, w2 = _stream(seed, _K_EDGE_WEIGHT, iu, iw, endpoint).uniform(*_WEIGHT_RANGE, 2)
            eps[:, endpoint] += w1 * eta1 + w2 * eta2
    return Dataset(
        columns=g.vertices,
        values=eps,
        provenance={
            "seed": seed,
            "generator": "sample_errors",
            "params": {"kind": model.kind, "n": n},
        },
    )


def sample_factor_errors(l, n: int, seed: int) -> Dataset:
    """eps = H^T eta_latent + eta_observed with independent Laplace eta.

    Loading weights come from the factor graph when present, otherwise they
    are drawn uniform on [-5, 5], one stream per loading.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    obs_index = {v: i for i, v in enumerate(l.observed)}
    lat_index = {x: i for i, x in enumerate(l.latents)}

    weights = {}
    for lat, v in l.loadings:
        if l.weights is not None:
            weights[(lat, v)] = l.weights[(lat, v)]
        else:
            rng = _stream(seed, _K_FACTOR_WEIGHT, lat_index[lat], obs_index[v])
            weights[(lat, v)] = float(rng.uniform(*_WEIGHT_RANGE))

    eps = np.zeros((n, len(l.observed)))
    for v in l.observed:
        iv = obs_index[v]
        sd = float(_stream(seed, _K_FACTOR_SCALE, 0, iv).uniform(*_SCALE_RANGE))
        eps[:, iv] = _laplace_draw(_stream(seed, _K_FACTOR_NOISE, 0, iv), sd, n)
    for lat in l.latents:
        il = lat_index[lat]
        sd = float(_stream(seed, _K_FACTOR_SCALE, 1, il).uniform(*_SCALE_RANGE))
        eta = _laplace_draw(_stream(seed, _K_FACTOR_NOISE, 1, il), sd, n)
        for v in l.children_of(lat):
            eps[:, obs_index[v]] += weights[(lat, v)] * eta
    return Dataset(
        columns=l.observed,
        values=eps,
        provenance={"seed": seed, "generator": "sample_factor_errors", "params": {"n": n}},
    )


def generate_data(g: MixedGraph, lam: ParamMatrix, errors: Dataset) -> Dataset:
    """Solve the structural equations: each sample row is B_Lambda * eps."""
    if lam.graph != g:
        raise BindingMismatch("parameter matrix bound to a different graph")
    if errors.columns != g.vertices:
        raise BindingMismatch("error columns must match the graph vertices")
    b = path_matrix(lam)
    x = errors.values @ b.T
    return Dataset(
        columns=g.vertices,
        values=x,
        provenance={**errors.provenance, "generator": "generate_data"},
    )


def empirical_cumulant(ds: Dataset, indices) -> float:
    """Joint cumulant k-statistic of the named columns, order 2 to 4.

    Unbiased multivariate k-statistics over central moment sums; order 2 is
    exactly the sample covariance.
    """
    indices = tuple(indices)
    k = len(indices)
    if k not in (2, 3, 4):
        raise UnsupportedOrder(f"order {k} outside the supported range 2..4")
    n = ds.n
    if n <= k:
        raise UnsupportedOrder(f"need more than {k} samples for an order-{k} k-statistic")
    cols = [ds.column(name) for name in indices]
    c = [col - col.mean() for col in cols]

    def m(*idx):
        prod = c[idx[0]].copy()
        for i in idx[1:]:
            prod = prod * c[i]
        return float(prod.mean())

    if k == 2:
        return n / (n - 1) * m(0, 1)
    if k == 3:
        return n**2 / ((n - 1) * (n - 2)) * m(0, 1, 2)
    pair_sum = m(0, 1) * m(2, 3) + m(0, 2) * m(1, 3) + m(0, 3) * m(1, 2)
    return (
        n**2 / ((n - 1) * (n - 2) * (n - 3)) * ((n + 1) * m(0, 1, 2, 3) - (n - 1) * pair_sum)
    )


# -- CSV + provenance sidecar --------------------------------------------------


def write_dataset(ds: Dataset, path: str) -> None:
    """CSV with a vertex-id header row plus a .meta.json provenance sidecar."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.columns)
        for row in ds.values:
            writer.writerow([repr(float(x)) for x in row])
    with open(_meta_path(path), "w", encoding="utf-8") as fh:
        json.dump(ds.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dataset(path: str) -> Dataset:
    """Read a write_dataset CSV.

    A missing header, no data rows, a row whose width differs from the
    header's, a non-numeric or non-finite cell, or a .meta.json sidecar that
    is not a JSON object is a GraphFormatError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        columns = next(reader, None)
        if columns is None:
            raise GraphFormatError(f"{path}: empty CSV, expected a header row")
        try:
            rows = [[float(x) for x in row] for row in reader]
        except ValueError as exc:
            raise GraphFormatError(f"{path}: malformed data row: {exc}") from exc
    if not rows:
        raise GraphFormatError(f"{path}: no data rows after the header")
    if any(len(row) != len(columns) for row in rows):
        raise GraphFormatError(f"{path}: every data row needs {len(columns)} cells, one per header column")
    values = np.array(rows)
    if not np.all(np.isfinite(values)):
        raise GraphFormatError(f"{path}: data cells must be finite numbers")
    provenance = {}
    if os.path.exists(_meta_path(path)):
        with open(_meta_path(path), encoding="utf-8") as fh:
            provenance = load_json_object(fh.read(), f"provenance sidecar {_meta_path(path)}")
    return Dataset(columns=tuple(columns), values=values, provenance=provenance)


def _meta_path(path: str) -> str:
    return path + ".meta.json"
