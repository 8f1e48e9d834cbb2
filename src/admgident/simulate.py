"""The model layer: coefficient and path matrices, random graphs, non-Gaussian
error sampling, SEM data generation, cumulants.

All randomness flows through seeded, splittable streams built by
`_seed_sequence`: each column, edge, or latent draws from its own stream
keyed by stable indices, so enlarging a graph never perturbs the draws of
existing columns.  Seeds and keys are integers; a float is a TypeError.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from .admg import MixedGraph, dump_json, edge_keys, finite_number, is_acyclic, load_json_object
from .errors import (
    BindingMismatch,
    DegenerateParameters,
    GraphFormatError,
    InvalidDensity,
    SingularMatrix,
    UnsupportedOrder,
)

DET_TOL = 1e-8

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


def _seed_sequence(seed: int, *key) -> np.random.SeedSequence:
    """The one seed rule: entropy `seed`, spawn key `key`, each read with `operator.index`, so a float is a TypeError."""
    return np.random.SeedSequence(operator.index(seed), spawn_key=tuple(map(operator.index, key)))


def _stream(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(_seed_sequence(seed, *key))


def _graph_seed(seed: int, *key) -> int:
    """A fresh integer seed from the stream (seed, key): the survey's seed of graph (density index, repetition)."""
    return int(_seed_sequence(seed, *key).generate_state(1)[0])


@dataclass(frozen=True)
class ParamMatrix:
    """A real coefficient matrix supported on the directed edges of a graph."""

    graph: MixedGraph
    values: dict

    def __post_init__(self):
        edge_set = set(self.graph.directed)
        for edge in self.values:
            if edge not in edge_set:
                raise BindingMismatch(f"{edge!r} is not a directed edge of the graph")

    def get(self, u: str, v: str) -> float:
        return self.values.get((u, v), 0.0)

    def dense(self) -> np.ndarray:
        p = self.graph.num_vertices
        lam = np.zeros((p, p))
        for (u, v), x in self.values.items():
            lam[self.graph.index(u), self.graph.index(v)] = x
        return lam

    def to_json(self) -> str:
        """The coefficients under `edge_keys`; two edges that render one key are a BindingMismatch."""
        doc = {
            "vertices": list(self.graph.vertices),
            "edges": {key: self.values.get(edge, 0.0) for edge, key in edge_keys(self.graph.directed).items()},
        }
        return dump_json(doc)

    @staticmethod
    def from_json(graph: MixedGraph, text: str) -> "ParamMatrix":
        """Inverse of to_json; a malformed document is a GraphFormatError.

        Keys are matched against the graph's own `edge_keys`, so vertex names
        may contain "->"; a key that names no edge stays a string, which
        construction rejects as a BindingMismatch.  So is a graph whose edges
        render one key.
        """
        edges = load_json_object(text, "parameter JSON").get("edges", {})
        if not isinstance(edges, dict):
            raise GraphFormatError("parameter JSON must be an object whose 'edges' is an object")
        keys = {key: edge for edge, key in edge_keys(graph.directed).items()}
        values = {}
        for key, x in edges.items():
            if not finite_number(x):
                raise GraphFormatError(f"parameter {key!r} must be a finite number, got {x!r:.40}")
            values[keys.get(key, key)] = float(x)
        return ParamMatrix(graph, values)


def _require_binding(g: MixedGraph, *lams: ParamMatrix) -> None:
    """The one "lam is bound to g" test: a parameter matrix on any other graph is a BindingMismatch."""
    if any(lam.graph != g for lam in lams):
        raise BindingMismatch("parameter matrix bound to a different graph")


def path_matrix(lam: ParamMatrix) -> np.ndarray:
    """B = (I - Lambda)^{-T}; entry (w, u) sums the path monomials u -> w.

    Acyclic bindings have det(I - Lambda) = 1 and a nilpotent Lambda, so the
    inverse is the finite power sum; that route keeps structural zeros exact,
    which the rank tolerances downstream rely on.  Cyclic bindings invert
    numerically and raise SingularMatrix near det(I - Lambda) = 0.
    """
    dense = lam.dense()
    if is_acyclic(lam.graph):
        return _power_sum(dense)
    a = np.eye(lam.graph.num_vertices) - dense
    if abs(np.linalg.det(a)) < DET_TOL:
        raise SingularMatrix("det(I - Lambda) is numerically zero")
    return np.linalg.inv(a.T)


def _power_sum(dense: np.ndarray) -> np.ndarray:
    """(I + L + ... + L^(p-1))^T for a nilpotent p x p L, or per matrix of a stack of them."""
    p = dense.shape[-1]
    power = np.eye(p)
    total = power + np.zeros_like(dense)
    for _ in range(p - 1):
        power = power @ dense
        total += power
    return np.swapaxes(total, -1, -2)


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


def edge_count(p: int, density: float) -> int:
    """e = floor(density * p * (p-1)), the edge count of a `random_admg`; an InvalidDensity unless 1 <= e <= p(p-1)."""
    if p < 2:
        raise InvalidDensity("need at least 2 vertices")
    e = math.floor(density * p * (p - 1))
    if e < 1:
        raise InvalidDensity(f"density {density} yields no edges for p={p}")
    if e > p * (p - 1):
        raise InvalidDensity(f"density {density} yields {e} edges, more than the {p * (p - 1)} possible for p={p}")
    return e


def random_admg(p: int, density: float, seed: int) -> MixedGraph:
    """Random mixed graph: e = `edge_count(p, density)` edges split at random.

    A uniform integer e_d of them become directed edges of a random DAG (a
    random causal order plus e_d forward pairs without replacement); the rest
    become bidirected edges.  e_d is clamped to the feasible window when e
    exceeds the p-choose-2 capacity of either edge class.
    """
    e = edge_count(p, density)
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
        if abs(np.linalg.det(np.eye(p) - lam.dense())) > DET_TOL:
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

    Each loading's weight is drawn uniform on [-5, 5] from its own stream.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    obs_index = {v: i for i, v in enumerate(l.observed)}
    eps = np.zeros((n, len(l.observed)))
    for v in l.observed:
        iv = obs_index[v]
        sd = float(_stream(seed, _K_FACTOR_SCALE, 0, iv).uniform(*_SCALE_RANGE))
        eps[:, iv] = _laplace_draw(_stream(seed, _K_FACTOR_NOISE, 0, iv), sd, n)
    for il, lat in enumerate(l.latents):
        sd = float(_stream(seed, _K_FACTOR_SCALE, 1, il).uniform(*_SCALE_RANGE))
        eta = _laplace_draw(_stream(seed, _K_FACTOR_NOISE, 1, il), sd, n)
        for v in l.children_of(lat):
            weight = float(_stream(seed, _K_FACTOR_WEIGHT, il, obs_index[v]).uniform(*_WEIGHT_RANGE))
            eps[:, obs_index[v]] += weight * eta
    return Dataset(
        columns=l.observed,
        values=eps,
        provenance={"seed": seed, "generator": "sample_factor_errors", "params": {"n": n}},
    )


def generate_data(g: MixedGraph, lam: ParamMatrix, errors: Dataset) -> Dataset:
    """Solve the structural equations: each sample row is B_Lambda * eps."""
    _require_binding(g, lam)
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


@contextmanager
def all_or_none():
    """Yield an `open` for writing; if the block raises, remove what it opened (not a path it failed to), re-raise."""
    opened = []

    def create(path):
        fh = open(path, "w", newline="", encoding="utf-8")
        opened.append(path)
        return fh

    try:
        yield create
    except BaseException:
        for path in opened:
            with suppress(OSError):
                os.remove(path)
        raise


def write_dataset(ds: Dataset, path: str) -> None:
    """CSV with a vertex-id header row plus a .meta.json provenance sidecar; both or neither are left."""
    with all_or_none() as create:
        with create(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(ds.columns)
            for row in ds.values:
                writer.writerow([repr(float(x)) for x in row])
        with create(_meta_path(path)) as fh:
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
