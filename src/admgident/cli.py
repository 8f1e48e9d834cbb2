"""Command-line surface: check, flow, verify, survey, simulate, estimate.

Output is machine-parseable JSON on stdout unless --human is given.  Exit
codes: 0 success, 1 verification mismatch, 2 parse error, 3 invalid graph or
binding, 4 optimizer divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import admg, estimate, ident, oracle, simulate
from .errors import (
    AdmgIdentError,
    BindingMismatch,
    CyclicGraph,
    GraphFormatError,
    NonFiniteObjective,
    NotCycleDecomposable,
)

WORKERS_ENV = "ADMGIDENT_WORKERS"
# Upper bound on the number of values one --densities range may expand to.
MAX_DENSITIES = 10_000


@dataclass(frozen=True)
class SurveyRow:
    p: int
    density: float
    graphs_sampled: int
    proportion_identifiable: float
    seed: int


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GraphFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteObjective as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AdmgIdentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _seed(text: str) -> int:
    """argparse type of every --seed: numpy's SeedSequence takes only integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="admgident")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="identifiability verdicts for a graph")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--edge", help="single edge u,v")
    p.add_argument("--known", help="comma list of parents with known coefficients")
    p.add_argument("--cyclic", action="store_true", help="force the cyclic-analysis path")
    p.add_argument("--human", action="store_true")
    p.add_argument("--out", help="write the report JSON to this file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("flow", help="dump one flow network, max flow, and witness")
    p.add_argument("graph")
    p.add_argument("--node", required=True)
    p.add_argument("--set", dest="targets", help="comma list Q (default: parents)")
    p.add_argument("--human", action="store_true")
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("verify", help="triple-oracle agreement sweep")
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=int, default=1000, help="random graphs per size above 4")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("survey", help="proportion of identifiable random graphs")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--densities", default="0.1:0.9:0.1", help="start:stop:step (inclusive)")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(handler=cmd_survey)

    p = sub.add_parser("simulate", help="sample parameters and data for a graph")
    p.add_argument("graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", choices=["laplace", "uniform"], default="laplace")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--params-out", required=True)
    p.add_argument("--data-out", required=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("estimate", help="fit coefficients to a dataset")
    p.add_argument("graph")
    p.add_argument("data")
    p.add_argument("--kernel", choices=["poly2", "rbf"], default="poly2")
    p.add_argument("--init", choices=["reg", "tv", "random"], default="reg")
    p.add_argument("--true-params", help="parameter JSON for loss reporting / tv init")
    p.add_argument("--seed", type=_seed, default=0, help="seed for random init")
    p.add_argument("--out", help="write the result JSON to this file")
    p.set_defaults(handler=cmd_estimate)
    return parser


def _load_graph(path: str) -> admg.MixedGraph:
    with open(path, encoding="utf-8") as fh:
        return admg.graph_from_json(fh.read())


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


# -- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    if args.known and not args.edge:
        raise GraphFormatError("--known requires --edge")
    if args.edge and args.cyclic:
        raise GraphFormatError("--edge does not combine with --cyclic")
    g = _load_graph(args.graph)
    acyclic = admg.is_acyclic(g)
    if args.edge and not acyclic:
        raise CyclicGraph("--edge needs an acyclic graph; drop it for the cyclic analysis")
    if args.cyclic or not acyclic:
        return _check_cyclic(args, g, acyclic)
    if args.edge:
        u, v = _parse_pair(args.edge)
        known = [w.strip() for w in (args.known or "").split(",") if w.strip()]
        doc = {"edge": f"{u}->{v}", "identifiable": ident.is_identifiable_with_knowledge(g, v, (u,), known)}
        if args.known:
            doc["known"] = sorted(known)
        _emit(args, _render(args, doc, lambda d: f"{d['edge']}: {'identifiable' if d['identifiable'] else 'not identifiable'}\n"))
        return 0
    report = ident.is_matrix_identifiable(g)
    _emit(args, _render(args, report.to_dict(), lambda doc: _human_report(doc, g)))
    return 0


def _human_report(doc, g) -> str:
    columns, mark = doc["columns"], lambda ok: "identifiable" if ok else "NOT identifiable"
    lines = [f"matrix identifiable: {all(c['identifiable'] for c in columns.values())}"]
    lines += [f"  column {v}: rank {c['rank']}/{len(g.parents(v))} {mark(c['identifiable'])}" for v, c in columns.items()]
    lines += [f"  edge {edge}: {mark(ok)}" for edge, ok in doc["edges"].items()]
    return "\n".join(lines) + "\n"


def _check_cyclic(args, g, acyclic: bool) -> int:
    necessary = ident.cyclic_necessary_condition(g)
    doc = {
        "acyclic": acyclic,
        "necessary_condition": necessary,
        "all_pass": all(necessary.values()),
        "mode": "necessary-only",
    }
    try:
        decomposable = ident.cycle_decomposition_identifiable(g)
        doc["mode"] = "cycle-decomposition"
        doc["identifiable"] = decomposable
        doc["verdict"] = (
            "identifiable" if decomposable else "not identifiable (2-cycle)"
        )
    except NotCycleDecomposable as exc:
        doc["cycle_decomposition_error"] = str(exc)
        if not doc["all_pass"]:
            doc["verdict"] = "not identifiable (necessary condition fails)"
        else:
            doc["verdict"] = "necessary-only: no certificate"
    _emit(args, _render(args, doc, _human_cyclic))
    return 0


def _human_cyclic(doc) -> str:
    lines = [f"mode: {doc['mode']}", f"verdict: {doc['verdict']}"]
    for v, ok in doc["necessary_condition"].items():
        lines.append(f"  necessary at {v}: {'pass' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _render(args, doc, human_fn) -> str:
    if args.human:
        return human_fn(doc)
    return json.dumps(doc, indent=2) + "\n"


def _parse_pair(text: str):
    parts = [w.strip() for w in text.split(",")]
    if len(parts) != 2:
        raise GraphFormatError(f"--edge expects 'u,v', got {text!r}")
    return parts[0], parts[1]


# -- flow ----------------------------------------------------------------------


def cmd_flow(args) -> int:
    g = _load_graph(args.graph)
    v = args.node
    if args.targets is None:
        q = g.parents(v)
    else:
        q = [w.strip() for w in args.targets.split(",") if w.strip()]
    net, value, flows, witness = ident.solved_flow_network(g, v, q)
    doc = {
        "nodes": list(net.nodes),
        "arcs": [[u, w, c, f] for (u, w, c), f in zip(net.arcs, flows)],
        "max_flow": value,
        "witness": [list(path) for path in witness],
    }
    _emit(args, _render(args, doc, _human_flow))
    return 0


def _human_flow(doc) -> str:
    lines = [f"max flow: {doc['max_flow']}"]
    lines += [f"  {u} -> {w}  cap {c}  flow {f}" for u, w, c, f in doc["arcs"]]
    lines.append("witness paths: " + "; ".join("->".join(p) for p in doc["witness"]))
    return "\n".join(lines) + "\n"


# -- verify ----------------------------------------------------------------------


def cmd_verify(args) -> int:
    if not 1 <= args.max_vertices <= 6:
        raise GraphFormatError(f"--max-vertices must lie in 1..6, got {args.max_vertices}")
    if args.samples < 0:
        raise GraphFormatError(f"--samples must be >= 0, got {args.samples}")
    report = oracle.verify_sweep(args.max_vertices, seed=args.seed, sample_count=args.samples)
    summary = {
        "graphs": report["graphs"],
        "checks": report["checks"],
        "mismatches": len(report["mismatches"]),
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    if report["mismatches"]:
        sys.stdout.write(json.dumps(report["mismatches"][:10], indent=2) + "\n")
        return 1
    return 0


# -- survey ----------------------------------------------------------------------


def _survey_one(task) -> bool:
    p, density, seed = task
    g = simulate.random_admg(p, density, seed)
    return ident.matrix_generically_identifiable(g)


def _graph_seed(seed: int, density_index: int, rep: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(density_index, rep)).generate_state(1)[0])


def survey(p: int, densities, reps: int, seed: int, workers: int = 1):
    """SurveyRow per density: proportion of identifiable sampled graphs.

    Deterministic per seed regardless of worker count: every graph draws from
    a stream keyed by (density index, repetition), and results reduce in task
    order.  The pool holds at most one process per task and per usable CPU.
    """
    if reps < 1:
        return []
    tasks = [
        (p, density, _graph_seed(seed, di, i))
        for di, density in enumerate(densities)
        for i in range(reps)
    ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(tasks), cpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flags = list(pool.map(_survey_one, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        flags = [_survey_one(t) for t in tasks]
    return [
        SurveyRow(
            p=p,
            density=round(density, 10),
            graphs_sampled=reps,
            proportion_identifiable=sum(flags[di * reps:(di + 1) * reps]) / reps,
            seed=seed,
        )
        for di, density in enumerate(densities)
    ]


def _parse_densities(text: str):
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise GraphFormatError(f"--densities expects start:stop:step, got {text!r}") from exc
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0):
        raise GraphFormatError(f"--densities needs finite bounds and a positive step, got {text!r}")
    out = []
    d = start
    while d <= stop + 1e-9:
        # Bounded here, not by a count formula: a step below half an ulp of d never moves d.
        if len(out) == MAX_DENSITIES:
            raise GraphFormatError(f"--densities {text!r} holds more than {MAX_DENSITIES} values")
        out.append(round(d, 10))
        d += step
    if not out:
        raise GraphFormatError(f"--densities {text!r} is an empty range (start above stop)")
    return out


def cmd_survey(args) -> int:
    if args.reps < 0:
        raise GraphFormatError(f"--reps must be >= 0, got {args.reps}")
    densities = _parse_densities(args.densities)
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(text)
    except ValueError as exc:
        raise GraphFormatError(f"{WORKERS_ENV} must be an integer, got {text!r:.40}") from exc
    rows = survey(args.p, densities, args.reps, args.seed, workers=workers)
    target = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(["p", "density", "graphs_sampled", "proportion_identifiable", "seed"])
        for row in rows:
            writer.writerow(
                [row.p, row.density, row.graphs_sampled, row.proportion_identifiable, row.seed]
            )
    finally:
        if args.out:
            target.close()
    return 0


# -- simulate ----------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise GraphFormatError(f"--n must be at least 1, got {args.n}")
    g = _load_graph(args.graph)
    lam = simulate.sample_parameters(g, args.seed)
    kind = simulate.LAPLACE if args.dist == "laplace" else simulate.UNIFORM
    errors = simulate.sample_errors(g, simulate.ErrorModel(kind=kind), args.n, args.seed)
    data = simulate.generate_data(g, lam, errors)
    with open(args.params_out, "w", encoding="utf-8") as fh:
        fh.write(lam.to_json())
    simulate.write_dataset(data, args.data_out)
    sys.stdout.write(
        json.dumps(
            {"seed": args.seed, "n": args.n, "dist": args.dist, "params": args.params_out, "data": args.data_out},
            indent=2,
        )
        + "\n"
    )
    return 0


# -- estimate ----------------------------------------------------------------------


def cmd_estimate(args) -> int:
    g = _load_graph(args.graph)
    ds = simulate.read_dataset(args.data)
    if tuple(ds.columns) != g.vertices:
        raise BindingMismatch("data columns do not match the graph vertices")
    kernels = (
        estimate.polynomial_kernel(2, 1.0) if args.kernel == "poly2" else estimate.rbf_kernel()
    )
    true_lam = None
    if args.true_params:
        with open(args.true_params, encoding="utf-8") as fh:
            true_lam = oracle.ParamMatrix.from_json(g, fh.read())
    if args.init == "reg":
        init, kind = estimate.regression_init(g, ds), "regression"
    elif args.init == "tv":
        if true_lam is None:
            raise GraphFormatError("--init tv requires --true-params")
        init, kind = true_lam, "true-value"
    else:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(99,)))
        init = oracle.ParamMatrix(g, {e: float(rng.uniform(-1, 1)) for e in g.directed})
        kind = "random"
    result = estimate.fit(g, ds, kernels, init, init_kind=kind)
    doc = result.to_dict()
    if true_lam is not None:
        doc["loss"] = estimate.normalized_frobenius_loss(result.lam_hat, true_lam)
        doc["abs_errors"] = {
            f"{u}->{v}": abs(result.lam_hat.get(u, v) - true_lam.get(u, v))
            for u, v in g.directed
        }
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
