"""Outside-in tracing of admgident: wrappers installed from the benchmark process.

`Tracer.install` replaces each traced function with a wrapper in every loaded
`admgident` module that refers to it (functions imported with `from .x import
y` live under several names), so calls inside the package are seen without
editing it.  Each call becomes a span (name, start, end, parent span, timed
operation) in flat in-memory arrays; `summary` turns the spans into per-layer
metrics when the run ends and `write` saves them.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time

import numpy as np

# (span name, module, attribute path).  The span name is the metric prefix;
# it stays fixed when a helper is renamed, which then shows up as absent.
TRACED = (
    ("admg.is_acyclic", "admgident.admg", "is_acyclic"),
    ("admg.MixedGraph.ancestors", "admgident.admg", "MixedGraph.ancestors"),
    ("admg.graph_from_json", "admgident.admg", "graph_from_json"),
    ("ident.removable_ancestors", "admgident.ident", "removable_ancestors"),
    ("ident.build_flow_network", "admgident.ident", "build_flow_network"),
    ("ident.max_flow", "admgident.ident", "max_flow"),
    ("ident.witness_paths", "admgident.ident", "witness_paths"),
    ("ident.is_identifiable", "admgident.ident", "is_identifiable"),
    ("ident.matrix_generically_identifiable", "admgident.ident", "matrix_generically_identifiable"),
    ("ident.is_matrix_identifiable", "admgident.ident", "is_matrix_identifiable"),
    ("oracle.path_system_exists", "admgident.oracle", "path_system_exists"),
    ("oracle.draw_b_stack", "admgident.oracle", "draw_b_stack"),
    ("oracle.verify_sweep", "admgident.oracle", "verify_sweep"),
    ("simulate.random_admg", "admgident.simulate", "random_admg"),
    ("simulate.sample_parameters", "admgident.simulate", "sample_parameters"),
    ("simulate.sample_errors", "admgident.simulate", "sample_errors"),
    ("simulate.generate_data", "admgident.simulate", "generate_data"),
    ("simulate.write_dataset", "admgident.simulate", "write_dataset"),
    ("simulate.read_dataset", "admgident.simulate", "read_dataset"),
    ("estimate.fit", "admgident.estimate", "fit"),
    # One objective+gradient evaluation, the function `fit` minimises.
    ("estimate.eval", "admgident.estimate", "_value_and_gradient"),
    ("estimate.regression_init", "admgident.estimate", "regression_init"),
    ("estimate.median_bandwidth", "admgident.estimate", "median_bandwidth"),
    ("cli.main", "admgident.cli", "main"),
)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time covered by its direct child spans.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their durations add up to the covered time.
    `parent` holds the index of the enclosing span, or -1.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """Spans and counts for the functions in TRACED, kept in memory."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.span_name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.current_op = -1
        self.absent = []
        self.networks_built = 0
        self.networks_distinct: set | None = set()
        self.t_install = None
        self.t_stop = None
        self._stack = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function that exists; record the rest as absent."""
        modules = [m for n, m in sys.modules.items() if n == "admgident" or n.startswith("admgident.")]
        for name_id, (name, module_name, attr_path) in enumerate(TRACED):
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = attr_path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            hook = self._note_network if name == "ident.build_flow_network" else None
            wrapper = self._wrap(name_id, original, hook)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self.t_install = time.perf_counter()

    def uninstall(self) -> None:
        self.t_stop = time.perf_counter()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name_id, fn, on_result):
        stack = self._stack
        clock = time.perf_counter
        span_name, start, end, parent, op = self.span_name, self.start, self.end, self.parent, self.op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _note_network(self, net) -> None:
        self.networks_built += 1
        if self.networks_distinct is None:
            return
        try:
            self.networks_distinct.add(net)
        except TypeError:  # FlowNetwork stopped being hashable
            self.networks_distinct = None

    # -- results ---------------------------------------------------------

    def summary(self, op_kinds) -> dict:
        """Per-layer totals: calls, inclusive and self seconds, per-kind counts.

        `op_kinds[i]` names the kind of timed operation i ("check",
        "estimate", ...); spans outside any operation (set-up) have kind "setup".
        """
        names, start, end, parent, ops = (
            np.asarray(a) for a in (self.span_name, self.start, self.end, self.parent, self.op)
        )
        dur = end - start
        own = self_times(start, end, parent)
        kinds = sorted(set(op_kinds)) + ["setup"]
        kind_of_op = np.array([kinds.index(k) for k in op_kinds] + [kinds.index("setup")], dtype=np.int64)
        span_kind = kind_of_op[ops]  # op -1 indexes the trailing "setup" entry
        out = {"wall_s": self.t_stop - self.t_install, "spans": int(len(names)), "layers": {}}
        for name_id, name in enumerate(self.names):
            if name in self.absent:
                continue
            mask = names == name_id
            per_kind = {}
            for kind_id, kind in enumerate(kinds):
                kmask = mask & (span_kind == kind_id)
                if kmask.any():
                    per_kind[kind] = {
                        "calls": int(kmask.sum()),
                        "s": float(dur[kmask].sum()),
                        "self_s": float(own[kmask].sum()),
                    }
            out["layers"][name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
                "median_ms": float(np.median(dur[mask]) * 1e3) if mask.any() else None,
                "by_kind": per_kind,
            }
        out["networks_built"] = self.networks_built
        out["networks_distinct"] = None if self.networks_distinct is None else len(self.networks_distinct)
        out["absent"] = list(self.absent)
        return out

    def write(self, path) -> None:
        """Save every span as compressed arrays (times relative to install)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.asarray(self.span_name),
            start=np.asarray(self.start) - self.t_install,
            end=np.asarray(self.end) - self.t_install,
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
        )
