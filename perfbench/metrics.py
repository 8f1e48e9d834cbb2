"""Metric definitions and the statistics the runner and the compare command share."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_BEYOND = 10  # a reported tail percentile needs this many samples above it

# Result-file metrics that BENCHMARK.json does not list, with their own bound
# (None: compared without one).  `count` metrics repeat exactly for a seed
# and are compared as values, not as timings.
EXTRA_SPECS = {
    "latency_ms": {"unit": "ms", "better": "lower", "bound": 0.25, "kind": "timing"},
    "throughput_per_s": {"unit": "1/s", "better": "higher", "bound": 0.25, "kind": "timing"},
    "check_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.2, "kind": "timing"},
    "check_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25, "kind": "timing"},
    "survey_graphs_per_s": {"unit": "graphs/s", "better": "higher", "bound": 0.2, "kind": "timing"},
    "verify_graphs_per_s": {"unit": "graphs/s", "better": "higher", "bound": 0.2, "kind": "timing"},
    "fit_poly_s": {"unit": "s/fit", "better": "lower", "bound": 0.2, "kind": "timing"},
    "fit_rbf_s": {"unit": "s/fit", "better": "lower", "bound": 0.2, "kind": "timing"},
    "fit_poly_loss": {"unit": "ratio", "better": "lower", "bound": None, "kind": "count"},
    "fit_rbf_loss": {"unit": "ratio", "better": "lower", "bound": None, "kind": "count"},
    "ops_failed_frac": {"unit": "ratio", "better": "lower", "bound": None, "kind": "count"},
    "attempted": {"unit": "ops", "better": "higher", "bound": None, "kind": "timing"},
}
# Exact figures of traced runs, by name suffix, with their unit.
COUNT_UNITS = {
    ".calls": "count", ".evals": "count", ".iterations": "count", ".spans": "count",
    ".networks_built": "count", ".networks_distinct": "count", ".columns_checked": "count",
    ".evals_per_iter": "ratio", ".solves_per_column": "ratio", ".flow_repeat_ratio": "ratio",
    ".gram_mb_per_eval": "MB",
}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spec(name: str, benchmark: dict) -> dict:
    """Unit, direction, bound and kind of a result-file metric."""
    for m in benchmark["end_to_end"]:
        if m["name"] == name:
            return {"unit": m["unit"], "better": m["better"], "bound": m["bound"], "kind": "timing"}
    if name in EXTRA_SPECS:
        return EXTRA_SPECS[name]
    for suffix, unit in COUNT_UNITS.items():
        if name.endswith(suffix):
            return {"unit": unit, "better": "lower", "bound": None, "kind": "count"}
    return {"unit": "ms" if name.endswith("_ms") else "s", "better": "lower", "bound": None, "kind": "timing"}


def percentile(samples, q: float):
    """Nearest-rank q-quantile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def is_better(a: float, b: float, better: str) -> bool:
    """Whether value b beats value a."""
    return b < a if better == "lower" else b > a


def verdict(a_vals, b_vals, pairs, better: str, bound) -> str:
    """Change B against parent A by the rule in choosing-metrics section 8.

    improved: B wins at least 9/10 of the pairs and the medians differ by
    more than A's own quartile spread.  Where A's spread exceeds the bound,
    the result is unresolved unless every B run beats every A run.  Otherwise
    B is worse when its median is worse than A's by more than the bound.
    """
    a_q1, a_med, a_q3 = quartiles(a_vals)
    _, b_med, _ = quartiles(b_vals)
    wins = sum(1 for a, b in pairs if is_better(a, b, better))
    losses = sum(1 for a, b in pairs if is_better(b, a, better))
    spread = a_q3 - a_q1
    if pairs and abs(b_med - a_med) > spread:
        if wins >= 0.9 * len(pairs) and is_better(a_med, b_med, better):
            return "improved"
        if losses >= 0.9 * len(pairs) and is_better(b_med, a_med, better) and bound is None:
            return "worse"
    if bound is None:
        return "unresolved"
    if spread > bound * abs(a_med):
        if all(is_better(a, b, better) for a in a_vals for b in b_vals):
            return "no worse"
        return "unresolved"
    worsening = (b_med - a_med) if better == "lower" else (a_med - b_med)
    return "worse" if worsening > bound * abs(a_med) else "no worse"
