"""Compare two sets of benchmark result files: parent (A) against change (B).

    python3 perfbench/compare.py A_DIR B_DIR

Each directory holds result files written by run.py (perfbench/results/ by
default; copy it aside between commits).  Runs pair up by workload, trace
mode and seed.  For every workload and timing metric the command prints each
side's median and quartiles, B's wins over the pairs and a verdict by the rule
in metrics.verdict.  Exact counts (calls, evaluations, iterations, repeat
ratios, losses) are compared as values: "same" when every pair agrees.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import metrics


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: metrics}} from one directory of result files."""
    runs = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record["metrics"]
    return runs


def compare(a_runs: dict, b_runs: dict, benchmark: dict) -> list:
    """One row per (workload, trace, metric) present on both sides."""
    rows = []
    for key in sorted(set(a_runs) & set(b_runs)):
        a_seeds, b_seeds = a_runs[key], b_runs[key]
        names = sorted(
            {n for m in a_seeds.values() for n, v in m.items() if isinstance(v, (int, float))}
            & {n for m in b_seeds.values() for n, v in m.items() if isinstance(v, (int, float))}
        )
        for name in names:
            info = metrics.spec(name, benchmark)
            a_vals = [m[name] for m in a_seeds.values() if isinstance(m.get(name), (int, float))]
            b_vals = [m[name] for m in b_seeds.values() if isinstance(m.get(name), (int, float))]
            pairs = [
                (a_seeds[s][name], b_seeds[s][name])
                for s in sorted(set(a_seeds) & set(b_seeds))
                if isinstance(a_seeds[s].get(name), (int, float)) and isinstance(b_seeds[s].get(name), (int, float))
            ]
            row = {"workload": key[0], "trace": key[1], "metric": name, "unit": info["unit"],
                   "a": metrics.quartiles(a_vals), "b": metrics.quartiles(b_vals), "pairs": len(pairs)}
            if info["kind"] == "count":
                row["wins"] = None
                row["verdict"] = "same" if pairs and all(a == b for a, b in pairs) else "differs"
            else:
                row["wins"] = sum(1 for a, b in pairs if metrics.is_better(a, b, info["better"]))
                row["verdict"] = metrics.verdict(a_vals, b_vals, pairs, info["better"], info["bound"])
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir", type=Path, help="parent results")
    parser.add_argument("b_dir", type=Path, help="change results")
    args = parser.parse_args(argv)
    rows = compare(load(args.a_dir), load(args.b_dir), metrics.load_benchmark())
    if not rows:
        print("no workload has result files on both sides", file=sys.stderr)
        return 2
    header = None
    for row in rows:
        if (row["workload"], row["trace"]) != header:
            header = (row["workload"], row["trace"])
            mode = "traced" if row["trace"] else "untraced"
            print(f"\n== {row['workload']} ({mode})   median [q1, q3]   A -> B   wins/pairs   verdict")
        (a1, am, a3), (b1, bm, b3) = row["a"], row["b"]
        wins = "-" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        print(f"  {row['metric']:<44} {am:.6g} [{a1:.4g}, {a3:.4g}] -> {bm:.6g} [{b1:.4g}, {b3:.4g}] "
              f"{row['unit']}  {wins}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
