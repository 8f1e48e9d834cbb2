"""Regenerate verdicts.json: stored `check` verdicts for the ident-p25 inputs of some seeds.

    python3 perfbench/record_verdicts.py [--seeds 0-9]

For each seed it checks the graphs of the workload's pre-generated rounds
and stores, per graph in run order, whether every column is identifiable and
the sum of the column ranks.  ident-p25 runs on those seeds must reproduce
them.  Record only from a commit whose verdicts are trusted.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import checks
import run

ROUNDS = 30


def record(seed: int, program) -> dict:
    workload = run.IdentP25(program)
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        flags, rank_sums = [], []
        for r in range(ROUNDS):
            rnd = workload.write_round(Path(tmp), seed, r)
            for item in rnd["graphs"]:
                op = run.Op("check", ["check", item["path"]], lambda out: ([], json.loads(out)))
                result = run.execute(program.cli, op)
                if result["problems"]:
                    raise SystemExit(f"check failed on {item['path']}: {result['problems']}")
                report = result["info"]
                problems = checks.check_report(checks.Graph(item["doc"]), report)
                if problems:
                    raise SystemExit(f"invalid report for {item['path']}: {problems[:3]}")
                flags.append(all(c["identifiable"] for c in report["columns"].values()))
                rank_sums.append(sum(c["rank"] for c in report["columns"].values()))
    return {"verdicts": "".join("1" if f else "0" for f in flags), "rank_sums": rank_sums}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="first-last")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    program = run.Program()
    seeds = {str(s): record(s, program) for s in range(first, last + 1)}
    doc = {"rounds": ROUNDS, "reps": run.IdentP25.REPS, "seeds": seeds}
    (run.HERE / "verdicts.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
