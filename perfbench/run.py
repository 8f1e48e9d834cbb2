"""admgident benchmark: closed-loop runs of the admgident CLI, one client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each operation is `admgident.cli.main([...])` called in this process with its
stdout captured; the next one starts when the previous one returns.  Inputs
(graph JSON, CSV data, parameter JSON) are generated from --seed in set-up and
every output is checked.  With --trace 0 the run measures for --seconds and
reports the end-to-end metrics; with --trace 1 it wraps the program's
functions (spans.py) and runs a fixed amount of work, so counts repeat
exactly, and reports the per-layer metrics.  The last line of stdout is one
JSON object; a result file with the full figures and the machine facts goes
to perfbench/results/.  `--workload all` runs every workload untraced and
traced in child processes and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import metrics
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
SETUP_REPEATS = 3
TRACE_DEADLINE_S = 120.0  # a traced run stops starting rounds after this


def sub_seed(seed: int, *key) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


# -- workloads ------------------------------------------------------------------


class IdentP25:
    """`survey` and `check` on the same random p=25 graphs, densities 0.1-0.9.

    A round is one `survey --reps 2` plus `check` on each of its 18 graphs,
    generated here exactly as the survey draws them, so the survey's
    proportions can be checked against the `check` verdicts.  Densities are
    interleaved, so every whole round holds the same mix.
    """

    name = "ident-p25"
    LATENCY = ("check", None)
    THROUGHPUT = ("survey", "graphs")
    P = 25
    REPS = 2
    DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    POOL_ROUNDS = 15
    TRACE_ROUNDS = 12

    def __init__(self, program):
        self.program = program
        # Verdicts and rank sums a trusted commit gave for some seeds (record_verdicts.py).
        self.stored = json.loads((HERE / "verdicts.json").read_text(encoding="utf-8"))["seeds"]

    def generate(self, workdir: Path, seed: int):
        return [self.write_round(workdir, seed, r) for r in range(self.POOL_ROUNDS)]

    def write_round(self, workdir: Path, seed: int, r: int) -> dict:
        simulate, admg = self.program.simulate, self.program.admg
        survey_seed = sub_seed(seed, r)
        graphs = []
        for i in range(self.REPS):
            for di, density in enumerate(self.DENSITIES):
                # the stream cli.survey gives graph (density index, repetition)
                g = simulate.random_admg(self.P, density, sub_seed(survey_seed, di, i))
                path = workdir / f"g{r}_{di}_{i}.json"
                text = admg.graph_to_json(g)
                path.write_text(text, encoding="utf-8")
                graphs.append({"density": density, "path": str(path), "doc": json.loads(text)})
        return {"survey_seed": survey_seed, "graphs": graphs}

    def rounds(self, pool, workdir: Path, seed: int):
        r = 0
        while True:
            rnd = pool[r] if r < len(pool) else self.write_round(workdir, seed, r)
            yield self._round_ops(rnd, seed, r)
            r += 1

    def _round_ops(self, rnd: dict, seed: int, r: int):
        stored = self.stored.get(str(seed))
        verdicts = {}

        def check_graph(k, item):
            def validate(stdout):
                report = json.loads(stdout)
                graph = checks.Graph(item["doc"])
                problems = checks.check_report(graph, report)
                flag = all(c["identifiable"] for c in report["columns"].values())
                verdicts[k] = flag
                index = r * len(rnd["graphs"]) + k
                if stored and index < len(stored["verdicts"]):
                    rank_sum = sum(c["rank"] for c in report["columns"].values())
                    want = (stored["verdicts"][index] == "1", stored["rank_sums"][index])
                    if (flag, rank_sum) != want:
                        problems.append(f"verdict/rank sum {(flag, rank_sum)} != stored {want}")
                return problems, {"columns": len(report["columns"])}

            return Op("check", ["check", item["path"]], validate)

        def survey_validate(stdout):
            expected = {d: [] for d in self.DENSITIES}
            for k, item in enumerate(rnd["graphs"]):
                expected[item["density"]].append(verdicts[k])
            problems = checks.check_survey(stdout, self.P, self.REPS, rnd["survey_seed"], expected)
            return problems, {"graphs": len(rnd["graphs"])}

        survey = Op(
            "survey",
            ["survey", "--p", str(self.P), "--densities", "0.1:0.9:0.1",
             "--reps", str(self.REPS), "--seed", str(rnd["survey_seed"])],
            survey_validate,
        )
        # The survey is validated after the checks of its graphs, so it runs last.
        return [check_graph(k, item) for k, item in enumerate(rnd["graphs"])] + [survey]


class VerifyP4:
    """One exhaustive triple-oracle sweep over every mixed graph with at most 4 vertices."""

    name = "verify-p4"
    LATENCY = ("verify", None)
    THROUGHPUT = ("verify", "graphs")
    TRACE_ROUNDS = 1

    def __init__(self, program):
        self.program = program

    def generate(self, workdir: Path, seed: int):
        return None

    def rounds(self, pool, workdir: Path, seed: int):
        def validate(stdout):
            return checks.check_verify(stdout), {"graphs": checks.VERIFY_P4["graphs"]}

        while True:
            yield [Op("verify", ["verify", "--max-vertices", "4", "--seed", str(seed)], validate)]


class Fit:
    """`estimate --init reg --true-params` on simulated data, one instance per round."""

    N = 2000
    POOL = 6
    # The iteration count of one fit varies about 3x with the data (23 to 67
    # on one graph), so the figures are per L-BFGS iteration; the whole-fit
    # time and the exact iteration count are kept in the result file.
    LATENCY = ("estimate", "iterations")
    THROUGHPUT = ("estimate", "iterations")

    def __init__(self, program):
        self.program = program

    def generate(self, workdir: Path, seed: int):
        return [self._write_instance(workdir, seed, k) for k in range(self.POOL)]

    def _write_instance(self, workdir: Path, seed: int, k: int) -> dict:
        simulate, admg = self.program.simulate, self.program.admg
        g = self.graph(seed, k)
        data_seed = sub_seed(seed, k, 1)
        lam = simulate.sample_parameters(g, data_seed)
        model = simulate.ErrorModel(kind=simulate.LAPLACE)
        data = simulate.generate_data(g, lam, simulate.sample_errors(g, model, self.N, data_seed))
        stem = workdir / f"{self.KERNEL}{k}"
        text = admg.graph_to_json(g)
        Path(f"{stem}.json").write_text(text, encoding="utf-8")
        Path(f"{stem}.params.json").write_text(lam.to_json(), encoding="utf-8")
        simulate.write_dataset(data, f"{stem}.csv")
        return {"stem": str(stem), "doc": json.loads(text)}

    def rounds(self, pool, workdir: Path, seed: int):
        k = 0
        while True:
            inst = pool[k] if k < len(pool) else self._write_instance(workdir, seed, k)
            stem = inst["stem"]
            graph = checks.Graph(inst["doc"])

            def validate(stdout, graph=graph):
                doc = json.loads(stdout)
                return checks.check_estimate(graph, doc), {
                    "graphs": 1, "iterations": doc["iterations"], "loss": doc["loss"],
                }

            argv = ["estimate", f"{stem}.json", f"{stem}.csv", "--kernel", self.KERNEL,
                    "--init", "reg", "--true-params", f"{stem}.params.json"]
            yield [Op("estimate", argv, validate)]
            k += 1


class FitPoly2(Fit):
    """Random p=20 graphs at density 0.2 with exactly 15 directed edges (129 pairs).

    random_admg draws the directed-edge count uniformly from 1 to 76, and fit
    time grows steeply with it (15 edges: about 3 s; 76: over 100 s), so graph
    seeds are drawn until one has 15 directed edges, the size of the seed-0
    graph.  This keeps the cost per fit comparable across seeds.
    """

    name = "fit-poly2"
    KERNEL = "poly2"
    DIRECTED_EDGES = 15
    TRACE_ROUNDS = 4

    def graph(self, seed: int, k: int):
        for attempt in range(100000):
            g = self.program.simulate.random_admg(20, 0.2, sub_seed(seed, k, 0, attempt))
            if len(g.directed) == self.DIRECTED_EDGES:
                return g
        raise RuntimeError("no graph with the wanted directed-edge count")


class FitRbf(Fit):
    """The instrumental-variable graph v1 -> v2 -> v3, v2 <-> v3 with fresh data per round.

    n = 1000, not 2000: at n=2000 one fit takes 5-13 s, so a run holds 1-3
    fits and its per-iteration cost spread 0.2 across ten seeds.  n = 1000
    keeps the O(n^2) Gram path dominant and gives several fits per run.
    """

    name = "fit-rbf"
    KERNEL = "rbf"
    N = 1000
    TRACE_ROUNDS = 3

    def graph(self, seed: int, k: int):
        return self.program.admg.MixedGraph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")], [("v2", "v3")])


WORKLOADS = {w.name: w for w in (IdentP25, VerifyP4, FitPoly2, FitRbf)}


# -- operations -----------------------------------------------------------------


class Op:
    """One CLI command plus the check of its output."""

    def __init__(self, kind: str, argv, validate):
        self.kind = kind
        self.argv = argv
        self.validate = validate


_REF_BLOCKS = np.random.default_rng(0).random((6, 4, 4))


def reference_s() -> float:
    """Wall time of a fixed computation in the program's style: the unit `ref`.

    Small sets, tuples, sorting, string formatting and tiny numpy SVDs, like
    the flow and oracle code; it uses no admgident code, so no change to the
    program can move it.
    """
    t0 = time.perf_counter()
    for i in range(15):
        key = tuple(sorted({(i * 7 + k) % 13 for k in range(8)}))
        f"{key}.in"
        np.linalg.svd(_REF_BLOCKS, compute_uv=False)
    return time.perf_counter() - t0


class Speedometer:
    """Samples the host's speed while commands run, to express their cost in refs.

    The host's speed swings about 2x within tens of seconds, often within one
    command.  A SIGALRM timer interrupts the run every INTERVAL_S and times
    the reference; a command's ref is the median sample from WINDOW_S before
    it starts to WINDOW_S after it ends.  The time spent sampling (about 0.3%)
    is subtracted from the command's wall time.
    """

    INTERVAL_S = 0.1
    WINDOW_S = 1.0

    def __init__(self):
        self.samples = []  # (time, reference seconds)
        self.sampling_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, reference_s()))
        self.sampling_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_s(self, start: float, end: float):
        near = [r for t, r in self.samples if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return statistics.median(near) if near else None


def execute(cli, op: Op, speed: Speedometer | None = None) -> dict:
    """Run one command in-process and check it; any failure is recorded, not raised."""
    out, err = io.StringIO(), io.StringIO()
    sampled = speed.sampling_s if speed else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0 - ((speed.sampling_s - sampled) if speed else 0.0)
    result = {"kind": op.kind, "start": t0, "wall_s": wall, "problems": [], "info": {}}
    if rc != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        result["problems"] = [f"{op.kind} exited with {rc}: {tail[0]}"]
        return result
    try:
        result["problems"], result["info"] = op.validate(out.getvalue())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        result["problems"] = [f"{op.kind} output unreadable: {exc!r}"]
    return result


# -- set-up ---------------------------------------------------------------------


class Program:
    """The admgident modules, imported from the checkout's src/ and nowhere else."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import admgident
        from admgident import admg, cli, simulate

        if Path(admgident.__file__).resolve().parent.parent != SRC.resolve():
            raise ImportError(f"admgident was imported from {admgident.__file__}, not {SRC}")
        self.admg, self.cli, self.simulate = admg, cli, simulate


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports admgident and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import admgident"
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def machine_facts(seed: int) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": None,
        "openblas": None,
        "blas_threads": None,
        "git_commit": None,
        "seed": seed,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(ImportError):
        import scipy

        facts["scipy"] = scipy.__version__
    with contextlib.suppress(Exception):
        facts["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    with contextlib.suppress(OSError, AttributeError, IndexError):
        get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        facts["blas_threads"] = get_threads()
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        if Path(top[0]).resolve() == ROOT.resolve():
            facts["git_commit"] = top[1]
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    facts["src_lines"] = lines
    facts["src_sha256"] = digest.hexdigest()
    return facts


# -- one run --------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.environ.pop("ADMGIDENT_WORKERS", None)  # one process, no worker pool
    program = Program()
    workload = WORKLOADS[name](program)
    setup = {}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    else:
        setup["import_s"] = import_seconds()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        gen_walls = []
        for _ in range(1 if trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            pool = workload.generate(workdir, seed)
            gen_walls.append(time.perf_counter() - t0)
        setup["generate_s"] = statistics.median(gen_walls)
        results, round_walls = [], []
        speed = None if trace else Speedometer()
        with speed or contextlib.nullcontext():
            t_loop = time.perf_counter()
            for r, ops in enumerate(workload.rounds(pool, workdir, seed)):
                elapsed = time.perf_counter() - t_loop
                if trace:
                    if r >= workload.TRACE_ROUNDS or elapsed > TRACE_DEADLINE_S:
                        break
                elif round_walls and elapsed + max(round_walls) > seconds:
                    break
                t_round = time.perf_counter()
                for op in ops:
                    if tracer:
                        tracer.current_op = len(results)
                    results.append(execute(program.cli, op, speed))
                    if tracer:
                        tracer.current_op = -1
                round_walls.append(time.perf_counter() - t_round)
            loop_s = time.perf_counter() - t_loop
    for result in results:
        result["ref_s"] = speed.ref_s(result["start"], result["start"] + result["wall_s"]) if speed else None
    if tracer:
        tracer.uninstall()
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "loop_s": loop_s,
        "rounds": len(round_walls),
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
        "tracer": tracer,
    }


def end_to_end(run: dict) -> dict:
    """Every end-to-end figure of a run, under the names the result file uses."""
    ops = run["ops"]
    failed = sum(1 for o in ops if o["problems"])
    out = {
        "setup_s": run["setup"].get("import_s", 0.0) + run["setup"]["generate_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_failed_frac": failed / len(ops) if ops else 1.0,
        "attempted": len(ops),
    }
    by_kind = {}
    for o in ops:
        if not o["problems"]:
            by_kind.setdefault(o["kind"], []).append(o)
    workload = WORKLOADS[run["workload"]]
    # latency: median time of one unit of the LATENCY command (a whole command,
    # or one of its `per` units); throughput: THROUGHPUT units per second.
    kind, per = workload.LATENCY
    timed = [(o["wall_s"] / (o["info"][per] if per else 1), o["ref_s"])
             for o in by_kind.get(kind, []) if not per or o["info"].get(per)]
    if timed:
        out["latency_ms"] = statistics.median(w for w, _ in timed) * 1e3
    if timed and all(r for _, r in timed):
        out["latency_ref"] = statistics.median(w / r for w, r in timed)
    kind, units = workload.THROUGHPUT
    done = [o for o in by_kind.get(kind, []) if o["info"].get(units)]
    if done:
        total = sum(o["info"][units] for o in done)
        out["throughput_per_s"] = total / sum(o["wall_s"] for o in done)
        if all(o["ref_s"] for o in done):
            out["throughput_per_ref"] = total / sum(o["wall_s"] / o["ref_s"] for o in done)
    if workload is IdentP25:
        lat = [o["wall_s"] * 1e3 for o in by_kind.get("check", [])]
        out["check_p50_ms"] = out.get("latency_ms")
        out["check_p90_ms"] = metrics.percentile(lat, 0.9)
        out["survey_graphs_per_s"] = out.get("throughput_per_s")
    elif workload is VerifyP4:
        out["verify_graphs_per_s"] = out.get("throughput_per_s")
    else:
        kernel = "poly" if workload is FitPoly2 else "rbf"
        fits = by_kind.get("estimate", [])
        out[f"fit_{kernel}_s"] = statistics.mean(o["wall_s"] for o in fits) if fits else None
        # Every run, traced or not, fits the first instance, so its loss repeats for a seed.
        first = ops[0]
        out[f"fit_{kernel}_loss"] = None if first["problems"] else first["info"]["loss"]
    return out


def per_layer(run: dict) -> dict:
    """Per-layer figures from the spans of a traced run, plus derived ratios."""
    tracer = run["tracer"]
    summary = tracer.summary([o["kind"] for o in run["ops"]])
    out = {"trace.wall_s": summary["wall_s"], "trace.spans": summary["spans"]}
    for name, layer in summary["layers"].items():
        out[f"{name}.calls"] = layer["calls"]
        out[f"{name}.s"] = layer["s"]
        out[f"{name}.self_s"] = layer["self_s"]
    for kind, figures in summary["layers"].get("cli.main", {}).get("by_kind", {}).items():
        out[f"cli.main.self_s.{kind}"] = figures["self_s"]
    fits = [o for o in run["ops"] if o["kind"] == "estimate"]
    evals = summary["layers"].get("estimate.eval")
    out["estimate.iterations"] = sum(o["info"].get("iterations", 0) for o in fits)
    if evals is not None:
        out["estimate.evals"] = evals["calls"]
        if evals["calls"]:
            out["estimate.eval_ms"] = evals["median_ms"]
        if out["estimate.iterations"]:
            out["estimate.evals_per_iter"] = evals["calls"] / out["estimate.iterations"]
    if run["workload"] == "fit-rbf" and fits:
        pairs = 2  # v1-v2 and v1-v3; v2 <-> v3 is bidirected
        out["estimate.gram_mb_per_eval"] = pairs * 2 * FitRbf.N**2 * 8 / 1e6  # computed, not measured
    columns = sum(o["info"].get("columns", 0) for o in run["ops"])
    if columns:
        solves = sum(
            summary["layers"].get(n, {}).get("by_kind", {}).get("check", {}).get("calls", 0)
            for n in ("ident.max_flow", "ident.witness_paths")
        )
        out["ident.columns_checked"] = columns
        out["ident.solves_per_column"] = solves / columns
    out["ident.networks_built"] = summary["networks_built"]
    if summary["networks_distinct"] is not None:
        out["ident.networks_distinct"] = summary["networks_distinct"]
        if summary["networks_built"]:
            out["ident.flow_repeat_ratio"] = 1 - summary["networks_distinct"] / summary["networks_built"]
    out["trace.absent"] = summary["absent"]
    return out


def reported_metric(name: str, figures: dict, trace: bool):
    """Value of one BENCHMARK.json metric from the run's figures, or None if absent.

    Per-layer times are reported as a share (%) of the traced wall time:
    `<span>.pct` (inclusive) and `<span>.self_pct` (self); per-command cli
    self time is `cli.main.self_pct.<command>`.
    """
    if not trace:
        return figures.get(name)
    wall = figures["trace.wall_s"]
    layer, _, suffix = name.rpartition(".")
    if suffix == "calls":
        return None if layer in figures["trace.absent"] else figures.get(name, 0)
    if suffix in ("pct", "self_pct"):
        if layer in figures["trace.absent"]:
            return None
        key = f"{layer}.s" if suffix == "pct" else f"{layer}.self_s"
        return 100.0 * figures.get(key, 0.0) / wall
    if name.startswith("cli.main.self_pct."):
        if "cli.main" in figures["trace.absent"]:
            return None
        return 100.0 * figures.get(f"cli.main.self_s.{suffix}", 0.0) / wall
    return figures.get(name)


def finish(run: dict) -> tuple:
    """Write the result file; return the object for the last stdout line, and the record."""
    benchmark = metrics.load_benchmark()
    trace = bool(run["trace"])
    figures = end_to_end(run)
    if trace:
        figures.update(per_layer(run))
        RESULTS.mkdir(exist_ok=True)
        run["tracer"].write(RESULTS / f"{run['workload']}-seed{run['seed']}.spans.npz")
        untraced = RESULTS / f"{run['workload']}-seed{run['seed']}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text(encoding="utf-8"))
            figures["trace.overhead_s"] = (
                run["loop_s"] / len(run["ops"]) - base["loop_s"] / base["metrics"]["attempted"]
            )
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    reported, absent = {}, []
    for m in wanted:
        value = reported_metric(m["name"], figures, trace)
        if value is None:
            absent.append(m["name"])
        else:
            reported[m["name"]] = {"value": value, "unit": m["unit"]}
    failures = [p for o in run["ops"] for p in o["problems"]]
    failed = sum(1 for o in run["ops"] if o["problems"])
    record = {
        "workload": run["workload"],
        "why": next(w["why"] for w in benchmark["workloads"] if w["name"] == run["workload"]),
        "seed": run["seed"],
        "trace": run["trace"],
        "seconds": run["seconds"],
        "loop_s": run["loop_s"],
        "rounds": run["rounds"],
        "setup": run["setup"],
        "facts": machine_facts(run["seed"]),
        "failures": failures[:20],
        "absent": absent,
        "metrics": figures,
        "op_walls_s": {k: [o["wall_s"] for o in run["ops"] if o["kind"] == k] for k in {o["kind"] for o in run["ops"]}},
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0 and bool(run["ops"]),
        "attempted": len(run["ops"]),
        "failed": failed,
        "metrics": reported,
    }
    return result, record


def describe(record: dict, benchmark: dict) -> list:
    """Human-readable lines: every figure of a run by name and unit."""
    mode = "traced" if record["trace"] else "untraced"
    lines = [f"== {record['workload']} ({mode}, seed {record['seed']}): {record['why']}"]
    lines += [f"   FAILED: {p}" for p in record["failures"][:5]]
    lines += [f"   absent: {name}" for name in record["absent"]]
    for name, value in sorted(record["metrics"].items()):
        if isinstance(value, (int, float)):
            lines.append(f"   {name:<44} {value:.6g} {metrics.spec(name, benchmark)['unit']}")
    return lines


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process; print every figure."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"   {name} trace={trace}: exit {proc.returncode}, not correct")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds or metrics.load_benchmark()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    try:
        run = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import admgident: {exc}", file=sys.stderr)
        return 2
    result, record = finish(run)
    print("\n".join(describe(record, metrics.load_benchmark())))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
