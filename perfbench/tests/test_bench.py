"""Tests of the benchmark's own checks, statistics and tracing.

    python3 -m pytest perfbench/tests -q
"""

import copy
import io
import json
from contextlib import redirect_stdout

import pytest

import checks
import metrics
import run
import spans
from admgident import admg, cli

IV_DOC = {"vertices": ["v1", "v2", "v3"], "directed": [["v1", "v2"], ["v2", "v3"]], "bidirected": [["v2", "v3"]]}


def check_report(tmp_path, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["check", str(path)]) == 0
    return json.loads(out.getvalue())


def test_witness_validator_accepts_real_reports(tmp_path):
    report = check_report(tmp_path, IV_DOC)
    assert report["columns"]["v3"]["witness"] == [["v1", "v2"]]
    assert checks.check_report(checks.Graph(IV_DOC), report) == []


@pytest.mark.parametrize("seed", range(5))
def test_witness_validator_accepts_random_p25_reports(tmp_path, seed):
    from admgident import simulate

    doc = json.loads(admg.graph_to_json(simulate.random_admg(25, 0.3, seed)))
    assert checks.check_report(checks.Graph(doc), check_report(tmp_path, doc)) == []


@pytest.mark.parametrize(
    "witness",
    [
        [],  # too few paths for the rank
        [["v2", "v1"]],  # runs against the edge direction
        [["v2"]],  # starts outside removable(v3)
        [["v1"]],  # ends outside pa(v3)
        [["v1", "v2", "v3"]],  # runs through v3 itself
        [["v1", "v2"], ["v1", "v2"]],  # shares vertices, and one path too many
    ],
)
def test_witness_validator_rejects_corrupted_witness(tmp_path, witness):
    report = check_report(tmp_path, IV_DOC)
    bad = copy.deepcopy(report)
    bad["columns"]["v3"]["witness"] = witness
    assert checks.check_report(checks.Graph(IV_DOC), bad)


def test_report_checks_catch_wrong_removable_and_verdicts(tmp_path):
    report = check_report(tmp_path, IV_DOC)
    wrong_removable = copy.deepcopy(report)
    wrong_removable["columns"]["v3"]["removable"] = ["v1", "v2"]
    wrong_verdict = copy.deepcopy(report)
    wrong_verdict["columns"]["v3"]["identifiable"] = False
    for bad in (wrong_removable, wrong_verdict):
        assert checks.check_report(checks.Graph(IV_DOC), bad)


def test_self_time_of_nested_spans():
    # 0: [0, 10] root; 1: [1, 4] and 2: [5, 9] its children; 3: [6, 8] child of 2.
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    parent = [-1, 0, 0, 2]
    assert list(spans.self_times(start, end, parent)) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_tracer_counts_calls_and_reports_renamed_helpers_absent(monkeypatch):
    traced = spans.TRACED + (("ident.renamed_helper", "admgident.ident", "no_such_function"),)
    monkeypatch.setattr(spans, "TRACED", traced)
    tracer = spans.Tracer()
    tracer.install()
    try:
        from admgident import ident

        g = admg.graph_from_json(json.dumps(IV_DOC))
        assert ident.is_identifiable(g, "v3", ("v2",))
    finally:
        tracer.uninstall()
    summary = tracer.summary([])
    assert summary["absent"] == ["ident.renamed_helper"]
    layers = summary["layers"]
    assert layers["ident.is_identifiable"]["calls"] == 1
    # two v-ranks, each one network and one solve; is_acyclic seen through ident's import
    assert layers["ident.build_flow_network"]["calls"] == 2
    assert layers["ident.max_flow"]["calls"] == 2
    assert layers["admg.is_acyclic"]["calls"] == 1
    assert summary["networks_built"] == 2 and summary["networks_distinct"] == 2
    assert not hasattr(ident.is_identifiable, "__wrapped__")


def test_percentile_never_reports_a_thin_tail():
    for n in range(1, 400):
        samples = list(range(n))
        for q in (0.5, 0.9, 0.99):
            value = metrics.percentile(samples, q)
            if value is not None:
                assert sum(1 for s in samples if s > value) >= metrics.MIN_BEYOND
    assert metrics.percentile(list(range(99)), 0.9) is None
    assert metrics.percentile(list(range(100)), 0.9) == 89


def test_nonzero_cli_exit_is_a_failed_operation(tmp_path):
    op = run.Op("check", ["check", str(tmp_path / "missing.json")], lambda out: ([], {}))
    failed = run.execute(cli, op)
    assert failed["problems"] and "exited with 2" in failed["problems"][0]
    ok = run.execute(cli, run.Op("verify", ["verify", "--max-vertices", "2"], lambda out: ([], {})))
    assert ok["problems"] == []
    ok["ref_s"] = 0.002
    figures = run.end_to_end({
        "workload": "verify-p4", "setup": {"generate_s": 0.0}, "peak_rss_mb": 1.0, "ops": [failed, ok],
    })
    assert figures["ops_failed_frac"] == 0.5 and figures["attempted"] == 2


def test_verify_and_estimate_checks():
    assert checks.check_verify(json.dumps(checks.VERIFY_P4)) == []
    assert checks.check_verify(json.dumps({**checks.VERIFY_P4, "mismatches": 1}))
    graph = checks.Graph(IV_DOC)
    good = {"edges": {"v1->v2": 0.5, "v2->v3": -1.0}, "final_objective": 0.1,
            "objective_trace": [0.3, 0.1], "loss": 0.2}
    assert checks.check_estimate(graph, good) == []
    for bad in ({"edges": {"v1->v2": 51.0, "v2->v3": 0.0}}, {"final_objective": 0.4},
                {"edges": {"v1->v2": float("nan"), "v2->v3": 0.0}}):
        assert checks.check_estimate(graph, {**good, **bad})


def test_verdict_rule():
    a = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 0.8 for v in a]
    assert metrics.verdict(a, faster, list(zip(a, faster)), "lower", 0.1) == "improved"
    assert metrics.verdict(a, a, list(zip(a, a)), "lower", 0.1) == "no worse"
    slower = [v * 1.2 for v in a]
    assert metrics.verdict(a, slower, list(zip(a, slower)), "lower", 0.1) == "worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0]
    assert metrics.verdict(noisy, noisy, list(zip(noisy, noisy)), "lower", 0.1) == "unresolved"


def test_traced_metrics_of_a_missing_function_are_absent():
    figures = {"trace.wall_s": 2.0, "trace.absent": ["ident.max_flow"],
               "ident.witness_paths.calls": 3, "ident.witness_paths.s": 0.5}
    assert run.reported_metric("ident.max_flow.calls", figures, True) is None
    assert run.reported_metric("ident.max_flow.pct", figures, True) is None
    assert run.reported_metric("ident.witness_paths.calls", figures, True) == 3
    assert run.reported_metric("ident.witness_paths.pct", figures, True) == 25.0
    assert run.reported_metric("estimate.eval.calls", figures, True) == 0  # idle, not absent
