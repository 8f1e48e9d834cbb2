import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admgident
from admgident import MixedGraph, graph_to_json, ident, random_admg, read_dataset, sample_errors, ErrorModel
from admgident import cli, estimate, simulate
from admgident.cli import _parse_densities, main, survey
from admgident.errors import GraphFormatError
from admgident.oracle import ParamMatrix
from figures import JSON_VALUES, confounded_diamond, confounded_feedback, iv_graph, two_cycle


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(graph_to_json(confounded_diamond()))
    return str(path)


@pytest.fixture
def iv_file(tmp_path):
    path = tmp_path / "iv.json"
    path.write_text(graph_to_json(iv_graph()))
    return str(path)


@pytest.fixture
def iv_data(iv_file, tmp_path, capsys):
    """A 30-row dataset on the IV graph, with the parameters that made it."""
    params, data = tmp_path / "iv_params.json", tmp_path / "iv_data.csv"
    main(["simulate", iv_file, "--n", "30", "--seed", "1",
          "--params-out", str(params), "--data-out", str(data)])
    capsys.readouterr()
    return str(data), str(params)


@pytest.mark.parametrize("command", ["survey", "verify", "simulate", "estimate"])
def test_negative_seed_exit_2(command, iv_file, iv_data, tmp_path, capsys):
    argv = {
        "survey": ["survey", "--p", "4", "--densities", "0.5:0.5:0.1", "--reps", "1"],
        "verify": ["verify", "--max-vertices", "2"],
        "simulate": ["simulate", iv_file, "--n", "5", "--params-out", str(tmp_path / "p.json"),
                     "--data-out", str(tmp_path / "d.csv")],
        "estimate": ["estimate", iv_file, iv_data[0], "--init", "random"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestCheck:
    def test_full_report(self, diamond_file, capsys):
        assert main(["check", diamond_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["edges"]["v1->v2"] is False
        assert doc["edges"]["v2->v4"] is True
        assert doc["columns"]["v4"]["rank"] == 2

    def test_single_edge(self, diamond_file, capsys):
        assert main(["check", diamond_file, "--edge", "v2,v4"]) == 0
        assert json.loads(capsys.readouterr().out)["identifiable"] is True

    def test_edge_with_knowledge(self, diamond_file, capsys):
        assert main(["check", diamond_file, "--edge", "v2,v4", "--known", "v3"]) == 0
        assert json.loads(capsys.readouterr().out)["identifiable"] is True

    def test_known_lists_each_parent_once(self, diamond_file, capsys):
        # k is a set: a repeated name is listed once, in sorted order, as without the repeat.
        assert main(["check", diamond_file, "--edge", "v2,v4", "--known", "v3,v2,v3"]) == 0
        repeated = json.loads(capsys.readouterr().out)
        assert repeated["known"] == ["v2", "v3"]
        assert main(["check", diamond_file, "--edge", "v2,v4", "--known", "v2,v3"]) == 0
        assert json.loads(capsys.readouterr().out) == repeated

    @pytest.mark.parametrize(
        "graph, extra",
        [(confounded_diamond(), []), (confounded_diamond(), ["--edge", "v2,v4", "--known", "v3"]), (two_cycle(), [])],
        ids=["report", "edge", "cyclic"],
    )
    def test_out_holds_the_json_document_under_human(self, graph, extra, tmp_path, capsys):
        # --human changes stdout only: --out always gets the document that plain `check` prints.
        path, out = tmp_path / "g.json", tmp_path / "report.json"
        path.write_text(graph_to_json(graph))
        assert main(["check", str(path), *extra]) == 0
        plain = capsys.readouterr().out
        assert main(["check", str(path), *extra, "--human"]) == 0
        human = capsys.readouterr().out
        assert main(["check", str(path), *extra, "--human", "--out", str(out)]) == 0
        assert capsys.readouterr().out == human != plain
        assert json.loads(out.read_text()) == json.loads(plain)
        assert out.read_text() == plain

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_invalid_graph_exit_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": ["a"], "directed": [["a", "a"]]}')
        assert main(["check", str(path)]) == 3

    def test_unknown_key_exit_2(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"vertices": ["a"], "nodes": []}')
        assert main(["check", str(path)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": "abc"},
            {"vertices": ["a", "b"], "directed": ["ab"]},
            {"vertices": [1, 2]},
            {"vertices": [None, "b"]},
            {"vertices": [["a"], "b"]},
            {"vertices": ["1", "b"], "directed": [[1, "b"]]},
            {"vertices": ["1", "b"], "bidirected": [["b", 1]]},
        ],
    )
    def test_non_array_fields_exit_2(self, tmp_path, doc):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2

    @pytest.mark.parametrize("edges", ['"directed": [["a"]]', '"bidirected": [["a", "b", "a"]]'])
    def test_edge_of_wrong_arity_exit_2(self, tmp_path, capsys, edges):
        path = tmp_path / "graph.json"
        path.write_text(f'{{"vertices": ["a", "b"], {edges}}}')
        assert main(["check", str(path)]) == 2
        assert "malformed edge list" in capsys.readouterr().err

    def test_non_utf8_graph_exit_2(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00{}")
        assert main(["check", str(path)]) == 2

    def test_two_cycle_verdict(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(graph_to_json(two_cycle()))
        assert main(["check", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "cycle-decomposition"
        assert doc["verdict"] == "not identifiable (2-cycle)"

    def test_cyclic_autodetect_necessary_only(self, tmp_path, capsys):
        g = two_cycle()
        path = tmp_path / "cycle.json"
        path.write_text(graph_to_json(g))
        assert main(["check", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["acyclic"] is False
        assert doc["all_pass"] is True

    @pytest.mark.parametrize(
        "graph, verdict, error",
        [
            (confounded_feedback(), "not identifiable (necessary condition fails)", "bidirected edges present"),
            (
                MixedGraph(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")]),
                "necessary-only: no certificate",
                "component ['c'] is not a directed cycle",
            ),
        ],
    )
    def test_cyclic_graph_without_a_cycle_decomposition(self, graph, verdict, error, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(graph_to_json(graph))
        assert main(["check", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        necessary = ident.cyclic_necessary_condition(graph)
        assert doc == {
            "acyclic": False,
            "necessary_condition": necessary,
            "all_pass": all(necessary.values()),
            "mode": "necessary-only",
            "cycle_decomposition_error": error,
            "verdict": verdict,
        }
        assert main(["check", str(path), "--human"]) == 0
        lines = [f"  necessary at {v}: {'pass' if ok else 'FAIL'}" for v, ok in necessary.items()]
        assert capsys.readouterr().out == "\n".join(["mode: necessary-only", f"verdict: {verdict}", *lines]) + "\n"

    @pytest.mark.parametrize("edge, code", [("v2", 2), ("v1,v2,v4", 2), ("v1,v4", 3)])
    def test_malformed_or_non_edge_exit_code(self, edge, code, diamond_file, capsys):
        assert main(["check", diamond_file, "--edge", edge]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, code, needle",
        [
            # every part is a vertex: the plain split stands, though "a,b" is one too
            (["check", "{g}", "--edge", "a,b"], 0, '"edge": "a->b"'),
            (["check", "{g}", "--edge", "x,y,c", "--known", "a,b"], 0, '"known": [\n    "a",\n    "b"\n  ]'),
            # one reading joins neighbouring parts into vertices
            (["check", "{g}", "--edge", "x,y,c"], 0, '"edge": "x,y->c"'),
            (["check", "{g}", "--edge", "a,c", "--known", "x,y"], 0, '"known": [\n    "x,y"\n  ]'),
            (["flow", "{g}", "--node", "c", "--set", "x,y, a"], 0, '"x,y.out",\n      "t"'),
            # two readings, or none: the plain split's error, as for any unknown name
            (["check", "{g}", "--edge", "p,q,r"], 2, "expects 'u,v'"),
            (["flow", "{g}", "--node", "c", "--set", "x,y,a,b"], 3, "vertex 'x'"),
            (["check", "{g}", "--edge", "x,c"], 3, "vertex 'x'"),
        ],
        ids=[
            "plain-edge", "plain-known", "joined-edge", "joined-known", "joined-set",
            "two-readings", "two-readings-set", "no-reading",
        ],
    )
    def test_vertex_names_holding_commas(self, argv, code, needle, tmp_path, capsys):
        path = tmp_path / "g.json"
        directed = [("a", "b"), ("a", "c"), ("b", "c"), ("a,b", "c"), ("x,y", "c"), ("p", "q,r"), ("p,q", "r")]
        path.write_text(graph_to_json(MixedGraph(["a", "b", "a,b", "x,y", "p", "p,q", "q,r", "r", "c"], directed)))
        assert main([arg.format(g=path) for arg in argv]) == code
        captured = capsys.readouterr()
        assert needle in (captured.err if code else captured.out)

    @pytest.mark.parametrize("graph", ["diamond", "two_cycle"])
    @pytest.mark.parametrize("cyclic", [[]])
    def test_known_without_edge_exit_2(self, graph, cyclic, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(graph_to_json({"diamond": confounded_diamond, "two_cycle": two_cycle}[graph]()))
        assert main(["check", str(path), "--known", "v1", *cyclic]) == 2
        assert capsys.readouterr().out == ""

    def test_edge_with_cyclic_flag_exit_2(self, diamond_file, capsys):
        # There is no --cyclic flag: a cyclic graph is routed by `check` itself.
        for argv in (["--cyclic"], ["--edge", "v2,v4", "--cyclic"]):
            with pytest.raises(SystemExit) as exc:
                main(["check", diamond_file, *argv])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_edge_on_cyclic_graph_exit_3(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(graph_to_json(two_cycle()))
        assert main(["check", str(path), "--edge", "v1,v2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "acyclic" in captured.err

    def test_path_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # v1 -> ... -> v600 with v2..v599 <-> v600: v600's only removable
        # ancestor is v1, so its witness is the whole chain up to v599.
        n = 600
        vs = [f"v{i}" for i in range(1, n + 1)]
        path = tmp_path / "chain.json"
        path.write_text(graph_to_json(MixedGraph(vs, list(zip(vs, vs[1:])), [(u, vs[-1]) for u in vs[1:-1]])))
        assert main(["check", str(path)]) == 0
        column = json.loads(capsys.readouterr().out)["columns"][vs[-1]]
        assert (column["rank"], column["witness"]) == (1, [vs[:-1]])
        assert main(["flow", str(path), "--node", vs[-1]]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] == [vs[:-1]]


    def test_edge_queries_make_one_solve(self, diamond_file, monkeypatch, capsys):
        solves = []
        solve = ident._Dinic.max_flow

        def counting_solve(self, s, t):
            solves.append((s, t))
            return solve(self, s, t)

        monkeypatch.setattr(ident._Dinic, "max_flow", counting_solve)
        for known in ([], ["--known", "v2"], ["--known", "v3"], ["--known", "v2,v3"]):
            for u in ("v2", "v3"):
                solves.clear()
                assert main(["check", diamond_file, "--edge", f"{u},v4", *known]) == 0
                assert len(solves) == 1

    def test_stdout_matches_stored_digest(self, tmp_path, capsys):
        # The report and every --edge query, alone and with the other parents
        # known, as JSON and --human; recorded when --edge solved pa(v) - k and
        # pa(v) - (k u {u}) apart and the report's --human lines had their own branch.
        digest = hashlib.sha256()
        runs = 0
        for i, (p, density, seed) in enumerate((p, d, s) for p in (5, 12) for d in (0.3, 0.6, 0.9) for s in range(3)):
            g = random_admg(p, density, seed)
            path = tmp_path / f"g{i}.json"
            path.write_text(graph_to_json(g))
            queries = [[]]
            for u, v in g.directed:
                others = [w for w in g.parents(v) if w != u]
                queries += [["--edge", f"{u},{v}"], ["--edge", f"{u},{v}", "--known", ",".join(others[::-1]) or ","]]
            for query in queries:
                for human in ([], ["--human"]):
                    code = main(["check", str(path), *query, *human])
                    digest.update(f"{code}\n{capsys.readouterr().out}".encode())
                    runs += 1
        assert runs == 1464
        assert digest.hexdigest() == "4771859a3eca2a51511a9af958f9fd82f8b945017b6a479b5bc553ce4b5be380"


class TestParser:
    @pytest.mark.parametrize(
        "first, second",
        [
            (["check", "{g}", "--human"], ["check", "{g}"]),
            (["check", "{g}", "--no-such-option"], ["check", "{g}"]),
            (["flow", "{g}", "--node", "v4", "--set", "v2"], ["flow", "{g}", "--node", "v4"]),
            (["check", "{g}", "--out", "{out}"], ["check", "{g}"]),
        ],
    )
    def test_cached_parser_keeps_no_state_between_calls(self, first, second, diamond_file, tmp_path, capsys):
        # The second call, made after the first on the one cached parser, must
        # match the same call on a freshly built parser: exit code, stdout,
        # stderr, and no --out file written.
        out = tmp_path / "out.json"
        first, second = ([a.format(g=diamond_file, out=out) for a in argv] for argv in (first, second))
        cli._build_parser.cache_clear()
        expected = main(second), capsys.readouterr()
        cli._build_parser.cache_clear()
        try:
            assert main(first) == 0
        except SystemExit as exc:
            assert exc.code == 2
        capsys.readouterr()
        assert out.exists() == ("--out" in first)
        out.unlink(missing_ok=True)
        assert cli._build_parser() is cli._build_parser()
        assert (main(second), capsys.readouterr()) == expected
        assert not out.exists()

    def test_readme_commands_parse(self):
        # Every `admgident ...` line in the README's sh blocks, `\` continuations
        # joined and `#` comments stripped, must parse; no handler runs.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        lines = [line.split("#")[0].split() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        commands = [words[1:] for words in lines if words[:1] == ["admgident"]]
        assert len(commands) == 9
        for argv in commands:
            cli._build_parser().parse_args(argv)


class TestFlow:
    def test_diamond_last_column(self, diamond_file, capsys):
        assert main(["flow", diamond_file, "--node", "v4", "--set", "v2,v3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_flow"] == 2
        assert sorted(doc["witness"]) == [["v1", "v3"], ["v2"]]

    def test_diamond_first_column(self, diamond_file, capsys):
        assert main(["flow", diamond_file, "--node", "v2", "--set", "v1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_flow"] == 0
        assert doc["witness"] == []

    def test_empty_target_set(self, diamond_file, capsys):
        assert main(["flow", diamond_file, "--node", "v4", "--set", ""]) == 0
        assert json.loads(capsys.readouterr().out)["max_flow"] == 0


    def test_one_solve_per_invocation(self, diamond_file, monkeypatch, capsys):
        solves = []
        solve = ident._Dinic.max_flow

        def counting_solve(self, s, t):
            solves.append((s, t))
            return solve(self, s, t)

        monkeypatch.setattr(ident._Dinic, "max_flow", counting_solve)
        for v in confounded_diamond().vertices:
            solves.clear()
            assert main(["flow", diamond_file, "--node", v]) == 0
            assert len(solves) == 1

    def test_stdout_matches_stored_digest(self, tmp_path, capsys):
        # JSON and --human for every vertex, with its parents and with each
        # proper prefix of them; recorded when the dump and the witness came
        # from two separate solves.
        graphs = [confounded_diamond()] + [random_admg(12, d, s) for d in (0.3, 0.6) for s in range(5)]
        digest = hashlib.sha256()
        runs = 0
        for i, g in enumerate(graphs):
            path = tmp_path / f"g{i}.json"
            path.write_text(graph_to_json(g))
            for v in g.vertices:
                pa = g.parents(v)
                for targets in [[]] + [["--set", ",".join(pa[:k])] for k in range(len(pa))]:
                    for human in ([], ["--human"]):
                        code = main(["flow", str(path), "--node", v, *targets, *human])
                        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
                        runs += 1
        assert runs == 654
        assert digest.hexdigest() == "b529c99f91dd1d736a9d174a74dd77d2593759d29aea1c96f1db20869e6a240b"


# Bodies json.loads cannot turn into a document: an integer past Python's
# 4,300-digit limit (ValueError) and nesting past the recursion limit.
_HUGE_INT = '{"vertices": [1' + "0" * 4999 + "]}"
_DEEP = "[" * 100_000


class TestJsonInputs:
    @pytest.mark.parametrize("body", [_HUGE_INT, _DEEP], ids=["huge-int", "deep"])
    def test_graph_exit_2(self, tmp_path, capsys, body):
        path = tmp_path / "graph.json"
        path.write_text(body)
        assert main(["check", str(path)]) == 2
        assert "graph document is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [_HUGE_INT, _DEEP], ids=["huge-int", "deep"])
    def test_true_params_exit_2(self, iv_file, iv_data, tmp_path, capsys, body):
        path = tmp_path / "params.json"
        path.write_text(body)
        assert main(["estimate", iv_file, iv_data[0], "--true-params", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parameter JSON is not valid JSON" in captured.err

    @pytest.mark.parametrize("body", [_HUGE_INT, _DEEP, "[1, 2]"], ids=["huge-int", "deep", "array"])
    def test_sidecar_exit_2(self, iv_file, iv_data, capsys, body):
        # write_dataset writes the provenance sidecar as a JSON object, so nothing else is read.
        sidecar = iv_data[0] + ".meta.json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(body)
        assert main(["estimate", iv_file, iv_data[0]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sidecar in captured.err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify", "--max-vertices", "3", "--samples", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mismatches"] == 0
        assert doc["graphs"] == 207

    def test_mismatches_exit_1_with_a_dump(self, monkeypatch, capsys):
        # A flow engine that overstates every rank with a sink arc, as in test_oracle's TestVerifySweep.
        solve = ident._Dinic.max_flow
        monkeypatch.setattr(ident._Dinic, "max_flow", lambda self, s, t: solve(self, s, t) + bool(self.adj[t]))
        assert main(["verify", "--max-vertices", "2"]) == 1
        out = capsys.readouterr().out
        summary, end = json.JSONDecoder().raw_decode(out)
        assert summary == {"graphs": 7, "checks": 17, "mismatches": 4}
        dump = json.loads(out[end:])
        assert len(dump) == 4
        assert all(m["q"] and m["flow"] == m["enumeration"] + 1 for m in dump)

    @pytest.mark.parametrize(
        "max_vertices, digest",
        [
            ("4", "a7e8c582cbe0fa34bd4dde80eb240327518624e18a9f9dadb70b702e097d212a"),
            ("5", "477b40d80c1b55cebebe3a4b2bb8a76188fd4a6a3051727651d317739bd5617f"),
        ],
    )
    def test_stdout_matches_stored_digest(self, max_vertices, digest, capsys):
        # Recorded when each directed part took its own modal-rank call.
        assert main(["verify", "--max-vertices", max_vertices, "--seed", "0"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_cap_enforced(self, capsys):
        assert main(["verify", "--max-vertices", "7"]) == 2

    @pytest.mark.parametrize(
        "argv", [["--max-vertices", "0"], ["--max-vertices", "-1"], ["--max-vertices", "2", "--samples", "-3"]]
    )
    def test_counts_out_of_range_exit_2(self, argv):
        assert main(["verify", *argv]) == 2

    def test_runs_as_a_module(self):
        src = os.path.dirname(os.path.dirname(admgident.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "admgident", "verify", "--max-vertices", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"graphs": 7, "checks": 17, "mismatches": 0}


class TestSurvey:
    def test_rows_and_csv(self, tmp_path, capsys):
        out = tmp_path / "survey.csv"
        assert main(
            ["survey", "--p", "4", "--densities", "0.3:0.5:0.2", "--reps", "3",
             "--seed", "1", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,density,graphs_sampled,proportion_identifiable,seed"
        assert len(lines) == 3

    def test_zero_reps_empty_body(self, tmp_path):
        out = tmp_path / "survey.csv"
        assert main(["survey", "--p", "4", "--densities", "0.5:0.5:0.1", "--reps", "0", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1

    def test_negative_reps_exit_2(self):
        assert main(["survey", "--p", "4", "--densities", "0.5:0.5:0.1", "--reps", "-2"]) == 2

    def test_density_above_one_exit_3(self, capsys):
        assert main(["survey", "--p", "5", "--densities", "1.5:1.5:0.1", "--reps", "1"]) == 3
        assert "yields 30 edges" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "1"])
    @pytest.mark.parametrize("p, density, needle", [("5", "1.5", "yields 30 edges"), ("-5", "0.5", "at least 2 vertices")])
    def test_invalid_model_exit_3_whatever_reps(self, reps, p, density, needle, tmp_path, capsys):
        # every density is checked before any graph is sampled, and nothing is written
        out = tmp_path / "survey.csv"
        argv = ["survey", "--p", p, "--densities", f"{density}:{density}:0.1", "--reps", reps, "--out", str(out)]
        assert main(argv) == 3
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_rows_are_deterministic_per_seed(self):
        rows = survey(4, [0.4, 0.7], 6, seed=3)
        assert rows == survey(4, [0.4, 0.7], 6, seed=3)
        assert [row.density for row in rows] == [0.4, 0.7]
        for di, row in enumerate(rows):
            graphs = [random_admg(4, row.density, simulate._graph_seed(3, di, i)) for i in range(6)]
            assert row.proportion_identifiable == sum(map(ident.matrix_generically_identifiable, graphs)) / 6

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0.1:0.9:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
            ("0.1:0.95:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
            ("0.3:0.5:0.2", [0.3, 0.5]),
            # the drift slack is below half a step: no value past 0.5000000005
            ("0.5:0.5000000005:1e-10", [0.5, 0.5000000001, 0.5000000002, 0.5000000003, 0.5000000004, 0.5000000005]),
        ],
    )
    def test_densities_end_at_stop(self, text, expected):
        assert _parse_densities(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["0.1:0.9:0", "0.1:0.9:-0.1", "0.1:inf:0.1", "-inf:0.9:0.1", "0:1:1e-300", "0.9:0.1:0.1", "1e20:1e20:1",
         "0.5:0.5:1e-12"],
    )
    def test_densities_need_finite_bounds_and_positive_step(self, text):
        # Without the checks these ranges never end, come out empty, or (below the 1e-10 rounding unit of a
        # density) repeat values past stop; the timer turns a hang into a failure.
        def expire(signum, frame):
            raise TimeoutError(f"_parse_densities({text!r}) did not return")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            with pytest.raises(GraphFormatError):
                _parse_densities(text)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestSimulate:
    def test_files_and_shapes(self, iv_file, tmp_path, capsys):
        params = tmp_path / "params.json"
        data = tmp_path / "data.csv"
        assert main(
            ["simulate", iv_file, "--n", "40", "--seed", "7",
             "--params-out", str(params), "--data-out", str(data)]
        ) == 0
        ds = read_dataset(str(data))
        assert ds.columns == ("v1", "v2", "v3")
        assert ds.values.shape == (40, 3)
        doc = json.loads(params.read_text())
        assert set(doc["edges"]) == {"v1->v2", "v2->v3"}

    def test_zero_samples_exit_2(self, iv_file, tmp_path):
        assert main(
            ["simulate", iv_file, "--n", "0", "--params-out", str(tmp_path / "p.json"),
             "--data-out", str(tmp_path / "d.csv")]
        ) == 2

    def test_out_of_memory_exit_3(self, iv_file, tmp_path, capsys):
        # The (10**17, 3) error array exceeds the address space, so numpy refuses it at once.
        params, data = tmp_path / "p.json", tmp_path / "d.csv"
        assert main(["simulate", iv_file, "--n", str(10**17), "--params-out", str(params), "--data-out", str(data)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: out of memory: ") and out.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [Path(iv_file)]

    @pytest.mark.parametrize("failing", ["params", "data", "sidecar"])
    def test_failed_write_leaves_no_output_file(self, failing, iv_file, tmp_path, capsys):
        # Whichever output cannot be opened, the run exits 2 and removes what it
        # wrote; a sidecar path taken by a directory stays as it was.
        params, data, sidecar = tmp_path / "p.json", tmp_path / "d.csv", tmp_path / "d.csv.meta.json"
        if failing == "params":
            params = tmp_path / "nodir" / "p.json"
        elif failing == "data":
            data = tmp_path / "nodir" / "d.csv"
        else:
            sidecar.mkdir()
        assert main(["simulate", iv_file, "--n", "5", "--params-out", str(params), "--data-out", str(data)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not params.exists() and not data.exists()
        assert sidecar.is_dir() if failing == "sidecar" else not sidecar.exists()

    @pytest.mark.parametrize("clash", ["data", "sidecar", "symlinked-data"])
    def test_output_paths_that_collide_exit_2_before_writing(self, clash, iv_file, tmp_path, capsys):
        # The parameter file used to be overwritten by the CSV or by its sidecar, with exit 0.
        data = tmp_path / "d.csv"
        params = {"data": data, "sidecar": tmp_path / "d.csv.meta.json", "symlinked-data": tmp_path / "link" / "d.csv"}[clash]
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        assert main(["simulate", iv_file, "--n", "3", "--params-out", str(params), "--data-out", str(data)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and "--params-out" in out.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["iv.json", "link"]

    def test_seed_reproducibility_byte_for_byte(self, iv_file, tmp_path):
        paths = []
        for tag in ("a", "b"):
            params = tmp_path / f"params_{tag}.json"
            data = tmp_path / f"data_{tag}.csv"
            main(["simulate", iv_file, "--n", "25", "--seed", "9",
                  "--params-out", str(params), "--data-out", str(data)])
            paths.append((params.read_bytes(), data.read_bytes()))
        assert paths[0] == paths[1]

    def test_written_data_satisfies_equations(self, diamond_file, tmp_path):
        params = tmp_path / "params.json"
        data = tmp_path / "data.csv"
        main(["simulate", diamond_file, "--n", "200", "--seed", "3",
              "--params-out", str(params), "--data-out", str(data)])
        g = confounded_diamond()
        lam = ParamMatrix.from_json(g, params.read_text())
        ds = read_dataset(str(data))
        errors = sample_errors(g, ErrorModel(), 200, seed=3)
        recon = ds.values @ (np.eye(4) - lam.dense())
        assert np.max(np.abs(recon - errors.values)) < 1e-9


class TestEstimate:
    def test_stdout_matches_stored_digest(self, tmp_path, capsys):
        # Seeded fits with both kernels, with and without --true-params; recorded
        # when the CLI built its document by parsing the result's own JSON back.
        digest = hashlib.sha256()
        for i, g in enumerate((iv_graph(), confounded_diamond())):
            path = tmp_path / f"g{i}.json"
            path.write_text(graph_to_json(g))
            graph, params, data = str(path), str(tmp_path / f"p{i}.json"), str(tmp_path / f"d{i}.csv")
            main(["simulate", graph, "--n", "120", "--seed", str(i), "--params-out", params, "--data-out", data])
            capsys.readouterr()
            for kernel in ("poly2", "rbf"):
                for extra in ([], ["--true-params", params]):
                    code = main(["estimate", graph, data, "--kernel", kernel, *extra])
                    digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == "d9056b134a27d509b0bec32670e7229202fb8405b1af21f1ba8d55d242268510"

    def test_end_to_end_with_loss(self, iv_file, tmp_path, capsys):
        params = tmp_path / "params.json"
        data = tmp_path / "data.csv"
        main(["simulate", iv_file, "--n", "1500", "--seed", "5",
              "--params-out", str(params), "--data-out", str(data)])
        capsys.readouterr()
        assert main(
            ["estimate", iv_file, str(data), "--kernel", "poly2", "--init", "reg",
             "--true-params", str(params)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["loss"] < 0.5
        assert set(doc["abs_errors"]) == {"v1->v2", "v2->v3"}

    def test_vertex_names_holding_arrows(self, tmp_path, capsys):
        # simulate writes the key "x->y->z" for the edge x->y -> z; estimate reads it back
        graph, params, data = tmp_path / "g.json", str(tmp_path / "p.json"), str(tmp_path / "d.csv")
        graph.write_text(graph_to_json(MixedGraph(["x->y", "z", "w"], [("x->y", "z"), ("z", "w")])))
        assert main(["simulate", str(graph), "--n", "100", "--params-out", params, "--data-out", data]) == 0
        capsys.readouterr()
        assert main(["estimate", str(graph), data, "--init", "tv", "--true-params", params]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["abs_errors"]) == {"x->y->z", "z->w"}

    def test_edges_rendering_one_parameter_key_exit_3_before_writing(self, tmp_path, capsys):
        # a -> "b->c" and "a->b" -> c share the key "a->b->c": no output may be written, not even an empty file
        runs = {
            "simulate": ["simulate", "{g}", "--n", "10", "--params-out", "{out}", "--data-out", "{out}.csv"],
            "check": ["check", "{g}", "--out", "{out}"],
            "estimate": ["estimate", "{g}", "{data}", "--out", "{out}"],
            "estimate-true-params": ["estimate", "{g}", "{data}", "--true-params", "{params}", "--out", "{out}"],
        }
        for name, argv in runs.items():
            (tmp_path / name).mkdir()
            paths = {file: tmp_path / name / file for file in ("g", "data", "params", "out")}
            paths["g"].write_text(graph_to_json(MixedGraph(["a", "b->c", "a->b", "c"], [("a", "b->c"), ("a->b", "c")])))
            paths["data"].write_text("a,b->c,a->b,c\n" + "".join(f"{i},{i % 3},{i % 5},{i % 7}\n" for i in range(20)))
            paths["params"].write_text('{"edges": {"a->b->c": 1.0}}')
            assert main([arg.format(**paths) for arg in argv]) == 3, name
            out, err = capsys.readouterr()
            assert out == "" and "'a->b->c'" in err, name
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["data", "g", "params"], name
        # a --edge document holds one key, so the other edge's cannot clash with it
        assert main(["check", str(tmp_path / "check" / "g"), "--edge", "a,b->c"]) == 0
        assert json.loads(capsys.readouterr().out) == {"edge": "a->b->c", "identifiable": True}

    def test_tv_init_requires_params(self, iv_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", iv_file, "--n", "100", "--seed", "5",
              "--params-out", str(tmp_path / "p.json"), "--data-out", str(data)])
        capsys.readouterr()
        assert main(["estimate", iv_file, str(data), "--init", "tv"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "v1,v2,v3\n1.0,x,2.0\n",
            "v1,v2,v3\n",
            "v1,v2,v3\n1.0,nan,2.0\n",
            "v1,v2,v3\n1.0,2.0,-inf\n",
            "v1,v2,v3\n1.0,2.0,3.0,4.0\n",
        ],
    )
    def test_malformed_csv_exit_2(self, iv_file, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        assert main(["estimate", iv_file, str(data)]) == 2
        assert str(data) in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["data", "params"])
    def test_non_utf8_file_exit_2(self, iv_file, iv_data, tmp_path, which):
        bad = tmp_path / "utf16"
        bad.write_bytes(b"\xff\xfe\x00v1")
        data, params = (str(bad), iv_data[1]) if which == "data" else (iv_data[0], str(bad))
        assert main(["estimate", iv_file, data, "--true-params", params]) == 2

    @pytest.mark.parametrize(
        "text, code",
        [
            ("[1]", 2),
            ('{"edges": [1]}', 2),
            ('{"edges": {"v1->v2": "x"}}', 2),
            ('{"edges": {"v1->v2": true}}', 2),
            ('{"edges": {"v1->v2": NaN}}', 2),
            ('{"edges": {"v1->v2": 1e400}}', 2),
            pytest.param('{"edges": {"v1->v2": 1' + "0" * 400 + "}}", 2, id="int-beyond-float"),
            ('{"edges": {"v1->v3": 1.0}}', 3),
        ],
    )
    def test_malformed_true_params(self, iv_file, iv_data, tmp_path, capsys, text, code):
        params = tmp_path / "bad_params.json"
        params.write_text(text)
        assert main(["estimate", iv_file, iv_data[0], "--true-params", str(params)]) == code
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("init", ["random", "tv", "reg"])
    def test_one_sample_exit_3(self, iv_file, iv_data, tmp_path, capsys, init):
        data = tmp_path / "one_row.csv"
        data.write_text("v1,v2,v3\n0.5,-1.0,2.0\n")
        argv = ["estimate", iv_file, str(data), "--kernel", "rbf", "--init", init, "--true-params", iv_data[1]]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "samples" in captured.err

    def test_data_too_large_to_centre_exit_3(self, iv_file, tmp_path):
        # Each cell is finite, but their column sum overflows, so the centred data would hold inf.
        # A fresh interpreter shows what a user sees: numpy's warnings go to stderr there.
        data = tmp_path / "data.csv"
        data.write_text("v1,v2,v3\n8.988465674311579e+307,0.0,0.0\n8.98846567431158e+307,0.0,0.0\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(admgident.__file__))}
        done = subprocess.run(
            [sys.executable, "-m", "admgident", "estimate", iv_file, str(data)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == "error: centring the data overflows: values too large for float arithmetic\n"

    def test_column_sum_that_overflows_exit_3_in_process(self, iv_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("v1,v2,v3\n9e307,1,2\n9e307,2,1\n1,3,3\n")
        assert main(["estimate", iv_file, str(data)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: centring the data overflows: values too large for float arithmetic\n"

    @pytest.mark.parametrize("kernel", ["poly2", "rbf"])
    def test_objective_that_overflows_exit_4_without_warnings(self, iv_file, tmp_path, capsys, kernel):
        # The suite turns RuntimeWarnings into errors, so a warning from the objective fails here.
        data = tmp_path / "data.csv"
        data.write_text("v1,v2,v3\n1e200,1,2\n-1e200,2,1\n1,3,3\n2,1,1\n")
        assert main(["estimate", iv_file, str(data), "--init", "random", "--kernel", kernel]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: objective became non-finite during optimization\n"

    def test_regression_slope_that_overflows_exit_3(self, iv_file, tmp_path, capsys):
        # v2 over v1 rises by about 4e126 / 2e-182: a finite dataset whose least-squares slope is -inf.
        data = tmp_path / "data.csv"
        data.write_text("v1,v2,v3\n0.0,3.958390609249566e+126,0.0\n2.201927866600401e-182,0.0,0.0\n")
        assert main(["estimate", iv_file, str(data)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: regression coefficients of 'v2' overflow: values too far apart for float arithmetic\n"

    def test_standardised_box_past_the_float_range_fits(self, iv_file, tmp_path, capsys):
        # sd(v2) / sd(v3) is about 3.6e306, so 50 times it, the v2->v3 box in standardised
        # coordinates, is past the float range: no bound there, and the fit stays in the box.
        data = tmp_path / "data.csv"
        data.write_text("v1,v2,v3\n0.0,7.190772539449264e+306,0.0\n1.0,0.0,0.0\n")
        assert main(["estimate", iv_file, str(data)]) == 0
        edges = json.loads(capsys.readouterr().out)["edges"]
        assert edges == {"v1->v2": -50.0, "v2->v3": 0.0}

    @pytest.mark.parametrize("cell", ["1.0", "9.480751908109177e+153", "1e+307"])
    def test_constant_column_of_any_size_fits_alike(self, iv_file, tmp_path, capsys, cell):
        # A constant v3 is scaled to 1, so powers of its huge cells never overflow the features.
        data = tmp_path / "data.csv"
        data.write_text(f"v1,v2,v3\n0.0,1.0,{cell}\n1.0,0.0,{cell}\n")
        assert main(["estimate", iv_file, str(data)]) == 0
        edges = json.loads(capsys.readouterr().out)["edges"]
        assert edges["v1->v2"] == pytest.approx(-1.0)
        assert edges["v2->v3"] == 0.0

    def test_huge_cells_fit_like_unscaled_data(self, iv_file, tmp_path, capsys):
        # Squares of cells near 1e155 overflow, but independence is scale-free.
        values = np.random.default_rng(3).normal(size=(20, 3))
        fits = []
        for scale in (1.0, 1e155):
            data = tmp_path / f"data{scale:g}.csv"
            rows = "".join(",".join(repr(float(c)) for c in row) + "\n" for row in values * scale)
            data.write_text("v1,v2,v3\n" + rows)
            assert main(["estimate", iv_file, str(data)]) == 0
            fits.append(json.loads(capsys.readouterr().out)["edges"])
        assert fits[1].keys() == fits[0].keys()
        assert all(fits[1][e] == pytest.approx(fits[0][e], abs=1e-6) for e in fits[0])

    def test_huge_true_params_give_a_finite_loss(self, iv_file, iv_data, tmp_path, capsys):
        params = tmp_path / "huge.json"
        params.write_text('{"edges": {"v1->v2": 1e300}}')
        assert main(["estimate", iv_file, iv_data[0], "--true-params", str(params)]) == 0
        assert json.loads(capsys.readouterr().out)["loss"] == pytest.approx(1.0)

    def test_out_file_matches_stdout(self, iv_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        main(["simulate", iv_file, "--n", "200", "--seed", "2",
              "--params-out", str(tmp_path / "p.json"), "--data-out", str(data)])
        capsys.readouterr()
        assert main(["estimate", iv_file, str(data), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_non_finite_objective_exit_4(self, iv_file, iv_data, monkeypatch, capsys):
        real = estimate._value_and_gradient
        monkeypatch.setattr(estimate, "_value_and_gradient", lambda layout, lam: (math.nan, real(layout, lam)[1]))
        assert main(["estimate", iv_file, iv_data[0]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_mismatched_columns_exit_3(self, iv_file, diamond_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", diamond_file, "--n", "30", "--seed", "1",
              "--params-out", str(tmp_path / "p.json"), "--data-out", str(data)])
        capsys.readouterr()
        assert main(["estimate", iv_file, str(data)]) == 3


_NAMES = st.sampled_from(["v1", "v2", "v3", "v4"])
_EDGE_LISTS = st.lists(st.lists(_NAMES, min_size=1, max_size=3), max_size=6)
_GRAPH_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"vertices": st.lists(_NAMES, max_size=4) | JSON_VALUES},
    optional={"directed": _EDGE_LISTS | JSON_VALUES, "bidirected": _EDGE_LISTS | JSON_VALUES, "nodes": JSON_VALUES},
)
_PARAM_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"edges": st.dictionaries(st.sampled_from(["v1->v2", "v2->v3", "v1->v3", "v1"]), JSON_VALUES, max_size=3) | JSON_VALUES},
    optional={"vertices": JSON_VALUES},
)

_NUMERIC = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-10**6, 10**6).map(str)
_CELLS = st.sampled_from(["nan", "-inf", "x", "", " 3", '"4"', "1e400"]) | _NUMERIC | st.integers().map(str)
_HEADERS = st.sampled_from([["v1", "v2"], ["v3", "v2", "v1"]]) | st.lists(st.text(max_size=3), max_size=4)
_CSV_TEXT = (
    st.text(max_size=30)
    | st.builds(lambda header, rows: [header, *rows], _HEADERS, st.lists(st.lists(_CELLS, min_size=2, max_size=4), max_size=6))
    | st.lists(st.lists(_NUMERIC, min_size=3, max_size=3), min_size=1, max_size=8).map(lambda rows: [["v1", "v2", "v3"], *rows])
).map(lambda doc: doc if isinstance(doc, str) else "".join(",".join(r) + "\n" for r in doc))
_NUMBERS = st.sampled_from(["0", "0.1", "0.5", "1", "-1", "1e-300", "1e20", "inf", "nan", "", "x"]) | st.floats().map(repr)
_DENSITY_TEXT = (
    st.text(max_size=12)
    | st.lists(_NUMBERS, min_size=1, max_size=4).map(":".join)
    | st.tuples(st.sampled_from(["0", "0.1", "0.5"]), st.sampled_from(["0.5", "0.9", "1"]), _NUMBERS).map(":".join)
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """IV graph and a 30-row dataset in a directory every example may overwrite."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "iv.json").write_text(graph_to_json(iv_graph()))
    main(["simulate", str(root / "iv.json"), "--n", "30", "--seed", "1",
          "--params-out", str(root / "params.json"), "--data-out", str(root / "data.csv")])
    return root


class TestInputFuzz:
    """Random input files and arguments through cli.main: only exit codes 0, 2 and 3, never an exception."""

    @settings(max_examples=100, deadline=None)
    @given(doc=_GRAPH_DOCS | st.binary(max_size=16))
    def test_graph_documents(self, fuzz_files, doc):
        path = fuzz_files / "graph.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) in (0, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(doc=_PARAM_DOCS)
    def test_parameter_documents(self, fuzz_files, doc):
        path = fuzz_files / "fuzz_params.json"
        path.write_text(json.dumps(doc))
        argv = ["estimate", str(fuzz_files / "iv.json"), str(fuzz_files / "data.csv"), "--true-params", str(path)]
        assert main(argv) in (0, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(text=_CSV_TEXT)
    def test_csv_files(self, fuzz_files, text):
        path = fuzz_files / "fuzz.csv"
        path.write_text(text)
        assert main(["estimate", str(fuzz_files / "iv.json"), str(path)]) in (0, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(text=_DENSITY_TEXT, p_reps=st.sampled_from([("4", "0"), ("1", "1")]))
    def test_density_strings(self, text, p_reps):
        # --reps 0 samples nothing, but a density outside the model still exits 3; so does p = 1.
        p, reps = p_reps
        try:
            code = main(["survey", "--p", p, "--reps", reps, "--densities", text])
        except SystemExit as exc:  # argparse rejects a value that looks like an option
            code = exc.code
        assert code in (0, 2, 3)
