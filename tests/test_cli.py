import json
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admgident import graph_to_json, read_dataset, sample_errors, ErrorModel
from admgident.cli import _parse_densities, main, survey
from admgident.errors import GraphFormatError
from admgident.oracle import ParamMatrix
from figures import confounded_diamond, iv_graph, two_cycle


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

    def test_non_utf8_graph_exit_2(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00{}")
        assert main(["check", str(path)]) == 2

    def test_two_cycle_verdict(self, tmp_path, capsys):
        path = tmp_path / "cycle.json"
        path.write_text(graph_to_json(two_cycle()))
        assert main(["check", str(path), "--cyclic"]) == 0
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


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify", "--max-vertices", "3", "--samples", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mismatches"] == 0
        assert doc["graphs"] == 207

    def test_cap_enforced(self, capsys):
        assert main(["verify", "--max-vertices", "7"]) == 2

    @pytest.mark.parametrize(
        "argv", [["--max-vertices", "0"], ["--max-vertices", "-1"], ["--max-vertices", "2", "--samples", "-3"]]
    )
    def test_counts_out_of_range_exit_2(self, argv):
        assert main(["verify", *argv]) == 2


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

    def test_worker_count_does_not_change_results(self):
        serial = survey(4, [0.4, 0.7], 6, seed=3, workers=1)
        parallel = survey(4, [0.4, 0.7], 6, seed=3, workers=2)
        assert serial == parallel
        assert [row.density for row in serial] == [0.4, 0.7]

    @pytest.mark.parametrize(
        "text",
        ["0.1:0.9:0", "0.1:0.9:-0.1", "0.1:inf:0.1", "-inf:0.9:0.1", "0:1:1e-300", "0.9:0.1:0.1", "1e20:1e20:1"],
    )
    def test_densities_need_finite_bounds_and_positive_step(self, text):
        # Without the checks these ranges never end (or come out empty); the timer turns a hang into a failure.
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

    def test_out_file_matches_stdout(self, iv_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        main(["simulate", iv_file, "--n", "200", "--seed", "2",
              "--params-out", str(tmp_path / "p.json"), "--data-out", str(data)])
        capsys.readouterr()
        assert main(["estimate", iv_file, str(data), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_mismatched_columns_exit_3(self, iv_file, diamond_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", diamond_file, "--n", "30", "--seed", "1",
              "--params-out", str(tmp_path / "p.json"), "--data-out", str(data)])
        capsys.readouterr()
        assert main(["estimate", iv_file, str(data)]) == 3


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_NAMES = st.sampled_from(["v1", "v2", "v3", "v4"])
_EDGE_LISTS = st.lists(st.lists(_NAMES, min_size=1, max_size=3), max_size=6)
_GRAPH_DOCS = _JSON | st.fixed_dictionaries(
    {"vertices": st.lists(_NAMES, max_size=4) | _JSON},
    optional={"directed": _EDGE_LISTS | _JSON, "bidirected": _EDGE_LISTS | _JSON, "nodes": _JSON},
)
_PARAM_DOCS = _JSON | st.fixed_dictionaries(
    {"edges": st.dictionaries(st.sampled_from(["v1->v2", "v2->v3", "v1->v3", "v1"]), _JSON, max_size=3) | _JSON},
    optional={"vertices": _JSON},
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
    """Random documents through cli.main: only exit codes 0, 2 and 3, never an exception."""

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
