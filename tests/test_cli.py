import json
import signal

import numpy as np
import pytest

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
