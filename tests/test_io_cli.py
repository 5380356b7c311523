"""File formats and the command-line tool: round-trips, schemas, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from snowball_sbm import (
    DesignConfig,
    McmcConfig,
    SbmParams,
    ValidationError,
    draw_initial,
    generate_population,
    run_chain,
    sufficient_counts,
    to_ignored_data,
    trace_one_wave,
)
from snowball_sbm import io
from snowball_sbm.cli import main

from dense_links import dense_links


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    io.save_params(SbmParams([0.5, 0.5], [0.25, 0.1, 0.2]), str(path))
    return str(path)


@pytest.fixture
def graph_files(tmp_path):
    params = SbmParams([0.5, 0.5], [0.25, 0.1, 0.2])
    graph = generate_population(params, 40, seed=6)
    edges, strata = str(tmp_path / "edges.tsv"), str(tmp_path / "strata.csv")
    io.save_graph(graph, edges, strata)
    return graph, edges, strata


class TestParamsIo:
    def test_round_trip(self, params_file):
        params = io.load_params(params_file)
        assert params.lam.tolist() == [0.5, 0.5]
        assert params.beta.tolist() == [0.25, 0.1, 0.2]

    def test_invalid_params_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"G": 2, "lambda": [0.7, 0.4], "beta": [0.1, 0.1, 0.1]}))
        with pytest.raises(ValidationError, match="sum to 1"):
            io.load_params(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"G": 2, "lambda": [0.5, 0.5]}))
        with pytest.raises(ValidationError, match="beta"):
            io.load_params(str(path))

    def test_wrong_triangle_length_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"G": 2, "lambda": [0.5, 0.5], "beta": [0.1, 0.1]}))
        with pytest.raises(ValidationError):
            io.load_params(str(path))


class TestGraphIo:
    def test_round_trip_preserves_counts(self, graph_files):
        graph, edges, strata = graph_files
        loaded = io.load_graph(edges, strata)
        a, b = sufficient_counts(graph), sufficient_counts(loaded)
        assert np.array_equal(a.strata_counts, b.strata_counts)
        assert np.array_equal(a.link_counts, b.link_counts)
        assert np.array_equal(graph.adjacency, loaded.adjacency)

    def test_isolated_nodes_survive_round_trip(self, tmp_path):
        from snowball_sbm import PopulationGraph

        graph = PopulationGraph(strata=np.array([0, 1, 0]), edges=np.zeros((0, 2), int))
        e, s = str(tmp_path / "e.tsv"), str(tmp_path / "s.csv")
        io.save_graph(graph, e, s)
        loaded = io.load_graph(e, s)
        assert loaded.n_nodes == 3
        assert loaded.strata.tolist() == [0, 1, 0]

    def test_duplicate_edge_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("node_id,stratum\n0,1\n1,1\n")
        (tmp_path / "e.tsv").write_text("u\tv\n0\t1\n1\t0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            io.load_graph(str(tmp_path / "e.tsv"), str(tmp_path / "s.csv"))

    def test_gap_in_node_ids_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("node_id,stratum\n0,1\n2,1\n")
        (tmp_path / "e.tsv").write_text("u\tv\n")
        with pytest.raises(ValidationError, match="cover"):
            io.load_graph(str(tmp_path / "e.tsv"), str(tmp_path / "s.csv"))


class TestSampleIo:
    def make_data(self, tmp_path):
        params = SbmParams([0.5, 0.5], [0.25, 0.1, 0.2])
        graph = generate_population(params, 40, seed=6)
        s0 = draw_initial(graph, DesignConfig(mode="fixed_size", n0=6, seed=1))
        sample = trace_one_wave(graph, s0)
        return to_ignored_data(sample)

    def test_round_trip(self, tmp_path):
        data = self.make_data(tmp_path)
        path = str(tmp_path / "sample.json")
        io.save_sample(data, path, meta={"n_strata": 2})
        loaded, meta = io.load_sample(path)
        assert loaded.n0 == data.n0 and loaded.n1 == data.n1
        assert np.array_equal(dense_links(loaded), dense_links(data))
        assert np.array_equal(loaded.strata_s0, data.strata_s0)
        assert meta["n_strata"] == 2

    def test_schema_violations(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n0": 1, "n1": 0, "strata_s0": [1], "strata_s1": []}))
        with pytest.raises(ValidationError, match="links"):
            io.load_sample(str(path))
        path.write_text(
            json.dumps({"n0": 1, "n1": 1, "strata_s0": [1], "strata_s1": [1], "links": []})
        )
        with pytest.raises(ValidationError, match="no link"):
            io.load_sample(str(path))
        path.write_text(
            json.dumps({"n0": 1, "n1": 1, "strata_s0": [1], "strata_s1": [1], "links": [[2, 2]]})
        )
        with pytest.raises(ValidationError, match="canonical"):
            io.load_sample(str(path))


class TestCli:
    def test_generate_sample_estimate_pipeline(self, tmp_path, params_file):
        out = str(tmp_path / "pop")
        assert run_cli("generate", "--params", params_file, "--n", "60", "--seed", "5", "--out", out) == 0
        sample_path = str(tmp_path / "sample.json")
        assert run_cli(
            "sample", "--edges", f"{out}/edges.tsv", "--strata", f"{out}/strata.csv",
            "--design", "bernoulli:0.2", "--seed", "6", "--out", sample_path,
        ) == 0
        est_dir = str(tmp_path / "est")
        assert run_cli(
            "estimate", "--sample", sample_path, "--chain-length", "50",
            "--seed", "7", "--out", est_dir,
        ) == 0
        summary = json.loads((tmp_path / "est" / "summary.json").read_text())
        trace_lines = (tmp_path / "est" / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == 51
        assert summary["chain_length"] == 50
        # posterior means in the summary equal retained-trace column means
        rows = [line.split(",") for line in trace_lines[1:]]
        burn = summary["burn_in"]
        n_col = np.array([float(r[1]) for r in rows])
        assert summary["n_mean"] == pytest.approx(n_col[burn:].mean(), abs=1e-12)

    def test_census_design_gives_empty_wave(self, tmp_path, params_file):
        out = str(tmp_path / "pop")
        run_cli("generate", "--params", params_file, "--n", "30", "--seed", "1", "--out", out)
        sample_path = str(tmp_path / "s.json")
        run_cli("sample", "--edges", f"{out}/edges.tsv", "--strata", f"{out}/strata.csv",
                "--design", "bernoulli:1.0", "--seed", "2", "--out", sample_path)
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["n0"] == 30 and doc["n1"] == 0

    def test_generate_empty_population(self, tmp_path, params_file):
        out = str(tmp_path / "empty")
        assert run_cli("generate", "--params", params_file, "--n", "0", "--seed", "1", "--out", out) == 0
        assert (tmp_path / "empty" / "edges.tsv").read_text() == "u\tv\n"
        assert (tmp_path / "empty" / "strata.csv").read_text() == "node_id,stratum\n"

    def test_byte_identical_reruns(self, tmp_path, params_file):
        for tag in ("a", "b"):
            out = str(tmp_path / f"pop_{tag}")
            run_cli("generate", "--params", params_file, "--n", "50", "--seed", "9", "--out", out)
        assert (tmp_path / "pop_a" / "edges.tsv").read_bytes() == (tmp_path / "pop_b" / "edges.tsv").read_bytes()
        assert (tmp_path / "pop_a" / "strata.csv").read_bytes() == (tmp_path / "pop_b" / "strata.csv").read_bytes()

    def test_validation_exit_code(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert run_cli("estimate", "--sample", missing, "--out", str(tmp_path / "x")) == 2

    def test_mle_command(self, tmp_path, params_file):
        out = str(tmp_path / "pop")
        run_cli("generate", "--params", params_file, "--n", "40", "--seed", "3", "--out", out)
        mle_path = str(tmp_path / "mle.json")
        assert run_cli("mle", "--edges", f"{out}/edges.tsv", "--strata", f"{out}/strata.csv", "--out", mle_path) == 0
        doc = json.loads((tmp_path / "mle.json").read_text())
        assert doc["N"] == 40
        assert len(doc["beta_upper"]) == 3

    def test_profile_monotone_observed_column(self, tmp_path, params_file):
        out = str(tmp_path / "pop")
        run_cli("generate", "--params", params_file, "--n", "50", "--seed", "4", "--out", out)
        sample_path = str(tmp_path / "s.json")
        run_cli("sample", "--edges", f"{out}/edges.tsv", "--strata", f"{out}/strata.csv",
                "--design", "fixed:10", "--seed", "5", "--out", sample_path)
        doc = json.loads((tmp_path / "s.json").read_text())
        n_sampled = doc["n0"] + doc["n1"]
        profile_path = str(tmp_path / "profile.csv")
        assert run_cli("profile", "--sample", sample_path, "--params", params_file,
                       "--n-min", str(n_sampled), "--n-max", str(n_sampled + 60),
                       "--out", profile_path) == 0
        rows = [line.split(",") for line in open(profile_path).read().splitlines()[1:]]
        observed = [float(r[1]) for r in rows]
        ignored = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(observed, observed[1:]))
        peak = int(np.argmax(ignored))
        assert 0 < peak < len(ignored) - 1

    def test_profile_grid_below_sample_rejected(self, tmp_path, params_file):
        out = str(tmp_path / "pop")
        run_cli("generate", "--params", params_file, "--n", "50", "--seed", "4", "--out", out)
        sample_path = str(tmp_path / "s.json")
        run_cli("sample", "--edges", f"{out}/edges.tsv", "--strata", f"{out}/strata.csv",
                "--design", "fixed:10", "--seed", "5", "--out", sample_path)
        assert run_cli("profile", "--sample", sample_path, "--params", params_file,
                       "--n-min", "1", "--n-max", "5", "--out", str(tmp_path / "p.csv")) == 2

    def test_profile_params_with_too_few_strata_rejected(self, tmp_path, params_file, capsys):
        out = str(tmp_path / "pop")
        run_cli("generate", "--params", params_file, "--n", "50", "--seed", "4", "--out", out)
        sample_path = str(tmp_path / "s.json")
        run_cli("sample", "--edges", f"{out}/edges.tsv", "--strata", f"{out}/strata.csv",
                "--design", "fixed:10", "--seed", "5", "--out", sample_path)
        one_stratum = str(tmp_path / "g1.json")
        io.save_params(SbmParams([1.0], [0.2]), one_stratum)
        capsys.readouterr()
        assert run_cli("profile", "--sample", sample_path, "--params", one_stratum,
                       "--n-min", "50", "--n-max", "60", "--out", str(tmp_path / "p.csv")) == 2
        assert f"{sample_path}: sample contains stratum labels" in capsys.readouterr().err

    def test_simulate_from_config(self, tmp_path, params_file):
        config = {
            "population": {"params": {"lambda": [0.5, 0.5], "beta": [0.25, 0.1, 0.2]}, "n": 40},
            "replicates": 2,
            "design": {"mode": "fixed_size", "n0": 6},
            "mcmc": {"chain_length": 40},
            "master_seed": 17,
            "threads": 1,
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        out = str(tmp_path / "study_out")
        assert run_cli("simulate", "--config", str(cfg_path), "--out", out) == 0
        estimates = (tmp_path / "study_out" / "estimates.csv").read_text().splitlines()
        assert len(estimates) == 3
        summary = json.loads((tmp_path / "study_out" / "summary.json").read_text())
        assert summary["replicates_completed"] == 2
        assert (tmp_path / "study_out" / "hist_N.csv").exists()

    def test_simulate_single_replicate_equals_sample_estimate_pipeline(self, tmp_path, params_file):
        """A one-replicate study must equal the sample+estimate commands run
        with the replicate's derived seeds."""
        from snowball_sbm.harness import replicate_seeds

        config = {
            "population": {"params": {"lambda": [0.5, 0.5], "beta": [0.25, 0.1, 0.2]}, "n": 40},
            "replicates": 1,
            "design": {"mode": "fixed_size", "n0": 6},
            "mcmc": {"chain_length": 30},
            "master_seed": 23,
            "threads": 1,
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        out = str(tmp_path / "study_out")
        assert run_cli("simulate", "--config", str(cfg_path), "--out", out) == 0

        from snowball_sbm.harness import population_seed

        pop_dir = str(tmp_path / "pop")
        run_cli("generate", "--params", params_file, "--n", "40",
                "--seed", str(population_seed(23)), "--out", pop_dir)
        design_seed, chain_seed = replicate_seeds(23, 0)
        sample_path = str(tmp_path / "s.json")
        run_cli("sample", "--edges", f"{pop_dir}/edges.tsv", "--strata", f"{pop_dir}/strata.csv",
                "--design", "fixed:6", "--seed", str(design_seed), "--out", sample_path)
        est_dir = str(tmp_path / "est")
        run_cli("estimate", "--sample", sample_path, "--chain-length", "30",
                "--seed", str(chain_seed), "--out", est_dir)

        est_summary = json.loads((tmp_path / "est" / "summary.json").read_text())
        study_rows = (tmp_path / "study_out" / "estimates.csv").read_text().splitlines()
        study_n_mean = float(study_rows[1].split(",")[3])
        assert study_n_mean == pytest.approx(est_summary["n_mean"], abs=0)

    def test_estimate_rejects_empty_initial_sample(self, tmp_path, params_file, capsys):
        out = str(tmp_path / "pop")
        run_cli("generate", "--params", params_file, "--n", "30", "--seed", "1", "--out", out)
        sample_path = str(tmp_path / "s.json")
        assert run_cli("sample", "--edges", f"{out}/edges.tsv", "--strata", f"{out}/strata.csv",
                       "--design", "bernoulli:0", "--seed", "2", "--out", sample_path) == 0
        capsys.readouterr()
        assert run_cli("estimate", "--sample", sample_path, "--seed", "3",
                       "--out", str(tmp_path / "est")) == 2
        assert f"{sample_path}: empty initial sample" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_simulate_fails_when_no_replicate_completes(self, tmp_path):
        config = {
            "population": {"params": {"lambda": [0.5, 0.5], "beta": [0.25, 0.1, 0.2]}, "n": 40},
            "replicates": 3,
            "design": {"mode": "bernoulli", "q": 0.0},
            "mcmc": {"chain_length": 20},
            "threads": 1,
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "study")) == 3
        summary = json.loads((tmp_path / "study" / "summary.json").read_text())
        assert summary["replicates_completed"] == 0
        assert [f["replicate"] for f in summary["failures"]] == [0, 1, 2]
        assert all("empty initial sample" in f["error"] for f in summary["failures"])

    def test_sample_statistics_counted_once_per_chain_and_profile(
        self, tmp_path, params_file, monkeypatch
    ):
        from snowball_sbm.sampling import IgnoredData

        calls = []
        original = IgnoredData.observed_link_counts
        monkeypatch.setattr(
            IgnoredData, "observed_link_counts",
            lambda self, g: calls.append(g) or original(self, g),
        )
        out = str(tmp_path / "pop")
        run_cli("generate", "--params", params_file, "--n", "60", "--seed", "4", "--out", out)
        sample_path = str(tmp_path / "s.json")
        run_cli("sample", "--edges", f"{out}/edges.tsv", "--strata", f"{out}/strata.csv",
                "--design", "fixed:10", "--seed", "5", "--out", sample_path)
        data, _ = io.load_sample(sample_path)
        run_chain(data, McmcConfig(chain_length=30, seed=1), n_strata=2)
        assert len(calls) == 1
        n_lo = data.n_sampled
        assert run_cli("profile", "--sample", sample_path, "--params", params_file,
                       "--n-min", str(n_lo), "--n-max", str(n_lo + 49),
                       "--out", str(tmp_path / "p.csv")) == 0
        assert len((tmp_path / "p.csv").read_text().splitlines()) == 51
        assert len(calls) == 2

    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "snowball_sbm.cli", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "snowball-sbm" in result.stdout


class TestInputHardening:
    """Malformed inputs fail before any compute, with exit 2 and a message
    that names the file and the field."""

    SAMPLE = {"n0": 2, "n1": 1, "strata_s0": [1, 2], "strata_s1": [1], "links": [[1, 2], [1, 3]]}

    def estimate(self, tmp_path, capsys, *argv, **changes):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**self.SAMPLE, **changes}))
        out = tmp_path / "est"
        code = run_cli("estimate", "--sample", str(path), "--chain-length", "20", "--seed", "1",
                       "--out", str(out), *argv)
        return code, capsys.readouterr().err, str(path), out.exists()

    def simulate(self, tmp_path, capsys, monkeypatch, population=None, sections=None, **changes):
        import snowball_sbm.cli as cli

        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("a study ran on a bad config"))
        config = {
            "population": {"params": {"lambda": [0.5, 0.5], "beta": [0.25, 0.1, 0.2]}, "n": 40,
                           **(population or {})},
            "replicates": 2,
            "design": {"mode": "fixed_size", "n0": 6},
            "mcmc": {"chain_length": 20},
            "threads": 1,
            **changes,
            **(sections or {}),
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "study"))
        return code, capsys.readouterr().err, str(path)

    def test_well_formed_sample_is_accepted(self, tmp_path, capsys):
        code, _, _, wrote = self.estimate(tmp_path, capsys)
        assert code == 0 and wrote

    def test_sample_duplicate_link_rejected(self, tmp_path, capsys):
        code, err, path, wrote = self.estimate(tmp_path, capsys, links=[[1, 2], [1, 3], [1, 2]])
        assert code == 2 and not wrote
        assert f"{path}: links: duplicate link [1, 2]" in err

    def test_sample_float_link_index_rejected(self, tmp_path, capsys):
        code, err, path, wrote = self.estimate(tmp_path, capsys, links=[[1, 2], [1.7, 3]])
        assert code == 2 and not wrote
        assert f"{path}: links: [1.7, 3] is not an [i, j] pair of integers" in err

    def test_sample_string_stratum_rejected(self, tmp_path, capsys):
        code, err, path, wrote = self.estimate(tmp_path, capsys, strata_s0=[1, "2"])
        assert code == 2 and not wrote
        assert f"{path}: strata_s0: bad stratum '2': strata are integers labeled 1..G" in err

    @pytest.mark.parametrize("n_strata", ["2", 1.5, 1])
    def test_sample_bad_n_strata_rejected(self, tmp_path, capsys, n_strata):
        # the sample's labels go up to 2
        code, err, path, wrote = self.estimate(tmp_path, capsys, meta={"n_strata": n_strata})
        assert code == 2 and not wrote
        assert f"{path}: meta: n_strata must be an integer >= 2, got {n_strata!r}" in err

    def test_sample_non_object_meta_rejected(self, tmp_path, capsys):
        code, err, path, wrote = self.estimate(tmp_path, capsys, meta=[2])
        assert code == 2 and not wrote
        assert f"{path}: meta: must be an object" in err

    @pytest.mark.parametrize("count", [0, 1])
    def test_strata_count_below_labels_rejected(self, tmp_path, capsys, count):
        code, err, _, wrote = self.estimate(tmp_path, capsys, "--strata-count", str(count), meta={"n_strata": 2})
        assert code == 2 and not wrote
        assert f"--strata-count must be an integer >= 2, got {count}" in err

    def test_study_zero_bins_rejected_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        code, err, path = self.simulate(tmp_path, capsys, monkeypatch, bins=0)
        assert code == 2
        assert f"{path}: bins must be an integer >= 1, got 0" in err
        assert not (tmp_path / "study").exists()

    def test_study_string_population_size_rejected(self, tmp_path, capsys, monkeypatch):
        code, err, path = self.simulate(tmp_path, capsys, monkeypatch, population={"n": "40"})
        assert code == 2
        assert f"{path}: population size must be an integer >= 1, got '40'" in err

    def test_study_float_replicates_rejected(self, tmp_path, capsys, monkeypatch):
        code, err, path = self.simulate(tmp_path, capsys, monkeypatch, replicates=2.5)
        assert code == 2
        assert f"{path}: replicates must be an integer >= 1, got 2.5" in err

    @pytest.mark.parametrize("field,value,message", [
        ("n_max_cap", 50.5, "n_max_cap must be an integer >= 1, got 50.5"),
        ("n_max_cap", True, "n_max_cap must be an integer >= 1, got True"),
        ("burn_in_fraction", "0.1", "burn_in_fraction must be in [0, 1), got '0.1'"),
        ("prior_gamma", 3, "prior_gamma must be a pair of positive numbers, got 3"),
        ("prior_gamma", [1], "prior_gamma must be a pair of positive numbers, got [1]"),
        ("prior_alpha", [1, 1, 1], "prior_alpha must have length G = 2, got 3"),
    ], ids=["n_max_cap-float", "n_max_cap-bool", "burn_in-string", "prior_gamma-number", "prior_gamma-short",
            "prior_alpha-length"])
    def test_study_bad_mcmc_field_rejected(self, tmp_path, capsys, monkeypatch, field, value, message):
        import snowball_sbm.harness as harness

        monkeypatch.setattr(harness, "generate_population", lambda *a: pytest.fail("a population was built"))
        mcmc = {"chain_length": 20, field: value}
        code, err, path = self.simulate(tmp_path, capsys, monkeypatch, mcmc=mcmc)
        assert code == 2
        assert f"{path}: mcmc: {message}" in err

    @pytest.mark.parametrize("section", ["population", "design", "mcmc"])
    def test_study_non_object_section_rejected(self, tmp_path, capsys, monkeypatch, section):
        code, err, path = self.simulate(tmp_path, capsys, monkeypatch, sections={section: 5})
        assert code == 2
        assert f"{path}: {section}: must be an object, got 5" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cap_multiplier_rejected(self, tmp_path, capsys, monkeypatch, value):
        import snowball_sbm.cli as cli

        monkeypatch.setattr(cli, "run_chain", lambda *a, **k: pytest.fail("a chain ran"))
        code, err, _, wrote = self.estimate(tmp_path, capsys, "--cap-multiplier", value)
        assert code == 2 and not wrote
        assert f"cap_multiplier must be a finite number >= 1, got {value}" in err

    @pytest.mark.parametrize("doc,message", [
        ({"G": True, "lambda": [1.0], "beta": [0.2]}, "G must be a positive integer, got True"),
        ({"G": 2, "lambda": 5, "beta": [0.25, 0.1, 0.2]}, "lambda must be a list of 2 numbers (G=2), got 5"),
    ], ids=["G-bool", "lambda-number"])
    def test_params_file_bad_field_rejected(self, tmp_path, capsys, monkeypatch, doc, message):
        import snowball_sbm.cli as cli

        monkeypatch.setattr(cli, "generate_population", lambda *a, **k: pytest.fail("a population was built"))
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "pop"
        code = run_cli("generate", "--params", str(path), "--n", "20", "--seed", "1", "--out", str(out))
        assert code == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("design,message", [
        ("fixed:1.5", "--design: fixed needs n0 as an integer, got '1.5'"),
        ("degree:x", "--design: degree needs n0 as an integer, got 'x'"),
        ("bernoulli:abc", "--design: bernoulli needs q as a number, got 'abc'"),
    ], ids=["fixed:1.5", "degree:x", "bernoulli:abc"])
    def test_malformed_design_rejected(self, tmp_path, capsys, monkeypatch, graph_files, design, message):
        import snowball_sbm.cli as cli

        monkeypatch.setattr(cli, "draw_initial", lambda *a: pytest.fail("a sample was drawn"))
        _, edges, strata = graph_files
        out = tmp_path / "s.json"
        code = run_cli("sample", "--edges", edges, "--strata", strata, "--design", design, "--seed", "1",
                       "--out", str(out))
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "sample", "estimate"])
    def test_negative_seed_rejected(self, tmp_path, capsys, params_file, graph_files, command):
        _, edges, strata = graph_files
        sample = tmp_path / "s.json"
        sample.write_text(json.dumps(self.SAMPLE))
        out = tmp_path / "out"
        inputs = {
            "generate": ["--params", params_file, "--n", "20"],
            "sample": ["--edges", edges, "--strata", strata, "--design", "fixed:5"],
            "estimate": ["--sample", str(sample), "--chain-length", "20"],
        }[command]
        code = run_cli(command, *inputs, "--seed", "-1", "--out", str(out))
        assert code == 2 and not out.exists()
        assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err

    # the first compute step of each command, as the cli module names it
    COMPUTE = {"generate": "generate_population", "sample": "draw_initial", "estimate": "run_chain",
               "mle": "mle_from_full_graph", "simulate": "run_study", "profile": "observed_log_likelihood"}

    @pytest.mark.parametrize("command,out,message", [
        ("generate", "file.json/pop", "file.json is not a directory"),
        ("generate", "file.json", "file.json is not a directory"),
        ("sample", "file.json/s.json", "file.json is not an existing directory"),
        ("sample", "missing/s.json", "missing is not an existing directory"),
        ("estimate", "file.json/est", "file.json is not a directory"),
        ("mle", "missing/dir/m.json", "missing/dir is not an existing directory"),
        ("mle", ".", ". is a directory, not a file"),
        ("simulate", "file.json/study/deeper", "file.json is not a directory"),
        ("profile", "file.json/p.csv", "file.json is not an existing directory"),
        ("estimate", "", "must not be empty"),
        ("profile", "", "must not be empty"),
    ], ids=["generate-under-file", "generate-is-file", "sample-under-file", "sample-missing-parent",
            "estimate-under-file", "mle-missing-parent", "mle-is-directory", "simulate-under-file",
            "profile-under-file", "estimate-empty", "profile-empty"])
    def test_unwritable_out_rejected_before_compute(self, tmp_path, capsys, monkeypatch, params_file,
                                                    graph_files, command, out, message):
        import snowball_sbm.cli as cli

        monkeypatch.setattr(cli, self.COMPUTE[command], lambda *a, **k: pytest.fail("compute started"))
        monkeypatch.chdir(tmp_path)
        _, edges, strata = graph_files
        (tmp_path / "file.json").write_text("{}")
        sample = tmp_path / "s.json"
        sample.write_text(json.dumps(self.SAMPLE))
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "population": {"params": {"lambda": [0.5, 0.5], "beta": [0.25, 0.1, 0.2]}, "n": 40},
            "replicates": 2, "design": {"mode": "fixed_size", "n0": 6}, "mcmc": {"chain_length": 20},
        }))
        inputs = {
            "generate": ["--params", params_file, "--n", "20", "--seed", "1"],
            "sample": ["--edges", edges, "--strata", strata, "--design", "fixed:5", "--seed", "1"],
            "estimate": ["--sample", str(sample), "--chain-length", "20", "--seed", "1"],
            "mle": ["--edges", edges, "--strata", strata],
            "simulate": ["--config", str(config)],
            "profile": ["--sample", str(sample), "--params", params_file, "--n-min", "3", "--n-max", "9"],
        }[command]
        assert run_cli(command, *inputs, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out: {out}") and message in err

    @pytest.mark.parametrize("spec,message", [
        ({"lambda": "ab", "beta": [0.25, 0.1, 0.2]}, "lambda must be a non-empty list of numbers, got 'ab'"),
        ({"lambda": [0.5, 0.5], "beta": [0.1, 0.1, "x"]},
         "beta must be a list of 3 numbers (G=2), got [0.1, 0.1, 'x']"),
        ({"lambda": [0.5, 0.5], "beta": [0.1, 0.1]}, "beta must be a list of 3 numbers (G=2), got [0.1, 0.1]"),
    ], ids=["lambda-string", "beta-string-entry", "beta-short"])
    def test_study_inline_params_bad_field_rejected(self, tmp_path, capsys, monkeypatch, spec, message):
        code, err, path = self.simulate(tmp_path, capsys, monkeypatch, population={"params": spec})
        assert code == 2
        assert f"{path}: population: params: {message}" in err

    def test_study_float_clique_size_rejected(self, tmp_path, capsys, monkeypatch):
        code, err, path = self.simulate(tmp_path, capsys, monkeypatch,
                                        population={"clustering": {"clique_size": 2.5}})
        assert code == 2
        assert f"{path}: bad clustering options (clique_size must be an integer >= 2, got 2.5)" in err
