"""What a process loads: each command imports only the layers it runs, and
the package namespace resolves its public names on first use, from their
home modules."""

import json
import subprocess
import sys

import pytest

import snowball_sbm
from snowball_sbm import SbmParams, io

LAYERS = ("augmentation", "harness", "likelihoods")
NEVER = {"numpy.ma"}  # modules no command may load


def loaded_after(script):
    """The modules a fresh interpreter holds after running ``script``."""
    code = f"import json, sys\n{script}\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """Params, a 30-unit population, a sample of it and a study config."""
    from snowball_sbm.cli import main

    root = tmp_path_factory.mktemp("inputs")
    params = root / "params.json"
    io.save_params(SbmParams([0.5, 0.5], [0.25, 0.1, 0.2]), str(params))
    assert main(["generate", "--params", str(params), "--n", "30", "--seed", "1", "--out", str(root)]) == 0
    assert main(["sample", "--edges", str(root / "edges.tsv"), "--strata", str(root / "strata.csv"),
                 "--design", "fixed:6", "--seed", "2", "--out", str(root / "sample.json")]) == 0
    study = {"population": {"params_file": "params.json", "n": 30}, "replicates": 2,
             "design": {"mode": "fixed_size", "n0": 6}, "mcmc": {"chain_length": 20}}
    (root / "study.json").write_text(json.dumps(study))
    return root


COMMANDS = {  # command -> (argv after the command, modules it must not load)
    "mle": (["--edges", "{root}/edges.tsv", "--strata", "{root}/strata.csv", "--out", "{out}/mle.json"],
            {*LAYERS, "sampling", "numpy.random"}),
    "profile": (["--sample", "{root}/sample.json", "--params", "{root}/params.json", "--n-min", "30",
                 "--n-max", "40", "--out", "{out}/profile.csv"], {"augmentation", "harness", "numpy.random"}),
    "generate": (["--params", "{root}/params.json", "--n", "20", "--seed", "3", "--out", "{out}/pop"],
                 {*LAYERS, "sampling"}),
    "sample": (["--edges", "{root}/edges.tsv", "--strata", "{root}/strata.csv", "--design", "fixed:5",
                "--seed", "4", "--out", "{out}/s.json"], LAYERS),
    "estimate": (["--sample", "{root}/sample.json", "--chain-length", "20", "--seed", "5", "--out", "{out}/est"],
                 {"harness"}),
    "simulate": (["--config", "{root}/study.json", "--out", "{out}/study"], set()),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_layers(tiny_inputs, tmp_path, command):
    argv, absent = COMMANDS[command]
    argv = [command, *(arg.format(root=tiny_inputs, out=tmp_path) for arg in argv)]
    loaded = loaded_after(f"from snowball_sbm.cli import main\nassert main({argv!r}) == 0")
    absent = {name if name.startswith("numpy") else f"snowball_sbm.{name}" for name in {*absent, *NEVER}}
    assert "snowball_sbm.io" in loaded
    assert not absent & loaded


def test_bare_import_loads_no_submodule():
    loaded = loaded_after("import snowball_sbm")
    assert "snowball_sbm" in loaded
    assert not {name for name in loaded if name.startswith("snowball_sbm.")}


def test_names_resolve_from_their_home_module(monkeypatch):
    from snowball_sbm import sbm

    original = sbm.generate_population
    assert snowball_sbm.generate_population is original

    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(sbm, "generate_population", stand_in)
    assert snowball_sbm.generate_population is stand_in
    monkeypatch.undo()
    assert snowball_sbm.generate_population is original


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from snowball_sbm import *", namespace)
    assert set(snowball_sbm.__all__) <= set(namespace)
    assert namespace["run_study"] is snowball_sbm.harness.run_study
    assert set(snowball_sbm.__all__) <= set(dir(snowball_sbm))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        snowball_sbm.no_such_name  # noqa: B018
    assert not hasattr(snowball_sbm, "no_such_name")
