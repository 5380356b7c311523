"""A seeded fuzzer over the command-line tool's input files.

Valid params, graph, sample and study files are spoiled at three levels:
the path (a missing file, a directory, a path field that is not a string),
the bytes (truncation, a byte that is not UTF-8, deep nesting) and the values
(wrong types, NaN, +-inf, 1e400, 2**63, deleted and extra keys). Every run must exit
0, or 2 with a message that names its file or flag, or 3 only for a study in
which no replicate completed."""

import copy
import json
import random

import pytest

from snowball_sbm import SbmParams, io
from snowball_sbm.cli import main

STUDY = {"replicates": 2, "design": {"mode": "fixed_size", "n0": 6}, "mcmc": {"chain_length": 20}}
# each input file: the command that reads it, its argv with the file as {path}, and the valid file's name
INPUTS = {
    "params": (["generate", "--params", "{path}", "--n", "30", "--seed", "1"], "params.json"),
    "edges": (["sample", "--edges", "{path}", "--strata", "{root}/strata.csv", "--design", "fixed:5",
               "--seed", "1"], "edges.tsv"),
    "strata": (["mle", "--edges", "{root}/edges.tsv", "--strata", "{path}"], "strata.csv"),
    "sample": (["estimate", "--sample", "{path}", "--chain-length", "20", "--seed", "1"], "sample.json"),
    "study-params": (["simulate", "--config", "{path}"], "study_params.json"),
    "study-graph": (["simulate", "--config", "{path}"], "study_graph.json"),
}
PATH_FIELDS = ("edges", "strata", "params_file")
OVERFLOW = "1e400"  # a JSON number that reads as inf; written in place of its quoted form
ODD_VALUES = ["x", None, True, [], {}, 1.5, float("nan"), float("inf"), float("-inf"), OVERFLOW, 2**63, -2**63 - 1,
              -1, 0]
ODD_TOKENS = ["x", "nan", "inf", "-inf", "1.5", "9223372036854775808", "-1", "", "1\t2"]
RUNS_PER_INPUT = 80


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Params, a 30-unit population, a sample of it and two study configs,
    one drawing its population from the params file, one reading the graph."""
    root = tmp_path_factory.mktemp("valid")
    io.save_params(SbmParams([0.5, 0.5], [0.25, 0.1, 0.2]), str(root / "params.json"))
    assert main(["generate", "--params", str(root / "params.json"), "--n", "30", "--seed", "1",
                 "--out", str(root)]) == 0
    assert main(["sample", "--edges", str(root / "edges.tsv"), "--strata", str(root / "strata.csv"),
                 "--design", "fixed:6", "--seed", "2", "--out", str(root / "sample.json")]) == 0
    for name, population in (("study_params.json", {"params_file": "params.json", "n": 30}),
                             ("study_graph.json", {"edges": "edges.tsv", "strata": "strata.csv"})):
        (root / name).write_text(json.dumps({"population": population, **STUDY}))
    return root


def entries(doc):
    """Every (container, key or index) pair inside a JSON document."""
    found = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            found.append((node, key))
            stack.append(node[key])
    return found


def spoil_value(rng, text: str, is_json: bool) -> str:
    """``text`` with one value replaced, or for JSON, also a key deleted or added."""
    if not is_json:
        lines = text.splitlines()
        row = rng.randrange(len(lines))
        tokens = lines[row].split("\t" if "\t" in lines[row] else ",")
        tokens[rng.randrange(len(tokens))] = rng.choice(ODD_TOKENS)
        lines[row] = ("\t" if "\t" in lines[row] else ",").join(tokens)
        return "\n".join(lines) + "\n"
    doc = json.loads(text)
    node, key = rng.choice(entries(doc))
    action = rng.choice(["replace", "replace", "delete", "extra"])
    if action == "delete":
        del node[key]
    elif action == "extra" and isinstance(node, dict):
        node["extra_" + str(key)] = copy.deepcopy(node[key])
    else:
        node[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return json.dumps(doc).replace(f'"{OVERFLOW}"', OVERFLOW)


def spoil_bytes(rng, data: bytes, is_json: bool) -> bytes:
    """``data`` truncated, with a byte that is not UTF-8 put in, or (JSON) nested past the recursion limit."""
    kind = rng.choice(["truncate", "0xff", "nest"] if is_json else ["truncate", "0xff"])
    cut = rng.randrange(len(data))
    if kind == "truncate":
        return data[:cut]
    if kind == "0xff":
        return data[:cut] + b"\xff" + data[cut:]
    return rng.choice([b"[", b'{"a": ']) * 200_000


def spoil_path(rng, root, kind: str, valid) -> str:
    """A missing file, a directory, or for a study, a study whose population
    path field names neither or is not a string."""
    choice = rng.choice(["missing", "directory", "field"] if kind.startswith("study") else ["missing", "directory"])
    if choice == "missing":
        return str(root / "no_such_file")
    if choice == "directory":
        return str(root)
    doc = json.loads(valid.read_text())
    field = rng.choice([key for key in PATH_FIELDS if key in doc["population"]])
    value = rng.choice(["no_such_file", ".", 5, None, ["edges.tsv"], {"path": "edges.tsv"}])
    doc["population"][field] = value
    spoiled = str(root / "spoiled.json")
    with open(spoiled, "w") as fh:
        json.dump(doc, fh)
    return spoiled


@pytest.mark.parametrize("kind", INPUTS)
def test_spoiled_inputs_exit_cleanly(valid_inputs, tmp_path, capsys, kind):
    argv, name = INPUTS[kind]
    rng = random.Random(f"{kind}-7")
    valid = valid_inputs / name
    is_json = name.endswith(".json")
    for other in ("params.json", "edges.tsv", "strata.csv"):  # the files a spoiled study names
        (tmp_path / other).write_bytes((valid_inputs / other).read_bytes())
    outcomes = set()
    for run in range(RUNS_PER_INPUT):
        spoiled = str(tmp_path / f"{run}_{name}")
        level = run % 3
        if level == 0:
            path = spoil_path(rng, tmp_path, kind, valid)
        else:
            data = valid.read_bytes()
            data = (spoil_bytes(rng, data, is_json) if level == 1
                    else spoil_value(rng, data.decode(), is_json).encode())
            with open(spoiled, "wb") as fh:
                fh.write(data)
            path = spoiled
        out = str(tmp_path / f"out_{run}")
        out = out + ".json" if argv[0] in ("sample", "mle") else out
        full = [arg.format(path=path, root=valid_inputs) for arg in argv] + ["--out", out]
        code = main(full)
        err = capsys.readouterr().err
        outcomes.add(code)
        if code == 2:
            # every input file lies under one of the two roots, and no other path is named
            names = [str(tmp_path), str(valid_inputs), *(arg for arg in full if arg.startswith("--"))]
            assert err.startswith("error: ") and any(name in err for name in names), (full, err)
        elif code == 3:
            assert argv[0] == "simulate" and "no replicate completed" in err, (full, err)
        else:
            assert code == 0, (full, err)
    assert 2 in outcomes
