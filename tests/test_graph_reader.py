"""The numpy graph-file reader against the per-line reader it replaced
(`references.load_graph_per_line`): the same graph from every file both
accept, and the same message, naming the same first bad line, for every
file they reject."""

import warnings

import numpy as np
import pytest

from snowball_sbm import SbmParams, ValidationError, generate_population
from snowball_sbm import io
from snowball_sbm.cli import main

from references import load_graph_per_line


def read_both(edges, strata):
    """(graph or None, message or None) from each reader."""
    results = []
    for reader in (io.load_graph, load_graph_per_line):
        try:
            results.append((reader(str(edges), str(strata)), None))
        except ValidationError as exc:
            results.append((None, str(exc)))
    return results


def assert_same_graph(new, ref):
    assert new.edges.dtype == ref.edges.dtype == np.int64
    assert np.array_equal(new.strata, ref.strata)
    assert np.array_equal(new.edges, ref.edges)


def write(path, text):
    path.write_bytes(text.encode())
    return path


def test_matches_reference_on_seeded_graphs(tmp_path):
    """Seeded block-model graphs, N <= 2 000 and G <= 3, mean degree up to 10."""
    rng = np.random.default_rng(14)
    edges, strata = tmp_path / "e.tsv", tmp_path / "s.csv"
    for seed in range(10):
        g = int(rng.integers(1, 4))
        n = int(rng.integers(1, 2001))
        params = SbmParams(rng.dirichlet(np.ones(g)), rng.uniform(0.0, 10.0 / n, g * (g + 1) // 2))
        graph = generate_population(params, n, seed=seed)
        io.save_graph(graph, str(edges), str(strata))
        (new, _), (ref, _) = read_both(edges, strata)
        assert_same_graph(new, ref)
        assert_same_graph(new, graph)


@pytest.mark.parametrize("edge_text, strata_text", [
    ("0\t1\n1\t2\n", "0,1\n1,2\n2,1\n"),
    ("u\tv\n\n0\t1\n   \n\n2\t1\n\n", "node_id,stratum\n\n0,1\n\t\n1,2\n2,1\n\n"),
    ("u\tv\r\n0\t1\r\n2\t1\r\n", "node_id,stratum\r\n0,1\r\n1,2\r\n2,1\r\n"),
    ("  u\tv  \n 0 \t 1 \n2\t0\t\n\t1 \t2\t\n", " node_id,stratum\n 0 , 1 \n1,2\n2 ,1\n"),
    ("u\tv\n2\t0\n1\t0\n", "node_id,stratum\n2,1\n0,3\n1,2\n"),
    ("u\tv\n+0\t+2\n", "node_id,stratum\n0,+1\n1,1\n2,1\n"),
], ids=["no-header", "blank-lines", "crlf", "spaces-around-fields", "unordered-rows", "plus-signs"])
def test_matches_reference_on_hand_written_files(tmp_path, edge_text, strata_text):
    edges, strata = write(tmp_path / "e.tsv", edge_text), write(tmp_path / "s.csv", strata_text)
    (new, new_error), (ref, ref_error) = read_both(edges, strata)
    assert new_error == ref_error is None
    assert_same_graph(new, ref)


def test_header_only_files_load_without_warnings(tmp_path):
    """`generate --n 0` writes header-only files; numpy's loadtxt warns that
    such input contains no data, and the reader must not pass that on."""
    params = tmp_path / "params.json"
    io.save_params(SbmParams([0.5, 0.5], [0.25, 0.1, 0.2]), str(params))
    out = tmp_path / "pop"
    assert main(["generate", "--params", str(params), "--n", "0", "--seed", "1", "--out", str(out)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = io.load_graph(str(out / "edges.tsv"), str(out / "strata.csv"))
        isolated = io.load_graph(str(write(tmp_path / "e.tsv", "u\tv\n")),
                                 str(write(tmp_path / "s.csv", "node_id,stratum\n0,1\n1,2\n")))
    assert graph.n_nodes == 0 and graph.edges.shape == (0, 2)
    assert isolated.strata.tolist() == [0, 1] and isolated.edges.shape == (0, 2)


@pytest.mark.parametrize("rows, message", [
    ("0,1\n1;1\n", ":3: bad row '1;1'"),
    ("0,1\n1,1,2\n", ":3: bad row '1,1,2'"),
    ("0,1\n1,x\n", ":3: bad row '1,x'"),
    ("0,1\n1.0,1\n", ":3: bad row '1.0,1'"),
    ("0,1\n1,0\n", ":3: strata are labeled 1..G"),
    ("0,1\n1,1001\n", ":3: strata are labeled 1..G"),
    ("0,1\n1,2\n0,2\n", ": duplicate node id 0"),
    ("0,1\n2,1\n", ": node ids must cover 0..N-1 exactly once"),
], ids=["bad-row", "three-fields", "non-integer", "float", "stratum-0", "stratum-above-MAX_STRATA", "duplicate-node",
        "gap"])
def test_strata_faults_keep_their_messages(tmp_path, rows, message):
    edges = write(tmp_path / "e.tsv", "u\tv\n")
    strata = write(tmp_path / "s.csv", "node_id,stratum\n" + rows)
    (_, new_error), (_, ref_error) = read_both(edges, strata)
    assert new_error == ref_error == f"{strata}{message}"


EDGE_FAULTS = ["{a}\t{a}", "0\t{n}", "-1\t{b}", "{b}\t{a}", "x\t1", "1.5\t2", "1\t2\t3", "1", "1 2", "", "   "]
STRATA_FAULTS = ["{a},0", "{a},1", "a,1", "{n},1", "{a};1", "", "\t"]


def test_first_bad_line_matches_reference(tmp_path):
    """Valid files with one to three planted lines each (self-links, ids out
    of range, repeated pairs, unparsable rows, stray stratum rows, blank
    lines): both readers accept the same files and name the same first bad
    line with the same message."""
    rng = np.random.default_rng(3)
    base = generate_population(SbmParams([0.5, 0.5], [0.3, 0.1, 0.2]), 12, seed=2)
    n = base.n_nodes
    outcomes = set()
    for trial in range(300):
        edge_lines = ["u\tv"] + [f"{u}\t{v}" for u, v in base.edges.tolist()]
        strata_lines = ["node_id,stratum"] + [f"{i},{s + 1}" for i, s in enumerate(base.strata.tolist())]
        lines, faults = (edge_lines, EDGE_FAULTS) if trial % 3 else (strata_lines, STRATA_FAULTS)
        for _ in range(int(rng.integers(1, 4))):
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            planted = str(rng.choice(faults)).format(a=a, b=b, n=n)
            lines.insert(int(rng.integers(1, len(lines) + 1)), planted)
        edges = write(tmp_path / "e.tsv", "\n".join(edge_lines) + "\n")
        strata = write(tmp_path / "s.csv", "\n".join(strata_lines) + "\n")
        (new, new_error), (ref, ref_error) = read_both(edges, strata)
        assert new_error == ref_error, (edge_lines, strata_lines)
        if ref is not None:
            assert_same_graph(new, ref)
        outcomes.add(ref_error.split(": ", 1)[1].split(" ")[0] if ref_error else "accepted")
    # every kind of outcome was exercised
    assert {"accepted", "bad", "self-link", "node", "duplicate", "strata"} <= outcomes
