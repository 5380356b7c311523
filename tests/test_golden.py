"""Byte-for-byte regression of the command line's outputs.

The population, sample and MLE digests below were recorded with the dense
N x N adjacency matrix that `PopulationGraph` held before it became an edge
list. The RNG calls and the output formats did not change with it, so every
file must come out the same bytes for the same seeds. The chain digests
(`est/*`, `study/*`) were re-recorded when the Gibbs sweep stopped imputing
the unobserved links and began drawing beta with them integrated out. The
`profile.csv` digest was recorded while the likelihoods still read the
initial sample's per-unit labels; they now read its stratum counts, and the
file must not change.

NumPy does not promise the same Generator streams or the same last bits of
its log functions across releases, so the digests hold only for the numpy
version they were recorded with; under another version these tests skip,
and tests/test_edge_list.py still checks the edge list against the dense
reference. The package needs numpy alone at run time, so no other version
enters the outputs.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from snowball_sbm import ClusterOverlay, SbmParams, clustered_population
from snowball_sbm import io
from snowball_sbm.cli import main

RECORDED_WITH_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_WITH_NUMPY,
    reason=f"digests recorded with numpy {RECORDED_WITH_NUMPY}, installed {np.__version__}",
)

# the benchmark's reduced city workload: survey-scale lambda, beta scaled by
# 595 / N so each stratum keeps its survey-scale mean degree
CITY_N = 2000
CITY_LAMBDA = [0.425, 0.575]
CITY_BETA = [b * 595 / CITY_N for b in (0.0046, 0.0014, 0.0058)]

CITY_DIGESTS = {
    "edges.tsv": "02002a74ee4033cfe9f359a909803060fc3128894b8ae2350569abf9cfb19e7d",
    "strata.csv": "1a2db29e61d599b1628b5e1102a07e37ef63cd5f33c274c9ee24510f5dfe342f",
    "sample.json": "895eef1a8c16c77d781741a061ff5b5288bc4324e9701cf76b7cd8260cc1ab23",
    "sample_degree.json": "dd71d91f8e411b5676cb815f63ef6d32c053141fb60b4f612c763592b0f08efa",
    "mle.json": "d690f3c2688b354a4cb92b2b3244d40fb34f62cee627f89a42202cb06db450d3",
    "est/trace.csv": "fe95673d600d412f02e946c98aca0289db91a24ca9dd910314f070edd771d2e7",
    "est/summary.json": "9b92322ee292b5c1cac1e7f456fdf291dcec368f039ec40e7c00209a6fb7990f",
    "profile.csv": "885f0171c0d4322637c2e3b5b135322c3d9a99ecf69d84c7559356378b825eeb",
}
CLUSTERED_DIGESTS = {
    "edges.tsv": "8c8fa489902c82bf0a368dcc3f48b1d9f8f6fae165d3efda6c2cdbe72cd63e01",
    "strata.csv": "a5e45f89dd46f73f000d47e6761cf1653adf5a5fd57e0398352009479310dfa6",
    "study/estimates.csv": "2d4db34fce3f620fba8ceebf9e97dfbbca357149b80659cabde8f5d8231ea70a",
    "study/summary.json": "47e1b9a4e0cd1e010532a9100cf7886e4163501e5475a5531727d18e9d061bff",
    "study/hist_N.csv": "47e1a9315bd50dbfc151e6eed5a9a64fd71c2a85e6f69374eb0c5f78a772d0de",
}


def digests(root, names):
    out = {}
    for name in names:
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_city_chain(root):
    """generate -> sample (Bernoulli and degree-biased) -> mle -> estimate,
    and the likelihood profile of the Bernoulli sample at the true params."""
    params = os.path.join(root, "params.json")
    with open(params, "w") as fh:
        json.dump({"G": 2, "lambda": CITY_LAMBDA, "beta": CITY_BETA}, fh)
    edges, strata = os.path.join(root, "edges.tsv"), os.path.join(root, "strata.csv")
    sample = os.path.join(root, "sample.json")
    commands = [
        ["generate", "--params", params, "--n", str(CITY_N), "--seed", "11", "--out", root],
        ["sample", "--edges", edges, "--strata", strata, "--design", "bernoulli:0.1",
         "--seed", "12", "--out", sample],
        ["sample", "--edges", edges, "--strata", strata, "--design", "degree:150",
         "--seed", "13", "--out", os.path.join(root, "sample_degree.json")],
        ["mle", "--edges", edges, "--strata", strata, "--out", os.path.join(root, "mle.json")],
        ["estimate", "--sample", sample, "--chain-length", "300", "--seed", "14",
         "--out", os.path.join(root, "est")],
        ["profile", "--sample", sample, "--params", params, "--n-min", "1000", "--n-max", "20000",
         "--n-step", "100", "--out", os.path.join(root, "profile.csv")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv


def run_clustered(root):
    """A clustered population whose cliques overlap the background links,
    and a small clustered simulate study."""
    graph = clustered_population(
        SbmParams([0.5, 0.5], [0.3, 0.05, 0.2]), 120,
        ClusterOverlay(clique_size=3, background_scale=0.5), seed=4,
    )
    io.save_graph(graph, os.path.join(root, "edges.tsv"), os.path.join(root, "strata.csv"))
    config = os.path.join(root, "study.json")
    with open(config, "w") as fh:
        json.dump({
            "population": {
                "params": {"lambda": [0.425, 0.575], "beta": [0.0046, 0.0014, 0.0058]},
                "n": 300,
                "clustering": {"clique_size": 3, "background_scale": 0.5},
            },
            "replicates": 3,
            "design": {"mode": "fixed_size", "n0": 45},
            "mcmc": {"chain_length": 100},
            "master_seed": 5,
            "threads": 1,
        }, fh)
    assert main(["simulate", "--config", config, "--out", os.path.join(root, "study")]) == 0


def test_city_chain_outputs_unchanged(tmp_path):
    run_city_chain(str(tmp_path))
    assert digests(str(tmp_path), CITY_DIGESTS) == CITY_DIGESTS


def test_clustered_outputs_unchanged(tmp_path):
    run_clustered(str(tmp_path))
    assert digests(str(tmp_path), CLUSTERED_DIGESTS) == CLUSTERED_DIGESTS
