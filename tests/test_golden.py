"""Byte-for-byte regression of the command line's outputs.

The population, sample and MLE digests below were recorded with the dense
N x N adjacency matrix that `PopulationGraph` held before it became an edge
list. The RNG calls and the output formats did not change with it, so every
file must come out the same bytes for the same seeds. The chain digests
(`est/*`, `study/*`) were re-recorded when the Gibbs sweep stopped imputing
the unobserved links and began drawing beta with them integrated out. The
`profile.csv` digest was recorded while the likelihoods still read the
initial sample's per-unit labels; they now read its stratum counts, and the
file must not change. The `estimate` stdout, the study's lambda and beta
histograms and the three-strata run (`THREE_DIGESTS`, whose six stratum
pairs pin the column layout of every chain output) were recorded while a
chain still kept N, lambda and beta in three arrays; they now share one
draws table, and no byte may change.

NumPy does not promise the same Generator streams or the same last bits of
its log functions across releases, so the digests hold only for the numpy
version they were recorded with; under another version these tests skip,
and tests/test_edge_list.py still checks the edge list against the dense
reference. The package needs numpy alone at run time, so no other version
enters the outputs.
"""

import contextlib
import hashlib
import json
import os
import sys

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
    "estimate_stdout.txt": "7f8db328d33f76f0cae5f5520ff1b4dd5f4412448eafd3f8906dddfd3df26529",
}
CLUSTERED_DIGESTS = {
    "edges.tsv": "8c8fa489902c82bf0a368dcc3f48b1d9f8f6fae165d3efda6c2cdbe72cd63e01",
    "strata.csv": "a5e45f89dd46f73f000d47e6761cf1653adf5a5fd57e0398352009479310dfa6",
    "study/estimates.csv": "2d4db34fce3f620fba8ceebf9e97dfbbca357149b80659cabde8f5d8231ea70a",
    "study/summary.json": "47e1b9a4e0cd1e010532a9100cf7886e4163501e5475a5531727d18e9d061bff",
    "study/hist_N.csv": "47e1a9315bd50dbfc151e6eed5a9a64fd71c2a85e6f69374eb0c5f78a772d0de",
    "study/hist_lambda_1.csv": "cd7593a5e5f6dc5929c91760ff9c603520dda3b862cf02dad2eb9dc566346604",
    "study/hist_lambda_2.csv": "d27d5d9bc8ab6b5b6ef433fd856fa9b85d0bc77661f03738b9bf1be711ee5a67",
    "study/hist_beta_1_1.csv": "275df2d51333924d2f5bec6691a50f4069fb8750ec363510be9dde3bb59a31d1",
    "study/hist_beta_1_2.csv": "2d2cddb245ec5012c4d12dcdfba356f6fd1388516e07bc61eb721bcd4a697878",
    "study/hist_beta_2_2.csv": "dbc214a0142ee70c09324917a022ed98fc0c6bb7d7a776e1446e0b18393c5736",
}
# three strata, so six stratum pairs: the column layout of every chain output
THREE_LAMBDA = [0.2, 0.3, 0.5]
THREE_BETA = [0.012, 0.002, 0.004, 0.008, 0.003, 0.006]
THREE_DIGESTS = {
    "edges.tsv": "8bff61870262564f34fb3280da6737bff0a1dd3cf6efa04d03183aeabd659b36",
    "strata.csv": "60789bc0f328117fdbe262f607aa5fcfa36539dceb2566b1ac6c5c2bcddfceb1",
    "sample.json": "01b247224b7f981e257eda12d7469f20fe46846b5b1d079d006bcc1f23cf6c3e",
    "est/trace.csv": "06c0afc8aae50d16de8aa62b3446436fd3776f58293514ba2e67eccaf9fcda72",
    "est/summary.json": "74ddb91fd6f4d10e065c483aff2c68b5075094bb36d184ba71cf14c36ff967c7",
    "estimate_stdout.txt": "b434b4878e32912d36bd48a5eb86ce158ffadf63740eacf754b934db66abfa87",
    "study/estimates.csv": "7eeb1a5b31c8bf26ce932fa7f17e3782b13a415ba22944b54304ff756d49b051",
    "study/summary.json": "745f44b645aefe62a9d7a6bc1244b828f0a5d3ae3509f0b4ebea55c4ec94f456",
    "study/hist_N.csv": "2c3583bf8bb3f8bf6b2243adb280bbb64998432cb19662e89d99422b1294d712",
    "study/hist_lambda_1.csv": "c72bc688220ece06768f4e7030d0a73691f0e3cf500f7f7dea3c16ab43729464",
    "study/hist_lambda_2.csv": "2d7c9fb0552e66670f08f6e39cd523e681e3b0ea2887a71eb3c1eef18a2ffea1",
    "study/hist_lambda_3.csv": "a683660d22e1801a39fb848f65d7270bcbbe1265b2c3fe9c90ef84db8e44d1c5",
    "study/hist_beta_1_1.csv": "5a3bd477898d49bbc5e08a5c62fe374d77a31ad5aa4712c55a815812ed8c1c6c",
    "study/hist_beta_1_2.csv": "a78e757b219d6e86245a30f603dbc9e4867fe02ca710241a0075d4fcf4ef2e53",
    "study/hist_beta_1_3.csv": "1b9d02834b1be9533c13b3744a7c9ceb71253e3509622deb826110ae90154b57",
    "study/hist_beta_2_2.csv": "0e0939cb1f37e1f85f931a7c02e7e7bd759087509a23ea4c50dcfb3dd4dffba4",
    "study/hist_beta_2_3.csv": "006ee851ead85e15ab8127acfd66fb17e470f868719b6960b50bb7389dccfa63",
    "study/hist_beta_3_3.csv": "e94d569cf5c6c29f4ce190dcfb04dff3a8531c6cf57fdfbfdf240ece83c502e7",
}


def digests(root, names):
    out = {}
    for name in names:
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run(argv, stdout_path=None):
    """``main(argv)``, which must succeed; its stdout goes to ``stdout_path`` when given."""
    out = open(stdout_path, "w", newline="\n") if stdout_path else contextlib.nullcontext(sys.stdout)
    with out as fh, contextlib.redirect_stdout(fh):
        assert main(argv) == 0, argv


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
        ["profile", "--sample", sample, "--params", params, "--n-min", "1000", "--n-max", "20000",
         "--n-step", "100", "--out", os.path.join(root, "profile.csv")],
    ]
    for argv in commands:
        run(argv)
    run(["estimate", "--sample", sample, "--chain-length", "300", "--seed", "14",
         "--out", os.path.join(root, "est")], os.path.join(root, "estimate_stdout.txt"))


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
        }, fh)
    run(["simulate", "--config", config, "--out", os.path.join(root, "study")])


def run_three_strata(root):
    """generate -> sample -> estimate on a G = 3 population, and a small
    simulate study on the generated graph."""
    params = os.path.join(root, "params.json")
    with open(params, "w") as fh:
        json.dump({"G": 3, "lambda": THREE_LAMBDA, "beta": THREE_BETA}, fh)
    edges, strata = os.path.join(root, "edges.tsv"), os.path.join(root, "strata.csv")
    sample, est = os.path.join(root, "sample.json"), os.path.join(root, "est")
    run(["generate", "--params", params, "--n", "600", "--seed", "21", "--out", root])
    run(["sample", "--edges", edges, "--strata", strata, "--design", "fixed:80", "--seed", "22", "--out", sample])
    run(["estimate", "--sample", sample, "--chain-length", "200", "--seed", "23", "--out", est],
        os.path.join(root, "estimate_stdout.txt"))
    config = os.path.join(root, "study.json")
    with open(config, "w") as fh:
        json.dump({
            "population": {"edges": "edges.tsv", "strata": "strata.csv"},
            "replicates": 4,
            "design": {"mode": "fixed_size", "n0": 80},
            "mcmc": {"chain_length": 100},
            "master_seed": 24,
            "bins": 5,
        }, fh)
    run(["simulate", "--config", config, "--out", os.path.join(root, "study")])


def test_city_chain_outputs_unchanged(tmp_path):
    run_city_chain(str(tmp_path))
    assert digests(str(tmp_path), CITY_DIGESTS) == CITY_DIGESTS


def test_clustered_outputs_unchanged(tmp_path):
    run_clustered(str(tmp_path))
    assert digests(str(tmp_path), CLUSTERED_DIGESTS) == CLUSTERED_DIGESTS


def test_three_strata_outputs_unchanged(tmp_path):
    run_three_strata(str(tmp_path))
    assert digests(str(tmp_path), THREE_DIGESTS) == THREE_DIGESTS
