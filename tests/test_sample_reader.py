"""The numpy sample-file reader against the per-link reader it replaced
(`references.load_sample_per_link`): the same sample from every file both
accept, and the same message, naming the same first bad link or stratum,
for every file they reject."""

import json

import numpy as np
import pytest

from snowball_sbm import DesignConfig, SbmParams, ValidationError, draw_initial, generate_population, trace_one_wave
from snowball_sbm import io

from references import load_sample_per_link

BEYOND_INT64 = [2**63, 2**65 + 3, -(2**63) - 1]


def read_both(path):
    """((IgnoredData, meta) or None, message or None) from each reader."""
    results = []
    for reader in (io.load_sample, load_sample_per_link):
        try:
            results.append((reader(str(path)), None))
        except ValidationError as exc:
            results.append((None, str(exc)))
    return results


@pytest.fixture(scope="module")
def base_docs():
    """Sample documents of seeded populations, each with at least two wave units."""
    docs = []
    for seed, (g, n, n0) in enumerate([(1, 40, 5), (2, 60, 8), (3, 90, 12), (2, 120, 6)]):
        lam = np.full(g, 1.0 / g)
        beta = np.full(g * (g + 1) // 2, 0.08)
        graph = generate_population(SbmParams(lam, beta), n, seed=seed)
        design = DesignConfig(mode="fixed_size", n0=n0)
        data = trace_one_wave(graph, draw_initial(graph, design, seed))
        assert data.n1 >= 2
        docs.append(io.sample_to_doc(data, io.sample_meta(design, seed, g, n)))
    return docs


def plant(doc, rng):
    """Plant one fault in ``doc``: a bad index, pair or stratum, at a random place."""
    links, n0, n = doc["links"], doc["n0"], doc["n0"] + doc["n1"]
    i, j = links[int(rng.integers(len(links)))]
    wave = rng.choice(np.arange(n0 + 1, n + 1), size=2, replace=False).tolist()
    kind = int(rng.integers(12))
    if kind == 11:  # a bad stratum replaces a good one
        name = "strata_s0" if rng.random() < 0.5 else "strata_s1"
        bad = [True, False, 1.0, 2.5, "1", 0, -3, *BEYOND_INT64][int(rng.integers(9))]
        doc[name][int(rng.integers(len(doc[name])))] = bad
        return
    pair = [
        lambda: [[float(i), j], [i, j + 0.5], [True, j], [i, False], [str(i), j], [i, None]][int(rng.integers(6))],
        lambda: [i, BEYOND_INT64[int(rng.integers(3))]],
        lambda: [BEYOND_INT64[int(rng.integers(3))], j],
        lambda: [i] if rng.random() < 0.5 else [i, j, j],
        lambda: sorted(wave, reverse=True),  # a reversed pair
        lambda: [i, i],
        lambda: [0, j],
        lambda: [i, n + 1 + int(rng.integers(3))],
        lambda: sorted(wave),  # a wave-wave link
        lambda: [i, j],  # a repeat
        lambda: [j, i],  # a reversed repeat
    ][kind]()
    if rng.random() < 0.8:
        links.insert(int(rng.integers(len(links) + 1)), pair)
    else:
        links[int(rng.integers(len(links)))] = pair


def test_first_fault_matches_reference(tmp_path, base_docs):
    """Seeded documents with one to three planted faults (float, bool, string
    or missing indices, indices beyond int64, pairs of length 1 or 3,
    reversed and self pairs, index 0 or above n0 + n1, wave-wave links,
    repeats and reversed repeats, bad strata), and clean ones with their links
    shuffled: both readers accept the same files, with the same sample, and
    name the same first fault with the same message."""
    rng = np.random.default_rng(20)
    path = tmp_path / "sample.json"
    outcomes = {}
    for trial in range(400):
        doc = json.loads(json.dumps(base_docs[trial % len(base_docs)]))
        if trial % 8:
            for _ in range(int(rng.integers(1, 4))):
                plant(doc, rng)
        else:
            rng.shuffle(doc["links"])
        path.write_text(json.dumps(doc))
        (new, new_error), (ref, ref_error) = read_both(path)
        assert new_error == ref_error, doc
        if ref is not None:
            (new_data, new_meta), (ref_data, ref_meta) = new, ref
            assert new_meta == ref_meta
            for name in ("strata_s0", "strata_s1", "links"):
                new_field, ref_field = getattr(new_data, name), getattr(ref_data, name)
                assert new_field.dtype == ref_field.dtype == np.int64
                assert np.array_equal(new_field, ref_field)
        kind = "accepted" if ref_error is None else ref_error.split(": ", 1)[1]
        for key in ("accepted", "bad stratum", "not an [i, j] pair", "outside canonical range", "no endpoint",
                    "duplicate link"):
            if key in kind:
                outcomes[key] = outcomes.get(key, 0) + 1
    # every kind of outcome was exercised, several times
    assert len(outcomes) == 6 and min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("links, message", [
    ([[1, 3], [2.0, 3], [3, 1]], "[2.0, 3] is not an [i, j] pair of integers"),
    ([[1, 3], [3, 1], [2.0, 3]], "link [3, 1] outside canonical range"),
    ([[1, 3], [1, 2**64], [True, 3]], "link [1, 18446744073709551616] outside canonical range"),
    ([[1, 3], [True, 3], [1, 2**64]], "[True, 3] is not an [i, j] pair of integers"),
    ([[1, 3], [3, 4], [1, 3]], "link [3, 4] has no endpoint in the initial sample"),
    ([[1, 3], [1, 3], [3, 4]], "duplicate link [1, 3]"),
    ([[1, 3], [1, 2], [1, 2], [3, 3]], "duplicate link [1, 2]"),
    ([[1, 3], [1, 3, 4]], "[1, 3, 4] is not an [i, j] pair of integers"),
    ([[1, 3], [2, 5]], "link [2, 5] outside canonical range"),
], ids=["type-before-reversed", "reversed-before-type", "beyond-int64-before-bool", "bool-before-beyond-int64",
        "endpoint-before-repeat", "repeat-before-endpoint", "repeat-before-self", "triple", "past-n"])
def test_first_bad_link_in_list_order(tmp_path, links, message):
    """n0 2, n1 2: the first bad link is named, whatever the faults after it."""
    path = tmp_path / "sample.json"
    path.write_text(json.dumps({"n0": 2, "n1": 2, "strata_s0": [1, 1], "strata_s1": [1, 1],
                                "links": [[2, 4], *links]}))
    (_, new_error), (_, ref_error) = read_both(path)
    assert new_error == ref_error == f"{path}: links: {message}"


@pytest.mark.parametrize("label", [1000, 1001, 10**9])
def test_stratum_label_bounded_by_max_strata(tmp_path, label):
    """Both readers accept a label of MAX_STRATA (1 000) and name the first label above it."""
    path = tmp_path / "sample.json"
    path.write_text(json.dumps({"n0": 2, "n1": 1, "strata_s0": [1, 2], "strata_s1": [label],
                                "links": [[1, 2], [1, 3]]}))
    (_, new_error), (_, ref_error) = read_both(path)
    expected = None if label <= 1000 else f"{path}: strata_s1: bad stratum {label}: strata are integers labeled 1..G"
    assert new_error == ref_error == expected
