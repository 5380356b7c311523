"""Dense view of a sample's observed links, for tests that compare against
matrix-form references. The library holds links only as (L, 2) pairs."""

import numpy as np

from snowball_sbm import SnowballSample


def dense_links(sample):
    """n0 x (n0 + n1) bool matrix of a SnowballSample's or an IgnoredData's
    links: rows the initial sample, columns the initial sample then the
    wave (a SnowballSample's in the order of its ``s0`` and ``s1``), each
    link within the initial sample set in both orientations."""
    pairs = sample.links
    if isinstance(sample, SnowballSample):
        ids = np.concatenate([sample.s0, sample.s1])
        by_id = np.argsort(ids)
        pairs = by_id[np.searchsorted(ids, pairs, sorter=by_id)]
    i, j = pairs.min(axis=1), pairs.max(axis=1)
    matrix = np.zeros((sample.n0, sample.n0 + sample.n1), dtype=bool)
    matrix[i, j] = True
    within = j < sample.n0
    matrix[j[within], i[within]] = True
    return matrix
