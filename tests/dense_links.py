"""Dense view of a sample's observed links, for tests that compare against
matrix-form references. The library holds links only as (L, 2) pairs."""

import numpy as np


def dense_links(data):
    """n0 x (n0 + n1) bool matrix of an IgnoredData's links: rows the
    initial sample, columns the initial sample then the wave, each link
    within the initial sample set in both orientations."""
    i, j = data.links[:, 0], data.links[:, 1]
    matrix = np.zeros((data.n0, data.n0 + data.n1), dtype=bool)
    matrix[i, j] = True
    within = j < data.n0
    matrix[j[within], i[within]] = True
    return matrix
