"""Log-space helpers shared by the likelihood and sampler code.

Everything runs through log-gamma; direct products of the model terms
underflow float64 well below the population sizes the chain visits.
A count of zero times an infinite log (log 0, log1p(-1)) is 0, never NaN.
"""

import math

import numpy as np


def log_binom(n, k) -> float:
    """log C(n, k) of scalars; requires 0 <= k <= n."""
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def count_times_log(count, log_value):
    """count * log_value with the 0 * (-inf) -> 0 convention."""
    if count == 0:
        return 0.0
    return float(count) * float(log_value)


def xlogy(counts, y):
    """counts * log(y) elementwise, 0 where the count is 0."""
    counts = np.asarray(counts, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(counts == 0, 0.0, counts * np.log(y))


def xlog1py(counts, y):
    """counts * log1p(y) elementwise, 0 where the count is 0."""
    counts = np.asarray(counts, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(counts == 0, 0.0, counts * np.log1p(y))
