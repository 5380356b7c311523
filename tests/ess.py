"""Effective sample size of one chain, for tests that check how well the
sampler mixes. The library reports no mixing diagnostic of its own."""

import numpy as np


def effective_sample_size(draws) -> float:
    """ESS of a 1-D chain by Geyer's initial positive sequence: the
    autocorrelations are summed in adjacent pairs up to the first pair whose
    sum is not positive. The result is capped at the chain length, which a
    constant chain also gets."""
    x = np.asarray(draws, dtype=np.float64)
    n = x.size
    x = x - x.mean()
    spectrum = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spectrum * spectrum.conj(), 2 * n)[:n]
    if acov[0] <= 0:
        return float(n)
    pairs = (acov[: n - n % 2] / acov[0]).reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0)
    tau = 2 * pairs[: stop[0] if stop.size else pairs.size].sum() - 1
    return n / max(tau, 1.0)
