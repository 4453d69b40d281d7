"""Rejection coupling: recover a smooth-distribution draw from uniform samples.

Given a target that is sigma-smooth w.r.t. the uniform base, accepting sample x
with probability sigma * U * target(x) (a valid probability by smoothness) and
stopping at the first acceptance fails with probability exactly (1 - sigma)^m,
and conditioned on success the accepted sample is distributed exactly per the
target, independent of the unchosen samples.
"""

from __future__ import annotations

import numpy as np

from .adversary import SmoothDistribution
from .hypotheses import _BLOCK_BYTES


def rejection_couple_batch(trials: int, m: int, target: SmoothDistribution,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Independent first-acceptance scans, one per trial, each over m fresh
    uniform samples.

    Returns (success mask, accepted int64 index with -1 on failure, samples
    matrix of shape (trials, m) in the narrowest unsigned type that holds
    U - 1); trials = 0 gives empty arrays.

    It draws every sample, then every acceptance coin, a block of trials at
    a time, which takes the same values from `rng` as one draw each, and
    scans each block of coins as it is drawn, so its temporaries stay within
    the shared block budget whatever the trial count.
    """
    if m < 1:
        raise ValueError("block size m must be >= 1")
    u = len(target.pmf)
    # the certificate caps target(x) at (1 + MASS_TOL)/(sigma * U), so the clip
    # removes at most MASS_TOL (and a rounding) from any acceptance probability
    accept_p = np.minimum(target.sigma * u * target.pmf, 1.0)
    # bytes per trial while a block is scanned: its coins, the samples' intp
    # copy that the gather takes, the gathered acceptance probabilities (8 a
    # sample each) and the acceptance mask (1 a sample), then the first
    # acceptance, the row index and the index column (8 a trial each)
    rows = max(1, _BLOCK_BYTES // (25 * m + 24))
    blocks = [slice(start, start + rows) for start in range(0, trials, rows)]
    samples = np.empty((trials, m), dtype=np.min_scalar_type(u - 1))
    for b in blocks:
        samples[b] = rng.integers(0, u, size=samples[b].shape)
    success = np.empty(trials, dtype=bool)
    index = np.empty(trials, dtype=np.int64)
    for b in blocks:
        accepted = rng.random(size=samples[b].shape) < accept_p[samples[b]]
        # the first True if any, else index 0: the entry there says whether one exists
        first = accepted.argmax(axis=1)
        success[b] = accepted[np.arange(len(first)), first]
        index[b] = np.where(success[b], first, -1)
    return success, index, samples
