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


def rejection_couple_batch(trials: int, m: int, target: SmoothDistribution,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Independent first-acceptance scans, one per trial, each over m fresh
    uniform samples.

    Returns (success mask, accepted index with -1 on failure, samples matrix
    of shape (trials, m)); trials = 0 gives empty arrays.
    """
    if m < 1:
        raise ValueError("block size m must be >= 1")
    u = len(target.pmf)
    # the certificate caps target(x) at (1 + MASS_TOL)/(sigma * U), so the clip
    # removes at most MASS_TOL (and a rounding) from any acceptance probability
    accept_p = np.minimum(target.sigma * u * target.pmf, 1.0)
    samples = rng.integers(0, u, size=(trials, m))
    coins = rng.random(size=(trials, m))
    accepted = coins < accept_p[samples]
    # the first True if any, else index 0: the entry there says whether one exists
    first = accepted.argmax(axis=1)
    success = accepted[np.arange(trials), first]
    index = np.where(success, first, -1)
    return success, index, samples
