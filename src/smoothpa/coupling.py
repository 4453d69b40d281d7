"""Rejection coupling: recover a smooth-distribution draw from uniform samples.

Given a target that is sigma-smooth w.r.t. the uniform base, accepting sample x
with probability sigma * U * target(x) (a valid probability by smoothness) and
stopping at the first acceptance fails with probability exactly (1 - sigma)^m,
and conditioned on success the accepted sample is distributed exactly per the
target, independent of the unchosen samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversary import SmoothDistribution


@dataclass(frozen=True)
class CouplingOutcome:
    """Result of one rejection scan: success flag, accepted index, raw samples."""

    success: bool
    index: Optional[int]
    samples: np.ndarray

    def __post_init__(self):
        if self.success and not (0 <= self.index < len(self.samples)):
            raise ValueError("accepted index outside the sample block")


def _acceptance_probs(target: SmoothDistribution) -> np.ndarray:
    u = len(target.pmf)
    # sigma * U * target(x) <= 1 up to the smoothness tolerance; clip the slack
    return np.minimum(target.sigma * u * target.pmf, 1.0)


def rejection_couple(m: int, target: SmoothDistribution,
                     rng: np.random.Generator) -> CouplingOutcome:
    """One first-acceptance scan over m fresh uniform samples."""
    if m < 1:
        raise ValueError("block size m must be >= 1")
    u = len(target.pmf)
    accept_p = _acceptance_probs(target)
    samples = rng.integers(0, u, size=m)
    for j in range(m):
        if rng.random() < accept_p[samples[j]]:
            return CouplingOutcome(True, j, samples)
    return CouplingOutcome(False, None, samples)


def block_coupling(num_blocks: int, m: int, target: SmoothDistribution,
                   rng: np.random.Generator) -> list[CouplingOutcome]:
    """Independent rejection scans, one per block. num_blocks = 0 gives []."""
    return [rejection_couple(m, target, rng) for _ in range(num_blocks)]


def rejection_couple_batch(trials: int, m: int, target: SmoothDistribution,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized scans for Monte Carlo checks.

    Returns (success mask, accepted index with -1 on failure, samples matrix
    of shape (trials, m)). Same law as repeated rejection_couple calls.
    """
    u = len(target.pmf)
    accept_p = _acceptance_probs(target)
    samples = rng.integers(0, u, size=(trials, m))
    coins = rng.random(size=(trials, m))
    accepted = coins < accept_p[samples]
    success = accepted.any(axis=1)
    index = np.where(success, accepted.argmax(axis=1), -1)
    return success, index, samples
