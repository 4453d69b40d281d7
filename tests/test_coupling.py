import numpy as np
import pytest
from scipy import stats

from smoothpa.adversary import SmoothDistribution
from smoothpa.coupling import rejection_couple_batch


def skewed_smooth(u, sigma, seed=0):
    """Random sigma-smooth pmf: uniform mixed toward a random direction up to the cap."""
    rng = np.random.default_rng(seed)
    raw = rng.random(u)
    raw /= raw.sum()
    cap = 1.0 / (sigma * u)
    beta = min(1.0, (cap - 1.0 / u) / (1.0 - 1.0 / u) * 0.95)
    pmf = (1 - beta) / u + beta * raw
    return SmoothDistribution(pmf, sigma)


def test_sigma_one_accepts_first_sample():
    target = SmoothDistribution.uniform_on(8, range(8), 1.0)
    rng = np.random.default_rng(0)
    success, index, samples = rejection_couple_batch(20, 5, target, rng)
    assert success.all() and (index == 0).all()
    assert samples.shape == (20, 5)


def test_block_coupling_empty_and_sigma_one():
    target = SmoothDistribution.uniform_on(4, range(4), 1.0)
    rng = np.random.default_rng(1)
    success, index, samples = rejection_couple_batch(0, 3, target, rng)
    assert success.shape == index.shape == (0,) and samples.shape == (0, 3)
    success, index, _ = rejection_couple_batch(7, 3, target, rng)
    assert success.all() and (index == 0).all()


def test_scalar_failure_rate_sanity():
    target = SmoothDistribution.uniform_on(4, [0, 1], 0.5)
    rng = np.random.default_rng(2)
    fails = int(np.sum(~rejection_couple_batch(4000, 1, target, rng)[0]))
    # m=1: failure probability exactly 1 - sigma = 0.5; 4 sigma_mc ~ 0.032
    assert abs(fails / 4000 - 0.5) < 0.035


def test_all_blocks_success_probability():
    sigma, m, blocks, trials = 0.3, 3, 5, 4000
    target = skewed_smooth(6, sigma, seed=3)
    rng = np.random.default_rng(4)
    p_block = 1.0 - (1.0 - sigma) ** m
    expect = p_block ** blocks
    success = rejection_couple_batch(trials * blocks, m, target, rng)[0]
    hits = int(success.reshape(trials, blocks).all(axis=1).sum())
    se = np.sqrt(expect * (1 - expect) / trials)
    assert abs(hits / trials - expect) < 4 * se + 1e-9


def test_batch_marginal_goodness_of_fit():
    # chi-squared GOF of {X_I | success} against the target at significance 0.001
    u, sigma, m = 8, 0.4, 6
    target = skewed_smooth(u, sigma, seed=5)
    rng = np.random.default_rng(6)
    success, index, samples = rejection_couple_batch(60_000, m, target, rng)
    chosen = samples[np.arange(len(samples))[success], index[success]]
    counts = np.bincount(chosen, minlength=u)
    res = stats.chisquare(counts, f_exp=target.pmf * counts.sum())
    assert res.pvalue >= 0.001


def test_unchosen_last_position_stays_uniform():
    # the scan never touches positions after the accepted index, so the last
    # position, when not chosen, keeps the base law
    u, sigma, m = 8, 0.4, 5
    target = skewed_smooth(u, sigma, seed=7)
    rng = np.random.default_rng(8)
    success, index, samples = rejection_couple_batch(80_000, m, target, rng)
    keep = success & (index != m - 1)
    last = samples[keep, m - 1]
    emp = np.bincount(last, minlength=u) / len(last)
    tv = 0.5 * np.abs(emp - 1.0 / u).sum()
    assert tv < 0.02


def test_rejects_invalid_block_size():
    target = SmoothDistribution.uniform_on(4, range(4), 1.0)
    for trials in (0, 3):
        with pytest.raises(ValueError, match="block size m must be >= 1"):
            rejection_couple_batch(trials, 0, target, np.random.default_rng(0))
