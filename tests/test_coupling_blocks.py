import tracemalloc

import numpy as np
import pytest

from smoothpa.adversary import SmoothDistribution
from smoothpa.coupling import rejection_couple_batch
from smoothpa.hypotheses import _BLOCK_BYTES

from oracles import rejection_couple_batch_one_shot


def random_smooth(u, sigma, seed):
    """A random sigma-smooth pmf over u contexts, its atoms spread up to
    nine tenths of the cap, so acceptance probabilities lie strictly inside (0, 1]."""
    rng = np.random.default_rng(seed)
    raw = rng.random(u)
    raw /= raw.sum()
    beta = 0.9 * min(1.0, (1.0 / sigma - 1.0) / (u * raw.max() - 1.0)) if u > 1 else 0.0
    return SmoothDistribution((1.0 - beta) / u + beta * raw, sigma)


def block_rows(m):
    """The trials in one block of the scan, as `rejection_couple_batch` sizes it."""
    return max(1, _BLOCK_BYTES // (25 * m + 24))


@pytest.mark.parametrize("u", [1, 2, 64, 256, 257, 65536, 65537])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_blocked_scan_equals_the_one_shot_scan(u, m):
    # every output equals the one-shot draw's in value, on either side of a
    # block boundary and of each switch of the samples' dtype
    target = random_smooth(u, 0.5, seed=u + m)
    rows = block_rows(m)
    for trials in (0, 1, rows - 1, rows, rows + 1):
        seed = 1000 * m + trials
        got = rejection_couple_batch(trials, m, target, np.random.default_rng(seed))
        want = rejection_couple_batch_one_shot(trials, m, target, np.random.default_rng(seed))
        for name, g, w in zip(("success", "index", "samples"), got, want):
            assert g.shape == w.shape and np.array_equal(g, w), (name, trials)
    # both outcomes occur, so each is compared
    assert 0 < got[0].sum() < trials


@pytest.mark.parametrize("u, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                      (65536, np.uint16), (65537, np.uint32)])
def test_samples_take_the_narrowest_id_type(u, dtype):
    target = random_smooth(u, 1.0, seed=u)
    for trials in (0, 5):
        success, index, samples = rejection_couple_batch(trials, 4, target,
                                                         np.random.default_rng(u))
        assert success.dtype == np.bool_ and index.dtype == np.int64
        assert samples.dtype == dtype and samples.shape == (trials, 4)


def test_block_memory_meets_its_budget():
    # at the bench's size, 10^5 trials of m = 8, everything but the three
    # outputs stays within the block budget: today's outputs take 1.7 MB,
    # and a one-shot draw would hold about 20 MB of temporaries
    target = SmoothDistribution.uniform_on(64, range(16), 0.25)
    rejection_couple_batch(10, 8, target, np.random.default_rng(0))
    tracemalloc.start()
    try:
        out = rejection_couple_batch(10 ** 5, 8, target, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = peak - sum(a.nbytes for a in out)
    assert block <= 1.25 * _BLOCK_BYTES, block
