import ast
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import xlogy

import smoothpa
import smoothpa.hypotheses as hypotheses
from smoothpa import Hypothesis, mle_oracle, offline_best_loss
from smoothpa.diagnostics import nml_value, rademacher_estimate
from smoothpa.errors import ConfigError
from smoothpa.hypotheses import (_BLOCK_BYTES, _TABLE_BITS, ComparatorTracker, RegionFamily,
                                 _region_losses, evaluate, examples_to_counts, mle_from_counts,
                                 prefix_best_losses, region_counts)
from smoothpa.learners import FtplLearner, MixtureLearner, epsilon_cover

from oracles import family_to_json, prefix_best_losses_all_regions, region_bitmaps

LN2 = math.log(2.0)


def brute_force_best_loss(xs, ys, family, step=1e-3):
    """Exhaustive region x theta-grid search, independent of the k/n formula."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    with np.errstate(divide="ignore"):
        lg = np.log(grid)
        lg1 = np.log(1.0 - grid)

    def side_min(n, k):
        # k*ln(theta) + (n-k)*ln(1-theta), honoring 0*ln 0 = 0 at the edges
        ll = np.zeros_like(grid)
        if k > 0:
            ll = ll + k * lg
        if n - k > 0:
            ll = ll + (n - k) * lg1
        return -np.max(ll)

    best = np.inf
    for bm in region_bitmaps(family):
        inside = bm[xs]
        n0, k0 = int(inside.sum()), int(ys[inside].sum())
        n1, k1 = len(xs) - n0, int(ys.sum()) - k0
        best = min(best, side_min(n0, k0) + side_min(n1, k1))
    return best


def test_evaluate_membership_cases():
    fam = RegionFamily.explicit(4, [[0, 1], []])
    assert evaluate(fam, Hypothesis(0, 0.2, 0.9), 0) == 0.2
    assert evaluate(fam, Hypothesis(0, 0.2, 0.9), 3) == 0.9
    assert evaluate(fam, Hypothesis(1, 0.123, 0.7), 3) == 0.7  # empty region


def test_evaluate_threshold_membership():
    fam = RegionFamily.threshold_grid(10)
    assert evaluate(fam, Hypothesis(5, 0.3, 0.6), 5) == 0.3
    assert evaluate(fam, Hypothesis(5, 0.3, 0.6), 6) == 0.6
    with pytest.raises(ValueError):
        evaluate(fam, Hypothesis(5, 0.3, 0.6), 10)


@pytest.mark.parametrize("family, h, x, message", [
    (RegionFamily.threshold_grid(8), Hypothesis(1, 0.2, 0.7), 1.5,
     "context of type float64 is not an integer"),
    (RegionFamily.threshold_grid(8), Hypothesis(9, 0.2, 0.7), 1, "region 9 outside [0, 8)"),
    (RegionFamily.explicit(4, [[0, 1], [2]]), Hypothesis(-1, 0.2, 0.7), 1,
     "region -1 outside [0, 2)"),
    (RegionFamily.explicit(4, [[0, 1], [2]]), Hypothesis(0, 0.2, 0.7), 1.5,
     "context of type float64 is not an integer"),
    (RegionFamily.threshold_grid(8), Hypothesis(1, 0.2, 0.7), np.array([0, 3, 8]),
     "context 8 outside [0, 8)"),
], ids=["grid_float_context", "grid_region_past_the_end", "explicit_negative_region",
        "explicit_float_context", "grid_context_array"])
def test_evaluate_names_a_bad_context_or_region(family, h, x, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate(family, h, x)


@pytest.mark.parametrize("family", [
    RegionFamily.threshold_grid(1),
    RegionFamily.threshold_grid(9),
    RegionFamily.explicit(7, [[0, 1], [], [2, 3, 4, 5, 6], [6], list(range(7))]),
    RegionFamily.explicit(1, [[0], []]),
], ids=["grid1", "grid9", "explicit5x7", "explicit2x1"])
def test_contains_matches_dense_oracle(family):
    bm = region_bitmaps(family)                  # (regions, U)
    m, u = bm.shape
    assert len(family) == m
    for x in range(u):
        for scalar in (x, np.int64(x)):
            got = family.contains(scalar)
            assert got.dtype == bool and got.shape == (m,)
            assert np.array_equal(got, bm[:, x])
    rng = np.random.default_rng(u * 31 + m)
    xs = rng.integers(0, u, size=17)
    xs[-3:] = xs[0]                              # repeated contexts
    assert np.array_equal(family.contains(xs), bm[:, xs].T)
    assert np.array_equal(family.contains(xs.reshape(1, 17)), bm[:, xs].T[None])
    assert family.contains(np.zeros(0, dtype=np.int64)).shape == (0, m)
    subsets = [[0], [m - 1, 0, m - 1], rng.integers(0, m, size=6)]
    for regions in subsets:
        want = bm[np.asarray(regions)][:, xs].T
        assert np.array_equal(family.contains(xs, regions), want)
        assert np.array_equal(family.contains(xs.tolist(), np.asarray(regions)), want)
        assert np.array_equal(family.contains(int(xs[0]), regions), want[0])


def test_grid_paths_hold_no_universe_squared_matrix():
    # each call touches T or t contexts of a 4096-point grid; a dense U x U
    # membership matrix would be 16 MB as bool and 134 MB as float64
    u = 4096
    rng = np.random.default_rng(4096)
    xs = rng.integers(0, u, size=64)
    ys = rng.integers(0, 2, size=64)

    def play(make_learner):
        learner = make_learner(RegionFamily.threshold_grid(u))
        learner.reset(np.random.default_rng(0))
        for x, y in zip(xs.tolist(), ys.tolist()):
            learner.predict(x)
            learner.update(x, y)

    calls = {
        "ftpl": lambda: play(lambda fam: FtplLearner(fam, 100.0, 0.01)),
        # every threshold in the cover: a (U, cover) int64 side map would be 134 MB
        "mixture": lambda: play(lambda fam: MixtureLearner(fam, epsilon_cover(fam, 1e-9))),
        "prefix_best_losses": lambda: prefix_best_losses(xs, ys, RegionFamily.threshold_grid(u)),
        "nml_value": lambda: nml_value(RegionFamily.threshold_grid(u),
                                       [Hypothesis(10, 0.2, 0.7), Hypothesis(3000, 0.6, 0.1)],
                                       xs[:4]),
        "rademacher_estimate": lambda: rademacher_estimate(
            RegionFamily.threshold_grid(u), 0.05, 64, 50, np.random.default_rng(1)),
        # mc_rounds x U float64 signed counts per candidate would be 13 MB
        "rademacher_estimate_mc400": lambda: rademacher_estimate(
            RegionFamily.threshold_grid(u), 0.05, 64, 400, np.random.default_rng(1)),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (name, peak)


def test_membership_is_read_only_through_contains():
    # the stored layout of an explicit family is private to hypotheses.py
    for path in sorted(Path(smoothpa.__file__).parent.glob("*.py")):
        if path.name == "hypotheses.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "_member"]
        assert readers == [], (path.name, readers)


def inside_outside_counts(bitmap, xs, ys):
    """(n0, k0, n1, k1) for one region through examples_to_counts and region_counts."""
    fam = RegionFamily.explicit(len(bitmap), [np.flatnonzero(bitmap).tolist()])
    counts = examples_to_counts(xs, ys, len(bitmap))
    n0, k0 = region_counts(counts, fam)[:, 0]
    n1, k1 = counts.sum(axis=1) - (n0, k0)
    return n0, k0, n1, k1


def test_count_regions_empty_and_full():
    full = np.ones(8, dtype=bool)
    assert inside_outside_counts(full, [], []) == (0, 0, 0, 0)
    assert inside_outside_counts(full, [3, 3, 3], [1, 1, 0]) == (3, 2, 0, 0)


def test_count_regions_random_vs_recount():
    rng = np.random.default_rng(0)
    bm = rng.random(12) < 0.5
    data = [(int(rng.integers(12)), int(rng.integers(2))) for _ in range(20)]
    got = inside_outside_counts(bm, *zip(*data))
    n0 = sum(1 for x, y in data if bm[x])
    k0 = sum(1 for x, y in data if bm[x] and y == 1)
    n1 = sum(1 for x, y in data if not bm[x])
    k1 = sum(1 for x, y in data if not bm[x] and y == 1)
    assert got == (n0, k0, n1, k1)


def test_mle_single_region_family_defaults():
    fam = RegionFamily.explicit(5, [list(range(5))])
    h = mle_oracle([1, 2, 3], [1, 1, 0], fam)
    assert h.region_index == 0
    assert h.theta0 == pytest.approx(2.0 / 3.0)
    assert h.theta1 == 0.5  # empty outside defaults to 1/2


def test_mle_empty_data_tiebreak():
    fam = RegionFamily.threshold_grid(6)
    assert mle_oracle([], [], fam) == Hypothesis(0, 0.5, 0.5)


def test_mle_matches_bruteforce_grid_fine():
    rng = np.random.default_rng(42)
    fam = RegionFamily.threshold_grid(8)
    xs = rng.integers(0, 8, size=15)
    ys = rng.integers(0, 2, size=15)
    got = offline_best_loss(xs, ys, fam)
    oracle = brute_force_best_loss(xs, ys, fam, step=1e-4)
    assert got <= oracle + 1e-3
    assert got == pytest.approx(oracle, abs=1e-3)


def test_mle_loss_below_theta_grid_everywhere():
    rng = np.random.default_rng(7)
    for _ in range(25):
        u = int(rng.integers(2, 33))
        fam = RegionFamily.threshold_grid(u)
        n = int(rng.integers(0, 21))
        xs = rng.integers(0, u, size=n)
        ys = rng.integers(0, 2, size=n)
        got = offline_best_loss(xs, ys, fam)
        assert got <= brute_force_best_loss(xs, ys, fam, step=1e-3) + 1e-3


def test_offline_best_loss_examples():
    fam = RegionFamily.threshold_grid(4)
    xs = [i % 4 for i in range(6)]
    assert offline_best_loss(xs, [1] * 6, fam) == pytest.approx(0.0, abs=1e-12)
    single = RegionFamily.explicit(4, [list(range(4))])
    assert offline_best_loss([2, 2], [1, 0], single) == pytest.approx(2 * LN2)
    # the examples (0, 1) and (0, 0): one context with both labels costs ln 2
    # each in any region; contexts 0 and 1 both labelled 0 cost nothing
    assert offline_best_loss([0, 0], [1, 0], fam) == pytest.approx(2 * LN2, abs=1e-12)
    assert offline_best_loss([0, 1], [0, 0], fam) == 0.0


def test_offline_best_loss_monotone_in_prefix():
    rng = np.random.default_rng(3)
    fam = RegionFamily.threshold_grid(16)
    xs = rng.integers(0, 16, size=40)
    ys = rng.integers(0, 2, size=40)
    prev = 0.0
    tracker = ComparatorTracker(fam)
    for t in range(40):
        cur = offline_best_loss(xs[: t + 1], ys[: t + 1], fam)
        assert cur >= prev - 1e-12
        assert tracker.update(int(xs[t]), int(ys[t])) == pytest.approx(cur, abs=1e-9)
        prev = cur


@pytest.mark.parametrize("family", [
    RegionFamily.threshold_grid(64),
    RegionFamily.explicit(256, [np.flatnonzero(row).tolist() for row in
                                np.random.default_rng(8).random((128, 256))
                                < np.random.default_rng(9).uniform(0.05, 0.95, (128, 1))]),
], ids=["grid64", "explicit128x256"])
def test_prefix_best_losses_equal_tracker_bitwise(family):
    # T = 8192 spans many row blocks on both families
    rng = np.random.default_rng(12)
    u = family.size
    xs = rng.integers(0, u, size=8192)
    ys = (rng.random(8192) < np.where(xs < u // 3, 0.8, 0.3)).astype(np.int64)
    tracker = ComparatorTracker(family)
    want = np.array([tracker.update(int(x), int(y)) for x, y in zip(xs, ys)])
    assert np.array_equal(prefix_best_losses(xs, ys, family), want)
    assert np.array_equal(prefix_best_losses(xs[:1], ys[:1], family), want[:1])


def xlogy_split_losses(n0, k0, total_n, total_k):
    """The per-region losses with every j ln j from xlogy on the counts as given."""
    def nll(n, k):
        return xlogy(n, n) - xlogy(k, k) - xlogy(n - k, n - k)
    return nll(n0, k0) + nll(total_n - n0, total_k - k0)


def side_layout(n0, k0, total_n, total_k):
    """The counts inside each region and the totals in the layout
    `side_counts` builds: (n, k) x (inside, outside) x the counts' shape."""
    return np.stack([np.stack(np.broadcast_arrays(inside, total - inside))
                     for inside, total in ((n0, total_n), (k0, total_k))])


def random_split_counts(rng, top, shape):
    """Valid integer counts, one total per row, the first row's total_n = top:
    inside each region n0 of total_n samples with k0 of the total_k labels 1,
    and outside the rest."""
    total_n = rng.integers(0, top + 1, size=shape[:-1] + (1,))
    total_n[0] = top
    total_k = rng.integers(0, total_n + 1)
    n0 = rng.integers(0, total_n + 1, size=shape)
    n0[0, 0] = top                              # one region holds the whole row
    lo = np.maximum(0, total_k - (total_n - n0))
    hi = np.minimum(n0, total_k)
    k0 = lo + (rng.random(shape) * (hi - lo + 1)).astype(np.int64)
    return n0, k0, total_n, total_k


def assert_table_equals_xlogy(rng, top, shape=(5, 40)):
    counts = random_split_counts(rng, top, shape)
    want = xlogy_split_losses(*(c.astype(np.float64) for c in counts))
    assert np.array_equal(_region_losses(side_layout(*counts)), want)
    assert np.array_equal(_region_losses(side_layout(*(c.astype(np.float64) for c in counts))),
                          want)


def test_split_losses_equal_xlogy_form_bitwise():
    # j ln j itself: the whole table, the counts _nll sends past its cap as
    # int64 and as float64, and the edge values
    j = np.arange(1 << _TABLE_BITS, dtype=np.float64)
    assert hypotheses._jlnj(_TABLE_BITS).tobytes() == xlogy(j, j).tobytes()
    for dtype in (np.int64, np.float64):
        big = np.array([1 << _TABLE_BITS, (1 << 53) - 1, (1 << 53) + 1, 10 ** 18], dtype=dtype)
        assert hypotheses._j_ln_j(big).tobytes() == xlogy(big, big).tobytes()
    zero, *bad = hypotheses._j_ln_j(np.array([0.0, -1.0, -(1 << 60), np.nan]))
    assert zero == 0.0 and not np.signbit(zero)
    assert np.isnan(bad).all() and np.isnan(xlogy(bad, bad)).all()
    rng = np.random.default_rng(20)
    for top in (1, 2, 7, 100, 5000, 1 << 16):
        assert_table_equals_xlogy(rng, top)
    # counts at and beside each doubling of the table, up to and past its cap
    for bits in range(1, _TABLE_BITS + 3):
        for top in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1):
            assert_table_equals_xlogy(rng, top, (3, 16))


def test_split_losses_past_the_cap_call_xlogy_on_the_float_counts():
    # A caller's own float counts past 2**53, where a sum rounds (FTPL sums
    # exact int64 counts): the losses keep xlogy's bits on those floats. Labels
    # 1 are at most half of each context's samples, so no count difference
    # rounds below zero.
    rng = np.random.default_rng(21)
    seen = rng.uniform(0.0, 3e16, size=64).round()
    pos = (seen * rng.uniform(0.0, 0.5, size=64)).round()
    family = RegionFamily.threshold_grid(64)
    n0, k0 = region_counts(seen, family), region_counts(pos, family)
    assert n0[0] > 0 and n0[-1] >= 1 << 53
    want = xlogy_split_losses(n0, k0, n0[-1], k0[-1])
    assert np.isfinite(want).all()
    assert np.array_equal(_region_losses(side_layout(n0, k0, n0[-1], k0[-1])), want)


@pytest.mark.parametrize("order", ["large_first", "small_first"])
def test_split_losses_do_not_depend_on_tables_built_before(order):
    hypotheses._jlnj.cache_clear()
    rng = np.random.default_rng(22)
    tops = [1 << 18, 3000, 40, 2] if order == "large_first" else [2, 40, 3000, 1 << 18]
    for top in tops:
        assert_table_equals_xlogy(rng, top)
    assert hypotheses._jlnj(4).flags.writeable is False


def test_nll_with_a_caller_bound_equals_nll_with_its_own_maximum():
    # Any bound at or above the largest count reads the same j ln j values:
    # from a table that holds it, whatever its size, or past the table's cap
    # from _j_ln_j, over counts on either side of the cap
    rng = np.random.default_rng(27)
    for top in (1, 2, 5, 1000, 1023, 1024, (1 << _TABLE_BITS) - 1, 1 << _TABLE_BITS, 3 << 20):
        n, k, _, _ = random_split_counts(rng, top, (4, 16))
        assert n.max() == top
        bounds = [top, top + 1, 1 << top.bit_length(), 2 * top + 5, 1 << _TABLE_BITS, 1 << 40]
        for counts in ((n, k), (n.astype(np.float64), k.astype(np.float64))):
            want = hypotheses._nll(*counts).tobytes()
            for bound in bounds:
                if bound >= top:
                    assert hypotheses._nll(*counts, bound).tobytes() == want, (top, bound)


def xlogy_prefix_best_losses(xs, ys, family):
    """Every prefix's best loss from float counts and xlogy, in one pass."""
    inside = family.contains(np.asarray(xs)).astype(np.float64)
    n0 = np.cumsum(inside, axis=0)
    k0 = np.cumsum(inside * np.asarray(ys, dtype=np.float64)[:, None], axis=0)
    total_n = np.arange(1.0, len(xs) + 1.0)[:, None]
    total_k = np.cumsum(ys, dtype=np.float64)[:, None]
    return xlogy_split_losses(n0, k0, total_n, total_k).min(axis=1)


@pytest.mark.parametrize("family", [
    RegionFamily.threshold_grid(16),
    RegionFamily.explicit(24, [np.flatnonzero(row).tolist() for row in
                               np.random.default_rng(23).random((10, 24)) < 0.4]),
], ids=["grid16", "explicit10x24"])
@pytest.mark.parametrize("T", [1, 2, 1023, 1024, 1025])
def test_prefix_best_losses_equal_tracker_and_xlogy_at_table_boundaries(family, T):
    # the total count reaches 1023, 1024 and 1025: the table doubles at 1024
    rng = np.random.default_rng(T)
    xs = rng.integers(0, family.size, size=T)
    ys = (rng.random(T) < 0.3).astype(np.int64)
    tracker = ComparatorTracker(family)
    want = np.array([tracker.update(int(x), int(y)) for x, y in zip(xs, ys)])
    got = prefix_best_losses(xs, ys, family)
    assert np.array_equal(got, want)
    assert np.array_equal(got, xlogy_prefix_best_losses(xs, ys, family))


def test_prefix_best_losses_past_the_table_cap_equal_xlogy(monkeypatch):
    # the last block's counts reach 2**_TABLE_BITS, so _nll takes their j ln j
    # from _j_ln_j directly rather than from a table
    seen = []
    direct = hypotheses._j_ln_j
    monkeypatch.setattr(hypotheses, "_j_ln_j", lambda j: seen.append(np.max(j)) or direct(j))
    family = RegionFamily.threshold_grid(4)
    T = (1 << _TABLE_BITS) + 7
    rng = np.random.default_rng(26)
    xs = rng.integers(0, 4, size=T)
    ys = (rng.random(T) < 0.3).astype(np.int64)
    got = prefix_best_losses(xs, ys, family)
    assert max(seen) == T
    assert got.tobytes() == xlogy_prefix_best_losses(xs, ys, family).tobytes()


def test_prefix_best_losses_block_memory_meets_its_budget():
    # a block's temporaries, counted in prefix_best_losses' row sizing, come to
    # _BLOCK_BYTES; the output and the label cumsum (8 bytes a round each) are
    # the only other arrays it holds
    family = RegionFamily.explicit(256, [np.flatnonzero(row).tolist() for row in
                                         np.random.default_rng(24).random((128, 256)) < 0.5])
    rng = np.random.default_rng(25)
    xs = rng.integers(0, 256, size=4096)
    ys = rng.integers(0, 2, size=4096)
    prefix_best_losses(xs, ys, family)          # the tables it reads, built untraced
    tracemalloc.start()
    try:
        prefix_best_losses(xs, ys, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = peak - 2 * 8 * len(xs)
    assert 0.75 * _BLOCK_BYTES <= block <= 1.25 * _BLOCK_BYTES, block


def random_explicit(rng, size, count):
    """`count` random regions of varied density over {0..size-1}."""
    member = rng.random((count, size)) < rng.uniform(0.0, 1.0, (count, 1))
    return RegionFamily.explicit(size, [np.flatnonzero(row).tolist() for row in member])


def comparator_cases():
    """(name, xs, ys, family) traces the class comparator must get right."""
    rng = np.random.default_rng(30)
    for i in range(40):
        u, T = int(rng.choice([2, 7, 64, 300, 4096])), int(rng.integers(1, 300))
        family = (RegionFamily.threshold_grid(u) if i % 2 else
                  random_explicit(rng, u, int(rng.integers(1, 50))))
        # contexts from a random subset, so that few or many regions merge
        subset = rng.choice(u, size=int(rng.integers(1, u + 1)))
        yield f"random{i}", rng.choice(subset, size=T), rng.integers(0, 2, size=T), family
    grid, explicit = RegionFamily.threshold_grid(16), random_explicit(rng, 16, 20)
    for family in (grid, explicit):
        yield f"{family.kind}_T1", np.array([5]), np.array([1]), family
        yield f"{family.kind}_T1_at_0", np.array([0]), np.array([0]), family
        ends = rng.choice([0, 15, 7], size=50)
        yield f"{family.kind}_hits_0_and_U-1", ends, rng.integers(0, 2, size=50), family
    # duplicated regions: an explicit family runs on all of its regions,
    # every copy included
    regions = [np.flatnonzero(row).tolist() for row in rng.random((6, 32)) < 0.5]
    duplicated = RegionFamily.explicit(32, [regions[i] for i in rng.integers(0, 6, size=24)])
    assert len({tuple(r) for r in regions}) == 6
    yield "explicit_duplicated", rng.integers(0, 32, size=200), rng.integers(0, 2, size=200), \
        duplicated
    # singletons with every context seen: as many distinct memberships on
    # the trajectory as regions
    singletons = RegionFamily.explicit(24, [[x] for x in range(24)])
    xs = np.concatenate([np.arange(24), rng.integers(0, 24, size=100)])
    yield "explicit_none_merge", xs, rng.integers(0, 2, size=len(xs)), singletons


COMPARATOR_CASES = list(comparator_cases())


@pytest.mark.parametrize("name, xs, ys, family", COMPARATOR_CASES,
                         ids=[case[0] for case in COMPARATOR_CASES])
def test_prefix_best_losses_equal_the_all_regions_oracle_bitwise(name, xs, ys, family):
    want = prefix_best_losses_all_regions(xs, ys, family)
    assert prefix_best_losses(xs, ys, family).tobytes() == want.tobytes()
    assert prefix_best_losses(xs.tolist(), ys.tolist(), family).tobytes() == want.tobytes()


@pytest.mark.parametrize("family", [
    RegionFamily.threshold_grid(1 << 16),
    RegionFamily.threshold_grid(64),
    random_explicit(np.random.default_rng(31), 256, 128),
], ids=["wide_grid", "grid64", "explicit128x256"])
def test_prefix_best_losses_columns_equal_single_trace_calls(family):
    # R traces as the columns of (T, R) arrays, as run_game fills a cell's
    # repetitions: each column passed on its own, a strided view, gives the
    # call on the trace's contiguous copy bit for bit, and both equal the
    # all-regions oracle; the (T, R) arrays themselves are refused
    rng = np.random.default_rng(32)
    T, R = 300, 4
    xs = rng.integers(0, family.size, size=(T, R))
    xs[:, 1] = rng.integers(0, 5, size=T)                # a column with few contexts
    ys = rng.integers(0, 2, size=(T, R))
    for r in range(R):
        column = prefix_best_losses(xs[:, r], ys[:, r], family)
        assert column.shape == (T,)
        single = prefix_best_losses(xs[:, r].copy(), ys[:, r].copy(), family)
        assert column.tobytes() == single.tobytes()
        assert single.tobytes() == prefix_best_losses_all_regions(xs[:, r], ys[:, r],
                                                                  family).tobytes()
    for cols in ((xs, ys), (xs[:, :1], ys[:, :1])):
        shape = cols[0].shape
        with pytest.raises(ValueError, match=re.escape(f"contexts of shape {shape} and labels "
                                                       f"of shape {shape}: need two 1-D")):
            prefix_best_losses(*cols, family)


def test_prefix_best_losses_runs_on_class_representatives(monkeypatch):
    # the losses are formed for one region per class: on a 2**16-point grid
    # with T = 64 at most one per distinct context plus one, never all 2**16;
    # an explicit family's for all of its regions, merged or not
    widths = []
    real = hypotheses._region_losses
    monkeypatch.setattr(hypotheses, "_region_losses",
                        lambda counts, *args: widths.append(counts.shape[-1]) or real(counts, *args))
    rng = np.random.default_rng(33)
    grid = RegionFamily.threshold_grid(1 << 16)
    xs = rng.integers(1, 1 << 16, size=64)
    ys = rng.integers(0, 2, size=64)
    got = prefix_best_losses(xs, ys, grid)
    assert widths and max(widths) <= len(np.unique(xs)) + 1
    # 40 regions, only 8 of them distinct on the contexts 0..7 the trace holds
    regions = [np.flatnonzero(row).tolist() for row in rng.random((8, 16)) < 0.5]
    explicit = RegionFamily.explicit(16, [regions[i % 8] + [8 + i % 5] for i in range(40)])
    xs2 = np.concatenate([np.arange(8), rng.integers(0, 8, size=100)])
    ys2 = rng.integers(0, 2, size=len(xs2))
    widths.clear()
    got2 = prefix_best_losses(xs2, ys2, explicit)
    assert widths and set(widths) == {len(explicit)}
    monkeypatch.setattr(hypotheses, "_region_losses", real)
    assert got.tobytes() == prefix_best_losses_all_regions(xs, ys, grid).tobytes()
    assert got2.tobytes() == prefix_best_losses_all_regions(xs2, ys2, explicit).tobytes()


def test_malformed_examples_raise_naming_the_value():
    grid = RegionFamily.threshold_grid(4)
    explicit = RegionFamily.explicit(4, [[0, 1], [2]])
    cases = [
        (grid, [0, 1], [2, 0], "label 2 not in {0, 1}"),
        (grid, [0, 1], [1, -1], "label -1 not in {0, 1}"),
        (grid, [0, -3], [1, 0], "context -3 outside [0, 4)"),
        (grid, [9, 1], [1, 0], "context 9 outside [0, 4)"),
        (explicit, [-1, 2], [0, 1], "context -1 outside [0, 4)"),
        (explicit, [2, 4], [0, 1], "context 4 outside [0, 4)"),
        # ids are cast only once they are read as integers: 2.9 once fit context 2
        (grid, [2.9], [1], "context of type float64 is not an integer"),
        (grid, [0.7, 3], [1, 0], "context of type float64 is not an integer"),
        (grid, [0.5, 1.5], [1, 0], "context of type float64 is not an integer"),
        (explicit, ["0", "1"], [1, 0], "context of type <U1 is not an integer"),
        (grid, np.array([0, 1], dtype=object), [1, 0], "context of type object is not an integer"),
        (grid, [0, 1], [1.0, 0.0], "label of type float64 is not an integer"),
        # compared before the int64 cast, which would wrap 2**63 to a negative id
        (grid, np.array([2 ** 63, 1], dtype=np.uint64), [1, 0],
         f"context {2 ** 63} outside [0, 4)"),
    ]
    calls = (prefix_best_losses, offline_best_loss, mle_oracle,
             lambda xs, ys, family: examples_to_counts(xs, ys, family.size))
    for family, xs, ys, message in cases:
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(xs, ys, family)
    # the comparator takes one trajectory's two columns of equal length
    shapes = [
        ([0, 1, 2, 3], [[0, 1], [1, 0]],
         "contexts of shape (4,) and labels of shape (2, 2): need two 1-D columns of equal length"),
        ([[0, 1], [2, 3]], [[0, 1], [1, 0]],
         "contexts of shape (2, 2) and labels of shape (2, 2): need two 1-D columns of equal "
         "length"),
        ([0, 1, 2], [0, 1],
         "contexts of shape (3,) and labels of shape (2,): need two 1-D columns of equal length"),
    ]
    for family in (grid, explicit):
        for xs, ys, message in shapes:
            for call in calls:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call(xs, ys, family)
    # games never produce such values: valid ones, bool labels among them,
    # still give the losses
    assert offline_best_loss([0, 1], [1, 0], grid) == 0.0
    assert offline_best_loss([0, 1], [True, False], grid) == 0.0


def test_comparator_tracker_rejects_what_the_comparator_does():
    # -1 once counted context 7, a label of -1 counted nothing and 2 a 1
    grid = RegionFamily.threshold_grid(8)
    cases = [(-1, 1, "context -1 outside [0, 8)"), (8, 0, "context 8 outside [0, 8)"),
             (3, -1, "label -1 not in {0, 1}"), (3, 2, "label 2 not in {0, 1}"),
             (2.5, 1, "context of type float64 is not an integer")]
    for x, y, message in cases:
        tracker = ComparatorTracker(grid)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tracker.update(x, y)
        assert not tracker.counts.any()
    tracker = ComparatorTracker(grid)
    assert tracker.update(np.int64(3), True) == offline_best_loss([3], [1], grid)


def test_threshold_fast_path_equals_generic_scan():
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = int(rng.integers(2, 40))
        fam = RegionFamily.threshold_grid(u)
        same = RegionFamily.explicit(u, [list(range(a + 1)) for a in range(u)])
        xs = rng.integers(0, u, size=int(rng.integers(1, 60)))
        ys = rng.integers(0, 2, size=len(xs))
        counts = examples_to_counts(xs, ys, u)
        assert counts.shape == (2, u) and counts.dtype == np.int64
        # prefix sums against the bitmap product
        assert np.array_equal(region_counts(counts, fam), counts @ region_bitmaps(fam).T)
        assert np.array_equal(region_counts(counts, fam), region_counts(counts, same))
        assert mle_from_counts(counts, fam) == mle_from_counts(counts, same)


def test_region_counts_of_int64_counts_equal_the_integer_product():
    # an explicit family sums integer counts with a float64 product while each
    # row totals below 2**53, and with an integer product past that
    family = RegionFamily.explicit(24, [np.flatnonzero(row).tolist() for row in
                                        np.random.default_rng(26).random((40, 24)) < 0.4])
    member = region_bitmaps(family).T.astype(object)    # (U, regions) of Python ints
    rng = np.random.default_rng(27)
    edge = rng.integers(0, 1 << 48, size=(2, 24))
    edge[:, -1] = [(1 << 53) - 1, (1 << 53) + 1] - edge[:, :-1].sum(axis=1)
    past = rng.integers(0, 1 << 57, size=(2, 24))
    for values in (rng.integers(0, 1000, size=24), rng.integers(0, 1 << 40, size=(3, 2, 24)),
                   edge[:1], edge, past):
        got = region_counts(values, family)
        assert got.dtype == np.int64
        assert got.tolist() == (values.astype(object) @ member).tolist()
    # past 2**53 the float64 product alone would round
    assert not np.array_equal(past.astype(np.float64) @ member.astype(np.float64),
                              region_counts(past, family))


def test_family_json_roundtrip():
    fam = RegionFamily.threshold_grid(12)
    back = RegionFamily.from_spec(json.loads(family_to_json(fam)))
    assert back.kind == "threshold_grid" and back.size == 12
    obj = json.loads(family_to_json(fam))
    assert obj == {"kind": "threshold_grid", "size": 12}

    fam2 = RegionFamily.explicit(5, [[0, 2], [1, 3, 4]])
    back2 = RegionFamily.from_spec(json.loads(family_to_json(fam2)))
    assert np.array_equal(back2.contains(np.arange(5)), fam2.contains(np.arange(5)))
    obj2 = json.loads(family_to_json(fam2))
    assert obj2["kind"] == "explicit" and obj2["regions"] == [[0, 2], [1, 3, 4]]


def test_family_json_errors():
    with pytest.raises(ConfigError):
        RegionFamily.from_spec("not an object")
    with pytest.raises(ConfigError):
        RegionFamily.from_spec({"kind": "mystery"})
    with pytest.raises(ConfigError):
        RegionFamily.from_spec({"kind": "threshold_grid"})
