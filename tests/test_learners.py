import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import logsumexp, xlogy

import smoothpa.hypotheses as hypotheses
import smoothpa.learners as learners_mod

from smoothpa.adversary import adversary_from_spec
from smoothpa.core import log_loss, run_game
from smoothpa.errors import ConfigError, NumericalAssertionError
from smoothpa.hypotheses import (RegionFamily, evaluate, mle_from_counts, mle_oracle,
                                 prefix_best_losses)
from smoothpa.learners import (FtplLearner, KtLearner, MixtureLearner,
                               UniformLearner, epsilon_cover, learner_from_spec,
                               truncation_range)

from oracles import laplace_integral_log, region_bitmaps

# ---------------------------------------------------------------- laplace

def quad_beta(k, n):
    val, _ = integrate.quad(lambda t: t ** k * (1 - t) ** (n - k), 0.0, 1.0,
                            epsabs=0.0, epsrel=1e-13)
    return val


def test_laplace_trivial_and_closed_form():
    assert laplace_integral_log(0, 0) == 0.0
    assert laplace_integral_log(1, 2) == pytest.approx(math.log(1 / 6), abs=1e-13)


def test_laplace_matches_quadrature():
    for k, n in [(7, 20), (0, 5), (5, 5), (13, 40)]:
        got = math.exp(laplace_integral_log(k, n))
        want = quad_beta(k, n)
        assert abs(got - want) / want < 1e-10


def test_laplace_rejects_bad_counts():
    with pytest.raises(ValueError):
        laplace_integral_log(3, 2)
    with pytest.raises(ValueError):
        laplace_integral_log(-1, 2)


# ---------------------------------------------------------------- kt

def kt_after(labels, beta=0.5):
    """KtLearner's next prediction after streaming `labels` (contexts vary)."""
    lr = KtLearner(beta)
    lr.reset(np.random.default_rng(0))
    for i, y in enumerate(labels):
        lr.update(i % 4, y)
    return lr.predict(0)


def test_kt_examples():
    assert kt_after([]) == 0.5
    assert kt_after([1]) == 0.75
    assert kt_after([1, 1, 0]) == 0.625
    assert kt_after([1], beta=1.0) == pytest.approx(2 / 3)


@given(st.lists(st.integers(0, 1), max_size=40))
def test_kt_matches_exact_rational(labels):
    got = kt_after(labels)
    want = Fraction(2 * sum(labels) + 1, 2 * (len(labels) + 1))
    assert got == float(want)


def test_kt_learner_streams():
    lr = KtLearner(0.5)
    lr.reset(np.random.default_rng(0))
    assert lr.predict(0) == 0.5
    lr.update(0, 1)
    assert lr.predict(3) == 0.75
    lr.update(1, 1)
    lr.update(2, 0)
    assert lr.predict(0) == 0.625


# ---------------------------------------------------------------- covers

def test_cover_eps_geq_one_single_element():
    fam = RegionFamily.threshold_grid(50)
    assert epsilon_cover(fam, 1.0).tolist() == [0]


def test_cover_threshold_grid_100_eps_point1():
    fam = RegionFamily.threshold_grid(100)
    cover = epsilon_cover(fam, 0.1)
    assert len(cover) <= 11
    bm = region_bitmaps(fam)
    worst = max(min(np.mean(bm[g] != bm[c]) for c in cover) for g in range(100))
    assert worst <= 0.1


def test_cover_size_scales_inverse_eps():
    fam = RegionFamily.threshold_grid(256)
    for eps in (0.5, 0.2, 0.1, 0.05, 0.02):
        assert len(epsilon_cover(fam, eps)) <= 2.0 / eps + 1


def test_cover_explicit_greedy_covers_everything():
    rng = np.random.default_rng(5)
    regions = [np.flatnonzero(rng.random(20) < 0.5).tolist() for _ in range(30)]
    fam = RegionFamily.explicit(20, regions)
    for eps in (0.3, 0.15):
        cover = epsilon_cover(fam, eps)
        bm = region_bitmaps(fam)
        for g in range(len(fam)):
            assert min(np.mean(bm[g] != bm[c]) for c in cover) <= eps


def test_cover_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        epsilon_cover(RegionFamily.threshold_grid(4), 0.0)
    explicit = RegionFamily.explicit(4, [[0], [1, 2]])
    for family in (RegionFamily.threshold_grid(4), explicit):
        with pytest.raises(ValueError, match="^eps must be positive$"):
            epsilon_cover(family, math.nan)


# ---------------------------------------------------------------- mixture

def mixture(fam, cover):
    """A MixtureLearner over `cover`, reset for a new game."""
    lr = MixtureLearner(fam, cover)
    lr.reset(np.random.default_rng(0))
    return lr


def log_normalizer(lr):
    """ln q(y_1:t || x_1:t): log-sum-exp of the element marginals minus ln m."""
    return float(logsumexp(lr.log_marginal) - math.log(lr.cover.size))


def test_mixture_empty_history_is_half():
    fam = RegionFamily.threshold_grid(8)
    assert mixture(fam, [3]).predict(0) == 0.5


def test_mixture_one_positive_same_side():
    fam = RegionFamily.threshold_grid(8)
    lr = mixture(fam, [3])
    lr.update(1, 1)   # x=1 inside region {x <= 3}
    assert lr.predict(2) == pytest.approx(2 / 3, abs=1e-15)
    assert lr.predict(6) == 0.5  # other side untouched


def test_mixture_predictions_strictly_interior():
    rng = np.random.default_rng(0)
    fam = RegionFamily.threshold_grid(16)
    lr = mixture(fam, epsilon_cover(fam, 0.2))
    for _ in range(200):
        x = int(rng.integers(16))
        q = lr.predict(x)
        assert 0.0 < q < 1.0
        lr.update(x, int(rng.integers(2)))


def test_mixture_chain_rule_telescopes():
    rng = np.random.default_rng(1)
    fam = RegionFamily.threshold_grid(64)
    lr = MixtureLearner(fam, epsilon_cover(fam, 1e-9))
    for _ in range(3):
        lr.reset(np.random.default_rng(0))
        acc = 0.0
        for _ in range(200):
            x = int(rng.integers(64))
            y = int(rng.integers(2))
            q1 = lr.predict(x)
            acc += math.log(q1 if y == 1 else 1.0 - q1)
            lr.update(x, y)
        assert abs(acc - log_normalizer(lr)) <= 1e-10


def test_mixture_counts_sum_to_rounds():
    rng = np.random.default_rng(2)
    fam = RegionFamily.threshold_grid(10)
    lr = mixture(fam, [0, 4, 9])
    for t in range(50):
        lr.update(int(rng.integers(10)), int(rng.integers(2)))
    assert np.all(lr.n.sum(axis=1) == 50)


def mixture_log_marginal_from_scratch(lr):
    """Each element's log marginal recomputed from its counts."""
    return np.array([laplace_integral_log(int(lr.k[i, 0]), int(lr.n[i, 0]))
                     + laplace_integral_log(int(lr.k[i, 1]), int(lr.n[i, 1]))
                     for i in range(lr.cover.size)])


def test_mixture_incremental_marginals_match_recompute():
    rng = np.random.default_rng(3)
    fam = RegionFamily.threshold_grid(12)
    lr = mixture(fam, [1, 5, 11])
    for _ in range(120):
        lr.update(int(rng.integers(12)), int(rng.integers(2)))
    fresh = mixture_log_marginal_from_scratch(lr)
    assert np.max(np.abs(fresh - lr.log_marginal)) < 1e-10


def test_mixture_dominance_over_best_element():
    rng = np.random.default_rng(4)
    fam = RegionFamily.threshold_grid(16)
    lr = mixture(fam, epsilon_cover(fam, 0.25))
    cum_loss = 0.0
    for _ in range(150):
        x = int(rng.integers(16))
        y = int(rng.integers(2))
        q1 = lr.predict(x)
        cum_loss += -math.log(q1 if y == 1 else 1.0 - q1)
        lr.update(x, y)
    best_element_bayes = float(np.min(-lr.log_marginal))
    assert cum_loss <= best_element_bayes + math.log(lr.cover.size) + 1e-9


def test_mixture_no_context_case_is_add_one_rule():
    # single cover element = full universe: one effective side, add-1 rule exactly
    u = 9
    fam = RegionFamily.threshold_grid(u)
    lr = mixture(fam, [u - 1])
    rng = np.random.default_rng(5)
    n = k = 0
    for _ in range(60):
        x = int(rng.integers(u))
        y = int(rng.integers(2))
        assert lr.predict(x) == (k + 1.0) / (n + 2.0)
        lr.update(x, y)
        n += 1
        k += y


def logsumexp_mixture_predict(lr, fam, x):
    """The posterior-weighted add-one rule with weights normalized by logsumexp."""
    inside = fam.contains(x, lr.cover)
    n_j = np.where(inside, lr.n[:, 0], lr.n[:, 1])
    k_j = np.where(inside, lr.k[:, 0], lr.k[:, 1])
    w = np.exp(lr.log_marginal - logsumexp(lr.log_marginal))
    return float(w @ ((k_j + 1.0) / (n_j + 2.0)))


def test_mixture_predict_matches_logsumexp_oracle():
    rng = np.random.default_rng(6)
    fam = RegionFamily.threshold_grid(32)
    lr = MixtureLearner(fam, epsilon_cover(fam, 1e-9))
    spreads = []
    for trial in range(200):
        lr.reset(np.random.default_rng(0))
        for _ in range(int(rng.integers(0, 60))):
            lr.update(int(rng.integers(32)), int(rng.integers(2)))
        if trial % 2:
            # marginals far apart and far below 0: exp of the raw values underflows
            lr.log_marginal = rng.uniform(-2000.0, -600.0, size=lr.cover.size)
        spreads.append(np.ptp(lr.log_marginal))
        for x in range(32):
            assert abs(lr.predict(x) - logsumexp_mixture_predict(lr, fam, x)) <= 1e-12
    assert max(spreads) > 700.0


def test_mixture_prefix_tree_leaves_equal_closed_form():
    # Every leaf of the label tree, reached by branching both labels off a
    # copy of the same parent learner, must carry log q(y_1:t || x_1:t) of its
    # own sequence.
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = int(rng.integers(2, 6))
        regions = [np.flatnonzero(rng.random(u) < 0.5).tolist() for _ in range(4)]
        fam = RegionFamily.explicit(u, regions)
        cover = np.arange(len(regions))
        t = int(rng.integers(3, 8))
        xs = rng.integers(0, u, size=t)
        leaves = {}
        stack = [((), mixture(fam, cover), 0.0)]
        while stack:
            ys, lr, logq = stack.pop()
            if len(ys) == t:
                leaves[ys] = logq
                continue
            x = int(xs[len(ys)])
            q1 = lr.predict(x)
            for y in (0, 1):
                child = copy.deepcopy(lr)
                child.update(x, y)
                stack.append((ys + (y,), child, logq + math.log(q1 if y == 1 else 1.0 - q1)))
        assert len(leaves) == 2 ** t
        for ys, logq in leaves.items():
            y_arr = np.asarray(ys)
            marginals = []
            for region in region_bitmaps(fam)[cover]:
                inside = region[xs]
                marginals.append(sum(
                    laplace_integral_log(int(y_arr[side].sum()), int(side.sum()))
                    for side in (inside, ~inside)))
            closed = float(logsumexp(marginals)) - math.log(len(cover))
            assert abs(logq - closed) <= 1e-10, ys


@pytest.mark.parametrize("fam", [
    RegionFamily.threshold_grid(12),
    RegionFamily.explicit(12, [[0, 1, 2], [3, 5, 7, 11], [0, 4, 8], [6, 7, 8, 9, 10, 11], [2, 9]]),
], ids=["grid", "explicit"])
def test_mixture_predict_leaves_later_updates_exact(fam):
    # predict(x) changes no state: a following update(x) twice, or update(x')
    # then update(x), matches a learner that never predicted
    cover = epsilon_cover(fam, 1e-9)
    rng = np.random.default_rng(9)
    for _ in range(40):
        played, fresh = mixture(fam, cover), mixture(fam, cover)
        for _ in range(int(rng.integers(0, 20))):
            x, y = int(rng.integers(12)), int(rng.integers(2))
            for lr in (played, fresh):
                lr.update(x, y)
        x, other = (int(v) for v in rng.choice(12, size=2, replace=False))
        steps = [(x, 1), (x, 1)] if rng.random() < 0.5 else [(other, int(rng.integers(2)))]
        steps.append((x, int(rng.integers(2))))
        played.predict(x)
        for x_t, y_t in steps:
            played.update(x_t, y_t)
            fresh.update(x_t, y_t)
        for name in ("n", "k", "log_marginal"):
            assert np.array_equal(getattr(played, name), getattr(fresh, name)), name
        assert np.max(np.abs(mixture_log_marginal_from_scratch(played)
                             - played.log_marginal)) < 1e-10


def test_mixture_update_reads_contexts_refilled_after_predict():
    # a caller that refills one contexts buffer in place between predict and
    # update, or passes a read-only view of such a buffer, bumps the new
    # contexts' sides, as a learner given fresh arrays does
    fam = RegionFamily.threshold_grid(8)
    cover = epsilon_cover(fam, 1e-9)
    learners = [MixtureLearner(fam, cover) for _ in range(3)]
    for lr in learners:
        lr.reset([np.random.default_rng(0), np.random.default_rng(1)])
    refilled, viewed, fresh = learners
    buf = np.zeros(2, dtype=np.int64)
    view = buf.view()
    view.flags.writeable = False
    rng = np.random.default_rng(12)
    for _ in range(30):
        x_pred, x_upd = rng.integers(0, 8, size=(2, 2))
        y = rng.integers(0, 2, size=2)
        buf[:] = x_pred
        refilled.predict(buf)
        viewed.predict(view)
        fresh.predict(x_pred.copy())
        buf[:] = x_upd
        refilled.update(buf, y)
        viewed.update(view, y)
        fresh.update(x_upd.copy(), y)
    for lr in (refilled, viewed):
        for name in ("n", "k", "log_marginal"):
            assert np.array_equal(getattr(lr, name), getattr(fresh, name)), name


@pytest.mark.parametrize("fam", [
    RegionFamily.threshold_grid(16),
    RegionFamily.explicit(16, [[0, 1, 2], [3, 5, 7, 11], [], list(range(16)), [2, 9, 15]]),
], ids=["grid", "explicit"])
def test_mixture_counts_in_lockstep_equal_each_game_played_alone(fam):
    # each game's rows of n and k in an R-game learner are, bit for bit, the
    # counts of the same game played alone
    adversary = adversary_from_spec({"label": "greedy"}, fam, sigma=0.3)
    together = MixtureLearner(fam, epsilon_cover(fam, 1e-9))
    seeds = [5, 6, 7]
    run_game(together, adversary, 40, seeds, run_id=["a", "b", "c"])
    for r, seed in enumerate(seeds):
        alone = MixtureLearner(fam, together.cover)
        run_game(alone, adversary, 40, seed)
        for name in ("n", "k"):
            got, want = getattr(together, name)[r], getattr(alone, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("fam, cover, message", [
    (RegionFamily.threshold_grid(8), [3, 99], r"^cover index 99 outside \[0, 8\)$"),
    (RegionFamily.threshold_grid(8), [-1, 3], r"^cover index -1 outside \[0, 8\)$"),
    (RegionFamily.explicit(4, [[0], [1, 2]]), [0, 2], r"^cover index 2 outside \[0, 2\)$"),
    (RegionFamily.threshold_grid(8), [], r"^cover is empty$"),
    # once cast to [1, 3]
    (RegionFamily.threshold_grid(8), [1.5, 3.7], r"^cover index of type float64 is not an integer$"),
    # once failed only at the first predict
    (RegionFamily.threshold_grid(8), [[1, 2], [3, 4]],
     r"^cover index array of shape \(2, 2\), not 1-D$"),
], ids=["grid_past_end", "negative", "explicit_past_end", "empty", "float", "2d"])
def test_mixture_rejects_a_cover_outside_its_family(fam, cover, message):
    with pytest.raises(ValueError, match=message):
        MixtureLearner(fam, cover)


@st.composite
def family_and_game(draw):
    """An explicit family of 2 to 5 regions over 1 to 6 contexts, and up to 30
    contexts with their labels."""
    u = draw(st.integers(1, 6))
    regions = draw(st.lists(st.lists(st.integers(0, u - 1), unique=True),
                            min_size=2, max_size=5))
    t = draw(st.integers(1, 30))
    xs = draw(st.lists(st.integers(0, u - 1), min_size=t, max_size=t))
    ys = draw(st.lists(st.integers(0, 1), min_size=t, max_size=t))
    return RegionFamily.explicit(u, regions), xs, ys


@settings(max_examples=80, deadline=None)
@given(family_and_game())
def test_mixture_regret_meets_its_certificate_at_the_comparator_region(game):
    # With the comparator's region r in the cover, the mixture's regret is at
    # most ln|cover| + ln(n_in + 1) + ln(n_out + 1), n_in and n_out the
    # examples on r's two sides: ln B(k, n) = -ln(n + 1) - ln C(n, k) and
    # C(n, k) (k/n)^k (1 - k/n)^(n - k) <= 1. Each other region's marginal,
    # at least 2^-t / (t/2 + 1)^2, keeps the regret more than 1e-12 below the
    # bound at t <= 30, far above rounding; a one-region cover with unmixed
    # labels meets it with equality, which rounding cannot decide.
    fam, xs, ys = game
    lr = mixture(fam, np.arange(len(fam)))          # the full cover
    comparator = prefix_best_losses(xs, ys, fam)
    cum = 0.0
    for t, (x, y) in enumerate(zip(xs, ys), start=1):
        cum += log_loss(lr.predict(x), y)
        lr.update(x, y)
        region = mle_oracle(xs[:t], ys[:t], fam).region_index
        n_in = int(fam.contains(xs[:t], [region]).sum())
        bound = math.log(len(fam)) + math.log(n_in + 1) + math.log(t - n_in + 1)
        assert cum - comparator[t - 1] <= bound, (t, region)


def test_mixture_learner_wraps_state():
    fam = RegionFamily.threshold_grid(8)
    lr = mixture(fam, epsilon_cover(fam, 0.3))
    assert lr.predict(0) == 0.5
    lr.update(0, 1)
    assert lr.predict(0) > 0.5
    lr.reset(np.random.default_rng(1))      # a new game starts from the prior
    assert lr.predict(0) == 0.5


# ---------------------------------------------------------------- ftpl

def reference_ftpl_predict(counts, n, alpha, family, rng, x):
    """One FTPL prediction the direct way: draw this round's (2, U) hallucinated
    counts by label, add them to the (2, U) per-context counts (samples, then
    labels 1), refit the oracle, truncate at x."""
    u = family.size
    hal = rng.poisson(n / (2.0 * u), size=(2, u))
    hal[0] += hal[1]
    h, _ = mle_from_counts((counts + hal).astype(np.int64), family)
    q = (evaluate(family, h, x) + alpha) / (1.0 + 2.0 * alpha)
    lo, hi = truncation_range(alpha)
    if not lo <= q <= hi:
        raise NumericalAssertionError(f"FTPL prediction {q} escaped [{lo}, {hi}]")
    return q


def ftpl_after(lr, seed, xs, ys):
    """The FTPL learner `lr`, reset with generator seed `seed`, after seeing (xs, ys)."""
    lr.reset(np.random.default_rng(seed))
    for x, y in zip(xs, ys):
        lr.update(x, y)
    return lr


def test_ftpl_truncation_map_value():
    # oracle fit pinned at 0 by an all-zero history, no hallucination
    lr = FtplLearner(RegionFamily.threshold_grid(8), n=0.0, alpha=0.01)
    q = ftpl_after(lr, 0, [0, 0, 0], [0, 0, 0]).predict(0)
    assert q == pytest.approx(0.01 / 1.02, abs=1e-15)


def test_ftpl_zero_rate_is_follow_the_leader():
    lr = FtplLearner(RegionFamily.threshold_grid(4), n=0.0, alpha=0.1)
    qs = {ftpl_after(lr, s, [1, 1], [1, 1]).predict(1) for s in range(5)}
    assert qs == {(1.0 + 0.1) / 1.2}  # no randomness left: theta = 1 on the fit side


def test_ftpl_seeded_reproducibility_and_step_equivalence():
    fam = RegionFamily.threshold_grid(16)
    xs, ys = [3, 7, 7, 1], [1, 0, 1, 1]
    a = [ftpl_after(FtplLearner(fam, n=12.0, alpha=0.05), 99, xs, ys).predict(5)
         for _ in range(2)]
    assert a[0] == a[1]

    counts = np.stack((np.bincount(xs, minlength=16), np.bincount(xs, weights=ys, minlength=16)))
    assert a[0] == reference_ftpl_predict(counts, 12.0, 0.05, fam, np.random.default_rng(99), 5)


class PoissonRecorder:
    """Generator stand-in that records the shape and the values of every
    Poisson draw; the caller gets a copy, which it may change in place."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []
        self.draws = []

    def poisson(self, lam, size):
        self.sizes.append(size)
        self.draws.append(self.rng.poisson(lam, size))
        return self.draws[-1].copy()


FTPL_FAMILIES = {
    # name: (family, rounds); the rounds reach through at least three
    # boundaries between blocks
    "grid4": (RegionFamily.threshold_grid(4), 6000),
    "grid64": (RegionFamily.threshold_grid(64), 600),
    "explicit": (RegionFamily.explicit(24, [np.flatnonzero(row).tolist() for row in
                                           np.random.default_rng(5).random((40, 24)) < 0.4]),
                 1200),
}


# 2**23 puts the totals past the j ln j table's cap, where the losses call xlogy
@pytest.mark.parametrize("n", [0.0, 12.0, 3000.0, float(2 ** 23)])
@pytest.mark.parametrize("name", sorted(FTPL_FAMILIES))
def test_ftpl_learner_equals_per_round_reference(name, n):
    fam, rounds = FTPL_FAMILIES[name]
    u = fam.size
    recorder = PoissonRecorder(31)
    lr = FtplLearner(fam, n=n, alpha=0.01)
    lr.reset(recorder)
    ref_rng = np.random.default_rng(31)
    data = np.random.default_rng(32)
    counts = np.zeros((2, u))
    for _ in range(rounds):
        x = int(data.integers(u))
        y = int(data.random() < (0.2 if x < u // 2 else 0.7))
        assert lr.predict(x) == reference_ftpl_predict(counts, n, 0.01, fam, ref_rng, x)
        lr.update(x, y)
        counts[:1 + y, x] += 1
    assert len(recorder.sizes) >= 5 and len(set(recorder.sizes[-4:])) == 1, recorder.sizes


@pytest.mark.parametrize("name", ["grid64", "explicit"])
def test_ftpl_counts_stay_exact_at_the_largest_rate(monkeypatch, name):
    # At n = 1e18 the counts pass 2**53, where float sums round and an outside
    # count could come out negative. The oracle must see the exact counts,
    # all >= 0, and finite losses, under a bound no count exceeds (on a grid,
    # the last threshold's count, the largest); its leader's loss must equal
    # the one from Python-integer counts, and its frequency the leader's k/n
    # on x's side from those counts.
    fam = FTPL_FAMILIES[name][0]
    u, bitmaps = fam.size, region_bitmaps(fam)
    seen = []
    oracle = learners_mod.leader_frequency

    def spy(counts, family, x, top):
        assert (counts >= 0).all()
        assert top >= counts.max()
        if family.kind == "threshold_grid":
            assert top == counts.max()
        assert np.isfinite(hypotheses._nll(counts[0], counts[1], top)).all()
        seen.append((counts, top, oracle(counts, family, x, top)))
        return seen[-1][-1]

    monkeypatch.setattr(learners_mod, "leader_frequency", spy)
    recorder = PoissonRecorder(33)
    lr = FtplLearner(fam, 1e18, 0.01)
    lr.reset(recorder)
    data = np.random.default_rng(34)
    examples = [(int(data.integers(u)), int(data.integers(2))) for _ in range(50)]
    for x, y in examples:
        lr.predict(x)
        lr.update(x, y)
    assert len(seen) == 50 and max(c.max() for c, _, _ in seen) > 2 ** 53
    member = bitmaps.astype(object)             # (regions, U) of Python ints
    history = np.zeros((2, u), dtype=object)
    hal = np.concatenate(recorder.draws).astype(object)
    for (counts, top, f), (label0, label1), (x, y) in zip(seen, hal, examples):
        ctx = history + [label0 + label1, label1]
        inside = ctx @ member.T
        exact = np.stack([inside, ctx.sum(axis=1)[:, None] - inside], axis=1)
        assert counts.tolist() == exact.tolist()
        n, k, gap = (c.astype(np.float64) for c in (exact[0], exact[1], exact[0] - exact[1]))
        side = xlogy(n, n) - xlogy(k, k) - xlogy(gap, gap)
        ref = side[0] + side[1]
        losses = hypotheses._region_losses(counts, top)
        leader = int(losses.argmin())
        assert ref[leader] == ref.min() == losses[leader]
        n_x, k_x = exact[:, 0 if bitmaps[leader, x] else 1, leader]
        assert f == (k_x / n_x if n_x else 0.5)
        history[:, x] += [1, y]


def test_ftpl_predictions_stay_in_truncation_range():
    lr = FtplLearner(RegionFamily.threshold_grid(8), n=5.0, alpha=0.02)
    lr.reset(np.random.default_rng(7))
    lo, hi = truncation_range(lr.alpha)
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = int(rng.integers(8))
        q = lr.predict(x)
        assert lo <= q <= hi
        lr.update(x, int(rng.integers(2)))


def test_truncated_view_range():
    # a zero-loss fit with theta0 = 0 on region {0} and theta1 = 1 outside it
    # lands exactly on the two ends of the truncation range
    lr = ftpl_after(FtplLearner(RegionFamily.threshold_grid(4), n=0.0, alpha=0.25), 0,
                    [0, 3], [0, 1])
    lo, hi = truncation_range(0.25)
    assert lr.predict(0) == lo
    assert lr.predict(3) == hi


def bincount_hallucinations(rng, n, u):
    """(label, context) counts of Poisson(n) uniform samples, counted one by one."""
    m = int(rng.poisson(n))
    hx = rng.integers(0, u, size=m)
    hy = rng.integers(0, 2, size=m)
    return np.stack([np.bincount(hx[hy == 0], minlength=u),
                     np.bincount(hx[hy == 1], minlength=u)])


def test_ftpl_hallucinated_counts_follow_the_bincount_law(monkeypatch):
    # With no history the oracle sees only the hallucinated counts; by Poisson
    # splitting each (label, context) cell is an independent Poisson(n / 2U).
    # On a grid the per-region inside counts are prefix sums over contexts, so
    # their differences give back the per-context counts, and the last
    # threshold holds every sample.
    u, n, draws = 4, 24.0, 4000
    seen = []
    oracle = learners_mod.leader_frequency

    def spy(counts, family, x, top):
        assert counts.shape == (2, 2, u) and counts.dtype == np.int64
        assert (counts[:, 1, -1] == 0).all()
        assert top == counts.max()              # the last threshold's sample count
        cnt, pos = np.diff(counts[:, 0], prepend=0)
        seen.append(np.stack([cnt - pos, pos]))
        return oracle(counts, family, x, top)

    monkeypatch.setattr(learners_mod, "leader_frequency", spy)
    lr = FtplLearner(RegionFamily.threshold_grid(u), n=n, alpha=0.1)
    lr.reset(np.random.default_rng(11))
    for _ in range(draws):
        lr.predict(0)
    new = np.array(seen).astype(np.int64)
    old = np.array([bincount_hallucinations(np.random.default_rng([12, i]), n, u)
                    for i in range(draws)])
    assert new.shape == old.shape == (draws, 2, u)

    lam = n / (2 * u)
    top = 8                                    # bins 0..7 and a tail bin
    expected = np.append(stats.poisson.pmf(np.arange(top), lam), stats.poisson.sf(top - 1, lam))
    for counts in (new, old):
        hist = np.bincount(np.minimum(counts.ravel(), top), minlength=top + 1)
        assert stats.chisquare(hist, expected * hist.sum()).pvalue > 1e-3
        totals = counts.sum(axis=(1, 2))       # Poisson(n) overall
        assert abs(totals.mean() - n) < 4 * math.sqrt(n / draws)
    for cell in np.ndindex(2, u):              # cell by cell, old against new
        table = np.stack([np.bincount(np.minimum(c[(slice(None),) + cell], top),
                                      minlength=top + 1) for c in (new, old)])
        table = table[:, table.sum(axis=0) > 0]
        assert stats.chi2_contingency(table).pvalue > 1e-3, cell


def test_ftpl_config_validation():
    fam = RegionFamily.threshold_grid(1)
    with pytest.raises(ConfigError):
        FtplLearner(fam, n=-1.0, alpha=0.1)
    with pytest.raises(ConfigError):
        FtplLearner(fam, n=1.0, alpha=0.5)
    with pytest.raises(ConfigError):
        FtplLearner(fam, n=1.0, alpha=0.0)
    with pytest.raises(ConfigError, match=r"learner\.ftpl\.n"):
        FtplLearner(fam, n=math.inf, alpha=0.1)
    with pytest.raises(ConfigError, match=r"learner\.ftpl\.n"):
        FtplLearner(fam, n=math.nan, alpha=0.1)
    # a larger rate would overflow the Poisson draw of a one-context universe
    with pytest.raises(ConfigError, match=r"^learner\.ftpl\.n: 1e\+30 outside \[0, 1e\+18\]"):
        FtplLearner(fam, n=1e30, alpha=0.1)
    lr = FtplLearner(fam, n=1e18, alpha=0.1)
    lr.reset(np.random.default_rng(0))
    assert 0.0 < lr.predict(0) < 1.0


# ---------------------------------------------------------------- specs

def test_learner_from_spec_kinds():
    fam = RegionFamily.threshold_grid(8)
    assert isinstance(learner_from_spec({"uniform": {}}, fam, 16, 0.5), UniformLearner)
    kt = learner_from_spec({"kt": {"beta": 1.0}}, fam, 16, 0.5)
    assert isinstance(kt, KtLearner) and kt.beta == 1.0
    mix = learner_from_spec({"vc_mixture": {}}, fam, 16, 0.5)
    assert isinstance(mix, MixtureLearner)      # the default eps = sigma / T^2 covers the grid
    assert np.array_equal(mix.cover, epsilon_cover(fam, 0.5 / 256))
    mix = learner_from_spec({"vc_mixture": {"eps": 0.25}}, fam, 16, 0.5)
    assert mix.cover.tolist() == [0, 2, 4, 6, 7]
    ftpl = learner_from_spec({"ftpl": {"n": 4, "alpha": 0.25}}, fam, 16, 0.5)
    assert isinstance(ftpl, FtplLearner) and ftpl.n == 4.0
    auto = learner_from_spec({"ftpl": {}}, fam, 1024, 0.25)
    assert auto.alpha == pytest.approx(1 / 1024)
    assert auto.n == pytest.approx(round(1024 ** 0.8 / math.sqrt(0.25)))


def test_learner_from_spec_errors():
    fam = RegionFamily.threshold_grid(8)
    with pytest.raises(ConfigError):
        learner_from_spec({"nn": {}}, fam, 16, 0.5)
    with pytest.raises(ConfigError):
        learner_from_spec({"uniform": {}, "kt": {}}, fam, 16, 0.5)
    with pytest.raises(ConfigError):
        learner_from_spec({"uniform": 3}, fam, 16, 0.5)
    for t in (1, 2):    # the default alpha = 1/T leaves (0, 1/2)
        with pytest.raises(ConfigError, match=rf"learner\.ftpl\.alpha: the default 1/T .* T = {t}"):
            learner_from_spec({"ftpl": {}}, fam, t, 0.5)
    assert learner_from_spec({"ftpl": {"alpha": 0.1}}, fam, 2, 0.5).alpha == 0.1
    with pytest.raises(ConfigError, match=r"learner\.ftpl\.alpha: 0\.5 outside"):
        learner_from_spec({"ftpl": {"alpha": 0.5}}, fam, 16, 0.5)
    for key, value in (("n", "abc"), ("n", [3]), ("n", True), ("n", 10 ** 400),
                       ("alpha", "x"), ("alpha", {}), ("alpha", False)):
        with pytest.raises(ConfigError, match=rf"learner\.ftpl\.{key}: .* is not a valid float"):
            learner_from_spec({"ftpl": {key: value}}, fam, 16, 0.5)
    for kind, key in (("kt", "beta"), ("vc_mixture", "eps")):
        with pytest.raises(ConfigError,
                           match=rf"^learner\.{kind}\.{key}: True is not a valid float"):
            learner_from_spec({kind: {key: True}}, fam, 16, 0.5)
    with pytest.raises(ConfigError, match=r"learner\.kt\.beta: 'b' is not a valid float"):
        learner_from_spec({"kt": {"beta": "b"}}, fam, 16, 0.5)
    with pytest.raises(ConfigError, match=r"learner\.vc_mixture\.eps: \[\] is not a valid float"):
        learner_from_spec({"vc_mixture": {"eps": []}}, fam, 16, 0.5)
    for kind, key, value in (("kt", "beta", 0), ("kt", "beta", math.nan),
                             ("vc_mixture", "eps", -0.1), ("vc_mixture", "eps", math.inf)):
        with pytest.raises(ConfigError, match=rf"learner\.{kind}\.{key}: .* must be positive"):
            learner_from_spec({kind: {key: value}}, fam, 16, 0.5)
