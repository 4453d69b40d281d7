import math

import numpy as np
import pytest

from smoothpa import Hypothesis, SmoothnessError, UniformLearner, run_game, validate_smooth
from smoothpa.adversary import (AdversaryPolicy, FixedSequenceLabelRule, GreedyLabelRule,
                                RealizableLabelRule, SmoothDistribution, StaticSubsetRule,
                                adversary_from_spec, min_support_size)
from smoothpa.errors import ConfigError
from smoothpa.hypotheses import RegionFamily
from smoothpa.learners import MixtureLearner, epsilon_cover


def test_validate_smooth_uniform_passes():
    for sigma in (1.0, 0.5, 0.01):
        ok, idx = validate_smooth(np.full(8, 1 / 8), sigma)
        assert ok and idx is None


def test_validate_smooth_point_mass_fails_at_atom():
    pmf = np.zeros(4)
    pmf[2] = 1.0
    ok, idx = validate_smooth(pmf, 0.5)
    assert not ok and idx == 2
    with pytest.raises(SmoothnessError):
        SmoothDistribution(pmf, 0.5)


def test_validate_smooth_minimal_support():
    u, sigma = 10, 0.37
    k = min_support_size(sigma, u)
    assert k == math.ceil(sigma * u)
    pmf = np.zeros(u)
    pmf[:k] = 1.0 / k
    ok, _ = validate_smooth(pmf, sigma)
    assert ok
    # however small sigma * U is, a target set holds at least one context
    assert min_support_size(1e-300, 8) == 1
    trace = run_game(UniformLearner(),
                     AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 1e-300, 8), 4, seed=0)
    assert len(trace.xs) == 4


def test_validate_smooth_rejects_bad_vectors():
    assert validate_smooth(np.array([0.5, 0.6]), 1.0)[0] is False        # sum != 1
    assert validate_smooth(np.array([-0.1, 1.1]), 1.0) == (False, 0)     # negative
    # NaN, which rng.choice refused and a cdf search would draw as context 0
    assert validate_smooth(np.array([0.25, 0.25, np.nan, 0.25, 0.25]), 0.5) == (False, 2)
    assert validate_smooth(np.full(4, 0.25), 1.5)[0] is False            # bad sigma


def test_subset_adversary_sigma_one_is_uniform():
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 1.0, 16)
    adv.reset(np.random.default_rng(0))
    dist = adv.context_distribution()
    assert np.allclose(dist.pmf, 1 / 16)


def test_subset_adversary_static_quarter():
    adv = AdversaryPolicy(StaticSubsetRule([1, 5, 9, 13]), GreedyLabelRule(), 0.25, 16)
    adv.reset(np.random.default_rng(0))
    dist = adv.context_distribution()
    assert dist.pmf[1] == 0.25 and dist.pmf[0] == 0.0
    assert validate_smooth(dist.pmf, 0.25)[0]


def test_subset_adversary_rejects_small_set():
    adv = AdversaryPolicy(StaticSubsetRule([0]), GreedyLabelRule(), 0.5, 4)
    with pytest.raises(SmoothnessError):
        adv.reset(np.random.default_rng(0))


def assert_draws_match_choice(dist, pmf, seed, draws):
    """dist's dense pmf is `pmf`, and `draws` samples from a generator seeded
    `seed` land where rng.choice over that pmf does and leave the same state."""
    assert np.array_equal(dist.pmf, pmf)
    direct, dense = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [dist.sample(direct) for _ in range(draws)] == \
        [int(dense.choice(pmf.size, p=pmf)) for _ in range(draws)]
    assert direct.random() == dense.random()


def test_smooth_distribution_sample_matches_choice():
    # every constructor draws through the one sampler, which must consume the
    # generator exactly as rng.choice over the dense pmf does
    rng = np.random.default_rng(1)
    raw = rng.random(20)
    pmf = 0.5 / 20 + 0.5 * raw / raw.sum()
    assert_draws_match_choice(SmoothDistribution(pmf, 0.5), pmf, 7, 500)
    # general pmfs with zero atoms, the first and last positions among them
    rng = np.random.default_rng(2)
    for trial in range(200):
        u = int(rng.integers(2, 40))
        zero = rng.random(u) < 0.4
        zero[0], zero[-1] = trial % 2 == 0, trial % 3 == 0
        zero[1 + trial % (u - 1)] = False
        pmf = np.where(zero, 0.0, rng.random(u))
        pmf /= pmf.sum()
        dist = SmoothDistribution(pmf, min(1.0, 1.0 / (u * pmf.max())))
        assert_draws_match_choice(dist, pmf, int(rng.integers(2 ** 32)), 200)
    for u, sigma in ((1, 1.0), (7, 0.3), (64, 1.0)):
        assert_draws_match_choice(SmoothDistribution.uniform_on(u, range(u), sigma),
                                  np.full(u, 1.0 / u), u, 200)


def test_subset_sample_matches_dense_choice():
    # uniform_on draws straight from the subset, and must still land where
    # rng.choice over the dense pmf does
    rng = np.random.default_rng(0)
    for trial in range(300):
        u = int(rng.integers(1, 300))
        k = int(rng.integers(1, u + 1))
        subset = rng.choice(u, size=k, replace=False)        # unsorted
        if trial % 3 == 0:
            subset = np.sort(subset)
        pmf = np.zeros(u)
        pmf[subset] = 1.0 / k
        dist = SmoothDistribution.uniform_on(u, subset.tolist(), k / u)
        assert_draws_match_choice(dist, pmf, int(rng.integers(2 ** 32)), 100)


@pytest.mark.parametrize("k", [1, 2, 3, 13, 1000])
def test_uniform_cdf_is_the_running_sum_of_equal_masses(k):
    # the one cdf formula, on a pmf holding exactly 1/k at each of k ids
    want = np.cumsum(np.full(k, 1.0 / k))
    want /= want[-1]
    dist = SmoothDistribution.uniform_on(2 * k, np.arange(1, 2 * k, 2), 0.5)
    assert dist.cdf.tobytes() == want.tobytes()


def test_dense_cdf_is_the_normalized_running_sum_on_the_support():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = int(rng.integers(1, 60))
        pmf = np.where(rng.random(u) < 0.3, 0.0, rng.random(u))
        pmf[rng.integers(u)] = 1.0
        pmf /= pmf.sum()
        want = np.cumsum(pmf[np.flatnonzero(pmf)])
        want /= want[-1]
        dist = SmoothDistribution(pmf, min(1.0, 1.0 / (u * pmf.max())))
        assert dist.cdf.tobytes() == want.tobytes()


def test_smooth_distribution_keeps_its_own_read_only_pmf():
    # the caller's array changes after the check, before the first draw
    p = np.full(4, 0.25)
    dist = SmoothDistribution(p, 1.0)
    p[:] = [1.0, 0.0, 0.0, 0.0]
    assert_draws_match_choice(dist, np.full(4, 0.25), 5, 200)
    for d in (dist, SmoothDistribution.uniform_on(4, [0, 1, 2, 3], 1.0)):
        with pytest.raises(ValueError, match="read-only"):
            d.pmf[0] = 1.0


@pytest.mark.parametrize("pmf", [np.full((2, 2), 0.25), np.zeros(0)])
def test_validate_smooth_rejects_a_pmf_that_is_not_a_flat_nonempty_vector(pmf):
    assert validate_smooth(pmf, 1.0) == (False, None)


@pytest.mark.parametrize("subset, bad", [([-1, 0, 1, 2], "-1"), ([0, 1, 2, 8], "8"),
                                         ([3, 1, 3, 5], "3"), ([[0, 1], [2, 3]], "shape"),
                                         ([], "size 0 below minimum 4"),
                                         ([0.0, 1.0, 2.0, 3.0], "integer ids, got float64"),
                                         ([True, True, False, True], "integer ids, got bool")])
def test_subset_uniform_rejects_bad_ids(subset, bad):
    with pytest.raises(SmoothnessError, match=bad):
        SmoothDistribution.uniform_on(8, subset, 0.5)


@pytest.mark.parametrize("size, subset, bad", [
    (4, [-1, 0], -1), (8, [0, 1, 2, 8], 8),
    (8, np.array([2 ** 63, 1, 2, 3], dtype=np.uint64), 2 ** 63)])       # not wrapped to int64
def test_uniform_on_names_an_id_outside_the_universe(size, subset, bad):
    # a dense builder once put the mass of id -1 on context U - 1, and raised
    # IndexError at id U
    with pytest.raises(SmoothnessError, match=rf"context id {bad} outside \[0, {size}\)"):
        SmoothDistribution.uniform_on(size, subset, 0.5)


@pytest.mark.parametrize("sigma", [0.0, -0.5, 1.5, float("nan")])
def test_smooth_distribution_rejects_sigma_outside_the_unit_interval(sigma):
    with pytest.raises(SmoothnessError, match=r"sigma .* outside \(0, 1\]"):
        SmoothDistribution.uniform_on(4, [0, 1, 2, 3], sigma)
    with pytest.raises(SmoothnessError, match=rf"pmf is not {sigma}-smooth \(cap"):
        SmoothDistribution(np.full(4, 0.25), sigma)
    with pytest.raises(ConfigError, match=rf"^adversary\.sigma: {sigma} outside \(0, 1\]$"):
        AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), sigma, 4)


def test_static_rule_with_bad_id_fails_the_run():
    # an id of -1 once indexed the dense pmf from the end and drew context 7
    adv = AdversaryPolicy(StaticSubsetRule([-1, 0, 1, 2]), GreedyLabelRule(), 0.5, 8)
    with pytest.raises(SmoothnessError, match="-1"):
        run_game(UniformLearner(), adv, 4, seed=0)


@pytest.mark.parametrize("ids, message", [
    ([-1, 0, 1, 2], r"adversary\.set\[0\]: context id -1 outside \[0, 8\)"),
    ([0, 1, 8, 2], r"adversary\.set\[2\]: context id 8 outside \[0, 8\)"),
    ([0, 5, 1, 5], r"adversary\.set\[3\]: context id 5 repeated"),
    ([0, 1.5], r"adversary\.set\[1\]: 1\.5 is not a valid int"),
    ("0,1", r"adversary\.set: must be a list"),
    ([0, 1, 2], r"adversary\.set: 3 contexts, fewer than ceil\(sigma \* U\) = 4 at sigma = 0\.5"),
])
def test_adversary_from_spec_rejects_bad_static_set(ids, message):
    spec = {"rule": "static", "set": ids, "label": "greedy"}
    with pytest.raises(ConfigError, match=message):
        adversary_from_spec(spec, RegionFamily.threshold_grid(8), sigma=0.5)


class RecordingPolicy(AdversaryPolicy):
    """Wrapper capturing every emitted distribution (its read-only pmf) for
    invariant checks."""

    def __init__(self, inner):
        super().__init__(inner.context_rule, inner.label_rule, inner.sigma, inner.size)
        self.emitted = []

    def context_distribution(self):
        dist = super().context_distribution()
        self.emitted.append(dist.pmf)
        return dist


def test_adaptive_rule_set_fixed_when_drawn_from_itself():
    # "adaptive" names the default static set: every context is drawn from it
    fam = RegionFamily.threshold_grid(32)
    adv = RecordingPolicy(adversary_from_spec({"rule": "adaptive"}, fam, sigma=0.25))
    trace = run_game(MixtureLearner(fam, epsilon_cover(fam, 0.1)), adv, 500, seed=0)
    first = adv.emitted[0]
    assert all(pmf is first for pmf in adv.emitted)
    assert np.array_equal(np.flatnonzero(first), np.arange(8))
    assert set(trace.xs.tolist()) <= set(range(8))


class HandOverRule:
    """A custom rule handing over whatever `make(size, sigma)` builds, anew
    every round."""

    def __init__(self, make):
        self.make = make

    def reset(self, size, sigma):
        self.size, self.sigma = size, sigma

    def observe(self, x, q, y):
        pass

    def context_distribution(self):
        return self.make(self.size, self.sigma)


def test_custom_rule_with_non_integer_ids_fails_the_run():
    # these ids once played on the contexts {0, 2, 5, 7}, truncated
    rule = HandOverRule(lambda size, sigma: SmoothDistribution.uniform_on(
        size, np.array([0.0, 2.5, 5.9, 7.5]), sigma))
    adv = AdversaryPolicy(rule, GreedyLabelRule(), 0.5, 8)
    with pytest.raises(SmoothnessError, match="^target set must hold integer ids, got float64$"):
        run_game(UniformLearner(), adv, 4, seed=0)
    # the built-in rule hands its subset to uniform_on uncast as well
    adv = AdversaryPolicy(StaticSubsetRule([0.0, 2.5, 5.9, 7.5]), GreedyLabelRule(), 0.5, 8)
    with pytest.raises(SmoothnessError, match="^target set must hold integer ids, got float64$"):
        run_game(UniformLearner(), adv, 4, seed=0)


@pytest.mark.parametrize("make, message", [
    (lambda size, sigma: np.full(size, 1.0 / size), r"^context rule returned a ndarray, not a"),
    (lambda size, sigma: range(size), r"^context rule returned a range, not a SmoothDistribution$"),
    (lambda size, sigma: SmoothDistribution.uniform_on(2 * size, range(size), sigma),
     r"^context rule returned a distribution over 16 contexts at sigma 0\.5, not over 8 at"),
    # uniform on 2 of 8 ids is 0.25-smooth, not 0.5-smooth
    (lambda size, sigma: SmoothDistribution.uniform_on(size, [0, 1], sigma / 2),
     r"over 8 contexts at sigma 0\.25, not over 8 at sigma >= 0\.5$"),
    (lambda size, sigma: SmoothDistribution(np.eye(size)[0], 1.0 / size),
     r"at sigma 0\.125, not over 8 at sigma >= 0\.5$")],
    ids=["pmf_array", "range", "other_size", "smaller_sigma", "point_mass"])
def test_policy_refuses_what_is_not_smooth_at_its_sigma(make, message):
    adv = AdversaryPolicy(HandOverRule(make), GreedyLabelRule(), 0.5, 8)
    with pytest.raises(SmoothnessError, match=message):
        run_game(UniformLearner(), adv, 4, seed=0)


def test_policy_takes_a_distribution_at_a_larger_sigma():
    # a distribution smooth at sigma = 1 is smooth at the policy's 0.5 as well
    adv = AdversaryPolicy(HandOverRule(lambda size, sigma: SmoothDistribution.uniform_on(
        size, range(size), 1.0)), GreedyLabelRule(), 0.5, 8)
    assert set(run_game(UniformLearner(), adv, 40, seed=0).xs.tolist()) > set(range(4))


@pytest.mark.parametrize("dist", [SmoothDistribution.uniform_on(8, [6, 1, 3, 5], 0.5),
                                  SmoothDistribution(np.full(8, 0.125), 1.0)])
def test_distribution_cannot_change_after_its_check(dist):
    for name in ("ids", "cdf", "pmf"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(dist, name)[0] = 7
    assert dist.sample(np.random.default_rng(0)) in dist.ids.tolist()


def test_adaptive_rule_emits_valid_distributions_for_1000_rounds():
    fam = RegionFamily.threshold_grid(16)
    adv = RecordingPolicy(adversary_from_spec({"rule": "adaptive"}, fam, sigma=0.3))
    learner = MixtureLearner(fam, epsilon_cover(fam, 0.1))
    run_game(learner, adv, 1000, seed=[21, 22, 23], run_id=["a", "b", "c"])
    assert len(adv.emitted) == 1000
    for pmf in adv.emitted:
        ok, idx = validate_smooth(pmf, 0.3)
        assert ok, f"violation at {idx}"


def test_sigma_one_contexts_close_to_uniform_tv():
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 1.0, 16)
    trace = run_game(UniformLearner(), adv, 100_000, seed=3)
    counts = np.bincount(trace.xs, minlength=16) / len(trace.xs)
    tv = 0.5 * np.abs(counts - 1 / 16).sum()
    assert tv < 0.02


def test_greedy_label_cases():
    rule = GreedyLabelRule()
    assert rule.label(0, 0.9) == 0
    assert rule.label(0, 0.1) == 1
    assert rule.label(0, 0.5) == 0  # tie resolves to 0; either label loses ln 2


def realizable_rule(family, f_star, seed):
    rule = RealizableLabelRule(f_star, family)
    rule.reset(np.random.default_rng(seed))
    return rule


def test_realizable_label_deterministic_endpoints():
    fam = RegionFamily.explicit(4, [[0, 1]])
    ones = realizable_rule(fam, Hypothesis(0, 1.0, 1.0), 0)
    zeros = realizable_rule(fam, Hypothesis(0, 0.0, 0.0), 0)
    assert all(ones.label(0, 0.5) == 1 for _ in range(50))
    assert all(zeros.label(3, 0.5) == 0 for _ in range(50))


def test_realizable_label_bernoulli_mean():
    fam = RegionFamily.explicit(2, [[0]])
    rule = realizable_rule(fam, Hypothesis(0, 0.3, 0.3), 123)
    draws = np.fromiter((rule.label(0, 0.5) for _ in range(100_000)), dtype=np.int64)
    # binomial concentration: 3 sigma ~ 0.0044, spec tolerance 0.01
    assert abs(draws.mean() - 0.3) < 0.01


def test_adversary_from_spec_variants():
    spec = {"context": "subset_uniform", "rule": "static", "label": "greedy"}
    adv = adversary_from_spec(spec, RegionFamily.threshold_grid(16), 0.1)
    assert adv.sigma == 0.1 and adv.size == 16 and isinstance(adv.label_rule, GreedyLabelRule)

    adv2 = adversary_from_spec({"rule": "adaptive", "label": "realizable",
                                "f_star": {"region_index": 1, "theta0": 0.2, "theta1": 0.8}},
                               RegionFamily.threshold_grid(4), sigma=0.5)
    assert adv2.sigma == 0.5

    adv3 = adversary_from_spec({"label": "fixed_sequence", "labels": [0, 1, 1]},
                               RegionFamily.threshold_grid(2), sigma=1.0)
    adv3.reset(np.random.default_rng(0))
    assert adv3.label(0, 0.5) == 0
    assert adv3.label(0, 0.5) == 1
    adv3.reset(np.random.default_rng(0))    # a new game replays from the start
    assert adv3.label(0, 0.5) == 0


def test_adversary_from_spec_errors():
    fam = RegionFamily.threshold_grid(4)
    with pytest.raises(ConfigError):
        adversary_from_spec({"context": "gaussian"}, fam, sigma=0.5)
    with pytest.raises(TypeError):
        adversary_from_spec({"label": "greedy"}, fam)   # sigma comes only from the caller
    # the spec's own sigma, of any type, is not read
    for value in ("0.5", True, [1], 0.5):
        with pytest.raises(ConfigError, match=r"^adversary\.sigma: unknown key"):
            adversary_from_spec({"label": "greedy", "sigma": value}, fam, sigma=0.5)
    # a sigma outside (0, 1] is named as such, also beside a static set
    with pytest.raises(ConfigError, match=r"^adversary\.sigma: nan outside"):
        adversary_from_spec({"set": [0, 1]}, fam, sigma=float("nan"))
    with pytest.raises(ConfigError):
        adversary_from_spec({"label": "realizable"}, fam, sigma=0.5)
    realizable = {"label": "realizable",
                  "f_star": {"region_index": 4, "theta0": 0.2, "theta1": 0.8}}
    with pytest.raises(ConfigError, match=r"^adversary\.f_star\.region_index: 4 outside"):
        adversary_from_spec(realizable, fam, sigma=0.5)
    with pytest.raises(ConfigError):
        adversary_from_spec({"rule": "chaotic"}, fam, sigma=0.5)
    for labels, message in (([0, 2], r"adversary\.labels\[1\]: 2 is not 0 or 1"),
                            ([True, 0, 1], r"adversary\.labels\[0\]: True is not a valid int"),
                            ([0, False], r"adversary\.labels\[1\]: False is not a valid int")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            FixedSequenceLabelRule(labels)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            adversary_from_spec({"label": "fixed_sequence", "labels": labels}, fam, sigma=0.5)


def test_fixed_sequence_exhaustion():
    rule = FixedSequenceLabelRule([1])
    rule.reset(None)
    assert rule.label(0, 0.5) == 1
    with pytest.raises(ConfigError, match="exhausted after 1 rounds"):
        rule.label(0, 0.5)
