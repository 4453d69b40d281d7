import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from smoothpa import Hypothesis, SmoothnessError, UniformLearner, run_game, validate_smooth
from smoothpa.adversary import (AdversaryPolicy, FixedSequenceLabelRule, GreedyLabelRule,
                                LockstepPolicy, RealizableLabelRule, SmoothDistribution,
                                StaticSubsetRule, adversary_from_spec, min_support_size,
                                smooth_cap)
from smoothpa.errors import ConfigError
from smoothpa.hypotheses import RegionFamily
from smoothpa.learners import MixtureLearner, epsilon_cover

from oracles import sample


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
    assert [sample(dist, direct) for _ in range(draws)] == \
        [int(dense.choice(pmf.size, p=pmf)) for _ in range(draws)]
    assert direct.random() == dense.random()


def test_smooth_distribution_sample_matches_choice():
    # a draw is run_game's cdf lookup, which `sample` repeats; it must consume
    # the generator exactly as rng.choice over the dense pmf does
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
                                         ([0.0, 1.0, 2.0, 3.0],
                                          "context id of type float64 is not an integer"),
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
    ([0, 5, 1, 5], r"adversary\.set: target set repeats context id 5"),
    ([0, 1.5], r"adversary\.set\[1\]: 1\.5 is not a valid int"),
    ("0,1", r"adversary\.set: must be a list"),
    ([0, 1, 2], r"adversary\.set: target set of size 3 below minimum 4 for sigma=0\.5"),
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
    with pytest.raises(SmoothnessError, match="^context id of type float64 is not an integer$"):
        run_game(UniformLearner(), adv, 4, seed=0)
    # the built-in rule hands its subset to uniform_on uncast as well
    adv = AdversaryPolicy(StaticSubsetRule([0.0, 2.5, 5.9, 7.5]), GreedyLabelRule(), 0.5, 8)
    with pytest.raises(SmoothnessError, match="^context id of type float64 is not an integer$"):
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


def test_lockstep_policy_certifies_each_cell_at_its_own_sigma():
    # uniform on 4 of 8 ids is 0.5-smooth: the sigma = 0.5 cell takes it, and
    # the sigma = 1.0 cell beside it in the same call refuses it
    half = SmoothDistribution.uniform_on(8, range(4), 0.5)
    cells = [AdversaryPolicy(HandOverRule(lambda size, sigma: half), GreedyLabelRule(), sigma, 8)
             for sigma in (0.5, 1.0)]
    assert len(run_game(UniformLearner(), cells[0], 6, [1, 2], run_id=["a", "b"])) == 2
    with pytest.raises(SmoothnessError, match=r"^context rule returned a distribution over 8 "
                                              r"contexts at sigma 0\.5, not over 8 at sigma >= "
                                              r"1\.0$"):
        run_game(UniformLearner(), LockstepPolicy(cells), 6, [1, 2, 3, 4],
                 run_id=list("abcd"))


class ObservingRule(StaticSubsetRule):
    """The built-in rule on its default set, logging every round it observes."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def observe(self, xs, qs, ys):
        self.seen.append((xs.tolist(), qs.tolist(), ys.tolist()))


def test_lockstep_policy_shows_each_cell_only_its_own_games():
    fam = RegionFamily.threshold_grid(16)
    sigmas, rules = (0.25, 0.5), [ObservingRule(), ObservingRule()]
    cells = [AdversaryPolicy(rule, GreedyLabelRule(), sigma, 16)
             for rule, sigma in zip(rules, sigmas)]
    traces = run_game(MixtureLearner(fam, epsilon_cover(fam, 0.1)),
                      LockstepPolicy(cells), 30, [5, 6, 7, 8], run_id=list("abcd"))
    for k, (rule, sigma) in enumerate(zip(rules, sigmas)):
        games = traces[2 * k: 2 * k + 2]
        assert rule.seen == [tuple([getattr(tr, c)[t].item() for tr in games]
                                   for c in ("xs", "qs", "ys")) for t in range(30)]
        # each cell's games draw from its own set, the first 4 or 8 ids
        drawn = {x for tr in games for x in tr.xs.tolist()}
        assert drawn == set(range(min_support_size(sigma, 16)))


def test_lockstep_policy_needs_as_many_games_in_each_cell():
    cells = [AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), sigma, 8)
             for sigma in (0.5, 1.0)]
    for seeds, run_id in (([1, 2, 3], ["a", "b", "c"]), (1, "a")):
        games = np.size(seeds)
        with pytest.raises(ValueError, match=f"^{games} games do not split evenly among 2 cells$"):
            run_game(UniformLearner(), LockstepPolicy(cells), 4, seeds, run_id=run_id)


@pytest.mark.parametrize("dist", [SmoothDistribution.uniform_on(8, [6, 1, 3, 5], 0.5),
                                  SmoothDistribution(np.full(8, 0.125), 1.0)])
def test_distribution_cannot_change_after_its_check(dist):
    for name in ("ids", "cdf", "pmf"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(dist, name)[0] = 7
    assert sample(dist, np.random.default_rng(0)) in dist.ids.tolist()


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


# The certificate's boundary. TOL is MASS_TOL and SUM_TOL as README states
# them, written out so that a looser constant in the library fails here.
TOL = 1e-12
# (sigma, U) with sigma*U integral, fractional on either side of 1/2, and a
# hair above an integer (0.1 * 30 = 3.0000000000000004)
BOUNDARY = [(0.37, 10), (0.83, 10), (0.5, 8), (0.1, 30), (1.0, 64), (0.3, 1000),
            (1000.5 / 2 ** 20, 2 ** 20), (1.0, 2 ** 20)]


def with_atoms(u, atom, at):
    """A pmf over u contexts with `atom` at each index in `at` and the rest of
    the mass spread evenly, which stays below 1/(sigma*U) while sigma <= 1."""
    pmf = np.full(u, (1.0 - atom * len(at)) / (u - len(at)))
    pmf[at] = atom
    return pmf


@pytest.mark.parametrize("sigma, u", BOUNDARY)
def test_validate_smooth_cap_is_exact_at_its_boundary(sigma, u):
    s, at = sigma * u, [u // 3, 2 * u // 3]
    assert validate_smooth(with_atoms(u, 1.0 / s, at), sigma) == (True, None)
    # over the cap by twice the slack, at two indices: the first is reported
    assert validate_smooth(with_atoms(u, (1 + 3 * TOL) / s, at), sigma) == (False, at[0])
    for off in (-2 * TOL, 2 * TOL):
        assert validate_smooth(np.full(u, (1 + off) / u), sigma) == (False, None)


@pytest.mark.parametrize("sigma, u", BOUNDARY)
def test_policy_takes_its_own_sigma_and_refuses_the_next_float_below(sigma, u):
    for at, taken in ((sigma, True), (np.nextafter(sigma, 0.0), False)):
        dist = SmoothDistribution.uniform_on(u, np.arange(min_support_size(at, u)), at)
        adv = AdversaryPolicy(HandOverRule(lambda size, s: dist), GreedyLabelRule(), sigma, u)
        adv.reset(np.random.default_rng(0))
        if taken:
            assert adv.context_distribution() is dist
        else:
            with pytest.raises(SmoothnessError, match=rf"not over {u} at sigma >= {sigma}$"):
                adv.context_distribution()


@pytest.mark.parametrize("sigma, u", BOUNDARY)
def test_certified_acceptance_probability_is_within_the_slack(sigma, u):
    # rejection_couple_batch accepts x with probability sigma*U*D(x), clipped
    # at 1: for the heaviest atoms the certificate takes, that is at most
    # 1 + MASS_TOL up to one rounding, so the clip removes no more than that
    heaviest = with_atoms(u, smooth_cap(sigma, u), [u // 2])
    for dist in (SmoothDistribution(heaviest, sigma),
                 SmoothDistribution.uniform_on(u, np.arange(min_support_size(sigma, u)), sigma)):
        assert (dist.sigma * len(dist.pmf) * dist.pmf).max() <= np.nextafter(1 + TOL, 2.0)


def test_uniform_on_takes_the_set_validate_smooth_takes():
    # the two checks once disagreed: validate_smooth took the uniform pmf on
    # 1000 ids and uniform_on refused them, "below minimum 1001"
    u, sigma = 2 ** 20, (1000 + 5e-10) / 2 ** 20
    pmf = np.zeros(u)
    pmf[:1000] = 1 / 1000
    assert validate_smooth(pmf, sigma) == (True, None)
    assert SmoothDistribution.uniform_on(u, np.arange(1000), sigma).ids.size == 1000
    assert min_support_size(sigma, u) == 1000


def test_cap_slack_is_relative_at_a_wide_universe():
    # an absolute slack of 1e-12 is 4.2e-6 of the cap 1/U at U = 2^22: an atom
    # 2e-6 above it once passed, and the coupling clipped its sigma*U*D(x)
    # of 1 + 2e-6 down to 1
    u = 2 ** 22
    pmf = np.full(u, 1.0 / u)
    pmf[[5, u - 1]] *= [1 + 2e-6, 1 - 2e-6]
    assert validate_smooth(pmf, 1.0) == (False, 5)


@st.composite
def sigma_and_size(draw):
    """(sigma, U) with sigma*U drawn with a fractional part in (0, 1/2) or in
    [1/2, 1), integral, up to 2e-12 relative above an integer (either side of
    the slack), or a few floats from the slack's edge n(1 + 1e-12)."""
    u = draw(st.integers(1, 4096))
    n = draw(st.integers(1, u))
    kind = draw(st.sampled_from(["low", "high", "integral", "hair", "edge"]))
    if kind == "low":
        s = n - 1 + draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    elif kind == "high":
        s = n - 1 + draw(st.floats(0.5, 1.0, exclude_max=True))
    elif kind == "integral":
        s = float(n)
    elif kind == "hair":
        s = n * (1 + draw(st.floats(0.0, 2 * TOL, exclude_min=True)))
    else:
        s = n * (1 + TOL)
        for _ in range(draw(st.integers(0, 8))):
            s = math.nextafter(s, draw(st.sampled_from([0.0, math.inf])))
    assume(s / u > 0.0)        # a fractional part of 5e-324 over U underflows
    return min(s / u, 1.0), u


@settings(deadline=None)
@given(sigma_and_size())
@example(((1000 + 5e-10) / 2 ** 20, 2 ** 20))   # the two checks' old disagreement
@example((1000.5 / 2 ** 20, 2 ** 20))
@example((0.1, 30))
@example((0.83, 10))
@example((0.8359375000008361, 128))             # the float closed form reads 108, not 107
@example((0.6926350245506109, 3055))            # and 2116, not 2117
def test_uniform_on_takes_exactly_what_validate_smooth_takes(case):
    sigma, u = case
    k = min_support_size(sigma, u)
    assert 1 <= k <= u
    for size in {max(k - 1, 1), k, min(k + 1, u)}:
        pmf = np.zeros(u)
        pmf[:size] = 1.0 / size
        try:
            SmoothDistribution.uniform_on(u, np.arange(size), sigma)
            taken = True
        except SmoothnessError:
            taken = False
        assert taken == validate_smooth(pmf, sigma)[0] == (size >= k)
