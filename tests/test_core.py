import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothpa import AdversaryPolicy, InfiniteLossError, UniformLearner, log_loss, run_game
from smoothpa.adversary import (AdaptiveExtremenessRule, FixedSequenceLabelRule,
                                GreedyLabelRule, StaticSubsetRule)
from smoothpa.core import CSV_HEADER, format_records_csv
from smoothpa.errors import ConfigError
from smoothpa.hypotheses import RegionFamily, offline_best_loss, prefix_best_losses
from smoothpa.learners import KtLearner

LN2 = math.log(2.0)


class ConstLearner:
    """Test helper: always predicts the same probability."""

    def __init__(self, q):
        self.q = q

    def reset(self, rng):
        pass

    def predict(self, x):
        return self.q

    def update(self, x, y):
        pass


def test_log_loss_uniform_prediction():
    assert log_loss(0.5, 1) == pytest.approx(LN2, abs=1e-15)
    assert log_loss(0.5, 0) == pytest.approx(LN2, abs=1e-15)


def test_log_loss_certain_correct():
    assert log_loss(1.0, 1) == 0.0
    assert log_loss(0.0, 0) == 0.0


def test_log_loss_derived_value():
    # independent calculator: -ln(1 - 0.25)
    assert log_loss(0.25, 0) == pytest.approx(0.2876820724517809, abs=1e-14)


def test_log_loss_infinite_signal():
    with pytest.raises(InfiniteLossError):
        log_loss(1.0, 0)
    with pytest.raises(InfiniteLossError):
        log_loss(0.0, 1)


def test_log_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        log_loss(1.5, 1)
    with pytest.raises(ValueError):
        log_loss(-0.1, 0)
    with pytest.raises(ValueError):
        log_loss(0.5, 2)


@given(st.floats(1e-9, 1 - 1e-9), st.integers(0, 1))
def test_log_loss_nonnegative_and_positive_when_interior(q, y):
    assert log_loss(q, y) > 0.0


def csv_rows(text):
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in text.splitlines()[1:]]


def test_play_game_uniform_learner_all_ln2():
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 0.5, 8)
    trace = run_game(UniformLearner(), adv, 10, seed=7)
    assert len(trace.losses) == len(trace.xs) == len(trace.comparator) == 10
    assert np.all(trace.losses == LN2)
    assert np.all(trace.qs == 0.5)
    assert np.all(trace.comparator == 0.0)
    assert trace.cum_losses[-1] == pytest.approx(10 * LN2)


def test_play_game_seeded_determinism():
    make = lambda: AdversaryPolicy(AdaptiveExtremenessRule(), GreedyLabelRule(), 0.3, 16)
    a = run_game(UniformLearner(), make(), 50, seed=123)
    b = run_game(UniformLearner(), make(), 50, seed=123)
    columns = ("xs", "ys", "qs", "losses", "comparator")
    assert a.seed == b.seed == 123
    assert all(np.array_equal(getattr(a, c), getattr(b, c)) for c in columns)
    c = run_game(UniformLearner(), make(), 50, seed=124)
    assert not np.array_equal(c.xs, a.xs)


@pytest.mark.parametrize("build, error, message", [
    (lambda: run_game(UniformLearner(),
                      AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 0.5, 8), 0, seed=0),
     ValueError, "horizon T must be >= 1"),
    (lambda: RegionFamily(0), ValueError, "family size must be >= 1"),
    (lambda: KtLearner(0.0), ConfigError, "kt.beta: 0.0 must be positive")])
def test_degenerate_sizes_are_refused(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_play_game_greedy_flips_confident_prediction():
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 1.0, 4)
    trace = run_game(ConstLearner(0.9), adv, 1, seed=0)
    # greedy picks the lower-probability label 0, loss -ln(0.1)
    assert trace.ys[0] == 0
    assert trace.losses[0] == pytest.approx(2.3025850929940455, abs=1e-12)


def test_regret_against_arithmetic():
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 1.0, 2)
    trace = run_game(UniformLearner(), adv, 10, seed=1)
    total = trace.cum_losses[-1]
    trace.comparator = np.full(10, 7.5)
    last = csv_rows(format_records_csv([trace]))[-1]
    assert float(last["cum_regret"]) == pytest.approx(total - 7.5)
    trace.comparator = trace.cum_losses
    assert {float(r["cum_regret"]) for r in csv_rows(format_records_csv([trace]))} == {0.0}


def test_regret_bookkeeping_identity():
    fam = RegionFamily.threshold_grid(8)
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 0.5, 8)
    trace = run_game(ConstLearner(0.3), adv, 25, seed=5)
    # the cumulative column is the running sum in round order, bit for bit
    assert trace.cum_losses.tolist() == list(itertools.accumulate(trace.losses.tolist()))
    trace.comparator = prefix_best_losses(trace.xs, trace.ys, fam)
    rows = csv_rows(format_records_csv([trace]))
    assert [float(r["learner_loss"]) for r in rows] == [float(f"{v:.12g}") for v in trace.losses]
    for r, cum, comp in zip(rows, trace.cum_losses, trace.comparator):
        assert r["cum_learner_loss"] == f"{cum:.12g}"
        assert r["cum_comparator_loss"] == f"{comp:.12g}"
        assert r["cum_regret"] == f"{cum - comp:.12g}"
    assert trace.cum_losses[-1] >= trace.comparator[-1] - 1e-12


def test_regret_small_threshold_instance_vs_bruteforce_comparator():
    fam = RegionFamily.threshold_grid(6)
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 0.5, 6)
    trace = run_game(ConstLearner(0.7), adv, 3, seed=11)
    # brute force over thresholds x a theta-grid of step 1e-4, both sides
    grid = np.linspace(0.0, 1.0, 10001)
    best = np.inf
    for a in range(6):
        inside = trace.xs <= a
        n0, k0 = inside.sum(), trace.ys[inside].sum()
        n1, k1 = (~inside).sum(), trace.ys[~inside].sum()

        def side_min(n, k):
            with np.errstate(divide="ignore", invalid="ignore"):
                ll = -(np.where(k > 0, k * np.log(grid), 0.0)
                       + np.where(n - k > 0, (n - k) * np.log(1 - grid), 0.0))
            return np.nanmin(ll)

        best = min(best, side_min(n0, k0) + side_min(n1, k1))
    oracle_regret = trace.cum_losses[-1] - best
    assert trace.cum_losses[-1] - offline_best_loss(trace.xs, trace.ys, fam) == pytest.approx(
        oracle_regret, abs=2e-3)


def test_csv_schema_and_significant_digits():
    make = lambda run_id, seed: run_game(
        UniformLearner(), AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 1.0, 2),
        3, seed=seed, run_id=run_id)
    text = format_records_csv([make("r1", 9), make("r2", 10)])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "run_id,seed,t,learner_loss,cum_learner_loss,cum_comparator_loss,cum_regret"
    first = lines[1].split(",")
    assert first[0] == "r1" and first[1] == "9" and first[2] == "1"
    assert first[3] == f"{LN2:.12g}"
    assert len(lines) == 7  # one header, then each trajectory's rows in order
    assert [line.split(",")[:3] for line in lines[3:5]] == [["r1", "9", "3"], ["r2", "10", "1"]]


class RecordingLearner:
    """Predicts from a fixed list of probabilities and logs every call."""

    def __init__(self, log, qs):
        self.log = log
        self.qs = qs

    def reset(self, rng):
        self.t = 0

    def predict(self, x):
        q = self.qs[self.t % len(self.qs)]
        self.log.append(("predict", x, q))
        return q

    def update(self, x, y):
        self.t += 1
        self.log.append(("update", x, y))


class RecordingPolicy(AdversaryPolicy):
    """An adversary that logs every call it and its distributions receive."""

    def __init__(self, log, sigma, labels):
        super().__init__(AdaptiveExtremenessRule(), FixedSequenceLabelRule(labels), sigma, 8)
        self.log = log

    def context_distribution(self, *args):
        self.log.append(("context_distribution", *args))
        dist = super().context_distribution()
        log = self.log

        class Logged:
            def sample(self, rng):
                x = dist.sample(rng)
                log.append(("sample", rng, x))
                return x
        return Logged()

    def label(self, *args):
        y = super().label(*args)
        self.log.append(("label", *args, y))
        return y

    def observe(self, *args):
        self.log.append(("observe", *args))
        super().observe(*args)


def test_run_game_round_protocol():
    log = []
    labels = [1, 0, 0, 1, 1, 0, 1]
    learner = RecordingLearner(log, [0.5, 0.9, 0.2])
    trace = run_game(learner, RecordingPolicy(log, 0.5, labels), len(labels), seed=3)
    assert len(log) == 6 * len(labels)
    rng = log[1][1]
    assert isinstance(rng, np.random.Generator)
    for t, (x, y, q) in enumerate(zip(trace.xs.tolist(), trace.ys.tolist(),
                                      trace.qs.tolist())):
        # each round: the distribution with no arguments, one draw from it on
        # the game's context generator, then the prediction, the label, and
        # both players' updates
        assert log[6 * t: 6 * t + 6] == [
            ("context_distribution",), ("sample", rng, x), ("predict", x, q),
            ("label", x, q, y), ("update", x, y), ("observe", x, q, y)]
        assert y == labels[t] and q == learner.qs[t % 3]
    assert trace.losses.tolist() == [log_loss(q, y) for q, y in zip(trace.qs, trace.ys)]
