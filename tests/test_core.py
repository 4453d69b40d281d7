import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothpa import AdversaryPolicy, InfiniteLossError, UniformLearner, core, log_loss, run_game
from smoothpa.adversary import (FixedSequenceLabelRule, GreedyLabelRule, StaticSubsetRule,
                                adversary_from_spec)
from smoothpa.core import CSV_HEADER, format_records_csv
from smoothpa.errors import ConfigError
from smoothpa.hypotheses import RegionFamily, offline_best_loss, prefix_best_losses
from smoothpa.learners import KtLearner, learner_from_spec

from oracles import run_game_one_round_at_a_time

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
    make = lambda: AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 0.3, 16)
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
    (lambda: KtLearner(0.0), ConfigError, r"learner\.kt\.beta: 0 must be positive and finite"),
    (lambda: KtLearner(math.nan), ConfigError, r"learner\.kt\.beta: nan must be positive and finite"),
    (lambda: KtLearner(math.inf), ConfigError, r"learner\.kt\.beta: inf must be positive and finite")])
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
    """Predicts from a fixed list of probabilities, the same in every game,
    and logs every call."""

    def __init__(self, log, qs):
        self.log = log
        self.qs = qs

    def reset(self, rngs):
        self.t = 0
        self.log.append(("reset", rngs))

    def predict(self, xs):
        q = self.qs[self.t % len(self.qs)]
        self.log.append(("predict", xs.tolist(), q))
        return q

    def update(self, xs, ys):
        self.t += 1
        self.log.append(("update", xs.tolist(), ys.tolist()))


class RecordingPolicy(AdversaryPolicy):
    """An adversary that logs every call it receives."""

    def __init__(self, log, sigma, labels):
        super().__init__(StaticSubsetRule(), FixedSequenceLabelRule(labels), sigma, 8)
        self.log = log

    def reset(self, rngs):
        self.log.append(("reset", rngs))
        super().reset(rngs)

    def context_distribution(self, *args):
        self.log.append(("context_distribution", *args))
        return super().context_distribution()

    def label(self, xs, qs):
        y = super().label(xs, qs)
        self.log.append(("label", xs.tolist(), qs.tolist(), y))
        return y

    def observe(self, xs, qs, ys):
        self.log.append(("observe", xs.tolist(), qs.tolist(), ys.tolist()))
        super().observe(xs, qs, ys)


def test_run_game_round_protocol():
    log = []
    labels = [1, 0, 0, 1, 1, 0, 1]
    learner = RecordingLearner(log, [0.5, 0.9, 0.2])
    traces = run_game(learner, RecordingPolicy(log, 0.5, labels), len(labels), seed=[3, 4],
                      run_id=["a", "b"])
    assert [(tr.run_id, tr.seed) for tr in traces] == [("a", 3), ("b", 4)]
    # both players are reset once, with one generator per game
    (who, learner_rngs), (what, adversary_rngs), *rounds = log
    assert who == what == "reset" and len(learner_rngs) == len(adversary_rngs) == 2
    assert all(isinstance(r, np.random.Generator) for r in learner_rngs + adversary_rngs)
    assert len(rounds) == 5 * len(labels)
    for t in range(len(labels)):
        xs, qs, ys = ([getattr(tr, c)[t].item() for tr in traces] for c in ("xs", "qs", "ys"))
        q, y = learner.qs[t % 3], labels[t]
        # each round: the distribution with no arguments, then the prediction
        # for every game's context, the labels, and both players' updates
        assert rounds[5 * t: 5 * t + 5] == [
            ("context_distribution",), ("predict", xs, q), ("label", xs, [q, q], y),
            ("update", xs, [y, y]), ("observe", xs, [q, q], [y, y])]
        assert qs == [q, q] and ys == [y, y]
    for tr in traces:
        assert tr.losses.tolist() == [log_loss(q, y) for q, y in zip(tr.qs, tr.ys)]


LOCKSTEP_FAMILIES = {
    "grid": RegionFamily.threshold_grid(16),
    "explicit": RegionFamily.explicit(16, [np.flatnonzero(row).tolist() for row in
                                           np.random.default_rng(8).random((6, 16)) < 0.5]),
}
LOCKSTEP_LABELS = {
    "greedy": {"label": "greedy"},
    "realizable": {"label": "realizable",
                   "f_star": {"region_index": 2, "theta0": 0.3, "theta1": 0.8}},
    "fixed_sequence": {"label": "fixed_sequence", "labels": [1, 0, 0, 1, 1, 1, 0] * 6},
}
LOCKSTEP_LEARNERS = {"uniform": {"uniform": {}}, "kt": {"kt": {"beta": 0.5}},
                     "vc_mixture": {"vc_mixture": {}}, "ftpl": {"ftpl": {"n": 20, "alpha": 0.05}},
                     # counts past 2^53 take the exact integer path of the MLE oracle
                     "ftpl_largest_rate": {"ftpl": {"n": 1e18, "alpha": 0.05}}}


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("T", [1, 40])
@pytest.mark.parametrize("family", sorted(LOCKSTEP_FAMILIES))
@pytest.mark.parametrize("label", sorted(LOCKSTEP_LABELS))
@pytest.mark.parametrize("learner", sorted(LOCKSTEP_LEARNERS))
def test_lockstep_games_equal_games_played_one_round_at_a_time(monkeypatch, learner, label,
                                                                family, T, R):
    fam = LOCKSTEP_FAMILIES[family]

    def build():
        return (learner_from_spec(LOCKSTEP_LEARNERS[learner], fam, T, 0.3),
                adversary_from_spec(LOCKSTEP_LABELS[label], fam, sigma=0.3))
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
    seeds = [11 * r + T for r in range(R)]
    traces = run_game(*build(), T, seeds, run_id=[f"r{r}" for r in range(R)])
    monkeypatch.undo()
    assert len(traces) == len(made) // 3 == R
    for r, (seed, trace) in enumerate(zip(seeds, traces)):
        want, rngs = run_game_one_round_at_a_time(*build(), T, seed, run_id=f"r{r}")
        assert (trace.run_id, trace.seed) == (want.run_id, want.seed)
        for column in ("xs", "ys", "qs", "losses", "comparator"):
            got, ref = getattr(trace, column), getattr(want, column)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), column
        # the game's context, learner and adversary generators end where the
        # reference's do: the blocks of uniforms hold exactly T rounds
        for kind, rng in enumerate(rngs):
            assert made[kind * R + r].bit_generator.state == rng.bit_generator.state, kind


def test_lockstep_games_equal_the_reference_across_blocks_of_rounds():
    # three games draw their uniforms and take their losses 10,922 rounds at a time
    fam = LOCKSTEP_FAMILIES["grid"]
    T, seeds = 2 * (core._BLOCK_BYTES // 24) + 5, [3, 4, 5]

    def build():
        return KtLearner(0.5), adversary_from_spec(LOCKSTEP_LABELS["realizable"], fam, sigma=0.3)
    traces = run_game(*build(), T, seeds, run_id=["a", "b", "c"])
    for seed, trace in zip(seeds, traces):
        want, _ = run_game_one_round_at_a_time(*build(), T, seed)
        for column in ("xs", "ys", "qs", "losses"):
            assert getattr(trace, column).tobytes() == getattr(want, column).tobytes(), column


def test_run_game_needs_one_run_id_per_seed():
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 0.5, 8)
    for seeds, run_ids in (([1, 2], ["a"]), ([], [])):
        with pytest.raises(ValueError, match="need one of each per game, and at least one game"):
            run_game(UniformLearner(), adv, 4, seeds, run_id=run_ids)
    # a string is one run id, not one per character
    for seeds in ([1, 2, 3, 4], [1]):
        with pytest.raises(ValueError, match="the one run id 'game': need a list of run ids"):
            run_game(UniformLearner(), adv, 4, seeds, run_id="game")
