import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothpa import (AdversaryPolicy, InfiniteLossError, UniformLearner, core, learners,
                      log_loss, run_game)
from smoothpa.adversary import (FixedSequenceLabelRule, GreedyLabelRule, LockstepPolicy,
                                StaticSubsetRule, adversary_from_spec)
from smoothpa.core import CSV_HEADER, format_records_csv
from smoothpa.errors import ConfigError
from smoothpa.hypotheses import RegionFamily, offline_best_loss, prefix_best_losses
from smoothpa.learners import FtplLearner, KtLearner, learner_from_spec

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


def test_csv_rows_equal_each_value_formatted_on_its_own():
    # one %-template per trajectory: a % in the run id, -0, tiny and infinite
    # values come out as formatting each value with an f-string gives them
    losses = np.array([0.5, -0.0, 1e-300, 2.0 / 3.0, 7.0, np.inf])
    comparator = np.array([-0.0, 0.25, 1e-310, 1.0 / 3.0, 1e16, 2.5])
    zeros = np.zeros(6, dtype=np.int64)
    traces = [core.GameTrace(run_id, seed, zeros, zeros, np.zeros(6), losses, comparator)
              for run_id, seed in (("c%03dr%%d 100%", 2 ** 62), ("%s%(x)d%", -3), ("plain", 0))]
    want = [CSV_HEADER]
    for tr in traces:
        cum = tr.cum_losses
        want += [f"{tr.run_id},{tr.seed},{t},{loss:.12g},{c:.12g},{comp:.12g},{c - comp:.12g}"
                 for t, (loss, c, comp) in enumerate(zip(losses, cum, comparator), start=1)]
    text = format_records_csv(traces)
    assert text == "\n".join(want) + "\n"
    assert "c%03dr%%d 100%,4611686018427387904,6,inf,inf,2.5,inf" in text
    assert ",2,-0," in text


class RecordingLearner:
    """Predicts from a fixed list of probabilities, the same in every game,
    logs every call, and keeps whether each call's contexts were writeable."""

    def __init__(self, log, qs):
        self.log = log
        self.qs = qs

    def reset(self, rngs):
        self.t = 0
        self.writeable = []
        self.log.append(("reset", rngs))

    def predict(self, xs):
        q = self.qs[self.t % len(self.qs)]
        self.log.append(("predict", xs.tolist(), q))
        self.writeable.append(xs.flags.writeable)
        return q

    def update(self, xs, ys):
        self.t += 1
        self.log.append(("update", xs.tolist(), ys.tolist()))
        self.writeable.append(xs.flags.writeable)


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
    # the learner gets read-only contexts: nobody can refill them in place
    assert learner.writeable == [False] * (2 * len(labels))
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


# Each game's horizon: T rounds for each of R games, or per-game horizons
LOCKSTEP_HORIZONS = [pytest.param((T,) * R, id=f"{T}-{R}") for T in (1, 40) for R in (1, 3)] + [
    pytest.param((9, 9, 5, 5, 1), id="9-9-5-5-1")]


@pytest.mark.parametrize("horizons", LOCKSTEP_HORIZONS)
@pytest.mark.parametrize("family", sorted(LOCKSTEP_FAMILIES))
@pytest.mark.parametrize("label", sorted(LOCKSTEP_LABELS))
@pytest.mark.parametrize("learner", sorted(LOCKSTEP_LEARNERS))
def test_lockstep_games_equal_games_played_one_round_at_a_time(monkeypatch, learner, label,
                                                                family, horizons):
    fam, R, T = LOCKSTEP_FAMILIES[family], len(horizons), horizons[0]

    def build():
        return (learner_from_spec(LOCKSTEP_LEARNERS[learner], fam, T, 0.3),
                adversary_from_spec(LOCKSTEP_LABELS[label], fam, sigma=0.3))
    # blocks of a few rounds, so that new blocks start inside the games and
    # inside the segments of per-game horizons, and segments start inside
    # blocks: the context uniforms' (1 to 6 rounds here), FTPL's
    # hallucinations' (3 rounds on the grid, 1 on the explicit family) and
    # the realizable labels' uniforms' (3 rounds)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 48)
    monkeypatch.setattr(learners, "_BLOCK_BYTES", 3 * 8 * (2 * 16 + 12 * 16))
    monkeypatch.setattr("smoothpa.adversary._LABEL_ROWS", 3)
    made = []
    real = np.random.default_rng
    seeds = [11 * r + T for r in range(R)]
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
        traces = run_game(*build(), list(horizons), seeds, run_id=[f"r{r}" for r in range(R)])
    assert len(traces) == len(made) // 3 == R
    for r, (seed, horizon, trace) in enumerate(zip(seeds, horizons, traces)):
        want, rngs = run_game_one_round_at_a_time(*build(), horizon, seed, run_id=f"r{r}")
        assert (trace.run_id, trace.seed) == (want.run_id, want.seed)
        for column in ("xs", "ys", "qs", "losses", "comparator"):
            got, ref = getattr(trace, column), getattr(want, column)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), column
        # the game's context, learner and adversary generators end where the
        # reference's do: its blocks of draws hold exactly its rounds
        for kind, rng in enumerate(rngs):
            assert made[kind * R + r].bit_generator.state == rng.bit_generator.state, kind


@pytest.mark.parametrize("label", sorted(LOCKSTEP_LABELS))
@pytest.mark.parametrize("learner", ["kt", "vc_mixture", "ftpl"])
def test_games_of_several_cells_equal_games_played_one_round_at_a_time(learner, label):
    # two cells at sigma 0.3 and 0.6, two games each, in one call: every
    # game is its own cell's game alone, drawn from its own cell's set, all
    # games to T = 40, or to their own horizons, the second cell's games
    # ending together or one of them first
    fam, T, sigmas = LOCKSTEP_FAMILIES["explicit"], 40, (0.3, 0.6)

    def build(sigma):
        return (learner_from_spec(LOCKSTEP_LEARNERS[learner], fam, T, sigma),
                adversary_from_spec(LOCKSTEP_LABELS[label], fam, sigma=sigma))
    seeds = [7, 8, 9, 10]
    for horizons in (T, [T, T, 25, 25], [T, T, T, 9]):
        adversary = LockstepPolicy([build(sigma)[1] for sigma in sigmas])
        traces = run_game(build(sigmas[0])[0], adversary, horizons, seeds, run_id=list("abcd"))
        for r, (seed, trace) in enumerate(zip(seeds, traces)):
            horizon = horizons if horizons == T else horizons[r]
            want, _ = run_game_one_round_at_a_time(*build(sigmas[r // 2]), horizon, seed)
            for column in ("xs", "ys", "qs", "losses"):
                assert getattr(trace, column).tobytes() == getattr(want, column).tobytes(), \
                    (horizons, column)


def test_run_game_reads_one_horizon_per_game_in_non_increasing_order():
    adv = AdversaryPolicy(StaticSubsetRule(), GreedyLabelRule(), 0.5, 8)
    traces = run_game(UniformLearner(), adv, [5, 3, 3], [1, 2, 3], run_id=list("abc"))
    assert [len(tr.losses) for tr in traces] == [5, 3, 3]
    for T, message in (([3, 5], r"^horizons \[3, 5\] are not in non-increasing order$"),
                       ([5, 0], "^horizon T must be >= 1$"),
                       ([5], r"^1 horizons and 2 seeds: need one horizon for all games or "
                             r"one per game$")):
        with pytest.raises(ValueError, match=message):
            run_game(UniformLearner(), adv, T, [1, 2], run_id=["a", "b"])


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


@pytest.mark.parametrize("n", [500.0, float((1 << 20) - 500)])
@pytest.mark.parametrize("family", sorted(LOCKSTEP_FAMILIES))
def test_lockstep_ftpl_games_equal_games_alone_across_blocks(monkeypatch, family, n):
    # Three FTPL games cross at least three blocks of hallucinations, each
    # row's count bound the most of the three games'. At n = 500 the bound
    # passes a doubling of the j ln j table within the game; at 2^20 - 500 it
    # passes the table's cap, while an explicit family's counts may stay below.
    fam = LOCKSTEP_FAMILIES[family]
    T, seeds = 1000, [3, 4, 5]

    def build():
        return (FtplLearner(fam, n, 0.05),
                adversary_from_spec(LOCKSTEP_LABELS["greedy"], fam, sigma=0.3))
    tops = []
    real = learners.leader_frequency

    def spy(counts, family, xs, top):
        assert top >= counts.max()
        tops.append(top)
        return real(counts, family, xs, top)

    monkeypatch.setattr(learners, "leader_frequency", spy)
    learner, adversary = build()
    traces = run_game(learner, adversary, T, seeds, run_id=["a", "b", "c"])
    monkeypatch.undo()
    assert T > 3 * learner._rows
    limit = 1024 if n == 500.0 else 1 << 20
    assert min(tops) < limit <= max(tops)
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
