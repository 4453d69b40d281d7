"""Game-level primitives: log-loss, the interaction loop, regret accounting.

Losses are in nats throughout. A prediction is a plain float q1 in [0, 1], the
probability assigned to label 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfiniteLossError, allocate

CSV_HEADER = "run_id,seed,t,learner_loss,cum_learner_loss,cum_comparator_loss,cum_regret"


def log_loss(q1: float, y: int) -> float:
    """Log-loss -ln q(y) of predicting q1 = q(1) when label y is realized.

    Deterministic predictions (q1 in {0, 1}) are admitted only when correct;
    a contradicted one raises InfiniteLossError rather than returning inf.
    """
    if not 0.0 <= q1 <= 1.0:
        raise ValueError(f"prediction {q1} outside [0, 1]")
    if y not in (0, 1):
        raise ValueError(f"label {y} not in {{0, 1}}")
    p = q1 if y == 1 else 1.0 - q1
    if p == 0.0:
        raise InfiniteLossError(f"deterministic prediction q1={q1} contradicted by y={y}")
    return -math.log(p)


@dataclass
class GameTrace:
    """One trajectory as columns, row t - 1 holding round t: the context, the
    label, the prediction, the learner's loss and the comparator, the offline
    best-in-class loss on the first t examples (zero until the harness fills it)."""

    run_id: str
    seed: int
    xs: np.ndarray
    ys: np.ndarray
    qs: np.ndarray
    losses: np.ndarray
    comparator: np.ndarray

    @property
    def cum_losses(self) -> np.ndarray:
        """The learner's cumulative loss after each round, summed in round order."""
        return np.cumsum(self.losses)


def allocate_columns(T: int) -> list[np.ndarray]:
    """One game's five zeroed T-long columns: xs and ys (int64), then qs,
    losses and comparator (float64). A T whose columns numpy cannot allocate
    raises ConfigError, e.g. `T: 4611686018427387904 rounds are more than
    numpy can allocate`."""
    return [allocate(T, "T", "rounds", lambda: np.zeros(T, dtype))
            for dtype in (np.int64, np.int64, np.float64, np.float64, np.float64)]


def run_game(learner, adversary, T: int, seed: int, run_id: str = "game") -> GameTrace:
    """Play one seeded trajectory of the assignment game.

    Per round: the adversary emits a smooth context distribution (any object
    with `sample(rng) -> int`), a context x is drawn from it, the learner
    predicts q, the adversary picks the label y after seeing the prediction,
    the loss is recorded, and both players observe the round. The adversary
    learns the past only through `observe(x, q, y)`.
    The comparator column is left at zero; the harness fills it offline.

    All randomness (context draws, learner perturbations, label coin flips)
    derives from `seed`, so a repeated call is bit-identical.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    ss = np.random.SeedSequence(seed)
    ctx_ss, learner_ss, adv_ss = ss.spawn(3)
    ctx_rng = np.random.default_rng(ctx_ss)
    learner.reset(np.random.default_rng(learner_ss))
    adversary.reset(np.random.default_rng(adv_ss))

    xs, ys, qs, losses, comparator = allocate_columns(T)
    for t in range(T):
        x = int(adversary.context_distribution().sample(ctx_rng))
        q = float(learner.predict(x))
        y = int(adversary.label(x, q))
        losses[t] = log_loss(q, y)
        learner.update(x, y)
        adversary.observe(x, q, y)
        xs[t], ys[t], qs[t] = x, y, q
    return GameTrace(run_id, seed, xs, ys, qs, losses, comparator)


def format_records_csv(traces: Sequence[GameTrace]) -> str:
    """Render trajectories in the canonical CSV schema, header first, then one
    row per round in trajectory order; losses at 12 significant digits and
    cum_regret = cum_learner_loss - cum_comparator_loss."""
    lines = [CSV_HEADER]
    for tr in traces:
        cum = tr.cum_losses
        head = f"{tr.run_id},{tr.seed},"
        for t, (loss, c, comp, regret) in enumerate(zip(
                tr.losses.tolist(), cum.tolist(), tr.comparator.tolist(),
                (cum - tr.comparator).tolist()), start=1):
            lines.append(f"{head}{t},{loss:.12g},{c:.12g},{comp:.12g},{regret:.12g}")
    return "\n".join(lines) + "\n"
