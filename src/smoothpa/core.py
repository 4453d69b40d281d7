"""Game-level primitives: context universe, log-loss, interaction loop, regret accounting.

Losses are in nats throughout. A prediction is a plain float q1 in [0, 1], the
probability assigned to label 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InfiniteLossError

CSV_HEADER = "run_id,seed,t,learner_loss,cum_learner_loss,cum_comparator_loss,cum_regret"


@dataclass(frozen=True)
class ContextUniverse:
    """Finite context space {0, ..., size-1} carrying the uniform base measure."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("universe size must be >= 1")

    @property
    def base_pmf(self) -> np.ndarray:
        return np.full(self.size, 1.0 / self.size)


class Example(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class RegretRecord:
    """One round of bookkeeping. Cumulative fields are prefix sums of per-round values."""

    run_id: str
    seed: int
    t: int
    learner_loss: float
    cum_learner_loss: float
    cum_comparator_loss: float
    cum_regret: float
    learner: str = ""
    adversary: str = ""


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


class GameHistory:
    """Append-only record of one trajectory: contexts, learner predictions, labels.

    Adversary rules receive this object; index t counts completed rounds.
    """

    def __init__(self, capacity: int):
        self.t = 0
        self._xs = np.empty(capacity, dtype=np.int64)
        self._qs = np.empty(capacity, dtype=np.float64)
        self._ys = np.empty(capacity, dtype=np.int64)

    def append(self, x: int, q: float, y: int) -> None:
        self._xs[self.t] = x
        self._qs[self.t] = q
        self._ys[self.t] = y
        self.t += 1

    @property
    def xs(self) -> np.ndarray:
        return self._xs[: self.t]

    @property
    def qs(self) -> np.ndarray:
        return self._qs[: self.t]

    @property
    def ys(self) -> np.ndarray:
        return self._ys[: self.t]

    def __len__(self) -> int:
        return self.t


@dataclass
class GameTrace:
    """Full outcome of one trajectory: per-round records plus the realized sequence."""

    records: list[RegretRecord]
    xs: np.ndarray
    ys: np.ndarray
    qs: np.ndarray


def run_game(learner, adversary, universe: ContextUniverse, T: int, seed: int,
             run_id: str = "game") -> GameTrace:
    """Play one seeded trajectory of the assignment game.

    Per round: the adversary emits a smooth context distribution (any object
    with `sample(rng) -> int`) given the history, a context is drawn from it,
    the learner predicts, the adversary picks the label after seeing the
    prediction, and the loss is recorded.
    Comparator columns are left at zero; the harness fills them offline.

    All randomness (context draws, learner perturbations, label coin flips)
    derives from `seed`, so a repeated call is bit-identical.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    ss = np.random.SeedSequence(seed)
    ctx_ss, learner_ss, adv_ss = ss.spawn(3)
    ctx_rng = np.random.default_rng(ctx_ss)
    learner.reset(universe, np.random.default_rng(learner_ss))
    adversary.reset(universe, np.random.default_rng(adv_ss))

    history = GameHistory(T)
    records: list[RegretRecord] = []
    cum = 0.0
    for t in range(1, T + 1):
        dist = adversary.context_distribution(history)
        x = int(dist.sample(ctx_rng))
        q = float(learner.predict(x))
        y = int(adversary.label(history, x, q))
        loss = log_loss(q, y)
        learner.update(x, y)
        adversary.observe(x, q, y)
        history.append(x, q, y)
        cum += loss
        records.append(RegretRecord(
            run_id=run_id, seed=seed, t=t,
            learner_loss=loss, cum_learner_loss=cum,
            cum_comparator_loss=0.0, cum_regret=cum,
            learner=getattr(learner, "name", ""), adversary=getattr(adversary, "name", ""),
        ))
    return GameTrace(records, history.xs.copy(), history.ys.copy(), history.qs.copy())


def play_game(learner, adversary, universe: ContextUniverse, T: int, seed: int,
              run_id: str = "game") -> list[RegretRecord]:
    """Convenience wrapper around run_game returning only the per-round records."""
    return run_game(learner, adversary, universe, T, seed, run_id=run_id).records


def regret_against(records: Sequence[RegretRecord], comparator_loss: float) -> float:
    """Total learner loss minus the comparator loss on the same realized sequence.

    May be negative on a realization.
    """
    return sum(r.learner_loss for r in records) - comparator_loss


def format_records_csv(records: Sequence[RegretRecord]) -> str:
    """Render records in the canonical CSV schema, losses at 12 significant digits."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.run_id},{r.seed},{r.t},{r.learner_loss:.12g},{r.cum_learner_loss:.12g},"
            f"{r.cum_comparator_loss:.12g},{r.cum_regret:.12g}"
        )
    return "\n".join(lines) + "\n"


def write_records_csv(records: Sequence[RegretRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_records_csv(records))
