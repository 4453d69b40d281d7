"""Game-level primitives: log-loss, the interaction loop, regret accounting.

Losses are in nats throughout. A prediction is a float q1 in [0, 1], the
probability assigned to label 1; games played in lockstep hold one each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfiniteLossError, allocate
from .hypotheses import _BLOCK_BYTES

CSV_HEADER = "run_id,seed,t,learner_loss,cum_learner_loss,cum_comparator_loss,cum_regret"


def log_loss(q1, y):
    """Log-loss -ln q(y) of predicting q1 = q(1) when label y is realized, for
    one round or elementwise over arrays of them; each log is `math.log`'s.

    Deterministic predictions (q1 in {0, 1}) are admitted only when correct;
    a contradicted one raises InfiniteLossError rather than returning inf. Over
    arrays, the first bad entry in row-major order raises its own error.
    """
    q1, y = np.asarray(q1, dtype=np.float64), np.asarray(y)
    p = np.where(y == 1, q1, 1.0 - q1)
    bad = ~((q1 >= 0.0) & (q1 <= 1.0) & ((y == 0) | (y == 1)) & (p != 0.0))
    if bad.any():
        i = np.unravel_index(np.flatnonzero(bad)[0], bad.shape)
        q, label = q1[i].item(), y[i].item()
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"prediction {q} outside [0, 1]")
        if label not in (0, 1):
            raise ValueError(f"label {label} not in {{0, 1}}")
        raise InfiniteLossError(f"deterministic prediction q1={q} contradicted by y={label}")
    losses = -np.fromiter(map(math.log, p.ravel().tolist()), np.float64, p.size)
    return losses.reshape(p.shape) if p.ndim else float(losses[0])


def game_generators(rngs) -> tuple[list, tuple]:
    """The generators a player's `reset` got, as a list, and the shape of the
    per-round values it then takes: a list or tuple of R generators plays R
    games in lockstep, on (R,) arrays of contexts, predictions and labels;
    anything else is the one generator of a single game, played on scalars."""
    return (list(rngs), (len(rngs),)) if isinstance(rngs, (list, tuple)) else ([rngs], ())


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


def allocate_columns(T: int, R: int = 1) -> list[np.ndarray]:
    """The five zeroed columns of R games played in lockstep, of shape (T,)
    for one game and (T, R) for more: xs and ys (int64), then qs, losses and
    comparator (float64), row t - 1 holding round t. A size numpy cannot
    allocate raises ConfigError, e.g. `T: 4611686018427387904 rounds are more
    than numpy can allocate`."""
    unit, shape = ("rounds", (T,)) if R == 1 else (f"rounds of {R} repetitions", (T, R))
    return [allocate(T, "T", unit, lambda: np.zeros(shape, dtype))
            for dtype in (np.int64, np.int64, np.float64, np.float64, np.float64)]


def run_game(learner, adversary, T: int, seed, run_id="game"):
    """Play seeded trajectories of the assignment game: one GameTrace for one
    `seed`, or a list of R GameTraces for a sequence of R seeds with a
    sequence of R `run_id`s (a string is one run id, never a sequence of
    them), the R games played in lockstep.

    Each game has its own generators for its context draws, its learner and
    its adversary, spawned from its seed, so each game of a call equals, bit
    for bit, the game a call with its seed alone plays, and a repeated call
    is bit-identical. Both players are reset with the generators of their kind:
    a list of R of them when R > 1, and every round's contexts, predictions
    and labels are then (R,) arrays; the one generator, and scalars, for a
    single game. Per round the adversary emits one smooth context
    distribution for all games, each game's context is where its next
    uniform falls in that distribution's cdf (the uniforms are drawn a block
    of rounds at a time, with the values one draw per round takes), the
    learner predicts q, the adversary picks the labels y after seeing the
    predictions, and both players observe the round. Each value is written
    to its column first, and the players get the column's entries: int64
    contexts and labels, float64 predictions. The adversary learns the past
    only through `observe(x, q, y)`. The losses are taken by `log_loss` for a
    block of rounds once it is played, so an invalid or contradicted
    prediction raises at the end of its block. The comparator column is left
    at zero; the harness fills it offline.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    single = np.ndim(seed) == 0
    seeds, run_ids = ([seed], [run_id]) if single else (list(seed), list(run_id))
    if not single and isinstance(run_id, str):
        raise ValueError(f"{len(seeds)} seeds and the one run id {run_id!r}: "
                         f"need a list of run ids, one per seed")
    if not seeds or len(run_ids) != len(seeds):
        raise ValueError(f"{len(seeds)} seeds and {len(run_ids)} run ids: need one of each "
                         f"per game, and at least one game")
    R = len(seeds)
    streams = [np.random.SeedSequence(s).spawn(3) for s in seeds]
    ctx_rngs, learner_rngs, adv_rngs = ([np.random.default_rng(ss[i]) for ss in streams]
                                        for i in range(3))
    learner.reset(learner_rngs if R > 1 else learner_rngs[0])
    adversary.reset(adv_rngs if R > 1 else adv_rngs[0])

    xs, ys, qs, losses, comparator = allocate_columns(T, R)
    rows = max(1, _BLOCK_BYTES // (8 * R))
    for start in range(0, T, rows):
        stop = min(start + rows, T)
        uniforms = np.stack([rng.random(stop - start) for rng in ctx_rngs], axis=-1)
        for t, u in enumerate(uniforms if R > 1 else uniforms[:, 0], start):
            dist = adversary.context_distribution()
            x = dist.ids[dist.cdf.searchsorted(u, side="right")]
            xs[t] = x
            qs[t] = learner.predict(x)
            q = qs[t]
            ys[t] = adversary.label(x, q)
            y = ys[t]
            learner.update(x, y)
            adversary.observe(x, q, y)
        losses[start:stop] = log_loss(qs[start:stop], ys[start:stop])
    traces = [GameTrace(run_ids[r], seeds[r], *(np.ascontiguousarray(col.reshape(T, R)[:, r])
                                                 for col in (xs, ys, qs, losses, comparator)))
              for r in range(R)]
    return traces[0] if single else traces


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
