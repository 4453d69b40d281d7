"""Probability-assignment strategies: FTPL over an MLE oracle, the exact Bayes
mixture over an epsilon-cover of regions, the KT add-beta rule, and the uniform
baseline.

Mixture bookkeeping lives entirely in the log domain. The per-region marginal
of a label prefix under the uniform (theta0, theta1) prior factorizes into two
Beta integrals B(k, n) = 1/((n+1) * binom(n, k)), so sequential predictions are
the add-one Laplace rule per region side, reweighted by the region marginals.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import game_generators
from .errors import (ConfigError, NumericalAssertionError, check_keys, parse_field,
                     positive_finite)
from .hypotheses import (_BLOCK_BYTES, _MEMBER_BYTES, RegionFamily, THRESHOLD_GRID,
                         leader_frequency, read_indices, side_counts)


def epsilon_cover(family: RegionFamily, eps: float) -> np.ndarray:
    """Region indices covering the family within distance eps under the base measure.

    Threshold grids take every ceil(eps*U)-th threshold plus the last one,
    giving at most ceil(1/eps) + 1 elements. Explicit families use a greedy
    farthest-point sweep seeded at region 0.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    m = len(family)
    if eps >= 1.0 or m == 1:
        return np.array([0], dtype=np.int64)
    u = family.size
    if family.kind == THRESHOLD_GRID:
        stride = max(1, int(math.ceil(eps * u)))
        idx = list(range(0, u, stride))
        if idx[-1] != u - 1:
            idx.append(u - 1)
        return np.asarray(idx, dtype=np.int64)
    member = family.contains(np.arange(u))          # (U, regions)
    centers = [0]

    def dist_to(c):
        return np.mean(member != member[:, c, None], axis=0)
    nearest = dist_to(0)
    while nearest.max() > eps:
        j = int(np.argmax(nearest))
        centers.append(j)
        nearest = np.minimum(nearest, dist_to(j))
    return np.sort(np.asarray(centers, dtype=np.int64))


# Clamp for mixture predictions: Laplace factors are interior, so the mixture is too
_Q_MIN = float(np.nextafter(0.0, 1.0))
_Q_MAX = float(np.nextafter(1.0, 0.0))


# Largest hallucination rate: the per-cell Poisson rate n / 2U stays far below
# the largest rate numpy's Poisson sampler accepts (about 9.2e18).
_N_MAX = 1e18


def truncation_range(alpha: float) -> tuple[float, float]:
    """Closed range of predictions emitted through the (f + alpha)/(1 + 2 alpha) map."""
    return alpha / (1.0 + 2.0 * alpha), (1.0 + alpha) / (1.0 + 2.0 * alpha)


class UniformLearner:
    """Baseline assigning 1/2 always; per-round loss is exactly ln 2."""

    def reset(self, rngs) -> None:
        pass

    def predict(self, xs) -> float:
        return 0.5

    def update(self, xs, ys) -> None:
        pass


class KtLearner:
    """Context-oblivious add-beta estimator over the label stream."""

    def __init__(self, beta: float):
        self.beta = positive_finite(beta, "learner.kt.beta")
        if beta > sys.float_info.max / 2:
            raise ConfigError(f"learner.kt.beta: {beta!r} must be at most "
                              f"{sys.float_info.max / 2!r}, so that 2 beta is finite")

    def reset(self, rngs) -> None:
        self._ones = np.zeros(game_generators(rngs)[1])[()]
        self._rounds = 0

    def predict(self, xs):
        # in lockstep, the first len(xs) games play this round
        ones = self._ones[:len(xs)] if self._ones.ndim else self._ones
        return (ones + self.beta) / (self._rounds + 2.0 * self.beta)

    def update(self, xs, ys) -> None:
        if self._ones.ndim:
            self._ones[:len(ys)] += ys
        else:
            self._ones = self._ones + ys
        self._rounds += 1


class MixtureLearner:
    """Uniform Bayes mixture over a cover of the region family, such as the
    regions `epsilon_cover` picks: integer region indices, read by `read_indices`.

    Per game and cover element i it keeps the counts of each label on side j
    (0 inside, 1 outside) and the log marginal ln[B(k0, n0) * B(k1, n1)] of
    the labels seen so far. It stores the label counts + 1, the numerators of
    the Laplace factors; their sum on a side is n_j + 2, the denominator, and
    all of them are exact while they are integers below 2^53. Context x's
    side of element i is a flat index into each label's counts, 2i + j plus
    the game's offset, read through `family.contains`, so the learner holds
    O(cover) memory per game whatever the size of the context space. In
    lockstep a round's contexts are those of the first len(xs) games, whose
    rows of the marginals and offsets it reads and writes.
    """

    def __init__(self, family: RegionFamily, cover):
        self.family = family
        self.cover = read_indices(cover, "cover index", len(family))
        if not self.cover.size:
            raise ValueError("cover is empty")

    def reset(self, rngs) -> None:
        shape, m = game_generators(rngs)[1], self.cover.size
        self._labels1 = np.ones((2,) + shape + (m, 2))      # the 0s, then the 1s
        self.log_marginal = np.zeros(shape + (m,))
        # element i's outside side is 2i + 1 past its game's offset, its inside one less
        games = np.arange(self.log_marginal.size // m).reshape(shape + (1,))
        self._outside = np.arange(1, 2 * m, 2) + 2 * m * games
        self._lockstep = bool(shape)
        self._predicted = None      # the last prediction's contexts, sides and n_j + 2

    @property
    def n(self) -> np.ndarray:
        """The examples per game, cover element and side."""
        return self._labels1.sum(axis=0) - 2.0

    @property
    def k(self) -> np.ndarray:
        """The labels 1 per game, cover element and side."""
        return self._labels1[1] - 1.0

    def _sides(self, xs):
        """The flat side indices of xs, and the label-1 counts + 1 and n_j + 2 there."""
        outside = self._outside[:len(xs)] if self._lockstep else self._outside
        side = outside - self.family.contains(xs, self.cover)
        ones = self._labels1[1].take(side)
        return side, ones, self._labels1[0].take(side) + ones

    def predict(self, xs):
        """Posterior-weighted add-one rule: sum_i w_i (k_j + 1)/(n_j + 2) on x's side.

        The per-element factor is the exact ratio of consecutive Beta integrals, so
        the sequential products telescope to the joint mixture probability. The
        weights are the marginals shifted by their maximum before exponentiating,
        so they cannot all underflow. Each game's weighted sum is one matrix
        product of a row and a column, which rounds as the dot product does.
        """
        side, ones, n2_j = self._sides(xs)
        self._predicted = xs, side, n2_j
        f = ones / n2_j
        lm = self.log_marginal[:len(xs)] if self._lockstep else self.log_marginal
        w = np.exp(lm - lm.max(axis=-1, keepdims=True))
        q1 = (w[..., None, :] @ f[..., None])[..., 0, 0] / w.sum(axis=-1)
        return np.minimum(np.maximum(q1, _Q_MIN), _Q_MAX)

    def update(self, xs, ys) -> None:
        """Bump the counts on x's side and shift the log marginals by the log
        Laplace factor of the realized label: one more than its count there,
        over n_j + 2. Given the very contexts object the last prediction got,
        as a game passes it, the update reuses that prediction's sides if the
        contexts cannot have changed since: a number, or a read-only array
        that owns its memory."""
        predicted, self._predicted = self._predicted, None
        if predicted is not None and predicted[0] is xs and (
                not xs.flags.writeable and xs.base is None if isinstance(xs, np.ndarray)
                else isinstance(xs, (int, np.generic))):
            side, n2_j = predicted[1:]
        else:
            side, _, n2_j = self._sides(xs)
        label_side = side + np.multiply(ys, self._labels1[0].size)[..., None]
        hits = self._labels1.take(label_side)
        lm = self.log_marginal[:len(xs)] if self._lockstep else self.log_marginal
        lm += np.log(hits / n2_j)
        self._labels1.put(label_side, hits + 1.0)


class FtplLearner:
    """Follow-the-perturbed-leader over the MLE oracle, its output truncated
    to [alpha, 1 + alpha] / (1 + 2 alpha), with n in [0, 1e18] and alpha in (0, 1/2).

    Each prediction refits the oracle on the history plus fresh hallucinated
    samples: Poisson(n) of them uniform over (context, label), drawn as
    independent Poisson(n / 2U) counts per cell (Poisson splitting). The
    learner keeps each game's history as int64 counts in the oracle's count
    layout (see `hypotheses.side_counts`), the games on the axis before the
    regions, and draws each game's hallucinations for a block of rounds at
    once from that game's generator, in the same layout, which takes the
    same values from it as one draw per round. Every block holds as many
    rounds as the shared byte budget allows for one game.

    With each block the learner keeps every row's hallucinated sample total,
    the most of any game's: no count of a round exceeds that plus the
    examples seen, so a prediction passes the sum to `leader_frequency` as
    its count bound and reads only the leader's side at x. Any j ln j table
    that holds the bound gives the same losses, so the predictions are the
    full oracle's bit for bit, and the Poisson draw, whose values are
    pinned, is the largest cost left in a round. In lockstep a round's
    contexts are those of the first len(xs) games: it reads and bumps their
    counts, and a new block holds the draws of those games alone.
    """

    def __init__(self, family: RegionFamily, n: float, alpha: float):
        if not 0.0 <= n <= _N_MAX:
            raise ConfigError(f"learner.ftpl.n: {n:g} outside [0, {_N_MAX:g}]")
        if not 0.0 < alpha < 0.5:
            raise ConfigError(f"learner.ftpl.alpha: {alpha} outside (0, 1/2)")
        self.family, self.n, self.alpha = family, n, alpha
        self._lo, self._hi = truncation_range(alpha)

    def reset(self, rngs) -> None:
        u, m = self.family.size, len(self.family)
        self._rngs, self._shape = game_generators(rngs)
        self._counts = np.zeros((2, 2) + self._shape + (m,), dtype=np.int64)
        self._bump = np.ones((2, 1) + self._shape + (1,), dtype=bool)     # rows an update adds to
        self._seen = 0      # the examples each game's history holds
        # 8-byte words per row of a game's block while it is drawn: the draw
        # (2U), the inside and outside counts (2m each), the stacked block row
        # (4m) and the previous block's row (4m), alive until replaced; games
        # in lockstep stack their draws into one more copy (2U). An explicit
        # family's region_counts adds the draw's float64 copy (2U) and a
        # product block (at most 2m), beside its membership block
        words, budget = 2 * u + 12 * m, _BLOCK_BYTES
        if self.family.kind != THRESHOLD_GRID:
            words, budget = words + 2 * u + 2 * m, budget - _MEMBER_BYTES
        self._rows = max(1, budget // (8 * words))
        self._tops = []
        self._row = 0

    def _draw_block(self) -> None:
        u = self.family.size
        draws = [rng.poisson(self.n / (2.0 * u), size=(self._rows, 2, u)) for rng in self._rngs]
        hal = np.stack(draws, axis=1) if self._shape else draws[0]     # (rows, [games,] 2, U)
        hal[..., 0, :] += hal[..., 1, :]      # (samples, positive labels) per context
        counts = side_counts(hal, self.family)
        # the games axis from before the (n, k) axis to before the regions
        self._block = np.moveaxis(counts, 1, -2) if self._shape else counts
        # each row's hallucinated samples, inside plus outside any one region,
        # the most of any game's
        total = counts[..., 0, 0, 0] + counts[..., 0, 1, 0]
        self._tops = total.reshape(self._rows, -1).max(axis=1).tolist()

    def predict(self, xs):
        i = self._row
        if i == len(self._tops):
            if self._shape:     # the games past the first len(xs) have ended
                self._rngs = self._rngs[:len(xs)]
            self._draw_block()
            i = 0
        self._row = i + 1
        counts, block = self._counts, self._block[i]
        if self._shape:     # the games on the axis before the regions
            counts, block = counts[..., :len(xs), :], block[..., :len(xs), :]
        # no count exceeds the examples seen plus the row's hallucinated samples
        f = leader_frequency(counts + block, self.family, xs, self._seen + self._tops[i])
        q = (f + self.alpha) / (1.0 + 2.0 * self.alpha)
        # a single game's q is a float
        if not (self._lo <= q <= self._hi if isinstance(q, float)
                else ((self._lo <= q) & (q <= self._hi)).all()):
            flat = np.ravel(q)
            escaped = flat[~((self._lo <= flat) & (flat <= self._hi))][0]
            raise NumericalAssertionError(
                f"FTPL prediction {escaped} escaped [{self._lo}, {self._hi}]")
        return q

    def update(self, xs, ys) -> None:
        inside = self.family.contains(xs)
        counts, bump = self._counts, self._bump
        if self._shape:
            counts, bump = counts[..., :len(xs), :], bump[..., :len(xs), :]
        # x's side of every region, into the n row and, in the games where
        # y = 1, the k row
        bump[1, 0, ..., 0] = ys
        np.add(counts, np.array((inside, ~inside)), out=counts, where=bump)
        self._seen += 1


def interchangeable(a, b) -> bool:
    """Whether learners a and b are built-ins that play every game alike, so
    that one of them can play both's games in one lockstep call: uniform; kt
    with equal beta; vc_mixture with equal covers of one family; ftpl with
    equal n and alpha over one family. A learner of any other type, a
    subclass of a built-in among them, is interchangeable with none."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is UniformLearner:
        return True
    if kind is KtLearner:
        return a.beta == b.beta
    if kind is MixtureLearner:
        return a.family is b.family and np.array_equal(a.cover, b.cover)
    if kind is FtplLearner:
        return a.family is b.family and (a.n, a.alpha) == (b.n, b.alpha)
    return False


def default_ftpl_tuning(T: int, sigma: float) -> tuple[float, float]:
    """Rate/truncation pair n = round(T^{4/5} / sqrt(sigma)), alpha = 1/T."""
    return float(round(T ** 0.8 / math.sqrt(sigma))), 1.0 / T


def _number(params: dict, key: str, default: float, path: str) -> float:
    """params[key] as a float; `default` when it is absent or null."""
    value = params.get(key)
    return default if value is None else parse_field(value, f"{path}.{key}", float)


# The parameters each learner kind reads
_PARAMS = {"uniform": (), "kt": ("beta",), "vc_mixture": ("eps",), "ftpl": ("n", "alpha")}


def learner_from_spec(spec: dict, family: RegionFamily, T: int, sigma: float):
    """The learner a JSON spec describes for one (T, sigma) cell, its defaults
    filled in.

    Specs are {"uniform": {}}, {"kt": {"beta": 0.5}}, {"vc_mixture": {"eps": ...}}
    with eps defaulting to sigma/T^2, or {"ftpl": {"n": ..., "alpha": ...}} with
    both defaulting to the T^{4/5}-style tuning. A malformed spec raises
    ConfigError naming the field, e.g. `learner.ftpl.n: 'abc' is not a valid float`.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError("learner: must be an object with exactly one kind key")
    kind, params = next(iter(spec.items()))
    if not isinstance(params, dict):
        raise ConfigError(f"learner.{kind}: parameters must be an object")
    if kind not in _PARAMS:
        raise ConfigError(f"learner: unknown kind {kind!r}")
    path = f"learner.{kind}"
    check_keys(params, path, _PARAMS[kind])
    if kind == "uniform":
        return UniformLearner()
    if kind == "kt":
        return KtLearner(_number(params, "beta", 0.5, path))
    if kind == "vc_mixture":
        eps = positive_finite(_number(params, "eps", sigma / float(T) ** 2, path), f"{path}.eps")
        return MixtureLearner(family, epsilon_cover(family, eps))
    n_def, alpha_def = default_ftpl_tuning(T, sigma)
    n = _number(params, "n", n_def, path)
    alpha = _number(params, "alpha", alpha_def, path)
    if params.get("alpha") is None and not 0.0 < alpha < 0.5:
        raise ConfigError(f"learner.ftpl.alpha: the default 1/T = {alpha:g} at T = {T} "
                          f"is outside (0, 1/2); set alpha explicitly")
    return FtplLearner(family, n, alpha)
