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

import numpy as np

from .errors import ConfigError, NumericalAssertionError, check_keys, parse_field
from .hypotheses import (_BLOCK_BYTES, RegionFamily, THRESHOLD_GRID, evaluate,
                         mle_from_region_counts, side_counts)


def epsilon_cover(family: RegionFamily, eps: float) -> np.ndarray:
    """Region indices covering the family within distance eps under the base measure.

    Threshold grids take every ceil(eps*U)-th threshold plus the last one,
    giving at most ceil(1/eps) + 1 elements. Explicit families use a greedy
    farthest-point sweep seeded at region 0.
    """
    if eps <= 0:
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

    def reset(self, rng: np.random.Generator) -> None:
        pass

    def predict(self, x: int) -> float:
        return 0.5

    def update(self, x: int, y: int) -> None:
        pass


class KtLearner:
    """Context-oblivious add-beta estimator over the label stream."""

    def __init__(self, beta: float):
        if beta <= 0:
            raise ConfigError(f"kt.beta: {beta} must be positive")
        self.beta = beta

    def reset(self, rng: np.random.Generator) -> None:
        self._ones = 0
        self._rounds = 0

    def predict(self, x: int) -> float:
        return (self._ones + self.beta) / (self._rounds + 2.0 * self.beta)

    def update(self, x: int, y: int) -> None:
        self._ones += y
        self._rounds += 1


class MixtureLearner:
    """Uniform Bayes mixture over a cover of the region family, such as the
    regions `epsilon_cover` picks.

    Per cover element i it keeps counts n[i, j], k[i, j] on side j (0 inside,
    1 outside) and the log marginal ln[B(k0, n0) * B(k1, n1)] of the labels
    seen so far. Context x's side of element i is the flat index 2i + j into
    n and k, read through `family.contains`, so the learner holds O(cover)
    memory whatever the size of the context space.
    """

    def __init__(self, family: RegionFamily, cover):
        self.family = family
        self.cover = np.asarray(cover, dtype=np.int64)
        # element i's outside side is 2i + 1, its inside side one less
        self._outside = np.arange(1, 2 * self.cover.size, 2)

    def reset(self, rng: np.random.Generator) -> None:
        m = self.cover.size
        self.n = np.zeros((m, 2))
        self.k = np.zeros((m, 2))
        self.log_marginal = np.zeros(m)

    def _gather(self, x: int):
        """x's flat side indices and the counts n_j, k_j on them."""
        side = self._outside - self.family.contains(x, self.cover)
        return side, self.n.take(side), self.k.take(side)

    def predict(self, x: int) -> float:
        """Posterior-weighted add-one rule: sum_i w_i (k_j + 1)/(n_j + 2) on x's side.

        The per-element factor is the exact ratio of consecutive Beta integrals, so
        the sequential products telescope to the joint mixture probability. The
        weights are the marginals shifted by their maximum before exponentiating,
        so they cannot all underflow.
        """
        _, n_j, k_j = self._gather(x)
        lm = self.log_marginal
        w = np.exp(lm - lm.max())
        q1 = float(w @ ((k_j + 1.0) / (n_j + 2.0)) / w.sum())
        return min(max(q1, _Q_MIN), _Q_MAX)

    def update(self, x: int, y: int) -> None:
        """Bump the counts on x's side and shift the log marginals by the log
        Laplace factor of the realized label."""
        side, n_j, k_j = self._gather(x)
        hits = k_j + 1.0 if y == 1 else n_j - k_j + 1.0
        self.log_marginal += np.log(hits / (n_j + 2.0))
        np.put(self.n, side, n_j + 1.0)
        if y == 1:
            np.put(self.k, side, k_j + 1.0)


class FtplLearner:
    """Follow-the-perturbed-leader over the MLE oracle, its output truncated
    to [alpha, 1 + alpha] / (1 + 2 alpha), with n in [0, 1e18] and alpha in (0, 1/2).

    Each prediction refits the oracle on the history plus fresh hallucinated
    samples: Poisson(n) of them uniform over (context, label), drawn as
    independent Poisson(n / 2U) counts per cell (Poisson splitting). The
    learner keeps its history as the oracle's int64 (n, k) x (inside,
    outside) x region counts, and draws the hallucinations for a block of
    rounds at once, in the same layout, which takes the same values from its
    generator as one draw per round. Every block holds as many rounds as the
    shared byte budget allows.
    """

    def __init__(self, family: RegionFamily, n: float, alpha: float):
        if not 0.0 <= n <= _N_MAX:
            raise ConfigError(f"learner.ftpl.n: {n:g} outside [0, {_N_MAX:g}]")
        if not 0.0 < alpha < 0.5:
            raise ConfigError(f"learner.ftpl.alpha: {alpha} outside (0, 1/2)")
        self.family, self.n, self.alpha = family, n, alpha
        self._lo, self._hi = truncation_range(alpha)

    def reset(self, rng: np.random.Generator) -> None:
        u, m = self.family.size, len(self.family)
        self.rng = rng
        self._counts = np.zeros((2, 2, m), dtype=np.int64)
        # 8-byte words per row of a block while it is drawn: the draw (2U), the
        # inside and outside counts (2m each), the stacked block row (4m) and
        # the previous block's row (4m), alive until replaced
        self._rows = max(1, _BLOCK_BYTES // (8 * (2 * u + 12 * m)))
        self._block = np.zeros((0, 2, 2, m), dtype=np.int64)     # no rounds drawn yet
        self._row = 0

    def _draw_block(self) -> None:
        u = self.family.size
        hal = self.rng.poisson(self.n / (2.0 * u), size=(self._rows, 2, u))
        hal[:, 0] += hal[:, 1]          # (samples, positive labels) per context
        self._block = side_counts(hal, self.family)

    def predict(self, x: int) -> float:
        i = self._row
        if i == len(self._block):
            self._draw_block()
            i = 0
        self._row = i + 1
        h, _ = mle_from_region_counts(self._counts + self._block[i])
        q = (evaluate(self.family, h, x) + self.alpha) / (1.0 + 2.0 * self.alpha)
        if not self._lo <= q <= self._hi:
            raise NumericalAssertionError(
                f"FTPL prediction {q} escaped [{self._lo}, {self._hi}]")
        return q

    def update(self, x: int, y: int) -> None:
        inside = self.family.contains(x)
        # x's side of every region, into the n row and, when y = 1, the k row
        self._counts[:1 + y] += np.array((inside, ~inside))


def default_ftpl_tuning(T: int, sigma: float) -> tuple[float, float]:
    """Rate/truncation pair n = round(T^{4/5} / sqrt(sigma)), alpha = 1/T."""
    return float(round(T ** 0.8 / math.sqrt(sigma))), 1.0 / T


def _number(params: dict, key: str, default: float, path: str) -> float:
    """params[key] as a float; `default` when it is absent or null."""
    value = params.get(key)
    return default if value is None else parse_field(value, f"{path}.{key}", float)


def _positive(params: dict, key: str, default: float, path: str) -> float:
    value = _number(params, key, default, path)
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{path}.{key}: {value:g} must be positive and finite")
    return value


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
        return KtLearner(_positive(params, "beta", 0.5, path))
    if kind == "vc_mixture":
        eps = _positive(params, "eps", sigma / float(T) ** 2, path)
        return MixtureLearner(family, epsilon_cover(family, eps))
    n_def, alpha_def = default_ftpl_tuning(T, sigma)
    n = _number(params, "n", n_def, path)
    alpha = _number(params, "alpha", alpha_def, path)
    if params.get("alpha") is None and not 0.0 < alpha < 0.5:
        raise ConfigError(f"learner.ftpl.alpha: the default 1/T = {alpha:g} at T = {T} "
                          f"is outside (0, 1/2); set alpha explicitly")
    return FtplLearner(family, n, alpha)
