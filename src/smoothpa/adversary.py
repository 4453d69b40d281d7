"""Sigma-smooth context distributions, context rules, and label strategies.

A distribution over the finite universe is sigma-smooth (w.r.t. the uniform base
measure) iff every atom carries mass at most 1/(sigma*U); on finite universes the
singleton bound is equivalent to the all-measurable-sets condition.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .core import game_generators
from .errors import ConfigError, SmoothnessError, check_keys, parse_field, read_ids
from .hypotheses import (HYPOTHESIS_KEYS, Hypothesis, RegionFamily, evaluate, read_hypothesis,
                         read_indices)

SUM_TOL = 1e-12
MASS_TOL = 1e-12


def smooth_cap(sigma: float, size: int) -> float:
    """The heaviest atom a sigma-smooth pmf over U contexts holds: (1 + MASS_TOL)/(sigma*U)."""
    return (1.0 + MASS_TOL) / (sigma * size)


def validate_smooth(pmf: np.ndarray, sigma: float) -> tuple[bool, Optional[int]]:
    """Check sigma-smoothness of a pmf; on failure return the first offending index.

    Passing requires nonnegative entries summing to 1 within SUM_TOL and no
    atom above `smooth_cap(sigma, U)`, 1/(sigma*U) up to a relative 1e-12.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if not 0.0 < sigma <= 1.0 or pmf.ndim != 1 or pmf.size == 0:
        return False, None
    neg = np.flatnonzero(~(pmf >= 0.0))      # a NaN entry is not nonnegative either
    if neg.size:
        return False, int(neg[0])
    if abs(float(pmf.sum()) - 1.0) > SUM_TOL:
        return False, None
    over = np.flatnonzero(pmf > smooth_cap(sigma, pmf.size))
    if over.size:
        return False, int(over[0])
    return True, None


def min_support_size(sigma: float, size: int) -> int:
    """The least k whose uniform atom 1/k is within `smooth_cap`: max(1, ceil(sigma*U /
    (1 + MASS_TOL))), moved by one where that form's float rounding misses it."""
    cap = smooth_cap(sigma, size)
    k = max(1, math.ceil(1.0 / cap))
    return k + (1.0 / k > cap) - (k > 1 and 1.0 / (k - 1) <= cap)


class SmoothDistribution:
    """A distribution over the contexts {0, ..., size-1}, certified sigma-smooth
    at construction time.

    It holds its support `ids` in ascending order, a dense `pmf` of its own,
    and the running cdf of the pmf on `ids`, normalized the way rng.choice
    normalizes the dense one; all three are read-only, so a distribution
    cannot change after its check. A zero atom adds exactly 0.0 to a
    running sum, so the two cdfs agree at every support position, and the
    support id where a uniform draw falls in the cdf, as `core.run_game`
    looks it up, is the context `rng.choice(size, p=pmf)` draws from the same
    generator state. The cdf is built when it is first read; a distribution
    from `uniform_on` builds its pmf only when it is read.
    """

    def __init__(self, pmf, sigma: float):
        pmf = np.array(pmf, dtype=np.float64)       # a copy: the caller may change its array
        ok, idx = validate_smooth(pmf, sigma)
        if not ok:
            where = f" at index {idx}" if idx is not None else ""
            scale = sigma * max(pmf.size, 1)        # 0 at sigma = 0, which has no cap
            raise SmoothnessError(
                f"pmf is not {sigma}-smooth{where} "
                f"(cap 1/(sigma*U) = {1.0 / scale if scale else math.inf:.6g})"
            )
        pmf.flags.writeable = False
        self.size, self.sigma, self.pmf, self.ids = pmf.size, sigma, pmf, np.flatnonzero(pmf)
        self.ids.flags.writeable = False

    @functools.cached_property
    def pmf(self) -> np.ndarray:
        """The dense pmf, which `uniform_on` builds only when it is read."""
        pmf = np.zeros(self.size)
        pmf[self.ids] = 1.0 / self.ids.size
        pmf.flags.writeable = False
        return pmf

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """The normalized running sum of the pmf on `ids`, as rng.choice builds it."""
        cdf = np.cumsum(self.pmf[self.ids])
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf

    @functools.cached_property
    def collision(self) -> float:
        """sum_x D(x)^2, the chance that two independent draws coincide;
        1/k for the uniform distribution on k ids."""
        return float(np.sum(self.pmf ** 2))

    @classmethod
    def uniform_on(cls, size: int, support: Sequence[int], sigma: float) -> "SmoothDistribution":
        """Uniform distribution on a set of distinct context ids, in any order.

        Its atom 1/k meets `smooth_cap` as `validate_smooth` checks the dense pmf,
        so it needs `min_support_size` ids. A sigma outside (0, 1], booleans, ids
        `read_indices` refuses, a repeat or too small a set raise SmoothnessError.
        """
        if not 0.0 < sigma <= 1.0:
            raise SmoothnessError(f"sigma {sigma} outside (0, 1]")
        ids = np.array(support)      # a copy: the caller may reuse its array
        if ids.dtype == bool:
            raise SmoothnessError("target set must hold integer ids, got bool")
        try:
            ids = read_indices(ids, "context id", size)
        except ValueError as e:
            raise SmoothnessError(str(e)) from None
        if ids.size > 1 and not (ids[1:] > ids[:-1]).all():
            ids = np.sort(ids)
            dup = np.flatnonzero(ids[1:] == ids[:-1])
            if dup.size:
                raise SmoothnessError(f"target set repeats context id {ids[dup[0]]}")
        ids.flags.writeable = False
        if not ids.size or 1.0 / ids.size > smooth_cap(sigma, size):
            raise SmoothnessError(f"target set of size {ids.size} below minimum "
                                  f"{min_support_size(sigma, size)} for sigma={sigma}")
        dist = cls.__new__(cls)
        dist.size, dist.sigma, dist.ids, dist.collision = size, sigma, ids, 1.0 / ids.size
        return dist


class StaticSubsetRule:
    """Context rule: uniform on a fixed subset of the universe, by default the
    first `min_support_size` ids, built and checked once per `reset`."""

    def __init__(self, subset: Optional[Sequence[int]] = None):
        self.subset = subset

    def reset(self, size: int, sigma: float) -> None:
        ids = np.arange(min_support_size(sigma, size)) if self.subset is None else self.subset
        self._dist = SmoothDistribution.uniform_on(size, ids, sigma)

    def observe(self, xs, qs, ys) -> None:
        pass

    def context_distribution(self) -> SmoothDistribution:
        return self._dist


class GreedyLabelRule:
    """Per-round loss-maximizing label: the side the learner considers less
    likely. Ties at q = 1/2 resolve to 0 for determinism."""

    def reset(self, rngs):
        pass

    def label(self, xs, qs):
        return qs < 0.5


# Rounds of label uniforms a realizable rule draws from each game's generator at once
_LABEL_ROWS = 256


class RealizableLabelRule:
    """Labels drawn from a fixed hypothesis: y ~ Bernoulli(f*(x)), one uniform
    from the game's generator per round, drawn _LABEL_ROWS rounds at a time
    with the values one draw per round takes."""

    def __init__(self, f_star: Hypothesis, family: RegionFamily):
        self._p = evaluate(family, f_star, np.arange(family.size))     # f*(x) for every x

    def reset(self, rngs):
        self._rngs, self._shape = game_generators(rngs)
        self._uniforms = np.zeros((0,) + self._shape)
        self._row = 0

    def label(self, xs, qs):
        i = self._row
        if i == len(self._uniforms):
            self._uniforms = np.stack([rng.random(_LABEL_ROWS) for rng in self._rngs],
                                      axis=1).reshape((_LABEL_ROWS,) + self._shape)
            i = 0
        self._row = i + 1
        return self._uniforms[i] < self._p[xs]


class FixedSequenceLabelRule:
    """Labels replayed from a fixed list, one per round since `reset` and the
    same in every game; raises if the game outruns it."""

    def __init__(self, labels: Sequence[int]):
        self.labels = [parse_field(v, f"adversary.labels[{i}]", int)
                       for i, v in enumerate(labels)]
        for i, y in enumerate(self.labels):
            if y not in (0, 1):
                raise ConfigError(f"adversary.labels[{i}]: {y} is not 0 or 1")

    def reset(self, rngs):
        self._t = 0

    def label(self, xs, qs) -> int:
        if self._t >= len(self.labels):
            raise ConfigError(f"adversary.labels: exhausted after {len(self.labels)} rounds")
        self._t += 1
        return self.labels[self._t - 1]


class AdversaryPolicy:
    """Context rule plus label rule over the contexts {0, ..., size-1}. The
    label rule owns the games' generators.

    The context rule hands over a SmoothDistribution, checked sigma-smooth
    when it was built; the policy refuses anything else, so a violation
    anywhere in a run surfaces as SmoothnessError.
    """

    def __init__(self, context_rule, label_rule, sigma: float, size: int):
        if not 0.0 < sigma <= 1.0:
            raise ConfigError(f"adversary.sigma: {sigma} outside (0, 1]")
        self.context_rule = context_rule
        self.label_rule = label_rule
        self.sigma = sigma
        self.size = size

    def reset(self, rngs) -> None:
        self.context_rule.reset(self.size, self.sigma)
        self.label_rule.reset(rngs)

    def context_distribution(self) -> SmoothDistribution:
        """The rule's distribution this round, if it is a SmoothDistribution
        over the policy's contexts at a sigma no smaller than the policy's."""
        dist = self.context_rule.context_distribution()
        if not isinstance(dist, SmoothDistribution):
            raise SmoothnessError(f"context rule returned a {type(dist).__name__}, "
                                  f"not a SmoothDistribution")
        if dist.size != self.size or dist.sigma < self.sigma:
            raise SmoothnessError(
                f"context rule returned a distribution over {dist.size} contexts at "
                f"sigma {dist.sigma}, not over {self.size} at sigma >= {self.sigma}")
        return dist

    def label(self, xs, qs):
        return self.label_rule.label(xs, qs)

    def observe(self, xs, qs, ys) -> None:
        self.context_rule.observe(xs, qs, ys)


def _f_star(fs, family: RegionFamily) -> Hypothesis:
    """The realizable labels' hypothesis from its spec, read by `read_hypothesis`."""
    if fs is None:
        raise ConfigError("adversary.f_star: required for realizable labels")
    if not isinstance(fs, dict):
        raise ConfigError("adversary.f_star: must be an object")
    check_keys(fs, "adversary.f_star", HYPOTHESIS_KEYS)
    return read_hypothesis([fs.get(key) for key in HYPOTHESIS_KEYS], "adversary.f_star", family)


# The keys besides the context side's that each label kind reads
_LABEL_KEYS = {"greedy": (), "realizable": ("f_star",), "fixed_sequence": ("labels",)}


def adversary_from_spec(spec: dict, family: RegionFamily, sigma: float) -> AdversaryPolicy:
    """Build a policy over the family's contexts at smoothness `sigma` (a sweep
    cell's value) from the JSON adversary spec.

    Context side: {"context": "subset_uniform", "rule": "static|adaptive"}.
    Label side: {"label": "greedy" | "realizable" | "fixed_sequence", ...}.
    Any other key is unknown, `sigma` among them, as is a `set` under the
    adaptive rule, an `f_star` under non-realizable labels and `labels` under
    non-fixed ones. A static `set` gets the check every game's reset makes,
    `uniform_on`, here: a repeat or too few ids raise ConfigError naming it.
    """
    if not isinstance(spec, dict):
        raise ConfigError("adversary: must be an object")
    context = spec.get("context", "subset_uniform")
    if context != "subset_uniform":
        raise ConfigError(f"adversary.context: unknown kind {context!r}")
    rule = spec.get("rule", "static")
    subset = spec.get("set") if rule == "static" else None
    subset = None if subset is None else read_ids(subset, "adversary.set", family.size)

    label_kind = spec.get("label", "greedy")
    if label_kind == "greedy":
        label_rule = GreedyLabelRule()
    elif label_kind == "realizable":
        label_rule = RealizableLabelRule(_f_star(spec.get("f_star"), family), family)
    elif label_kind == "fixed_sequence":
        if not isinstance(spec.get("labels"), list):
            raise ConfigError("adversary.labels: required for fixed_sequence, a list of 0/1")
        label_rule = FixedSequenceLabelRule(spec["labels"])
    else:
        raise ConfigError(f"adversary.label: unknown kind {label_kind!r}")

    # "adaptive" names the default static set: a rule that moved toward the
    # learner's most extreme predictions never left it, as every context is
    # drawn from the set itself
    if rule not in ("static", "adaptive"):
        raise ConfigError(f"adversary.rule: unknown rule {rule!r}")
    context_rule = StaticSubsetRule(subset)

    policy = AdversaryPolicy(context_rule, label_rule, sigma, family.size)
    try:
        context_rule.reset(family.size, sigma)
    except SmoothnessError as e:
        raise ConfigError(f"adversary.set: {e}") from None
    known = ["context", "rule", "label", *_LABEL_KEYS[label_kind]]
    check_keys(spec, "adversary", known + (["set"] if rule == "static" else []))
    return policy
