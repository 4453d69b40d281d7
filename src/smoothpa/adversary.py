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
from .hypotheses import HYPOTHESIS_KEYS, Hypothesis, RegionFamily, evaluate, read_hypothesis

SUM_TOL = 1e-12
MASS_TOL = 1e-12


def validate_smooth(pmf: np.ndarray, sigma: float) -> tuple[bool, Optional[int]]:
    """Check sigma-smoothness of a pmf; on failure return the first offending index.

    Passing requires nonnegative entries summing to 1 within 1e-12 and
    max_x pmf(x) <= 1/(sigma*U) + 1e-12.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if not 0.0 < sigma <= 1.0:
        return False, None
    if pmf.ndim != 1 or pmf.size == 0:
        return False, None
    neg = np.flatnonzero(~(pmf >= 0.0))      # a NaN entry is not nonnegative either
    if neg.size:
        return False, int(neg[0])
    if abs(float(pmf.sum()) - 1.0) > SUM_TOL:
        return False, None
    cap = 1.0 / (sigma * pmf.size) + MASS_TOL
    over = np.flatnonzero(pmf > cap)
    if over.size:
        return False, int(over[0])
    return True, None


def min_support_size(sigma: float, size: int) -> int:
    """Smallest subset size ceil(sigma*U) on which a uniform pmf is sigma-smooth;
    at least one, however small sigma * U is."""
    return max(1, int(math.ceil(sigma * size - 1e-12)))


class SmoothDistribution:
    """A distribution over the contexts {0, ..., size-1}, certified sigma-smooth
    at construction time.

    It holds its support `ids` in ascending order, a dense `pmf` of its own,
    and the running cdf of the pmf on `ids`, normalized the way rng.choice
    normalizes the dense one; all three are read-only, so a distribution
    cannot change after its check. A zero atom adds exactly 0.0 to a
    running sum, so the two cdfs agree at every support position, and `sample`
    draws the same context from the same generator state as
    `rng.choice(size, p=pmf)`. The cdf is built at the first sample; a
    distribution from `uniform_on` builds its pmf only when it is read.
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

    def sample(self, rng: np.random.Generator) -> int:
        """One context: the support id where a uniform draw falls in the cdf."""
        return int(self.ids[self.cdf.searchsorted(rng.random(), side="right")])

    @classmethod
    def uniform_on(cls, size: int, support: Sequence[int], sigma: float) -> "SmoothDistribution":
        """Uniform distribution on a set of distinct context ids, in any order.

        Uniform mass on k >= ceil(sigma*U) atoms is at most 1/(sigma*U), so the
        size check certifies sigma-smoothness without building the dense pmf; a
        sigma outside (0, 1], an id that is not an integer, a repeated id, an
        id outside [0, U) or too small a set raises SmoothnessError.
        """
        if not 0.0 < sigma <= 1.0:
            raise SmoothnessError(f"sigma {sigma} outside (0, 1]")
        ids = np.array(support)      # a copy: the caller may reuse its array
        if ids.size and ids.dtype.kind not in "iu":
            raise SmoothnessError(f"target set must hold integer ids, got {ids.dtype}")
        if ids.ndim != 1:
            raise SmoothnessError(f"target set must be a flat list of ids, got shape {ids.shape}")
        if ids.size > 1 and not (ids[1:] > ids[:-1]).all():
            ids = np.sort(ids)
            dup = np.flatnonzero(ids[1:] == ids[:-1])
            if dup.size:
                raise SmoothnessError(f"target set repeats context id {ids[dup[0]]}")
        if ids.size and (ids[0] < 0 or ids[-1] >= size):     # ids ascend here, in their own dtype
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise SmoothnessError(f"target set has context id {bad} outside [0, {size})")
        ids = ids.astype(np.int64, copy=False)
        ids.flags.writeable = False
        k = min_support_size(sigma, size)
        if ids.size < k:
            raise SmoothnessError(
                f"target set of size {ids.size} below minimum {k} for sigma={sigma}")
        dist = cls.__new__(cls)
        dist.size, dist.sigma, dist.ids, dist.collision = size, sigma, ids, 1.0 / ids.size
        return dist


def read_static_set(ids, size: int, sigma: float) -> Optional[list]:
    """A configured static target set as Python ints, None if there is none.
    An entry `read_ids` refuses, a repeated id or fewer than ceil(sigma * size)
    ids raises ConfigError. A sigma outside (0, 1] is left for AdversaryPolicy
    to name."""
    if ids is None:
        return None
    ids = read_ids(ids, "adversary.set", size)
    seen = set()
    for i, v in enumerate(ids):
        if v in seen:
            raise ConfigError(f"adversary.set[{i}]: context id {v} repeated")
        seen.add(v)
    k = min_support_size(sigma, size) if 0.0 < sigma <= 1.0 else 0
    if len(ids) < k:
        raise ConfigError(f"adversary.set: {len(ids)} contexts, fewer than "
                          f"ceil(sigma * U) = {k} at sigma = {sigma:g}")
    return ids


class StaticSubsetRule:
    """Context rule: uniform on a fixed subset of the universe, by default the
    first ceil(sigma * U) ids, built and checked once per `reset`."""

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
    if not isinstance(fs, dict):
        raise ConfigError("adversary.f_star: required for realizable labels")
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
    non-fixed ones. A static `set` smaller than ceil(sigma * U) is rejected here.
    """
    if not isinstance(spec, dict):
        raise ConfigError("adversary: must be an object")
    context = spec.get("context", "subset_uniform")
    if context != "subset_uniform":
        raise ConfigError(f"adversary.context: unknown kind {context!r}")
    rule = spec.get("rule", "static")
    subset = read_static_set(spec.get("set") if rule == "static" else None, family.size, sigma)

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
    known = ["context", "rule", "label", *_LABEL_KEYS[label_kind]]
    check_keys(spec, "adversary", known + (["set"] if rule == "static" else []))
    return policy
