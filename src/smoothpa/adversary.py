"""Sigma-smooth context distributions, adaptive context rules, and label strategies.

A distribution over the finite universe is sigma-smooth (w.r.t. the uniform base
measure) iff every atom carries mass at most 1/(sigma*U); on finite universes the
singleton bound is equivalent to the all-measurable-sets condition.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, SmoothnessError, check_keys, parse_field
from .hypotheses import Hypothesis, RegionFamily, evaluate

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

    It holds its support `ids` in ascending order, a read-only dense `pmf`
    of its own, and the running cdf of the pmf on `ids`, normalized the way
    rng.choice normalizes the dense one. A zero atom adds exactly 0.0 to a
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
        k = min_support_size(sigma, size)
        if ids.size < k:
            raise SmoothnessError(
                f"target set of size {ids.size} below minimum {k} for sigma={sigma}")
        dist = cls.__new__(cls)
        dist.size, dist.sigma, dist.ids, dist.collision = size, sigma, ids, 1.0 / ids.size
        return dist


def check_static_set(ids, size: int, sigma: float) -> None:
    """Reject a configured static target set with a bad entry (not an integer,
    outside [0, size), or repeated) or with fewer than ceil(sigma * size) ids.
    A sigma outside (0, 1] is left for AdversaryPolicy to name."""
    if ids is None:
        return
    if not isinstance(ids, (list, tuple)):
        raise ConfigError("adversary.set: must be a list of context ids")
    seen = set()
    for i, v in enumerate(ids):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ConfigError(f"adversary.set[{i}]: {v!r} is not an integer context id")
        if not 0 <= v < size:
            raise ConfigError(f"adversary.set[{i}]: context id {v} outside [0, {size})")
        if v in seen:
            raise ConfigError(f"adversary.set[{i}]: context id {v} repeated")
        seen.add(v)
    k = min_support_size(sigma, size) if 0.0 < sigma <= 1.0 else 0
    if len(ids) < k:
        raise ConfigError(f"adversary.set: {len(ids)} contexts, fewer than "
                          f"ceil(sigma * U) = {k} at sigma = {sigma:g}")


class StaticSubsetRule:
    """Context rule: uniform on a fixed subset of the universe."""

    def __init__(self, subset: Optional[Sequence[int]] = None):
        self.subset = None if subset is None else np.asarray(subset, dtype=np.int64)

    def reset(self, size: int, sigma: float) -> None:
        if self.subset is None:
            self._set = np.arange(min_support_size(sigma, size))
        else:
            self._set = self.subset

    def observe(self, x: int, q: float, y: int) -> None:
        pass

    def target_set(self) -> np.ndarray:
        return self._set


class AdaptiveExtremenessRule:
    """Context rule concentrating where the learner's last prediction was most extreme.

    Tracks the most recent prediction per context (1/2 before any visit) and
    proposes the ceil(sigma*U) contexts with the largest |q - 1/2|, a heuristic
    stress rule with no optimality claim. Ties break to the lowest context id.

    One observation moves one key, so the set can change only if the observed
    context is an outsider, or an insider whose key falls below the best
    outsider's. The set, its membership mask and that best outsider are kept
    between rounds, and the argsort reruns only after such an observation.
    When every context is drawn from the set, the set stays the first
    ceil(sigma*U) ids: an insider's key (|q - 1/2|, lower id first) always
    beats an unvisited outsider's (0, id >= ceil(sigma*U)).
    """

    def reset(self, size: int, sigma: float) -> None:
        self._k = min_support_size(sigma, size)
        self._last_q = np.full(size, 0.5)
        self._stale = True

    def observe(self, x: int, q: float, y: int) -> None:
        self._last_q[x] = q
        if self._stale or self._best is None:
            return
        if not self._inside[x]:
            self._stale = True
            return
        e = abs(float(q) - 0.5)
        best_e, best = self._best
        if e < best_e or (e == best_e and x > best):
            self._stale = True

    def target_set(self) -> np.ndarray:
        if self._stale:
            extremeness = np.abs(self._last_q - 0.5)
            order = np.argsort(-extremeness, kind="stable")
            self._set = np.sort(order[: self._k])
            self._set.flags.writeable = False
            self._inside = np.zeros(self._last_q.size, dtype=bool)
            self._inside[self._set] = True
            self._best = None       # (extremeness, id) of the best outsider, if any
            if self._k < order.size:
                best = int(order[self._k])
                self._best = (float(extremeness[best]), best)
            self._stale = False
        return self._set


class GreedyLabelRule:
    """Per-round loss-maximizing label: the side the learner considers less
    likely. Ties at q = 1/2 resolve to 0 for determinism."""

    def reset(self, rng):
        pass

    def label(self, x: int, q: float) -> int:
        return 0 if q >= 0.5 else 1


class RealizableLabelRule:
    """Labels drawn from a fixed hypothesis: y ~ Bernoulli(f*(x))."""

    def __init__(self, f_star: Hypothesis, family: RegionFamily):
        self.f_star = f_star
        self.family = family

    def reset(self, rng):
        self._rng = rng

    def label(self, x: int, q: float) -> int:
        return int(self._rng.random() < evaluate(self.family, self.f_star, x))


class FixedSequenceLabelRule:
    """Labels replayed from a fixed list, one per round since `reset`; raises
    if the game outruns it."""

    def __init__(self, labels: Sequence[int]):
        if any(isinstance(v, bool) or v not in (0, 1) for v in labels):
            raise ConfigError("adversary.labels: entries must be 0 or 1")
        self.labels = [int(v) for v in labels]

    def reset(self, rng):
        self._t = 0

    def label(self, x: int, q: float) -> int:
        if self._t >= len(self.labels):
            raise ConfigError(f"adversary.labels: exhausted after {len(self.labels)} rounds")
        self._t += 1
        return self.labels[self._t - 1]


class AdversaryPolicy:
    """Adaptive context rule plus label rule over the contexts {0, ..., size-1},
    owning per-trajectory RNG.

    Every emitted distribution is validated sigma-smooth on construction, so a
    violation anywhere in a run surfaces as SmoothnessError.
    """

    def __init__(self, context_rule, label_rule, sigma: float, size: int):
        if not 0.0 < sigma <= 1.0:
            raise ConfigError(f"adversary.sigma: {sigma} outside (0, 1]")
        self.context_rule = context_rule
        self.label_rule = label_rule
        self.sigma = sigma
        self.size = size

    def reset(self, rng: np.random.Generator) -> None:
        self.context_rule.reset(self.size, self.sigma)
        self.label_rule.reset(rng)
        self._dist = self._key = None

    def context_distribution(self) -> SmoothDistribution:
        """The uniform distribution on the rule's set. While the rule proposes
        the ids it proposed last round (by dtype and content, so an array the
        rule changed in place counts as new), the distribution checked then is
        reused."""
        ids = np.asarray(self.context_rule.target_set())
        key = (ids.dtype, ids.shape, ids.tobytes())
        if key != self._key:
            self._dist = SmoothDistribution.uniform_on(self.size, ids, self.sigma)
            self._key = key
        return self._dist

    def label(self, x: int, q: float) -> int:
        return self.label_rule.label(x, q)

    def observe(self, x: int, q: float, y: int) -> None:
        self.context_rule.observe(x, q, y)


def _f_star(fs, family: RegionFamily) -> Hypothesis:
    """The realizable labels' hypothesis from its spec; its region must be one
    of the family's and its thetas in [0, 1]."""
    if not isinstance(fs, dict):
        raise ConfigError("adversary.f_star: required for realizable labels")
    check_keys(fs, "adversary.f_star", ("region_index", "theta0", "theta1"))
    thetas = []
    for key in ("theta0", "theta1"):
        if fs.get(key) is None:
            raise ConfigError(f"adversary.f_star.{key}: missing")
        theta = parse_field(fs[key], f"adversary.f_star.{key}", float)
        if not 0.0 <= theta <= 1.0:
            raise ConfigError(f"adversary.f_star.{key}: {theta} outside [0, 1]")
        thetas.append(theta)
    idx = parse_field(fs.get("region_index", 0), "adversary.f_star.region_index", int)
    if not 0 <= idx < len(family):
        raise ConfigError(f"adversary.f_star.region_index: {idx} outside [0, {len(family)})")
    return Hypothesis(idx, *thetas)


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
    subset = spec.get("set") if rule == "static" else None
    check_static_set(subset, family.size, sigma)

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

    if rule == "static":
        context_rule = StaticSubsetRule(subset)
    elif rule == "adaptive":
        context_rule = AdaptiveExtremenessRule()
    else:
        raise ConfigError(f"adversary.rule: unknown rule {rule!r}")

    policy = AdversaryPolicy(context_rule, label_rule, sigma, family.size)
    known = ["context", "rule", "label", *_LABEL_KEYS[label_kind]]
    check_keys(spec, "adversary", known + (["set"] if rule == "static" else []))
    return policy
