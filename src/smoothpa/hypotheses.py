"""Region-indexed two-parameter hypothesis classes and the empirical-loss oracle.

A hypothesis f = (A, theta0, theta1) predicts theta0 on contexts inside region A
and theta1 outside. Families are finite lists of candidate regions: either the
threshold grid {x <= a} or an explicit list of subsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, allocate, check_keys, parse_field, read_ids

THRESHOLD_GRID = "threshold_grid"
EXPLICIT = "explicit"


class RegionFamily:
    """Finite list of candidate regions over the contexts {0, ..., size-1},
    which carry the uniform base measure.

    kind is "threshold_grid" (region a is {x : x <= a}, one per grid point,
    totally ordered by inclusion) or "explicit" (arbitrary subsets), and
    follows from `member`: a grid has none. Build one with `threshold_grid`,
    `explicit` or `from_spec`. Outside this module membership is read only
    through `contains`: a grid compares contexts with thresholds, so it stores
    no matrix; an explicit family gathers rows of its stored (U, regions)
    boolean matrix, context-major so that one context's memberships are one
    contiguous row.
    """

    def __init__(self, size: int, member: Optional[np.ndarray] = None):
        if size < 1:
            raise ValueError("family size must be >= 1")
        self.size = size
        self.kind = THRESHOLD_GRID if member is None else EXPLICIT
        self._member = member
        self._grid = (allocate(size, "family.size", "contexts", lambda: np.arange(size))
                      if member is None else None)

    @classmethod
    def threshold_grid(cls, size: int) -> "RegionFamily":
        return cls(size)

    @classmethod
    def explicit(cls, size: int, regions: Sequence[list]) -> "RegionFamily":
        if len(regions) == 0:
            raise ConfigError("family.regions: must be a nonempty list of context id lists")
        member = allocate(size, "family.size", "contexts",
                          lambda: np.zeros((size, len(regions)), dtype=bool))
        for i, ids in enumerate(regions):
            member[read_ids(ids, f"family.regions[{i}]", size), i] = True
        return cls(size, member)

    def __len__(self) -> int:
        if self.kind == THRESHOLD_GRID:
            return self.size
        return self._member.shape[1]

    def contains(self, xs, regions=None) -> np.ndarray:
        """Boolean membership of shape xs.shape + (len(regions),): entry [..., j]
        is whether context xs[...] lies in region regions[j]. regions None
        means every region of the family, in order."""
        xs = np.asarray(xs)
        if self.kind == THRESHOLD_GRID:
            # one context, as in a learner's update, compares without a new axis
            return ((xs[..., None] if xs.ndim else xs)
                    <= (self._grid if regions is None else np.asarray(regions)))
        if regions is None:
            return self._member[xs]
        return self._member[xs[..., None], regions]

    def representatives(self, xs) -> Optional[np.ndarray]:
        """Regions enough for a minimum or maximum over the family of any
        quantity that depends on a region only through its membership on the
        contexts xs, as the `regions` argument of `contains`: None (every
        region) for an explicit family; for a threshold grid, the thresholds
        at the distinct contexts of xs, sorted, one per class of thresholds
        whose membership agrees on every context. They leave out one class,
        the thresholds below every context, which holds none of them."""
        if self.kind != THRESHOLD_GRID:
            return None
        # a U-long mask is smaller than the family itself, and np.unique took
        # 3-10x as long at T = 1024 (and mapped 1.6 MB more of numpy's code
        # into memory)
        present = np.zeros(self.size, dtype=bool)
        present[xs] = True
        return np.flatnonzero(present)

    @classmethod
    def from_spec(cls, obj: dict) -> "RegionFamily":
        """The family a JSON spec describes. A malformed spec raises ConfigError
        naming the field, e.g. `family.regions[0][1]: context id 9 outside [0, 8)`.
        An explicit family without a size covers its largest context id."""
        if not isinstance(obj, dict):
            raise ConfigError("family: must be an object")
        if "kind" not in obj:
            raise ConfigError("family.kind: missing")
        kind = obj["kind"]
        if kind == THRESHOLD_GRID:
            check_keys(obj, "family", ("kind", "size"))
            return cls.threshold_grid(_size(obj.get("size")))
        if kind != EXPLICIT:
            raise ConfigError(f"family.kind: unknown kind {kind!r}")
        check_keys(obj, "family", ("kind", "size", "regions"))
        regions = obj.get("regions")
        if not isinstance(regions, list):
            raise ConfigError("family.regions: must be a nonempty list of context id lists")
        if obj.get("size") is not None:
            return cls.explicit(_size(obj["size"]), regions)
        regions = [read_ids(ids, f"family.regions[{i}]", math.inf)
                   for i, ids in enumerate(regions)]
        return cls.explicit(max([1] + [max(r) + 1 for r in regions if r]), regions)


def _size(value) -> int:
    if value is None:
        raise ConfigError("family.size: missing")
    size = parse_field(value, "family.size", int)
    if size < 1:
        raise ConfigError(f"family.size: {size} must be >= 1")
    return size


@dataclass(frozen=True)
class Hypothesis:
    region_index: int
    theta0: float
    theta1: float


HYPOTHESIS_KEYS = ("region_index", "theta0", "theta1")


def read_hypothesis(values, path: str, family: RegionFamily) -> Hypothesis:
    """The hypothesis the JSON values (region_index, theta0, theta1) name, with a
    region of the family and thetas in [0, 1]; a null or bad value raises
    ConfigError naming it, e.g. `hypotheses[0].theta1: 1.5 outside [0, 1]`."""
    names = [f"{path}.{key}" for key in HYPOTHESIS_KEYS]
    for name, value in zip(names, values):
        if value is None:
            raise ConfigError(f"{name}: missing")
    region, *thetas = (parse_field(value, name, cast)
                       for value, name, cast in zip(values, names, (int, float, float)))
    if not 0 <= region < len(family):
        raise ConfigError(f"{names[0]}: {region} outside [0, {len(family)})")
    for name, theta in zip(names[1:], thetas):
        if not 0.0 <= theta <= 1.0:
            raise ConfigError(f"{name}: {theta} outside [0, 1]")
    return Hypothesis(region, *thetas)


def _inside(family: RegionFamily, xs, regions):
    """Whether context xs lies in region regions, elementwise over arrays of
    one shape; both go unchecked."""
    if family.kind == THRESHOLD_GRID:
        return xs <= regions
    return family._member[xs, regions]


def evaluate(family: RegionFamily, h: Hypothesis, x):
    """Predicted probability of label 1 at context x: theta0 inside A, theta1
    outside. x may be an array of contexts, and h's fields arrays of its
    shape, one hypothesis per context. A context or region that is not an
    integer, or outside [0, family.size) or [0, len(family)), raises
    ValueError from `read_indices` naming it, e.g. `context of type float64
    is not an integer` or `region 9 outside [0, 8)`."""
    for noun, value, top in (("context", x, family.size), ("region", h.region_index, len(family))):
        read_indices(np.ravel(value), noun, top)
    inside = _inside(family, x, h.region_index)
    if isinstance(inside, np.ndarray):
        return np.where(inside, h.theta0, h.theta1)
    return h.theta0 if inside else h.theta1


# Counts below 2**_TABLE_BITS read j ln j from a table of at most 8 MiB
_TABLE_BITS = 20


def _j_ln_j(j) -> np.ndarray:
    """j ln j for every count in j, as float64: +0.0 at 0 and NaN at a
    negative or NaN count, the values of xlogy(j, j).

    Each log is math.log's, which is the C library's log, as xlogy's is.
    np.log is not: its vectorized log differs from the C library's in the
    last bit for some counts (on an AVX-512 host, 51 of the first 2**20).
    """
    j = np.asarray(j, dtype=np.float64)
    out = np.zeros(j.shape)
    pos = j > 0
    jp = j[pos]
    out[pos] = jp * np.fromiter(map(math.log, jp.tolist()), np.float64, jp.size)
    out[~(j >= 0)] = np.nan
    return out


@functools.lru_cache(maxsize=None)
def _jlnj(bits: int) -> np.ndarray:
    """Read-only table of j ln j for j = 0, ..., 2**bits - 1."""
    table = _j_ln_j(np.arange(1 << bits))
    table.flags.writeable = False
    return table


def _nll(n, k, top):
    """Minimized negative log-likelihood n*H(k/n) for integer-valued arrays of
    Bernoulli counts 0 <= k <= n, 0 ln 0 = 0, with top a bound the caller
    knows no count of n exceeds: any such bound gives the same bits.

    Below 2**_TABLE_BITS each j ln j is a gather from the table that holds
    top. Larger counts go to _j_ln_j as given: integer counts, n - k
    included, are exact and cast to float once, there. Both read the same
    _j_ln_j values, so the bits do not depend on which path a count takes.
    """
    if not top < 1 << _TABLE_BITS:
        return _j_ln_j(n) - _j_ln_j(k) - _j_ln_j(n - k)
    n, k = n.astype(np.intp, copy=False), k.astype(np.intp, copy=False)
    table = _jlnj(int(top).bit_length())
    out = table[n]
    out -= table[k]
    out -= table[n - k]
    return out


def read_indices(values, noun: str, top: int, outside: str = "") -> np.ndarray:
    """values as a 1-D int64 array of entries in [0, top). Another shape, a
    float, string or object array, or an entry outside the range (checked
    before the cast, so no id wraps into it) raises ValueError naming it,
    e.g. `context 9 outside [0, 4)`, or `label 2 not in {0, 1}` with that
    `outside`."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{noun} array of shape {arr.shape}, not 1-D")
    if arr.size and arr.dtype.kind not in "biu":
        raise ValueError(f"{noun} of type {arr.dtype} is not an integer")
    if arr.size and not (arr.min() >= 0 and arr.max() < top):
        bad = arr[(arr < 0) | (arr >= top)][0]
        raise ValueError(f"{noun} {bad} {outside or f'outside [0, {top})'}")
    return arr.astype(np.int64, copy=False)


def _read_examples(xs, ys, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The examples' columns as int64 arrays, read by `read_indices`, after
    a check that they are 1-D and of equal length."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"contexts of shape {xs.shape} and labels of shape {ys.shape}: "
                         f"need two 1-D columns of equal length")
    return read_indices(xs, "context", size), read_indices(ys, "label", 2, "not in {0, 1}")


def examples_to_counts(xs, ys, size: int) -> np.ndarray:
    """Per-context counts of the examples (xs[i], ys[i]) as one int64 array of
    shape (2, size): row 0 the samples, row 1 the positive labels. Columns
    `_read_examples` refuses raise ValueError."""
    xs, ys = _read_examples(xs, ys, size)
    return np.stack((np.bincount(xs, minlength=size), np.bincount(xs[ys == 1], minlength=size)))


def region_counts(values: np.ndarray, family: RegionFamily) -> np.ndarray:
    """Per-region sums of non-negative per-context counts along the last axis:
    entry a sums the contexts inside region a. Threshold grids take one
    prefix-sum pass, explicit families the product with the membership matrix,
    one column block of it at a time; integer counts come out as exact int64
    sums."""
    if family.kind == THRESHOLD_GRID:
        return np.cumsum(values, axis=-1)
    # An integer product does not run on BLAS (about 20x slower than float64 @
    # bool); the float64 one is exact while every row totals below 2**53, as
    # every partial sum then does.
    if values.dtype.kind != "i" or values.sum(axis=-1).max() < 1 << 53:
        lhs = values.astype(np.float64, copy=False)
    else:
        lhs = values
    member = family._member
    out = np.empty(values.shape[:-1] + member.shape[1:], dtype=values.dtype)
    # each block of membership columns, cast to the product's type, fits _MEMBER_BYTES
    cols = max(1, _MEMBER_BYTES // (8 * family.size))
    for a in range(0, member.shape[1], cols):
        out[..., a:a + cols] = lhs @ member[:, a:a + cols].astype(lhs.dtype)
    return out


# The oracle's count layout, which `_region_losses`, `leader_frequency` and
# `prefix_best_losses` read: (n, k) x (inside, outside) x [rounds or games] x
# region, the samples and the labels 1 on each side of each region.
# `side_counts` puts any batch axes first instead, and FTPL moves its games
# axis into place. One order for both slowed a caller either way: the
# readers' order in `side_counts` FTPL's single-game round, and
# `side_counts`' order in the readers the explicit-family comparator.


def side_counts(values: np.ndarray, family: RegionFamily) -> np.ndarray:
    """Per-region counts from per-context counts of shape (..., 2, U), row 0
    the samples and row 1 the positive labels: shape (..., 2, 2,
    len(family)), the oracle's count layout with the batch axes first. The
    outside counts are the row totals less the inside ones, exact for
    integer counts; a grid's totals are its last threshold's inside counts."""
    inside = region_counts(values, family)
    total = inside[..., -1:] if family.kind == THRESHOLD_GRID else values.sum(axis=-1)[..., None]
    return np.stack((inside, total - inside), axis=-2)


def _region_losses(counts: np.ndarray, top) -> np.ndarray:
    """Per-region minimized log-loss, the inside side's plus the outside's,
    from counts in the oracle's count layout, with top a bound on the sample
    counts as `_nll` takes it. All counts must be integer-valued, in integer
    or float arrays: the losses index a j ln j table with them, which would
    truncate a fractional count."""
    side = _nll(counts[0], counts[1], top)
    return side[0] + side[1]


def _frequency(k, n):
    """k / n, or 1/2 where n is 0, for Python ints or elementwise for int64
    arrays: the correctly rounded quotient, as int division gives it. Counts
    below 2^53 are exact in float64, where one division rounds once."""
    if not isinstance(n, np.ndarray):
        return k / n if n > 0 else 0.5
    if n.max() < 2 ** 53:
        return np.divide(k, n, out=np.full(n.shape, 0.5), where=n > 0)
    return np.array([_frequency(a, b) for a, b in zip(k.tolist(), n.tolist())])


def mle_from_counts(counts: np.ndarray, family: RegionFamily) -> tuple[Hypothesis, float]:
    """Loss-minimizing hypothesis from (2, U) per-context counts, row 0 the
    samples and row 1 the positive labels, plus its loss.

    Per region the optimal theta_j is the empirical frequency k_j/n_j (1/2 when
    the side is empty); ties between regions break to the lowest index.
    Counts no examples give raise ValueError, before the sample total becomes
    the losses' count bound: another shape, a dtype that is not integer, or a
    context whose labels 1 are not in [0, samples], the first such one named,
    e.g. `context 0: 3 labels 1 of 2 samples, outside [0, 2]`, or a sample
    total at or past 2^63, which int64 cannot hold.
    """
    counts = np.asarray(counts)
    if counts.shape != (2, family.size):
        raise ValueError(f"counts of shape {counts.shape}, not (2, {family.size})")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts of type {counts.dtype} are not integers")
    bad = ~((0 <= counts[1]) & (counts[1] <= counts[0]))
    if bad.any():
        x = int(bad.argmax())
        n, k = counts[:, x].tolist()
        raise ValueError(f"context {x}: {k} labels 1 of {n} samples, outside [0, {n}]")
    # an int64 total at or past 2^63 wraps; the float64 sum is within far less
    # than half of the total, so only one near 2^63 takes the exact int sum
    if counts[0].sum(dtype=np.float64) >= 2.0 ** 62:
        total = sum(counts[0].tolist())
        if total >= 2 ** 63:
            raise ValueError(f"sample total {total} is at or past 2^63")
    counts = side_counts(counts, family)
    # the sample total, inside plus outside any one region, bounds every count
    losses = _region_losses(counts, counts[0, 0, 0] + counts[0, 1, 0])
    a = int(losses.argmin())
    (n_in, n_out), (k_in, k_out) = counts[:, :, a].tolist()
    return Hypothesis(a, _frequency(k_in, n_in), _frequency(k_out, n_out)), losses[a]


def leader_frequency(counts: np.ndarray, family: RegionFamily, xs, top):
    """The loss-minimizing hypothesis's prediction at context xs: k/n on xs's
    side of the leading region, or 1/2 when that side is empty, read after
    the argmin from that side alone. The counts are per region, in the
    oracle's count layout and integer-valued as `_region_losses` needs,
    and top is a bound no sample count exceeds, as `_nll` takes it. Counts
    of shape (2, 2, games, regions) with one context per game in xs give an
    array over the games, each entry equal to its game's frequency alone;
    counts past 2^53 keep the correctly rounded quotient of their integers.
    The contexts go unchecked.
    """
    idx = _region_losses(counts, top).argmin(axis=-1)
    if not idx.ndim:
        a = int(idx)
        n, k = counts[:, 0 if _inside(family, xs, a) else 1, a].tolist()
        return _frequency(k, n)
    n, k = counts[:, 1 - _inside(family, xs, idx), np.arange(idx.size), idx]
    return _frequency(k, n)


def mle_oracle(xs, ys, family: RegionFamily) -> Hypothesis:
    """Empirical-loss minimizer over (region, theta0, theta1) on the examples
    (xs[i], ys[i]); empty columns are allowed."""
    return mle_from_counts(examples_to_counts(xs, ys, family.size), family)[0]


def offline_best_loss(xs, ys, family: RegionFamily) -> float:
    """Cumulative log-loss of the best fixed hypothesis on the examples (xs[i], ys[i])."""
    return mle_from_counts(examples_to_counts(xs, ys, family.size), family)[1]


# Temporary memory one block of rows may use: rounds in prefix_best_losses, in
# the FTPL learner's hallucination draws (region_counts included) and in a
# game's context uniforms, trials in the rejection coupling's draw and scan,
# and one half's count vectors in nml_value's pair sums; a block's row count
# follows from it and the sizes of the family or table. Larger blocks save
# only some per-block dispatch and raise peak memory.
_BLOCK_BYTES = 1 << 18
# The share of that budget region_counts gives an explicit family's
# membership: one column block of it at a time, cast to the product's type
# (at least one column), which FTPL's draw counts in its row sizing.
_MEMBER_BYTES = _BLOCK_BYTES // 8


def prefix_best_losses(xs, ys, family: RegionFamily) -> np.ndarray:
    """Offline-best loss on every prefix of one trajectory's columns (xs, ys),
    of shape (T,): entry t - 1 is the best in-class loss on the first t
    examples, as ComparatorTracker.update returns. Columns `_read_examples`
    refuses raise ValueError.

    The minimum runs over `family.representatives(xs)`: all of an explicit
    family's regions, and a threshold grid's thresholds at the trajectory's
    distinct contexts, one per class of thresholds whose membership agrees
    on every context seen: such regions have equal counts on every prefix, so equal losses.
    The one class they leave out, thresholds below every context, holds no
    context, so its loss is that of the class holding all of them: a
    region's loss is the same with inside and outside swapped. Per region,
    the counts inside it on every prefix are running sums over time of the
    examples' membership rows, built a block of rounds at a time in the
    oracle's count layout; the outside counts are the prefix totals
    less the inside ones. All counts are int64, exact whatever the summation
    order, so the losses equal those over all regions bit for bit.
    """
    xs, ys = _read_examples(xs, ys, family.size)
    if not xs.size:
        return np.empty(0)
    regions = family.representatives(xs)
    m = len(family) if regions is None else len(regions)
    # 8-byte words per (round, region) while a block's losses are formed: the
    # membership block (bool), the four count blocks, and in _nll each side's
    # loss, count difference and table gather
    rows = max(1, _BLOCK_BYTES // (8 * 11 * m))
    out = np.empty(len(xs))
    carry = 0
    total_k = np.cumsum(ys)
    for start in range(0, len(xs), rows):
        stop = min(start + rows, len(xs))
        inside = family.contains(xs[start:stop], regions)
        counts = np.empty((2, 2) + inside.shape, dtype=np.int64)
        counts[0, 0] = inside
        np.multiply(inside, ys[start:stop, None], out=counts[1, 0])
        counts[:, 0, 0] += carry
        np.cumsum(counts[:, 0], axis=1, out=counts[:, 0])
        np.subtract(np.arange(start + 1, stop + 1)[:, None], counts[0, 0], out=counts[0, 1])
        np.subtract(total_k[start:stop, None], counts[1, 0], out=counts[1, 1])
        # no count exceeds the prefix length
        out[start:stop] = _region_losses(counts, stop).min(axis=1)
        # a copy, so the carry does not keep this block's counts alive
        carry = counts[:, 0, -1].copy()
    return out


class ComparatorTracker:
    """Incremental offline-best loss over growing prefixes of one trajectory,
    from (2, U) per-context counts as `examples_to_counts` builds them."""

    def __init__(self, family: RegionFamily):
        self.family = family
        self.counts = np.zeros((2, family.size), dtype=np.int64)

    def update(self, x: int, y: int) -> float:
        """Account for one more example and return the best loss on the prefix so far."""
        (x,), (y,) = _read_examples([x], [y], self.family.size)
        self.counts[:1 + y, x] += 1
        return mle_from_counts(self.counts, self.family)[1]
