"""Reference implementations the tests check the library against."""

import json
import math

import numpy as np

from smoothpa.core import GameTrace, allocate_columns, log_loss
from smoothpa.diagnostics import RademacherEstimate
from smoothpa.hypotheses import _BLOCK_BYTES, _region_losses


def laplace_integral_log(k: int, n: int) -> float:
    """ln of the Beta integral over [0,1] of t^k (1-t)^(n-k), via log-gamma.

    Equals -ln(n+1) - ln binom(n, k).
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return float(-math.log(n + 1) - log_binom)


def family_to_json(family) -> str:
    """The JSON spec `RegionFamily.from_spec` reads back as `family`; an
    explicit family's regions are read through `contains`."""
    if family.kind == "threshold_grid":
        return json.dumps({"kind": "threshold_grid", "size": family.size})
    member = family.contains(np.arange(family.size))           # (U, regions)
    regions = [np.flatnonzero(col).tolist() for col in member.T]
    return json.dumps({"kind": "explicit", "size": family.size, "regions": regions})


def region_bitmaps(family):
    """Dense (regions, U) membership oracle, row a the indicator of region a,
    built from the family's JSON spec with one Python comparison per cell."""
    spec = json.loads(family_to_json(family))
    u = spec["size"]
    if spec["kind"] == "threshold_grid":
        return np.array([[x <= a for x in range(u)] for a in range(u)], dtype=bool)
    return np.array([[x in ids for x in range(u)] for ids in spec["regions"]], dtype=bool)


def sample(dist, rng) -> int:
    """One context from a smooth distribution: the support id where one
    uniform from `rng` falls in its cdf, the lookup `core.run_game` makes."""
    return int(dist.ids[dist.cdf.searchsorted(rng.random(), side="right")])


def run_game_one_round_at_a_time(learner, adversary, T: int, seed: int, run_id: str = "game"):
    """One seeded trajectory played one round at a time, with Python scalars:
    the game loop `core.run_game` had before it played games in lockstep,
    and the reference each of its games must equal bit for bit. Returns the
    trace and the game's context, learner and adversary generators."""
    ctx_ss, learner_ss, adv_ss = np.random.SeedSequence(seed).spawn(3)
    ctx_rng, learner_rng, adv_rng = (np.random.default_rng(s) for s in (ctx_ss, learner_ss, adv_ss))
    learner.reset(learner_rng)
    adversary.reset(adv_rng)
    xs, ys, qs, losses, comparator = allocate_columns(T)
    for t in range(T):
        x = sample(adversary.context_distribution(), ctx_rng)
        q = float(learner.predict(x))
        y = int(adversary.label(x, q))
        losses[t] = log_loss(q, y)
        learner.update(x, y)
        adversary.observe(x, q, y)
        xs[t], ys[t], qs[t] = x, y, q
    return GameTrace(run_id, seed, xs, ys, qs, losses, comparator), (ctx_rng, learner_rng, adv_rng)


def prefix_best_losses_all_regions(xs, ys, family) -> np.ndarray:
    """Offline-best loss on every prefix of one trajectory (xs, ys), the
    minimum over every region of the family: the comparator
    `hypotheses.prefix_best_losses` had before it ran on class
    representatives, and the reference it must equal bit for bit.

    Per region, the counts inside it on every prefix are running sums over
    time of the examples' membership rows, built a block of rounds at a time
    in the layout `side_counts` builds; the outside counts are the prefix
    totals less the inside ones, all int64.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    m = len(family)
    rows = max(1, _BLOCK_BYTES // (8 * 11 * m))
    out = np.empty(len(xs))
    carry = np.zeros((2, m), dtype=np.int64)
    total_k = np.cumsum(ys)
    for start in range(0, len(xs), rows):
        stop = min(start + rows, len(xs))
        inside = family.contains(xs[start:stop])
        counts = np.empty((2, 2, stop - start, m), dtype=np.int64)
        counts[0, 0] = inside
        np.multiply(inside, ys[start:stop, None], out=counts[1, 0])
        counts[:, 0, 0] += carry
        np.cumsum(counts[:, 0], axis=1, out=counts[:, 0])
        np.subtract(np.arange(start + 1, stop + 1)[:, None], counts[0, 0], out=counts[0, 1])
        np.subtract(total_k[start:stop, None], counts[1, 0], out=counts[1, 1])
        out[start:stop] = _region_losses(counts).min(axis=1)
        carry = counts[:, 0, -1].copy()
    return out


def rademacher_estimate_all_regions(family, alpha, sample_size, mc_rounds, rng):
    """Monte Carlo Rademacher complexity with the supremum taken over every
    region of the family, per region the sum max(0, S_in) + max(0, S_out):
    the estimate `diagnostics.rademacher_estimate` made before it took two
    reductions over class representatives, and the reference it must equal.
    It draws the candidates and then the signs, as that function does.
    """
    u = family.size
    t = sample_size

    candidates = [np.tile(np.arange(u), (t + u - 1) // u)[:t]]
    for _ in range(mc_rounds):
        candidates.append(rng.integers(0, u, size=t))
    eps = rng.integers(0, 2, size=(mc_rounds, t)) * 2.0 - 1.0
    totals = eps.sum(axis=1)

    best = RademacherEstimate(-np.inf, 0.0)
    for xs in candidates:
        s_in = eps @ family.contains(xs).astype(np.float64)     # signed counts per region
        s_out = totals[:, None] - s_in
        np.maximum(s_in, 0.0, out=s_in)
        np.maximum(s_out, 0.0, out=s_out)
        s_in += s_out
        sup_raw = s_in.max(axis=1)
        sup = (sup_raw + alpha * totals) / ((1.0 + 2.0 * alpha) * t)
        mean = float(sup.mean())
        if mean > best.mean:
            best = RademacherEstimate(mean, float(sup.std(ddof=1) / math.sqrt(len(sup)))
                                      if len(sup) > 1 else 0.0)
    return best
