"""Reference implementations the tests check the library against."""

import json
import math

import numpy as np

from smoothpa.core import GameTrace, allocate_columns, log_loss


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
        x = int(adversary.context_distribution().sample(ctx_rng))
        q = float(learner.predict(x))
        y = int(adversary.label(x, q))
        losses[t] = log_loss(q, y)
        learner.update(x, y)
        adversary.observe(x, q, y)
        xs[t], ys[t], qs[t] = x, y, q
    return GameTrace(run_id, seed, xs, ys, qs, losses, comparator), (ctx_rng, learner_rng, adv_rng)
