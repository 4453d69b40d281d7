"""Executable analysis quantities: chi-square stability of the perturbed-leader
count vector, Monte Carlo Rademacher complexity, the composite regret-bound
evaluator, and the exact NML (stochastic-complexity) value on fixed contexts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .adversary import SmoothDistribution
from .hypotheses import _BLOCK_BYTES, Hypothesis, RegionFamily, read_indices

LOG_ZERO = -1e300
# Work limits: the label-1 count vectors chi_square_bruteforce may enumerate
# (k^U for a k-count support over U contexts), and the horizon and hypothesis
# count nml_value accepts
CHI2_MAX_CELLS = 2e8
NML_MAX_HORIZON = 22
NML_MAX_HYPOTHESES = 10_000


def chi_square_closed_form(target: SmoothDistribution, n_rate: float) -> tuple[float, float]:
    """Collision form (2U/n) * sum_x D(x)^2 of the one-step chi-square divergence,
    together with its smoothness bound 2/(sigma*n)."""
    if not 0 < n_rate < math.inf:
        raise ValueError("n_rate must be positive")
    value = float(2.0 * target.size / n_rate * target.collision)
    scale = target.sigma * n_rate
    bound = 2.0 / scale if scale > 0.0 else math.inf     # sigma * n can underflow to 0
    return value, bound


def chi_square_bruteforce(target: SmoothDistribution, n_rate: float,
                          tail_cutoff: float = 1e-12) -> tuple[float, float]:
    """Chi-square divergence by explicit enumeration of hallucination count vectors.

    P is the product law of the 2U counts ``n_y(x)``, each Poisson(n/2U) cut
    to its support above ``tail_cutoff``; Q is the mixture over x* ~ D of P
    with the (x*, y=1) count shifted up by one (label rule y(x) == 1, which
    the closed form is independent of). Q/P = sum_x D(x) r(n_1(x)) reads only
    the U label-1 counts, so each label-0 cell adds just its truncated mass p0
    to every sum: the enumeration runs over the k^U label-1 count vectors, one
    axis per context, times p0^U. It takes at most 64 contexts (numpy's axes)
    and k^U <= CHI2_MAX_CELLS, and raises ValueError past either.
    Returns (sum_S Q^2/P - 1, truncation diagnostic: P-mass plus Q-mass lost).
    """
    if not 0 < n_rate < math.inf:
        raise ValueError("n_rate must be positive")
    if not 0.0 < tail_cutoff < 1.0:
        raise ValueError("tail_cutoff must be in (0, 1)")
    u = target.size
    lam = n_rate / (2.0 * u)
    if math.exp(-lam) <= tail_cutoff:
        raise ValueError(f"cutoff {tail_cutoff:g} empties the support at rate {lam:g}")
    pm = [math.exp(-lam)]
    while pm[-1] > tail_cutoff and len(pm) < 500:
        pm.append(pm[-1] * lam / len(pm))
    while len(pm) > 1 and pm[-1] <= tail_cutoff:
        pm.pop()
    pm = np.asarray(pm)
    k_sup = len(pm)
    # the axis limit comes first, so the exact power has at most 64 log2(500) bits
    if u > 64 or k_sup ** u > CHI2_MAX_CELLS:
        raise ValueError(
            f"enumeration of {k_sup}^{u} count vectors exceeds {CHI2_MAX_CELLS:g} cells"
            if k_sup > 1 else f"enumeration over {u} contexts exceeds numpy's 64 axes")

    # per-coordinate shifted/unshifted pmf ratio; a zero count cannot be shifted into
    ratio = np.zeros(k_sup)
    ratio[1:] = pm[:-1] / pm[1:]
    mix_ratio = functools.reduce(np.add.outer, [d * ratio for d in target.pmf])
    # P, then Q, then Q^2/P in one new buffer (the 1.0 keeps it apart from pm
    # at U = 1); p0^U is a factor of every sum
    grid = functools.reduce(np.multiply.outer, [pm] * u, 1.0)
    label0 = float(pm.sum()) ** u
    p_mass = label0 * float(grid.sum())
    grid *= mix_ratio
    q_mass = label0 * float(grid.sum())
    grid *= mix_ratio
    discarded = (1.0 - p_mass) + (1.0 - q_mass)
    return label0 * float(grid.sum()) - 1.0, discarded


@dataclass(frozen=True)
class RademacherEstimate:
    mean: float
    stderr: float


def rademacher_estimate(family: RegionFamily, alpha: float, sample_size: int,
                        mc_rounds: int, rng: np.random.Generator) -> RademacherEstimate:
    """Monte Carlo Rademacher complexity of the truncated two-parameter class.

    Candidate sample sets are mc_rounds uniform draws plus the full-universe
    repeat pattern; one shared batch of mc_rounds sign vectors scores them all
    (common random numbers) and the hardest set wins. For each sign vector the
    supremum over hypotheses is exact: by linearity in (theta0, theta1) the
    optimum sits at an endpoint, so sup = max over regions of
    max(0, S_in) + max(0, S_out), then pushed through the truncation's affine
    map. With S_out = tau - S_in for the sign total tau, that sum is
    max(0, tau, S_in, tau - S_in), so the supremum takes two reductions over
    the regions: max(0, tau, max S_in, tau - min S_in).

    S_in depends on a region only through its membership on the sample, so
    the reductions run over `family.representatives(xs)`: every region of an
    explicit family, and on a threshold grid the thresholds at the sample's
    d distinct contexts; the class they leave out holds no sample, S_in = 0,
    which the 0 term covers. A candidate costs O(mc_rounds * t * d) on a grid
    (d = regions for an explicit family) and U-long mask work, not U times
    mc_rounds. Every S_in is a sum of +-1, an integer below 2^53, exact in any
    summation order, so the estimate equals the one over all regions.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if mc_rounds < 1:
        raise ValueError("mc_rounds must be >= 1")
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must be in [0, 1/2)")
    u = family.size
    t = sample_size

    candidates = [np.tile(np.arange(u), (t + u - 1) // u)[:t]]
    for _ in range(mc_rounds):
        candidates.append(rng.integers(0, u, size=t))
    eps = rng.integers(0, 2, size=(mc_rounds, t)) * 2.0 - 1.0
    totals = eps.sum(axis=1)
    floor = np.maximum(totals, 0.0)
    eps_t = np.ascontiguousarray(eps.T)

    best = RademacherEstimate(-np.inf, 0.0)
    for xs in candidates:
        s_in = family.contains(xs, family.representatives(xs)).T.astype(np.float64) @ eps_t
        sup_raw = np.maximum(np.maximum(floor, s_in.max(axis=0)), totals - s_in.min(axis=0))
        sup = (sup_raw + alpha * totals) / ((1.0 + 2.0 * alpha) * t)
        mean = float(sup.mean())
        if mean > best.mean:
            best = RademacherEstimate(mean, float(sup.std(ddof=1) / math.sqrt(len(sup)))
                                      if len(sup) > 1 else 0.0)
    return best


def theorem_bound(n_rate: float, alpha: float, sigma: float, T: int,
                  rad: Callable[[float], float], m: Optional[float] = None) -> float:
    """Evaluate n ln(1/a) + aT + T sqrt(ln(1/a)/(sigma n)) plus T times the
    best inner bracket (1/a) rad(n/m) + n(1-sigma)^m ln(1/a)/m + e^{-n/8}.

    rad maps a (real) sample size to a Rademacher complexity value for the
    truncated class. With m set, the inner bracket is evaluated at that block
    size; with m None it is minimized over a 32-point log grid in
    [min(1, n), n], the block sizes m may take.
    """
    if not (0 < n_rate < math.inf and 0 < T < math.inf):
        raise ValueError("n_rate and T must be positive")
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 1/2)")
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must be in (0, 1]")
    if m is not None and not 0.0 < m <= n_rate:
        raise ValueError("m must be in (0, n_rate]")
    n = n_rate
    la = math.log(1.0 / alpha)
    base = n * la + alpha * T + T * math.sqrt(la / (sigma * n))

    def bracket(block: float) -> float:
        return (rad(n / block) / alpha
                + n * (1.0 - sigma) ** block * la / block
                + math.exp(-n / 8.0))

    if m is not None:
        inner = bracket(m)
    else:
        grid = np.unique(np.geomspace(min(1.0, n), n, 32))
        inner = min(bracket(float(b)) for b in grid)
    return base + T * inner


def nml_value(family: RegionFamily, hypotheses: Sequence[Hypothesis],
              contexts: Sequence[int]) -> float:
    """ln sum over label sequences of the best in-class likelihood on fixed contexts.

    This is the log normalizer of the normalized-maximum-likelihood assignment,
    hence the exact fixed-horizon minimax regret against the finite class. The
    value is permutation invariant in the contexts; they are canonically sorted
    so the computed float is exactly invariant too.

    Contexts whose membership across the hypotheses' regions is identical form
    a class, and a hypothesis's likelihood depends on the labels only through
    the count k_c of ones in each class c of size m_c. The sum over 2^t
    sequences is therefore a sum over count vectors weighted by prod C(m_c, k_c),
    split in the middle: each half of the classes gets a table of per-hypothesis
    log-likelihoods plus log-binomial weights, and the maximum over hypotheses
    of a pair of entries is filled in row blocks. The work is prod (m_c + 1)
    times the hypothesis count, at most 2^t times it. The contexts and region
    indices must be 1-D lists of integers in range (`read_indices`).
    """
    xs = np.sort(read_indices(contexts, "context", family.size))
    t = xs.size
    n_hyp = len(hypotheses)
    if t < 1 or t > NML_MAX_HORIZON:
        raise ValueError(f"horizon {t} outside [1, {NML_MAX_HORIZON}]")
    if n_hyp < 1 or n_hyp > NML_MAX_HYPOTHESES:
        raise ValueError(f"hypothesis count {n_hyp} outside [1, {NML_MAX_HYPOTHESES}]")
    regions = read_indices([h.region_index for h in hypotheses], "region index", len(family))
    classes, sizes = np.unique(family.contains(xs, regions), axis=0,
                               return_counts=True)          # (n_cls, n_hyp), (n_cls,)
    theta0 = np.array([h.theta0 for h in hypotheses], dtype=np.float64)
    theta1 = np.array([h.theta1 for h in hypotheses], dtype=np.float64)
    p1 = np.where(classes, theta0, theta1)
    # LOG_ZERO stays finite so that a zero count times it is 0, not nan
    l1 = np.where(p1 > 0.0, np.log(np.maximum(p1, 1e-320)), LOG_ZERO)
    l0 = np.where(p1 < 1.0, np.log(np.maximum(1.0 - p1, 1e-320)), LOG_ZERO)

    # split the classes where the running product of (m_c + 1) is nearest to
    # the square root of the whole product
    log_cells = np.cumsum(np.log(sizes + 1.0))
    split = int(np.argmin(np.abs(log_cells - log_cells[-1] / 2.0))) + 1
    tables = []
    for half in (slice(0, split), slice(split, None)):
        table = np.zeros((n_hyp, 1))
        for m, a1, a0 in zip(sizes[half], l1[half], l0[half]):
            k = np.arange(m + 1)
            weight = np.log([math.comb(int(m), int(j)) for j in k])
            scores = k[None, :] * a1[:, None] + (m - k)[None, :] * a0[:, None] + weight
            table = (table[:, :, None] + scores[:, None, :]).reshape(n_hyp, -1)
        tables.append(table)
    cols, rows = tables                                     # (n_hyp, N_a), (n_hyp, N_b)

    # the largest pair sum is the largest over hypotheses of the two row maxima
    shift = float(np.max(cols.max(axis=1) + rows.max(axis=1)))
    n_a, n_b = cols.shape[1], rows.shape[1]
    block = max(1, _BLOCK_BYTES // (8 * n_a))
    best = np.empty((min(block, n_b), n_a))
    pair = np.empty_like(best)
    total = 0.0
    for start in range(0, n_b, block):
        r = rows[:, start:start + block]
        out, tmp = best[:r.shape[1]], pair[:r.shape[1]]
        np.add.outer(r[0], cols[0], out=out)
        for h in range(1, n_hyp):
            np.add.outer(r[h], cols[h], out=tmp)
            np.maximum(out, tmp, out=out)
        out -= shift
        np.exp(out, out=out)
        total += float(out.sum())
    return shift + math.log(total)
