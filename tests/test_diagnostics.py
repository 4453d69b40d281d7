import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import smoothpa
from smoothpa.adversary import SmoothDistribution
from smoothpa.cli import main as cli_main
from smoothpa.diagnostics import (chi_square_bruteforce, chi_square_closed_form, nml_value,
                                  rademacher_estimate, theorem_bound)
from smoothpa.hypotheses import Hypothesis, RegionFamily

from oracles import rademacher_estimate_all_regions, region_bitmaps


def make_smooth(u, sigma, rng):
    raw = rng.random(u)
    raw /= raw.sum()
    cap = 1.0 / (sigma * u)
    beta = min(1.0, (cap - 1.0 / u) / (1.0 - 1.0 / u)) if u > 1 else 0.0
    return SmoothDistribution((1 - beta) / u + beta * raw, sigma)


# ---------------------------------------------------------------- chi-square

def test_chi2_uniform_meets_bound_at_sigma_one():
    d = SmoothDistribution.uniform_on(16, range(16), 1.0)
    closed, bound = chi_square_closed_form(d, 8.0)
    assert closed == pytest.approx(2.0 / 8.0, abs=1e-14)
    assert closed == pytest.approx(bound, rel=1e-12)


def test_chi2_half_universe_equality():
    u = 12
    d = SmoothDistribution.uniform_on(u, range(u // 2), 0.5)
    closed, bound = chi_square_closed_form(d, 6.0)
    assert closed == pytest.approx(4.0 / 6.0, rel=1e-12)
    assert closed == pytest.approx(2.0 / (0.5 * 6.0), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 64), st.floats(0.05, 1.0), st.integers(0, 2**31 - 1), st.floats(0.5, 40))
def test_chi2_closed_form_below_bound(u, sigma, seed, n_rate):
    d = make_smooth(u, sigma, np.random.default_rng(seed))
    closed, bound = chi_square_closed_form(d, n_rate)
    assert closed <= bound * (1 + 1e-9) + 1e-12


def test_chi2_bruteforce_matches_closed_small():
    d = SmoothDistribution.uniform_on(2, range(2), 1.0)
    closed, _ = chi_square_closed_form(d, 4.0)
    brute, discarded = chi_square_bruteforce(d, 4.0, 1e-12)
    assert abs(brute - closed) <= 1e-6 + discarded


def test_chi2_bruteforce_skewed_target():
    rng = np.random.default_rng(9)
    d = make_smooth(3, 0.4, rng)
    closed, _ = chi_square_closed_form(d, 6.0)
    brute, discarded = chi_square_bruteforce(d, 6.0, 1e-12)
    assert abs(brute - closed) <= 1e-6 + discarded


def test_chi2_bruteforce_discarded_grows_with_cutoff():
    d = SmoothDistribution.uniform_on(2, range(2), 1.0)
    _, tight = chi_square_bruteforce(d, 4.0, 1e-12)
    _, loose = chi_square_bruteforce(d, 4.0, 1e-3)
    assert loose > tight


@pytest.mark.parametrize("call, message", [
    (lambda d: chi_square_closed_form(d, 0.0), r"^n_rate must be positive$"),
    (lambda d: chi_square_closed_form(d, math.nan), r"^n_rate must be positive$"),
    (lambda d: chi_square_bruteforce(d, -1.0), r"^n_rate must be positive$"),
    (lambda d: chi_square_bruteforce(d, math.nan), r"^n_rate must be positive$"),
    # an infinite rate once gave (0.0, 0.0), and the brute force blamed the cutoff
    (lambda d: chi_square_closed_form(d, math.inf), r"^n_rate must be positive$"),
    (lambda d: chi_square_bruteforce(d, math.inf), r"^n_rate must be positive$"),
    (lambda d: chi_square_bruteforce(d, 4.0, 0.0), r"^tail_cutoff must be in \(0, 1\)$"),
    (lambda d: chi_square_bruteforce(d, 4.0, 1.0), r"^tail_cutoff must be in \(0, 1\)$"),
    (lambda d: chi_square_bruteforce(d, 4.0, 0.5), r"^cutoff 0\.5 empties the support at rate 1$"),
])
def test_chi2_rejects_bad_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call(SmoothDistribution.uniform_on(2, range(2), 1.0))


def test_chi2_bruteforce_rejects_oversize():
    d = SmoothDistribution.uniform_on(16, range(16), 1.0)
    with pytest.raises(ValueError):
        chi_square_bruteforce(d, 8.0, 1e-12)


# The brute force's size check under an address-space limit 64 MiB above what
# the interpreter already maps: 10^10 contexts, refused by the 64-context rule
# before any power of the support size is built
TIGHT_MEMORY_BRUTE = """
import resource, types
from smoothpa.diagnostics import chi_square_bruteforce
with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmSize:"))
limit = mapped + (64 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    chi_square_bruteforce(types.SimpleNamespace(size=10 ** 10), 2e10)
except ValueError as e:
    print(e)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_chi2_bruteforce_size_check_builds_no_huge_power():
    env = dict(os.environ, PYTHONPATH=str(Path(smoothpa.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", TIGHT_MEMORY_BRUTE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(" count vectors exceeds 2e+08 cells\n"), done.stdout


def chi_square_per_c0(target, n_rate, tail_cutoff=1e-12):
    """Reference: the same enumeration with one full pass over the other axes per
    count c0 on the constant axis (x=0, y=0)."""
    u = len(target.pmf)
    lam = n_rate / (2.0 * u)
    pm = [math.exp(-lam)]
    while pm[-1] > tail_cutoff and len(pm) < 500:
        pm.append(pm[-1] * lam / len(pm))
    while len(pm) > 1 and pm[-1] <= tail_cutoff:
        pm.pop()
    pm = np.asarray(pm)
    k_sup, rest_axes = len(pm), 2 * u - 1

    def axis_vec(pos, vec):
        s = [1] * rest_axes
        s[pos] = k_sup
        return vec.reshape(s)

    p_rest = np.ones((k_sup,) * rest_axes)
    for a in range(rest_axes):
        p_rest = p_rest * axis_vec(a, pm)
    ratio = np.zeros(k_sup)
    ratio[1:] = pm[:-1] / pm[1:]
    mix_ratio = np.zeros(p_rest.shape)
    for x in range(u):
        mix_ratio = mix_ratio + target.pmf[x] * axis_vec(u + x - 1, ratio)
    chi_acc = p_mass = q_mass = 0.0
    for c0 in range(k_sup):
        p_grid = pm[c0] * p_rest
        chi_acc += float(np.sum(p_grid * mix_ratio * mix_ratio))
        p_mass += float(p_grid.sum())
        q_mass += float(np.sum(p_grid * mix_ratio))
    return chi_acc - 1.0, (1.0 - p_mass) + (1.0 - q_mass)


@pytest.mark.parametrize("u, n_rate", [(1, 3.0), (2, 8.0), (3, 4.0), (3, 6.0), (2, 1e-12)])
def test_chi2_bruteforce_folds_constant_axis(u, n_rate):
    d = make_smooth(u, 0.5, np.random.default_rng(u * 10 + int(n_rate)))
    value, discarded = chi_square_bruteforce(d, n_rate)
    ref_value, ref_discarded = chi_square_per_c0(d, n_rate)
    assert value == pytest.approx(ref_value, abs=1e-14)
    assert discarded == pytest.approx(ref_discarded, abs=1e-14)


@pytest.mark.parametrize("make_target", [
    lambda: SmoothDistribution.uniform_on(6, range(6), 1.0),
    lambda: SmoothDistribution.uniform_on(6, range(3), 0.5),
    lambda: make_smooth(6, 0.4, np.random.default_rng(6)),
], ids=["uniform", "half_set", "skewed"])
def test_chi2_bruteforce_matches_closed_at_six_contexts(make_target):
    # 9^6 label-1 count vectors; counting the label-0 cells too gave 9^12 > 2e8
    d = make_target()
    closed, _ = chi_square_closed_form(d, 2.0)
    brute, discarded = chi_square_bruteforce(d, 2.0)
    assert abs(brute - closed) <= 1e-6 + discarded


def test_chi2_bruteforce_one_count_support_up_to_64_contexts():
    # at rate 1e-11 every count's support is {0}, so Q's mass is all cut away;
    # 40 contexts once took 79 axes, past numpy's 64
    value, discarded = chi_square_bruteforce(SmoothDistribution.uniform_on(40, range(40), 1.0),
                                             1e-11)
    assert value == -1.0
    assert discarded == pytest.approx(2.0 - math.exp(-1e-11), abs=1e-14)
    with pytest.raises(ValueError, match=r"^enumeration over 65 contexts exceeds numpy's 64 axes$"):
        chi_square_bruteforce(SmoothDistribution.uniform_on(65, range(65), 1.0), 1e-11)


def test_chi2_report_shape(capsys):
    assert cli_main(["chi2", "--sigma", "1", "--n", "4", "--universe", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)["chi2"]
    assert set(rep) == {"closed", "brute", "bound", "discarded"}
    assert rep["brute"] is not None
    assert rep["closed"] <= rep["bound"] + 1e-12


# ---------------------------------------------------------------- rademacher

def test_rademacher_constant_region_matches_enumeration():
    fam = RegionFamily.explicit(4, [list(range(4))])
    t = 6
    exact = np.mean([max(0, bin(mask).count("1") * 2 - t) / t for mask in range(2 ** t)])
    est = rademacher_estimate(fam, 0.0, t, 4000, np.random.default_rng(0))
    assert abs(est.mean - exact) <= 4 * est.stderr + 1e-9


def test_rademacher_threshold_decay_is_root_t():
    fam = RegionFamily.threshold_grid(16)
    ts = [64, 256, 1024]
    means = [rademacher_estimate(fam, 0.0, t, 300, np.random.default_rng(10 + t)).mean
             for t in ts]
    slope = np.polyfit(np.log(ts), np.log(means), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_rademacher_truncation_affine_factor():
    fam = RegionFamily.threshold_grid(8)
    t, rounds, alpha = 32, 500, 0.2
    r0 = rademacher_estimate(fam, 0.0, t, rounds, np.random.default_rng(42))
    ra = rademacher_estimate(fam, alpha, t, rounds, np.random.default_rng(42))
    # same candidates and signs: the two differ only by the affine map, up to
    # the alpha * mean(sum eps) / T term whose sd is 1/sqrt(T * rounds)
    assert abs(ra.mean * (1 + 2 * alpha) - r0.mean) <= alpha * 5 / math.sqrt(t * rounds)


def test_rademacher_validates_inputs():
    fam = RegionFamily.threshold_grid(4)
    with pytest.raises(ValueError):
        rademacher_estimate(fam, 0.0, 0, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^mc_rounds must be >= 1$"):
        rademacher_estimate(fam, 0.0, 8, 0, np.random.default_rng(0))
    # NaN makes every mean NaN, which never beats -inf; -1/2 zeroes the divisor
    for alpha in (math.nan, -0.5, 0.5, -1e-9):
        with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1/2\)$"):
            rademacher_estimate(fam, alpha, 8, 10, np.random.default_rng(0))


def rademacher_cases():
    """(name, family, alpha, sample_size, mc_rounds) the class reductions must
    get right."""
    grid64, grid3, grid1 = (RegionFamily.threshold_grid(u) for u in (64, 3, 1))
    # two copies of each region, an empty one and the whole space
    rng = np.random.default_rng(50)
    regions = [np.flatnonzero(row).tolist() for row in rng.random((5, 12)) < 0.4]
    duplicated = RegionFamily.explicit(12, regions + regions + [[], list(range(12))])
    only_empty = RegionFamily.explicit(6, [[], []])
    # neither empty nor whole: no region alone gives the 0 or the tau term
    one_region = RegionFamily.explicit(4, [[0, 1]])
    yield "grid64_t64", grid64, 0.01, 64, 40        # the repeat pattern holds 0 and U-1
    yield "grid64_t1", grid64, 0.2, 1, 30
    yield "grid64_t200_mc1", grid64, 0.0, 200, 1     # t > U; one round gives stderr 0
    yield "grid3_t16", grid3, 0.2, 16, 25            # draws hit 0 and U-1
    yield "grid1_t5", grid1, 0.0, 5, 20
    yield "grid1_t1_mc1", grid1, 0.2, 1, 1
    yield "explicit_duplicated", duplicated, 0.0, 20, 30
    yield "explicit_duplicated_t1", duplicated, 0.2, 1, 10
    yield "explicit_only_empty", only_empty, 0.2, 9, 15
    yield "explicit_one_region", one_region, 0.0, 3, 30


RADEMACHER_CASES = list(rademacher_cases())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name, family, alpha, t, rounds", RADEMACHER_CASES,
                         ids=[case[0] for case in RADEMACHER_CASES])
def test_rademacher_equals_the_all_regions_oracle(name, family, alpha, t, rounds, seed):
    got = rademacher_estimate(family, alpha, t, rounds, np.random.default_rng(seed))
    want = rademacher_estimate_all_regions(family, alpha, t, rounds,
                                           np.random.default_rng(seed))
    assert got == want


# ---------------------------------------------------------------- bound

def test_theorem_bound_fixed_block_reduction():
    n, alpha, t = 64.0, 0.01, 1000
    la = math.log(1 / alpha)
    want = n * la + alpha * t + t * math.sqrt(la / n) + t * math.exp(-n / 8)
    bound = theorem_bound(n, alpha, 1.0, t, rad=lambda s: 0.0, m=n)
    assert bound == pytest.approx(want, rel=1e-12)


def test_theorem_bound_monotone_in_sigma():
    rng = np.random.default_rng(1)
    rad = lambda s: (1.0 / s) ** 0.5
    for _ in range(20):
        n = float(rng.uniform(4, 500))
        alpha = float(rng.uniform(0.001, 0.4))
        t = int(rng.integers(10, 10000))
        s1, s2 = sorted(rng.uniform(0.05, 1.0, size=2))
        b1 = theorem_bound(n, alpha, s1, t, rad)
        b2 = theorem_bound(n, alpha, s2, t, rad)
        assert b1 >= b2 - 1e-9


def test_theorem_bound_scaling_windows():
    # with n = T^{4/5}, alpha = 0.01, rad = sqrt(1/s): sublinear at desk scale,
    # and inside the T^{4/5}-flavored band once the n ln(1/alpha) term dominates
    rad = lambda s: (1.0 / s) ** 0.5

    def total(t):
        return theorem_bound(t ** 0.8, 0.01, 1.0, t, rad)

    desk = [2 ** e for e in range(10, 21)]
    slope_desk = np.polyfit(np.log(desk), np.log([total(t) for t in desk]), 1)[0]
    assert 0.55 <= slope_desk <= 0.9

    wide = [2 ** e for e in range(24, 41, 2)]
    slope_wide = np.polyfit(np.log(wide), np.log([total(t) for t in wide]), 1)[0]
    assert 0.75 <= slope_wide <= 0.9


def test_theorem_bound_input_validation():
    with pytest.raises(ValueError):
        theorem_bound(10.0, 0.01, 1.0, 100, rad=lambda s: 0.0, m=20.0)
    with pytest.raises(ValueError):
        theorem_bound(10.0, 0.6, 1.0, 100, rad=lambda s: 0.0)
    with pytest.raises(ValueError):
        theorem_bound(-1.0, 0.01, 1.0, 100, rad=lambda s: 0.0)
    with pytest.raises(ValueError, match=r"^sigma must be in \(0, 1\]$"):
        theorem_bound(10.0, 0.01, 1.5, 100, rad=lambda s: 0.0)
    # an infinite n_rate once gave NaN after a numpy warning, an infinite T inf
    for n_rate, T in ((math.nan, 100), (10.0, math.nan), (math.inf, 100), (10.0, math.inf)):
        with pytest.raises(ValueError, match=r"^n_rate and T must be positive$"):
            theorem_bound(n_rate, 0.01, 1.0, T, rad=lambda s: 0.0)


# ---------------------------------------------------------------- nml

def test_nml_single_half_hypothesis_is_zero():
    fam = RegionFamily.threshold_grid(4)
    for t in (1, 3, 6):
        v = nml_value(fam, [Hypothesis(3, 0.5, 0.5)], [0] * t)
        assert v == pytest.approx(0.0, abs=1e-12)


def test_nml_two_deterministic_hypotheses():
    fam = RegionFamily.threshold_grid(4)
    hyps = [Hypothesis(3, 0.0, 0.0), Hypothesis(3, 1.0, 1.0)]
    assert nml_value(fam, hyps, [0, 1]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_nml_permutation_invariance_exact():
    rng = np.random.default_rng(4)
    fam = RegionFamily.threshold_grid(5)
    hyps = [Hypothesis(int(rng.integers(5)), float(rng.random()), float(rng.random()))
            for _ in range(6)]
    xs = rng.integers(0, 5, size=8)
    base = nml_value(fam, hyps, xs)
    for _ in range(5):
        perm = rng.permutation(len(xs))
        assert nml_value(fam, hyps, xs[perm]) == base


def test_nml_rejects_oversize():
    fam = RegionFamily.threshold_grid(2)
    h = [Hypothesis(0, 0.5, 0.5)]
    with pytest.raises(ValueError):
        nml_value(fam, h, [0] * 23)
    with pytest.raises(ValueError):
        nml_value(fam, h * 10_001, [0, 1])


def test_nml_rejects_malformed_contexts_and_regions():
    # each once returned a value: -1 wrapped to context U - 1 on an explicit
    # family, 2.5 was cast to 2, a 2-D list was read as its rows and region
    # 50 compared as a threshold
    grid, explicit = RegionFamily.threshold_grid(8), RegionFamily.explicit(8, [[0, 1], [2, 7]])
    h = [Hypothesis(1, 0.2, 0.7)]
    for fam in (grid, explicit):
        for xs, message in (([100, 3], "context 100 outside [0, 8)"),
                            ([-1, 3], "context -1 outside [0, 8)"),
                            ([2.5, 3], "context of type float64 is not an integer"),
                            ([[0, 1], [2, 3]], "context array of shape (2, 2), not 1-D"),
                            (3, "context array of shape (), not 1-D")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                nml_value(fam, h, xs)
    for fam, region in ((grid, 50), (explicit, 2)):
        message = f"region index {region} outside [0, {len(fam)})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nml_value(fam, [Hypothesis(region, 0.2, 0.7)], [1, 3])


def nml_oracle(family, hypotheses, contexts):
    """ln sum_y max_h prod_t p_h(y_t | x_t), one label sequence at a time."""
    bm = region_bitmaps(family)
    total = 0.0
    for ys in itertools.product((0, 1), repeat=len(contexts)):
        best = 0.0
        for h in hypotheses:
            p = 1.0
            for x, y in zip(contexts, ys):
                q = h.theta0 if bm[h.region_index, x] else h.theta1
                p *= q if y else 1.0 - q
            best = max(best, p)
        total += best
    return math.log(total)


def nml_enumerated(family, hypotheses, contexts):
    """Reference for theta in (0, 1): every one of the 2^t label sequences scored
    as base + bits @ (l1 - l0), in chunks."""
    xs = np.sort(np.asarray(contexts, dtype=np.int64))
    t = xs.size
    bm = region_bitmaps(family)
    p1 = np.array([np.where(bm[h.region_index, xs], h.theta0, h.theta1)
                   for h in hypotheses])
    l1, l0 = np.log(p1), np.log1p(-p1)
    diff, base = l1 - l0, l0.sum(axis=1)
    maxima = np.empty(2 ** t)
    powers = np.arange(t, dtype=np.int64)
    for start in range(0, 2 ** t, 65536):
        idx = np.arange(start, min(start + 65536, 2 ** t), dtype=np.int64)
        bits = ((idx[:, None] >> powers[None, :]) & 1).astype(np.float64)
        maxima[start:start + len(idx)] = (bits @ diff.T + base[None, :]).max(axis=1)
    return float(logsumexp(maxima))


def test_nml_deterministic_theta_single_hypothesis_is_zero():
    fam = RegionFamily.threshold_grid(4)
    assert nml_value(fam, [Hypothesis(1, 1.0, 0.5)], [0, 3]) == pytest.approx(0.0, abs=1e-12)


def test_nml_matches_product_oracle():
    rng = np.random.default_rng(2303)

    def theta():
        return float(rng.choice([0.0, 0.5, 1.0])) if rng.random() < 0.5 else float(rng.random())

    for _ in range(320):
        u = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            fam = RegionFamily.threshold_grid(u)
        else:
            fam = RegionFamily.explicit(u, [np.flatnonzero(rng.random(u) < 0.5).tolist()
                                            for _ in range(int(rng.integers(1, 5)))])
        hyps = [Hypothesis(int(rng.integers(len(fam))), theta(), theta())
                for _ in range(int(rng.integers(1, 5)))]
        xs = rng.integers(0, u, size=int(rng.integers(1, 8))).tolist()
        assert nml_value(fam, hyps, xs) == pytest.approx(nml_oracle(fam, hyps, xs),
                                                         rel=0, abs=1e-12)


def test_nml_matches_full_enumeration_at_horizon_20():
    rng = np.random.default_rng(20)
    fam = RegionFamily.threshold_grid(64)
    hyps = [Hypothesis(int(rng.integers(64)), float(rng.uniform(0.01, 0.99)),
                       float(rng.uniform(0.01, 0.99))) for _ in range(32)]
    xs = rng.integers(0, 64, size=20)
    assert nml_value(fam, hyps, xs) == pytest.approx(nml_enumerated(fam, hyps, xs), rel=1e-12)
    # every context in its own class: plain meet in the middle over 2^10 x 2^10
    xs = np.arange(0, 64, 3)[:20]
    hyps = [Hypothesis(int(a), float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
            for a in range(1, 64, 3)]
    member = region_bitmaps(fam)[[h.region_index for h in hyps]][:, xs].T
    assert len(np.unique(member, axis=0)) == 20
    assert nml_value(fam, hyps, xs) == pytest.approx(nml_enumerated(fam, hyps, xs), rel=1e-12)
