"""Benchmark workloads: inputs generated from a seed, the timed pass, and its
correctness check.

Every workload drives only the public API (`smoothpa.harness.run`,
`smoothpa.cli.main`, and public functions of `diagnostics` and `coupling`).
Library entry points are looked up through their modules at call time, so the
traced run's wrappers (see tracing.py) see every call.

Sizes: "full" is the measured size; "smoke" is the same code path and the same
checks at a size that finishes in seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import smoothpa.cli
import smoothpa.coupling
import smoothpa.diagnostics
import smoothpa.harness
from smoothpa.adversary import SmoothDistribution
from smoothpa.hypotheses import RegionFamily

import checks

ADAPTIVE_GREEDY = {"context": "subset_uniform", "rule": "adaptive", "label": "greedy"}
GRID64 = {"kind": "threshold_grid", "size": 64}

def sweep_cells(config: dict) -> list[tuple[dict, int, float]]:
    """Cells in the harness's documented order: learner-major, then T, then sigma."""
    sweep = config["sweep"]
    return [(ls, t, s) for ls in sweep["learner"] for t in sweep["T"]
            for s in sweep["sigma"]]


@dataclass
class Sweep:
    """A pass is one `harness.run` of a generated config; each trajectory is one
    checked operation."""

    config: dict
    out_dir: Path

    @property
    def units(self) -> int:
        """Game rounds per pass: sum of T over cells, times repetitions."""
        return sum(t for _, t, _ in sweep_cells(self.config)) * self.config["repetitions"]

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self) -> None:
        smoothpa.harness.run(self.config, output_dir=self.out_dir)

    def check(self) -> checks.Tally:
        return checks.check_sweep(self.out_dir, sweep_cells(self.config),
                                  self.config["repetitions"])


@dataclass
class DiagnosticBatch:
    """A pass is a fixed batch of diagnostic calls; each call is one checked operation.

    Each call is ("cli", argv), ("rademacher", kwargs) or ("coupling", kwargs).
    """

    calls: list[tuple[str, dict]]
    out_dir: Path
    results: list = field(default_factory=list)

    @property
    def units(self) -> int:
        """Diagnostic calls per pass."""
        return len(self.calls)

    def reset(self) -> None:
        self.results = []

    def op(self) -> None:
        results = self.results
        for kind, spec in self.calls:
            if kind == "cli":
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = smoothpa.cli.main(spec["argv"])
                results.append((code, buf.getvalue()))
            elif kind == "rademacher":
                results.append(smoothpa.diagnostics.rademacher_estimate(
                    RegionFamily.threshold_grid(spec["universe"]), spec["alpha"],
                    spec["sample_size"], spec["mc_rounds"],
                    np.random.default_rng(spec["seed"])))
            else:
                target = SmoothDistribution.uniform_on(spec["universe"], spec["support"],
                                                       spec["sigma"])
                results.append(smoothpa.coupling.rejection_couple_batch(
                    spec["trials"], spec["m"], target, np.random.default_rng(spec["seed"])))

    def check(self) -> checks.Tally:
        return checks.check_diagnostics(self.calls, self.results)


def _seed_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def random_regions(rng: np.random.Generator, count: int, universe: int) -> list[list[int]]:
    """`count` random nonempty regions of varied density over {0..universe-1}."""
    density = rng.uniform(0.05, 0.95, size=(count, 1))
    member = rng.random((count, universe)) < density
    member[np.arange(count), rng.integers(0, universe, size=count)] = True
    return [np.flatnonzero(row).tolist() for row in member]


def mixture_adaptive(seed: int, size: str, out_dir: Path) -> Sweep:
    rng = _seed_rng(seed, "mixture_adaptive")
    top, reps = (9, 2) if size == "full" else (7, 1)
    return Sweep({
        "universe": 64, "family": GRID64, "adversary": ADAPTIVE_GREEDY,
        "repetitions": reps, "base_seed": int(rng.integers(2 ** 31)),
        "sweep": {"learner": [{"vc_mixture": {}}],
                  "T": [2 ** e for e in range(4, top + 1)], "sigma": [0.05, 0.2]},
    }, out_dir)


def ftpl_adaptive(seed: int, size: str, out_dir: Path) -> Sweep:
    rng = _seed_rng(seed, "ftpl_adaptive")
    exps = (7, 9, 11, 13) if size == "full" else (4, 5, 6, 7)
    return Sweep({
        "universe": 64, "family": GRID64, "adversary": ADAPTIVE_GREEDY,
        "repetitions": 1, "base_seed": int(rng.integers(2 ** 31)),
        "sweep": {"learner": [{"ftpl": {}}], "T": [2 ** e for e in exps], "sigma": [0.2]},
    }, out_dir)


def explicit_static(seed: int, size: str, out_dir: Path) -> Sweep:
    rng = _seed_rng(seed, "explicit_static")
    universe, sigmas = 256, [0.1, 0.5]
    regions = random_regions(rng, 128, universe)
    subset = np.sort(rng.choice(universe, size=math.ceil(max(sigmas) * universe),
                                replace=False))
    f_star = {"region_index": int(rng.integers(len(regions))),
              "theta0": float(rng.uniform(0.05, 0.95)),
              "theta1": float(rng.uniform(0.05, 0.95))}
    top, reps = (10, 1) if size == "full" else (7, 1)
    return Sweep({
        "universe": universe,
        "family": {"kind": "explicit", "size": universe, "regions": regions},
        "adversary": {"context": "subset_uniform", "rule": "static", "set": subset.tolist(),
                      "label": "realizable", "f_star": f_star},
        "repetitions": reps, "base_seed": int(rng.integers(2 ** 31)),
        "sweep": {"learner": [{"uniform": {}}, {"kt": {"beta": 0.5}}],
                  "T": [2 ** e for e in range(5, top + 1)], "sigma": sigmas},
    }, out_dir)


def diagnostics(seed: int, size: str, out_dir: Path) -> DiagnosticBatch:
    """Diagnostic batch. Sizes (universe, rate, horizon, class size, trials) are
    fixed per size; the seed draws only values, so the cost does not depend on it."""
    rng = _seed_rng(seed, "diagnostics")
    full = size == "full"
    inputs = out_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    calls: list[tuple[str, dict]] = []

    for u, n in ([(3, 4), (3, 6), (2, 8)] if full else [(2, 4)]):
        sigma = round(float(rng.uniform(0.2, 1.0)), 4)
        calls.append(("cli", {"argv": ["chi2", "--sigma", str(sigma), "--n", str(n),
                                        "--universe", str(u)]}))

    horizon, n_hyp = (20, 32) if full else (10, 8)
    for i in range(2 if full else 1):
        hyps = [[int(rng.integers(64)), round(float(rng.random()), 6),
                 round(float(rng.random()), 6)] for _ in range(n_hyp)]
        class_file, contexts_file = inputs / f"class{i}.json", inputs / f"contexts{i}.json"
        class_file.write_text(json.dumps({"family": GRID64, "hypotheses": hyps}))
        contexts_file.write_text(json.dumps(rng.integers(0, 64, size=horizon).tolist()))
        calls.append(("cli", {"argv": ["nml", "--class", str(class_file),
                                        "--contexts", str(contexts_file)]}))

    regions = random_regions(rng, 128 if full else 16, 256 if full else 32)
    family_file = inputs / "family.json"
    family_file.write_text(json.dumps({"kind": "explicit", "size": 256 if full else 32,
                                       "regions": regions}))
    calls.append(("cli", {"argv": ["cover", "--family", str(family_file), "--eps", "0.3"],
                          "regions": regions, "universe": 256 if full else 32, "eps": 0.3}))

    calls.append(("rademacher", {"universe": 64, "alpha": 0.01,
                                 "sample_size": 64 if full else 16,
                                 "mc_rounds": 400 if full else 50,
                                 "seed": int(rng.integers(2 ** 31))}))
    for _ in range(2 if full else 1):
        sigma = round(float(rng.uniform(0.1, 0.3)), 4)
        support = np.sort(rng.choice(64, size=math.ceil(sigma * 64), replace=False))
        calls.append(("coupling", {"universe": 64, "support": support.tolist(), "sigma": sigma,
                                   "m": 8, "trials": 100_000 if full else 10_000,
                                   "seed": int(rng.integers(2 ** 31))}))
    return DiagnosticBatch(calls, out_dir)


# How a pass's wall time scales with the reference kernel's as the load on a
# shared host varies: the slope of log(median pass time) on log(median kernel
# time) across ten runs per workload on a 2-core x86_64 VM (correlation
# 0.94-0.97). Array-heavy passes slow down less than the dispatch-heavy kernel,
# the mixture's scipy dispatch more. On the runs they were fitted to, these
# exponents cut the spread of run_s across runs from 0.06-0.13 (exponent 1) to
# 0.03-0.07; README.md gives the spreads on fresh seeds.
LOAD_EXPONENT = {
    "mixture_adaptive": 1.2,
    "ftpl_adaptive": 0.8,
    "explicit_static": 0.8,
    "diagnostics": 0.5,
}

WORKLOADS = {
    "mixture_adaptive": mixture_adaptive,
    "ftpl_adaptive": ftpl_adaptive,
    "explicit_static": explicit_static,
    "diagnostics": diagnostics,
}


def setup_config(work) -> dict:
    """Config whose parsing the set-up measurement times: the sweep's own, or for
    the diagnostics workload (which has none) a minimal grid sweep."""
    if isinstance(work, Sweep):
        return work.config
    return {"universe": 64, "family": GRID64, "adversary": ADAPTIVE_GREEDY,
            "learner": {"vc_mixture": {}}, "T": 64, "sigma": 0.2}
