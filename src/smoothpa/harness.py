"""Experiment configuration, seeded batch execution, sweeps, and scaling fits.

A single JSON config describes one sweep: family, adversary, learner spec(s),
horizon(s), smoothness value(s), repetitions, and a base seed. The family fixes
the context space; an optional `universe` restates its size. Every
(cell, repetition) derives its own seed by stable hashing, so cells reproduce
independently and byte-identically.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .adversary import AdversaryPolicy, adversary_from_spec
from .core import allocate_columns, format_records_csv, run_game
from .errors import ConfigError, NumericalAssertionError, check_keys, load_json, parse_field
from .hypotheses import RegionFamily, prefix_best_losses
from .learners import learner_from_spec


class Cell(NamedTuple):
    """One sweep cell: its learner spec, horizon and smoothness, and the learner
    and adversary that play the cell's repetitions in lockstep. `run_game`
    resets both with fresh generators, one per repetition, and `reset` clears
    all of their state, so no game sees another's; each repetition's
    comparator is then computed from its own trajectory alone."""

    learner_spec: dict
    T: int
    sigma: float
    learner: object
    adversary: AdversaryPolicy


@dataclass
class ExperimentConfig:
    """A checked sweep: the region family, the cells in deterministic order
    (learner-major, then T, then sigma), and `echo`, the config as
    summary.json records it."""

    family: RegionFamily
    cells: list[Cell]
    repetitions: int
    base_seed: int
    echo: dict
    output_dir: Optional[str]


def _as_list(value, name: str, cast):
    if value is None:
        raise ConfigError(f"{name}: missing")
    if isinstance(value, (list, tuple)):
        out = [parse_field(v, name, cast) for v in value]
        if not out:
            raise ConfigError(f"{name}: empty list")
        return out
    return [parse_field(value, name, cast)]


# The keys a config reads at its top level, and those `sweep` may set instead;
# each swept key is set in one of the two places
_TOP_LEVEL = ("universe", "family", "adversary", "sweep", "repetitions", "base_seed",
              "output_dir")
_SWEPT = ("learner", "T", "sigma")


def parse_config(obj: Union[dict, str, Path]) -> ExperimentConfig:
    """Check a config document (or the JSON file at a path) and build its sweep:
    the region family, whose size must equal `universe` if one is given, and
    per cell one learner and one adversary. Fixed-sequence labels must cover
    the longest horizon, whose columns for all repetitions numpy must be able
    to allocate. Error messages carry the offending field path."""
    if isinstance(obj, (str, Path)):
        obj = load_json(obj, "config")
    if not isinstance(obj, dict):
        raise ConfigError("config: must be a JSON object")

    def need(key):
        if key not in obj:
            raise ConfigError(f"{key}: missing")
        return obj[key]

    family_spec = need("family")
    adversary_spec = need("adversary")

    sweep = obj.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: must be an object")
    check_keys(sweep, "sweep", _SWEPT)
    check_keys(obj, "", _TOP_LEVEL + _SWEPT)
    for key in _SWEPT:
        if key in sweep and key in obj:
            raise ConfigError(f"{key}: set both at the top level and in sweep")
    learners = sweep.get("learner", obj.get("learner"))
    if learners is None:
        raise ConfigError("learner: missing")
    learners = learners if isinstance(learners, list) else [learners]
    if not learners:
        raise ConfigError("learner: empty list")
    horizons = _as_list(sweep.get("T", obj.get("T")), "T", int)
    if any(t < 1 for t in horizons):
        raise ConfigError("T: horizons must be >= 1")
    sigmas = _as_list(sweep.get("sigma", obj.get("sigma")), "sigma", float)
    if any(not 0.0 < s <= 1.0 for s in sigmas):
        raise ConfigError("sigma: values must be in (0, 1]")
    repetitions = parse_field(obj.get("repetitions", 1), "repetitions", int)
    if repetitions < 1:
        raise ConfigError(f"repetitions: {repetitions} must be >= 1")
    t_max = max(horizons)
    for name, n in (("T", t_max), ("repetitions", repetitions)):
        if n > sys.maxsize:     # e.g. 1e308: no array holds that many rounds or regrets
            raise ConfigError(f"{name}: above {sys.maxsize}, the most numpy can index")
    # before any cell plays: the columns a cell's games at the largest horizon hold
    allocate_columns(t_max, repetitions)
    base_seed = parse_field(obj.get("base_seed", 0), "base_seed", int)
    output_dir = obj.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: {output_dir!r} is not a string or null")

    family = RegionFamily.from_spec(family_spec)
    if "universe" in obj:
        universe = parse_field(obj["universe"], "universe", int)
        if family.size != universe:
            raise ConfigError(f"family.size: {family.size} differs from universe {universe}")
    cells = [Cell(ls, t, s, learner_from_spec(ls, family, t, s),
                  adversary_from_spec(adversary_spec, family, s))
             for ls, t, s in itertools.product(learners, horizons, sigmas)]
    labels = adversary_spec.get("labels")
    if adversary_spec.get("label") == "fixed_sequence" and len(labels) < t_max:
        raise ConfigError(f"adversary.labels: {len(labels)} labels, fewer than T = {t_max}")
    echo = {"universe": family.size, "family": family_spec, "adversary": adversary_spec,
            "learner": learners, "T": horizons, "sigma": sigmas,
            "repetitions": repetitions, "base_seed": base_seed}
    return ExperimentConfig(family, cells, repetitions, base_seed, echo, output_dir)


def derive_seed(base_seed: int, cell_key, rep: int) -> int:
    """Stable 63-bit seed from (base seed, cell coordinates, repetition index)."""
    payload = json.dumps([base_seed, cell_key, rep], sort_keys=True,
                         separators=(",", ":")).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _write(path: Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"output_dir: cannot write {path}: {e.strerror}") from None


def run(config: Union[dict, str, Path, ExperimentConfig],
        output_dir: Optional[Union[str, Path]] = None) -> dict:
    """Execute the sweep; write one records CSV per cell plus summary.json,
    and return the summary.json document: the config echo, the per-cell final
    regrets with their moments, and the scaling fits.

    Cells run one after another in order, each one `run_game` call that plays
    the cell's repetitions in lockstep and one `prefix_best_losses` call per
    repetition on its own trajectory, so outputs are byte-identical across
    runs of the same config. A cell's CSV is written once its repetitions
    finish and their comparators are checked; a failure writes nothing for
    its cell, so an interrupt leaves every completed cell's CSV and no
    partial one.
    A comparator column that decreases from one round to the next raises
    NumericalAssertionError naming the cell, repetition and round. An output
    file that cannot be written raises ConfigError.
    """
    cfg = config if isinstance(config, ExperimentConfig) else parse_config(config)
    out = Path(output_dir or cfg.output_dir or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"output_dir: cannot create {out}: {e.strerror}") from None

    summary_cells: list[dict] = []
    for ci, cell in enumerate(cfg.cells):
        cell_key = {"learner": cell.learner_spec, "T": cell.T, "sigma": cell.sigma}
        reps = range(cfg.repetitions)
        traces = run_game(cell.learner, cell.adversary, cell.T,
                          [derive_seed(cfg.base_seed, cell_key, rep) for rep in reps],
                          run_id=[f"c{ci:03d}r{rep:03d}" for rep in reps])
        for rep, trace in enumerate(traces):
            trace.comparator = prefix_best_losses(trace.xs, trace.ys, cfg.family)
            _check_nondecreasing(trace.comparator, ci, rep)
        _write(out / f"records_cell{ci:03d}.csv", format_records_csv(traces))
        finals = [float(tr.cum_losses[-1]) for tr in traces]
        regrets = np.array([f - tr.comparator[-1] for f, tr in zip(finals, traces)])
        summary_cells.append({
            "cell": ci, "learner": cell.learner_spec, "T": cell.T, "sigma": cell.sigma,
            "final_regrets": [float(v) for v in regrets],
            "mean_final_regret": float(regrets.mean()),
            "stddev_final_regret": float(regrets.std(ddof=1)) if len(regrets) > 1 else 0.0,
            "mean_final_loss": float(np.mean(finals)),
        })

    try:
        fits = fit_scaling({"cells": summary_cells})
    except ConfigError:
        fits = {}
    summary = {"config": cfg.echo, "cells": summary_cells, "fits": fits}
    _write(out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def _check_nondecreasing(comparator: np.ndarray, cell: int, rep: int) -> None:
    """Raise NumericalAssertionError where the offline-best loss falls from
    one round to the next: one more example cannot lower any region's loss."""
    dips = np.flatnonzero(np.diff(comparator) < 0)
    if dips.size:
        i = int(dips[0])        # row i holds round i + 1
        raise NumericalAssertionError(
            f"comparator decreased in cell {cell}, repetition {rep}, round {i + 2}: "
            f"{float(comparator[i])!r} -> {float(comparator[i + 1])!r}")


BOOTSTRAP_RESAMPLES = 200


def _lines(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(slope, intercept) of y against ln T for each row y of ys, each
    bit-identical to np.polyfit(ln T, y, 1).

    This builds np.polyfit's degree-1 problem on ln T (the Vandermonde matrix
    with unit-norm columns, and rcond) and calls the LAPACK gufunc that
    np.linalg.lstsq wraps, since lstsq refuses a stack of problems. The gufunc
    solves each row on its own with one right-hand side, as np.polyfit does.
    One solve with every row as a column of a single right-hand side rounds
    differently once there are 8 or more horizons.
    """
    from numpy.linalg import _umath_linalg
    lhs = np.vander(np.log(ts), 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        # + 0.0 as polyfit: -0.0 -> 0.0
        c = _umath_linalg.lstsq(lhs / scale, ys[..., None] + 0.0, len(ts) * np.finfo(float).eps,
                                signature="ddd->ddid")[0]
    return c[..., 0] / scale


def fit_scaling(summary: dict, seed: int = 0) -> dict:
    """Least-squares exponents of regret vs horizon, with bootstrap CIs.

    `summary` is a summary.json document; only its "cells" are read, their
    regrets as float64, JSON integers past 2^64 included. Cells group by
    (learner, sigma); each group with >= 4 distinct horizons yields a
    log-log slope (regret ~ T^b) and a regret ~ a + b ln T fit. Each of the
    BOOTSTRAP_RESAMPLES resamples draws repetitions within each cell. A fitted
    value that is not finite raises NumericalAssertionError.
    """
    groups: dict[str, list[dict]] = {}
    for cell in summary["cells"]:
        key = json.dumps({"learner": cell["learner"], "sigma": cell["sigma"]},
                         sort_keys=True)
        groups.setdefault(key, []).append(cell)

    rng = np.random.default_rng(seed)
    fitted = []
    for key, group in sorted(groups.items()):
        group = sorted(group, key=lambda c: c["T"])
        ts = np.array([c["T"] for c in group], dtype=float)
        if len(np.unique(ts)) < 4:
            continue
        means = np.array([c["mean_final_regret"] for c in group], dtype=np.float64)
        # Resample indices for every (resample, cell, repetition) in one draw,
        # in that order; row b holds resample b's index vectors back to back.
        vals = [np.asarray(c["final_regrets"], dtype=np.float64) for c in group]
        sizes = np.array([len(v) for v in vals])
        idx = rng.integers(0, np.tile(np.repeat(sizes, sizes), (BOOTSTRAP_RESAMPLES, 1)))
        ends = np.cumsum(sizes)
        with np.errstate(over="ignore"):    # an overflowed mean fails the finite check below
            resampled = np.stack([v[idx[:, end - len(v): end]].mean(axis=1)
                                  for v, end in zip(vals, ends)], axis=1)
        # row 0 is the point fit, rows 1.. the resamples' fits
        rows = np.vstack((means, resampled))
        fits = [_lines(ts, np.log(np.maximum(rows, 1e-9))), _lines(ts, rows)]
        (ll_b, ll_a), (lt_b, lt_a) = (f[0].tolist() for f in fits)
        boot_ll, boot_lt = (f[1:, 0] for f in fits)
        ll_ci, lt_ci = ([float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))]
                        for boot in (boot_ll, boot_lt))
        meta = json.loads(key)
        if not np.isfinite([ll_b, ll_a, lt_b, lt_a, *ll_ci, *lt_ci]).all():
            raise NumericalAssertionError(
                f"fit: learner {json.dumps(meta['learner'])} at sigma {meta['sigma']!r} "
                f"has a fitted value that is not finite")
        fitted.append({
            "learner": meta["learner"], "sigma": meta["sigma"],
            "T": [int(v) for v in ts],
            "mean_regret": [float(v) for v in means],
            "loglog_slope": ll_b, "loglog_intercept": ll_a, "loglog_ci": ll_ci,
            "lnT_slope": lt_b, "lnT_intercept": lt_a, "lnT_ci": lt_ci,
        })
    if not fitted:
        raise ConfigError("fit: need >= 4 sweep points on the T axis in some group")
    return {"groups": fitted}
