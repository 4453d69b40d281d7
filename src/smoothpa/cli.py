"""Command-line entry points.

Subcommands: run (sweep from a JSON config), chi2, nml, cover, fit. Diagnostic
subcommands emit JSON reports on stdout. Exit codes: 0 success, 2 config error,
3 numerical failure (a failed numerical assertion or an infinite log-loss).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .adversary import SmoothDistribution, min_support_size
from .diagnostics import chi_square_bruteforce, chi_square_closed_form, nml_value
from .errors import (ConfigError, InfiniteLossError, NumericalAssertionError, allocate,
                     format_json, load_json, parse_field, positive_finite, read_ids)
from .harness import fit_scaling, parse_config, run
from .hypotheses import Hypothesis, RegionFamily, read_hypothesis
from .learners import epsilon_cover


def _cmd_run(args) -> dict:
    cfg = parse_config(args.config)
    summary = run(cfg, output_dir=args.output_dir)
    return {"cells": len(summary["cells"]),
            "output_dir": str(args.output_dir or cfg.output_dir or ".")}


def _cmd_chi2(args) -> dict:
    if not 0.0 < args.sigma <= 1.0:
        raise ConfigError(f"--sigma: {args.sigma:g} outside (0, 1]")
    positive_finite(args.n, "--n")
    if args.universe < 1:
        raise ConfigError(f"--universe: {args.universe} must be >= 1")
    if not 0.0 < args.cutoff < 1.0:
        raise ConfigError(f"--cutoff: {args.cutoff:g} outside (0, 1)")
    u, k = args.universe, min_support_size(args.sigma, args.universe)
    # The k support ids and uniform_on's copy of them are the closed form's
    # whole working set: it reads no dense pmf. The brute force refuses more
    # than 64 contexts before it reads the pmf.
    try:
        target = SmoothDistribution.uniform_on(
            u, allocate(k, "--universe", "contexts", lambda: np.arange(k)), args.sigma)
    except (ConfigError, MemoryError):
        raise ConfigError(f"--universe: {u} contexts are more than numpy can allocate") from None
    closed, bound = chi_square_closed_form(target, args.n)
    brute = discarded = None
    if not args.no_brute:
        try:
            brute, discarded = chi_square_bruteforce(target, args.n, args.cutoff)
        except MemoryError:
            pass    # count vectors within the size rule that the process cannot hold
        except ValueError as e:
            # past the enumeration's size rule (64 contexts, CHI2_MAX_CELLS
            # label-1 count vectors) only the closed form is reported
            if not str(e).startswith("enumeration"):
                raise ConfigError(f"--cutoff: {e}") from None
    return {"chi2": {"closed": closed, "brute": brute, "bound": bound,
                     "discarded": discarded}}


def _class_hypotheses(entries, family: RegionFamily) -> list[Hypothesis]:
    """The class file's hypotheses, each [region, theta0, theta1]."""
    if not isinstance(entries, list):
        raise ConfigError("hypotheses: must be a list of [region, theta0, theta1]")
    hyps = []
    for i, h in enumerate(entries):
        if not isinstance(h, list) or len(h) != 3:
            raise ConfigError(f"hypotheses[{i}]: must be [region, theta0, theta1]")
        hyps.append(read_hypothesis(h, f"hypotheses[{i}]", family))
    return hyps


def _cmd_nml(args) -> dict:
    spec = load_json(args.class_file, "class file")
    if not isinstance(spec, dict) or "family" not in spec or "hypotheses" not in spec:
        raise ConfigError("class file: needs 'family' and 'hypotheses'")
    family = RegionFamily.from_spec(spec["family"])
    hyps = _class_hypotheses(spec["hypotheses"], family)
    contexts = load_json(args.contexts, "contexts file")
    if not isinstance(contexts, list):
        raise ConfigError("contexts file: must be a JSON list of context ids")
    contexts = read_ids(contexts, "contexts", family.size)
    try:
        value = nml_value(family, hyps, contexts)
    except ValueError as e:
        raise ConfigError(f"nml: {e}") from None
    return {"nml": value}


def _cmd_cover(args) -> dict:
    positive_finite(args.eps, "--eps")
    family = RegionFamily.from_spec(load_json(args.family, "family"))
    idx = epsilon_cover(family, args.eps)
    return {"cover": [int(i) for i in idx], "size": len(idx)}


def _finite(value, name: str):
    """value as given, if it is a finite number; fit_scaling converts it."""
    if not math.isfinite(parse_field(value, name, float)):
        raise ConfigError(f"{name}: {value!r} is not a finite number")
    return value


def _read_summary(summary) -> dict:
    """The cells of a summary file with the fields the fits read: `learner` and
    `sigma` as given, an integer `T` in [1, sys.maxsize], a finite
    `mean_final_regret` and a nonempty list of finite `final_regrets`."""
    if not isinstance(summary, dict) or not isinstance(summary.get("cells"), list):
        raise ConfigError("summary.cells: must be a list of sweep cells")
    cells = []
    for i, cell in enumerate(summary["cells"]):
        where = f"summary.cells[{i}]"
        if not isinstance(cell, dict):
            raise ConfigError(f"{where}: must be an object")
        for key in ("learner", "sigma", "T", "mean_final_regret", "final_regrets"):
            if key not in cell:
                raise ConfigError(f"{where}.{key}: missing")
        t = parse_field(cell["T"], f"{where}.T", int)
        if not 1 <= t <= sys.maxsize:
            raise ConfigError(f"{where}.T: {t} outside [1, {sys.maxsize}]")
        mean = _finite(cell["mean_final_regret"], f"{where}.mean_final_regret")
        regrets = cell["final_regrets"]
        if not isinstance(regrets, list) or not regrets:
            raise ConfigError(f"{where}.final_regrets: must be a nonempty list of "
                              f"finite numbers")
        cells.append({"learner": cell["learner"], "sigma": cell["sigma"], "T": t,
                      "mean_final_regret": mean,
                      "final_regrets": [_finite(v, f"{where}.final_regrets[{j}]")
                                        for j, v in enumerate(regrets)]})
    return {"cells": cells}


def _cmd_fit(args) -> dict:
    return {"fits": fit_scaling(_read_summary(load_json(args.summary, "summary")))}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(prog="smoothpa")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("chi2", help="chi-square stability report")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--universe", type=int, required=True)
    p.add_argument("--cutoff", type=float, default=1e-12)
    p.add_argument("--no-brute", action="store_true")
    p.set_defaults(func=_cmd_chi2)

    p = sub.add_parser("nml", help="exact NML value on fixed contexts")
    p.add_argument("--class", dest="class_file", required=True,
                   help="JSON with 'family' and 'hypotheses' [[region, t0, t1], ...]")
    p.add_argument("--contexts", required=True, help="JSON list of context ids")
    p.set_defaults(func=_cmd_nml)

    p = sub.add_parser("cover", help="epsilon-cover of a region family")
    p.add_argument("--family", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("fit", help="scaling-law fits from a sweep summary")
    p.add_argument("--summary", required=True)
    p.set_defaults(func=_cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericalAssertionError, InfiniteLossError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    print(format_json(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
