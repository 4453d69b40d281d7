"""Fuzz the file inputs of the CLI: arbitrary JSON values and near misses of
valid files must end in exit code 0, 2 or 3, never in an escaped exception.

Numbers are drawn from small ranges (plus nan and the infinities): a family of
a million contexts is a valid input whose cost is real work, not a malformed one.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from smoothpa.cli import main as cli_main

GRID = {"kind": "threshold_grid", "size": 6}
EXPLICIT = {"kind": "explicit", "size": 6, "regions": [[0, 2], [1, 3, 4], [5]]}
CLASS = {"family": GRID, "hypotheses": [[1, 0.2, 0.7], [4, 0.0, 1.0], [5, 0.5, 0.5]]}
EXPLICIT_CLASS = {"family": EXPLICIT, "hypotheses": [[0, 0.2, 0.7], [2, 1.0, 0.0]]}
CONTEXTS = [0, 3, 3, 5]
SUMMARY = {"cells": [{"learner": {"uniform": {}}, "sigma": 0.5, "T": t,
                      "mean_final_regret": 0.7 * t, "final_regrets": [0.6 * t, 0.8 * t]}
                     for t in (8, 16, 32, 64)]}

# a tiny sweep: every learner kind, a realizable adaptive adversary, one repetition
RUN_CONFIG = {"universe": 6, "family": EXPLICIT,
              "adversary": {"context": "subset_uniform", "rule": "adaptive",
                            "label": "realizable",
                            "f_star": {"region_index": 1, "theta0": 0.2, "theta1": 0.9}},
              "repetitions": 1, "base_seed": 7,
              "sweep": {"learner": [{"uniform": {}}, {"kt": {"beta": 0.5}},
                                    {"vc_mixture": {"eps": 0.2}},
                                    {"ftpl": {"n": 4, "alpha": 0.1}}],
                        "T": [4, 8], "sigma": [0.5]}}

KEYS = ["kind", "size", "regions", "family", "hypotheses", "cells", "learner", "sigma", "T",
        "mean_final_regret", "final_regrets", "universe", "adversary", "rule", "label",
        "f_star", "labels", "set", "repetitions", "sweep", "uniform", "kt", "vc_mixture",
        "ftpl", "n", "alpha", "eps", "beta"]
scalars = (st.none() | st.booleans() | st.integers(-3, 70)
           | st.floats(-2.0, 2.0) | st.sampled_from([float("nan"), float("inf"), -float("inf")])
           | st.text(max_size=4)
           | st.sampled_from(KEYS + ["threshold_grid", "explicit", "static", "adaptive",
                                     "greedy", "realizable", "fixed_sequence"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


@st.composite
def near_miss(draw, valid):
    """`valid` with one or two of its nodes replaced by arbitrary JSON or removed."""
    obj = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(json_values)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(scalars | json_values)
        else:
            del parent[path[-1]]
    return obj


def file_input(valid):
    return json_values | near_miss(valid)


def run_cli(command, files, **argv_files):
    """cli.main on the given JSON documents written to files; returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, obj in argv_files.items():
            path = Path(tmp) / f"{flag}.json"
            path.write_text(json.dumps(obj))
            argv += [f"--{flag}", str(path)]
        argv += files
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli_main(argv)


FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def test_valid_files_exit_0():
    with tempfile.TemporaryDirectory() as out:
        assert run_cli("run", ["--output-dir", out], config=RUN_CONFIG) == 0
    assert run_cli("nml", [], **{"class": CLASS, "contexts": CONTEXTS}) == 0
    assert run_cli("nml", [], **{"class": EXPLICIT_CLASS, "contexts": CONTEXTS}) == 0
    assert run_cli("fit", [], summary=SUMMARY) == 0
    assert run_cli("cover", ["--eps", "0.3"], family=EXPLICIT) == 0


@FUZZ
@given(file_input(CLASS) | file_input(EXPLICIT_CLASS), file_input(CONTEXTS))
def test_nml_files_fuzz(class_spec, contexts):
    assert run_cli("nml", [], **{"class": class_spec, "contexts": contexts}) in (0, 2, 3)


@FUZZ
@given(file_input(SUMMARY))
def test_fit_summary_fuzz(summary):
    assert run_cli("fit", [], summary=summary) in (0, 2, 3)


@FUZZ
@given(file_input(EXPLICIT) | file_input(GRID))
def test_cover_family_fuzz(family):
    assert run_cli("cover", ["--eps", "0.3"], family=family) in (0, 2, 3)


@FUZZ
@given(file_input(RUN_CONFIG))
def test_run_config_fuzz(config):
    with tempfile.TemporaryDirectory() as out:
        assert run_cli("run", ["--output-dir", out], config=config) in (0, 2, 3)
