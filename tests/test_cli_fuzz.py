"""Fuzz the CLI: arbitrary JSON values and near misses of valid input files, and
near misses of valid argument lists, must end in exit code 0, 2 or 3, never in
an escaped exception.

Numbers are drawn from small ranges, plus nan, the infinities and boundary
floats (the smallest subnormal, a tiny normal and a huge finite value): a family
of a million contexts is a valid input whose cost is real work, not a malformed one.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

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
# the special numbers both the file and the argv fuzzers draw
SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), 5e-324, 1e-300, 1e308]
scalars = (st.none() | st.booleans() | st.integers(-3, 70)
           | st.floats(-2.0, 2.0) | st.sampled_from(SPECIAL_FLOATS)
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


# Valid argument lists for every subcommand, over the files that `ARGV_FILES`
# writes. Paths are relative to the temporary directory the fuzz runs in, so a
# drawn token used as an output directory stays inside it.
VALID_ARGV = [
    ["run", "--config", "config.json", "--output-dir", "out"],
    ["chi2", "--sigma", "0.5", "--n", "4", "--universe", "2", "--cutoff", "1e-6"],
    ["chi2", "--sigma", "0.25", "--n", "2", "--universe", "1", "--no-brute"],
    ["nml", "--class", "class.json", "--contexts", "contexts.json"],
    ["cover", "--family", "family.json", "--eps", "0.3"],
    ["fit", "--summary", "summary.json"],
]
ARGV_FILES = {"config.json": RUN_CONFIG, "class.json": CLASS, "contexts.json": CONTEXTS,
              "family.json": EXPLICIT, "summary.json": SUMMARY}
# --universe stays at most 2, or past what numpy can allocate: chi2's
# enumeration at larger universes is real work
VALUES = ["-1", "0", "0.5", "1", "2", "1e300", "4611686018427387904",
          *map(repr, SPECIAL_FLOATS), "abc", "",
          *ARGV_FILES, "missing.json", "a_dir", "a_file", "a_file/out", "out"]
TOKENS = sorted({t for argv in VALID_ARGV for t in argv if t.startswith("-")}) + [
    "run", "chi2", "nml", "cover", "fit", "--help", "-x", "--sigma=0.5", *VALUES]


@st.composite
def near_miss_argv(draw):
    """A valid argument list with one or two edits: mostly a flag's value
    swapped for another value, otherwise any token replaced, removed or inserted."""
    argv = list(draw(st.sampled_from(VALID_ARGV)))
    for _ in range(draw(st.integers(1, 2))):
        values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")
                  and not argv[i].startswith("--")]
        edit = draw(st.sampled_from(["value", "value", "value", "replace", "remove", "insert"]))
        if edit == "value" and values:
            argv[draw(st.sampled_from(values))] = draw(st.sampled_from(VALUES))
            continue
        i = draw(st.integers(0, len(argv)))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(st.sampled_from(TOKENS)))
        elif edit == "replace":
            argv[i] = draw(st.sampled_from(TOKENS))
        else:
            del argv[i]
    return argv


def run_argv(argv) -> tuple[int, str]:
    """cli.main on argv inside a fresh directory holding the valid input files;
    returns the exit code, argparse's SystemExit counted as one, and stderr."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in ARGV_FILES.items():
            (Path(tmp) / name).write_text(json.dumps(obj))
        (Path(tmp) / "a_dir").mkdir()
        (Path(tmp) / "a_file").write_text("")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(argv)
                except SystemExit as e:     # argparse: 2 on a usage error, 0 after --help
                    code = e.code
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


def test_valid_argv_exit_0():
    for argv in VALID_ARGV:
        assert run_argv(argv) == (0, "")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_miss_argv())
# a one-count support over 2^62 contexts once ended in a MemoryError traceback
@example(["chi2", "--sigma", "5e-324", "--n", "4", "--universe", "4611686018427387904",
          "--cutoff", "1e-6"])
def test_cli_argv_fuzz(argv):
    code, err = run_argv(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
