import ast
import csv
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import smoothpa
import smoothpa.harness as harness
import smoothpa.hypotheses as hypotheses
from smoothpa.adversary import (AdversaryPolicy, GreedyLabelRule, StaticSubsetRule,
                                adversary_from_spec)
from smoothpa.cli import build_parser, main as cli_main
from smoothpa.core import run_game
from smoothpa.errors import ConfigError
from smoothpa.harness import derive_seed, fit_scaling, parse_config, run
from smoothpa.hypotheses import RegionFamily
from smoothpa.learners import KtLearner, learner_from_spec


def base_config(**overrides):
    """A small valid config. A key that `sweep` sets loses its top-level
    default, since a key may be set in only one of the two places."""
    cfg = {
        "universe": 8,
        "family": {"kind": "threshold_grid", "size": 8},
        "adversary": {"context": "subset_uniform", "rule": "static", "label": "greedy"},
        "learner": {"uniform": {}},
        "T": 16,
        "sigma": 0.5,
        "repetitions": 1,
        "base_seed": 1234,
    }
    cfg.update(overrides)
    for key in overrides.get("sweep", {}):
        if key not in overrides:
            cfg.pop(key, None)
    return cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_derive_seed_stable_and_spread():
    key = {"learner": {"uniform": {}}, "T": 16, "sigma": 0.5}
    a = derive_seed(7, key, 0)
    assert a == derive_seed(7, key, 0)
    assert a != derive_seed(7, key, 1)
    assert a != derive_seed(8, key, 0)
    assert 0 <= a < 2 ** 63


def test_parse_config_field_paths():
    with pytest.raises(ConfigError, match="^family: missing"):
        parse_config({})
    with pytest.raises(ConfigError, match="sigma"):
        parse_config(base_config(sigma=1.5))
    with pytest.raises(ConfigError, match="repetitions"):
        parse_config(base_config(repetitions=0))
    with pytest.raises(ConfigError, match="T"):
        parse_config(base_config(T=0))
    with pytest.raises(ConfigError, match="learner"):
        parse_config(base_config(learner="uniform"))
    static = {"context": "subset_uniform", "rule": "static", "label": "greedy"}
    with pytest.raises(ConfigError, match=r"adversary\.set\[1\]: context id 8 outside"):
        parse_config(base_config(adversary=dict(static, set=[0, 8, 1, 2])))
    with pytest.raises(ConfigError, match=r"adversary\.set\[0\]: context id -1 outside"):
        parse_config(base_config(adversary=dict(static, set=[-1, 0, 1, 2])))
    with pytest.raises(ConfigError, match=r"adversary\.set: target set repeats context id 1"):
        parse_config(base_config(adversary=dict(static, set=[0, 1, 1, 2])))
    for universe in (4, 16):        # the family is an 8-point grid
        with pytest.raises(ConfigError, match=f"family.size: 8 differs from universe {universe}"):
            parse_config(base_config(universe=universe))
    explicit = {"kind": "explicit", "size": 6, "regions": [[0, 1], [2]]}
    with pytest.raises(ConfigError, match="family.size: 6 differs from universe 8"):
        parse_config(base_config(family=explicit))
    for key in ("T", "sigma"):
        cfg = base_config()
        cfg.pop(key)
        with pytest.raises(ConfigError, match=f"^{key}: missing"):
            parse_config(cfg)
    with pytest.raises(ConfigError, match="universe: 'abc' is not a valid int"):
        parse_config(base_config(universe="abc"))
    with pytest.raises(ConfigError, match=r"T: \[16\] is not a valid int"):
        parse_config(base_config(T=[[16]]))
    with pytest.raises(ConfigError, match="sigma: 'x' is not a valid float"):
        parse_config(base_config(sigma="x"))
    # a swept key is set in one place: both is an error, not a silent override
    for key, value in (("T", [8]), ("sigma", [1.0]), ("learner", [{"kt": {}}])):
        with pytest.raises(ConfigError, match=f"^{key}: set both at the top level and in sweep$"):
            parse_config(dict(base_config(), sweep={key: value}))
    with pytest.raises(ConfigError, match="repetitions: None is not a valid int"):
        parse_config(base_config(repetitions=None))
    realizable = {"context": "subset_uniform", "rule": "static", "label": "realizable"}
    f_star = {"region_index": 2, "theta0": 0.2, "theta1": 0.7}
    for fs, message in (
            ({"region_index": 2, "theta1": 0.7}, r"adversary\.f_star\.theta0: missing"),
            ({"theta0": 0.2, "theta1": 0.7}, r"adversary\.f_star\.region_index: missing"),
            (dict(f_star, region_index=99), r"adversary\.f_star\.region_index: 99 outside \[0, 8\)"),
            (dict(f_star, region_index=-1), r"adversary\.f_star\.region_index: -1 outside"),
            (dict(f_star, region_index="a"), r"adversary\.f_star\.region_index: 'a' is not a"),
            (dict(f_star, theta1=1.5), r"adversary\.f_star\.theta1: 1\.5 outside \[0, 1\]"),
            (dict(f_star, theta0="x"), r"adversary\.f_star\.theta0: 'x' is not a valid float"),
            (dict(f_star, theta0="0.5"), r"adversary\.f_star\.theta0: '0\.5' is not a valid float"),
            (dict(f_star, region_index="2"),
             r"adversary\.f_star\.region_index: '2' is not a valid int")):
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(base_config(adversary=dict(realizable, f_star=fs)))
    explicit = {"kind": "explicit", "size": 8}
    for regions, message in (([[0, 9]], r"family\.regions\[0\]\[1\]: context id 9 outside \[0, 8\)"),
                             ([[10 ** 20]], r"family\.regions\[0\]\[0\]: context id 10+ outside"),
                             ([[1], [-2]], r"family\.regions\[1\]\[0\]: context id -2 outside"),
                             ([[1], [2, "a"]], r"family\.regions\[1\]\[1\]: 'a' is not a valid int"),
                             ([], r"family\.regions: must be a nonempty list")):
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(base_config(family=dict(explicit, regions=regions)))
    for size, message in (("abc", "family.size: 'abc' is not a valid int"),
                          (None, "family.size: missing"), (0, "family.size: 0 must be >= 1")):
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(base_config(family={"kind": "threshold_grid", "size": size}))
    for key, value, message in (("T", 4.7, "T: 4.7 is not a valid int"),
                                ("T", True, "T: True is not a valid int"),
                                # a JSON string is not a number, however it reads
                                ("T", "64", "T: '64' is not a valid int"),
                                ("T", [16, "32"], "T: '32' is not a valid int"),
                                ("sigma", "0.5", "sigma: '0.5' is not a valid float"),
                                ("base_seed", " 7 ", "base_seed: ' 7 ' is not a valid int"),
                                ("repetitions", "2", "repetitions: '2' is not a valid int"),
                                ("universe", "8", "universe: '8' is not a valid int"),
                                ("learner", {"ftpl": {"n": "10"}},
                                 "learner.ftpl.n: '10' is not a valid float"),
                                ("learner", {"kt": {"beta": "0.5"}},
                                 "learner.kt.beta: '0.5' is not a valid float"),
                                ("learner", {"vc_mixture": {"eps": "0.1"}},
                                 "learner.vc_mixture.eps: '0.1' is not a valid float"),
                                ("repetitions", 2.9, "repetitions: 2.9 is not a valid int"),
                                ("sigma", True, "sigma: True is not a valid float"),
                                # integral, but more rounds than numpy can index
                                ("T", [16, 1e308], f"T: above {sys.maxsize}, the most numpy "
                                                   f"can index"),
                                ("repetitions", 1e308, f"repetitions: above {sys.maxsize}, "
                                                       f"the most numpy can index"),
                                ("output_dir", 5, "output_dir: 5 is not a string or null"),
                                ("output_dir", ["out"],
                                 r"output_dir: \['out'\] is not a string or null"),
                                # a repeated swept value would replay its cells' seeds
                                ("sigma", [0.5, 0.25, 0.5], r"sigma: repeats 0\.5"),
                                ("T", [16, 8, 16.0], "T: repeats 16"),
                                ("learner", [{"kt": {"beta": 0.5}}, {"kt": {}},
                                             {"kt": {"beta": 0.5}}],
                                 r'learner: repeats \{"kt":\{"beta":0\.5\}\}'),
                                # specs compare as derive_seed serializes them, keys sorted
                                ("learner", [{"ftpl": {"n": 10, "alpha": 0.1}},
                                             {"ftpl": {"alpha": 0.1, "n": 10}}],
                                 r'learner: repeats \{"ftpl":\{"alpha":0\.1,"n":10\}\}')):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(base_config(**{key: value}))
    # a key that nothing reads, at every level, ends with its path
    adaptive = {"context": "subset_uniform", "rule": "adaptive", "label": "greedy"}
    grid = {"kind": "threshold_grid", "size": 8}
    for overrides, message in (
            ({"repetition": 20}, "repetition: unknown key"),
            ({"sweep": {"T": [16], "sigmas": [0.5]}}, "sweep.sigmas: unknown key"),
            ({"learner": {"kt": {"betta": 2}}}, "learner.kt.betta: unknown key"),
            ({"learner": {"ftpl": {"N": 100}}}, "learner.ftpl.N: unknown key"),
            ({"learner": {"uniform": {"beta": 0.5}}}, "learner.uniform.beta: unknown key"),
            ({"sweep": {"learner": [{"uniform": {}}, {"vc_mixture": {"epsilon": 0.1}}]}},
             "learner.vc_mixture.epsilon: unknown key"),
            ({"family": dict(grid, regions=[[0]])}, "family.regions: unknown key"),
            ({"family": {"kind": "explicit", "regions": [[0], [7]], "universe": 8}},
             "family.universe: unknown key"),
            ({"adversary": dict(adaptive, set=[5, 6, 7])}, r"adversary\.set: unknown key"),
            ({"adversary": dict(static, sigma=0.1)}, r"adversary\.sigma: unknown key"),
            ({"adversary": dict(static, labels=[0, 1])}, r"adversary\.labels: unknown key"),
            ({"adversary": dict(static, f_star=f_star)}, r"adversary\.f_star: unknown key"),
            ({"adversary": dict(static, lable="realizable")}, r"adversary\.lable: unknown key"),
            ({"adversary": dict(realizable, f_star=dict(f_star, theta2=0.5))},
             r"adversary\.f_star\.theta2: unknown key")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(base_config(**overrides))


def test_run_uniform_vs_greedy_regret_is_t_ln2(tmp_path):
    summary = run(base_config(), output_dir=tmp_path)
    cell = summary["cells"][0]
    # greedy ties to y=0 against q=1/2, so the comparator fits labels exactly
    assert cell["mean_final_regret"] == pytest.approx(16 * math.log(2), abs=1e-9)
    rows = read_rows(tmp_path / "records_cell000.csv")
    assert len(rows) == 16
    assert float(rows[-1]["cum_comparator_loss"]) == 0.0
    # cumulative columns are prefix sums of the per-round column
    acc = 0.0
    for row in rows:
        acc += float(row["learner_loss"])
        assert float(row["cum_learner_loss"]) == pytest.approx(acc, abs=1e-9)
        assert float(row["cum_regret"]) == pytest.approx(
            acc - float(row["cum_comparator_loss"]), abs=1e-9)


def test_run_byte_identical_for_same_config(tmp_path):
    cfg = base_config(
        sweep={"learner": [{"vc_mixture": {}}, {"ftpl": {"n": 6, "alpha": 0.05}}],
               "T": [12, 24], "sigma": [0.25]},
        adversary={"context": "subset_uniform", "rule": "adaptive", "label": "greedy"},
        repetitions=2,
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(cfg, output_dir=out1)
    run(cfg, output_dir=out2)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert any(n.startswith("records_cell") for n in names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_cell_count_is_axis_product(tmp_path):
    cfg = base_config(sweep={"T": [8, 16, 32], "sigma": [0.5, 1.0]})
    summary = run(cfg, output_dir=tmp_path)
    assert len(summary["cells"]) == 6
    assert len(list(tmp_path.glob("records_cell*.csv"))) == 6


def test_bad_learner_spec_fails_before_any_output(tmp_path):
    cfg = base_config(learner=[{"uniform": {}}, {"ftpl": {"n": "abc"}}])
    with pytest.raises(ConfigError, match=r"^learner\.ftpl\.n: 'abc' is not a valid float"):
        parse_config(cfg)
    with pytest.raises(ConfigError, match=r"^learner\.ftpl\.n: 'abc' is not a valid float"):
        run(cfg, output_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    # every (learner, T, sigma) cell is checked: the default alpha = 1/T fails at T = 2
    with pytest.raises(ConfigError, match=r"^learner\.ftpl\.alpha: the default 1/T"):
        parse_config(base_config(learner={"ftpl": {}}, T=[16, 2]))


@pytest.mark.parametrize("overrides, message", [
    # the set is large enough at sigma 0.25, too small at 0.75 on 4 contexts
    ({"adversary": {"rule": "static", "set": [0, 1], "label": "greedy"},
      "sigma": [0.25, 0.75]},
     r"^adversary\.set: target set of size 2 below minimum 3 for sigma=0\.75$"),
    ({"adversary": {"label": "fixed_sequence", "labels": [0, 1, 1, 0, 1]}, "T": [4, 10]},
     r"^adversary\.labels: 5 labels, fewer than T = 10$"),
])
def test_bad_adversary_spec_fails_before_any_output(tmp_path, overrides, message):
    cfg = base_config(universe=4, family={"kind": "threshold_grid", "size": 4}, **overrides)
    with pytest.raises(ConfigError, match=message):
        parse_config(cfg)
    with pytest.raises(ConfigError, match=message):
        run(cfg, output_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unallocatable_horizon_fails_before_any_output(tmp_path):
    # the 16-round cell could play, but the sweep's largest horizon never can
    cfg = base_config(universe=4, family={"kind": "threshold_grid", "size": 4},
                      sweep={"T": [16, 2 ** 62]})
    message = f"^T: {2 ** 62} rounds are more than numpy can allocate$"
    with pytest.raises(ConfigError, match=message):
        parse_config(cfg)
    with pytest.raises(ConfigError, match=message):
        run(cfg, output_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


# Run under an address-space limit 2 GiB above what the interpreter already
# maps: one 8e8-byte column of T = 1e8 rounds fits, a game's five do not.
TIGHT_MEMORY_RUN = """
import json, resource, sys
from smoothpa.errors import ConfigError
from smoothpa.harness import run
with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmSize:"))
limit = mapped + (2 << 30)
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    run(json.loads(sys.argv[1]), output_dir=sys.argv[2])
except ConfigError as e:
    print(e)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_horizon_check_sizes_all_of_a_games_columns(tmp_path):
    cfg = base_config(universe=4, family={"kind": "threshold_grid", "size": 4},
                      sweep={"T": [16, 10 ** 8]})
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", TIGHT_MEMORY_RUN, json.dumps(cfg),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"T: {10 ** 8} rounds are more than numpy can allocate\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cells_too_large_to_share_a_call_fit_where_they_fit_alone(tmp_path):
    # under the limit of TIGHT_MEMORY_RUN the five columns of a cell's 2
    # repetitions of 1.5e7 rounds fit, those of both sigma cells' 4 games
    # would not: the 16-round cells share a call, the 1.5e7-round cells
    # each play one of their own, as one call per cell played them
    cfg = base_config(universe=4, family={"kind": "threshold_grid", "size": 4}, repetitions=2,
                      sweep={"T": [16, 15 * 10 ** 6], "sigma": [0.5, 1.0]})
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    parse = TIGHT_MEMORY_RUN.replace("import run", "import parse_config").replace(
        "run(json.loads(sys.argv[1]), output_dir=sys.argv[2])",
        "print(parse_config(json.loads(sys.argv[1])).groups)")
    done = subprocess.run([sys.executable, "-c", parse, json.dumps(cfg), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[[0, 1], [2], [3]]\n"


def test_a_call_holds_no_more_columns_than_its_cap(tmp_path, monkeypatch):
    # a cap of 60 rounds for each of 2 repetitions: the three T = 12 cells
    # and the first T = 24 cell fill a call, the fifth cell would pass the
    # cap and starts the next; the bytes are those of one call per cell
    monkeypatch.setattr(harness, "_GROUP_BYTES", 40 * 2 * (3 * 12 + 24))
    cfg = base_config(learner={"kt": {}}, repetitions=2,
                      sweep={"T": [12, 24], "sigma": [0.25, 0.5, 1.0]})
    parsed = parse_config(cfg)
    assert parsed.groups == [[0, 1, 2, 3], [4, 5]]
    calls = spy_on_run_game(monkeypatch)
    run(parsed, output_dir=tmp_path / "grouped")
    assert calls == [[f"c{ci:03d}r{rep:03d}" for ci in cells for rep in range(2)]
                     for cells in ((3, 0, 1, 2), (4, 5))]
    parsed.groups = [[ci] for ci in range(6)]
    run(parsed, output_dir=tmp_path / "alone")
    names = sorted(p.name for p in (tmp_path / "alone").iterdir())
    assert len(names) == 7
    for n in names:
        assert (tmp_path / "grouped" / n).read_bytes() == (tmp_path / "alone" / n).read_bytes(), n


def test_a_sweep_in_one_call_peaks_no_higher_than_one_call_per_horizon(tmp_path):
    # the bench's mixture_adaptive sweep, its twelve cells in one call or
    # one call per T. Both peak while a T = 512 cell's CSV is formatted,
    # holding the traces of both T = 512 cells: the one call lets each
    # cell's traces go once its CSV is written, and each segment's columns
    # once they are copied, so the peaks agree up to the interpreter's own
    # small allocations (a few KiB). A call that kept every cell's traces
    # to its end peaked 80 KiB higher.
    cfg = parse_config(base_config(
        universe=64, family={"kind": "threshold_grid", "size": 64},
        adversary={"context": "subset_uniform", "rule": "adaptive", "label": "greedy"},
        learner={"vc_mixture": {}}, repetitions=2,
        sweep={"T": [2 ** e for e in range(4, 10)], "sigma": [0.05, 0.2]}))
    one_call, per_T = [list(range(12))], [[2 * k, 2 * k + 1] for k in range(6)]
    assert cfg.groups == one_call

    def peak(groups, name):
        cfg.groups = groups
        gc.collect()
        tracemalloc.start()
        try:
            run(cfg, output_dir=tmp_path / name)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a first pass builds the caches every later one reads, and tracemalloc's own state
    peak(per_T, "first")
    assert peak(one_call, "one_call") <= peak(per_T, "per_T") + 4096


@pytest.mark.parametrize("learner", [{"uniform": {}}, {"kt": {"beta": 0.5}}])
def test_run_rejects_family_universe_mismatch(tmp_path, learner):
    cfg = base_config(universe=16, learner=learner, base_seed=3)
    with pytest.raises(ConfigError, match="^family.size: 8 differs from universe 16"):
        run(cfg, output_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_run_builds_one_family_one_adversary_a_sigma_one_learner_a_cell(tmp_path, monkeypatch):
    counts = {"family": 0, "learner": 0, "adversary": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness.RegionFamily, "from_spec",
                        counting("family", harness.RegionFamily.from_spec))
    monkeypatch.setattr(harness, "learner_from_spec",
                        counting("learner", harness.learner_from_spec))
    monkeypatch.setattr(harness, "adversary_from_spec",
                        counting("adversary", harness.adversary_from_spec))
    cfg = base_config(sweep={"learner": [{"kt": {}}, {"vc_mixture": {}}, {"ftpl": {}}],
                             "T": [8, 16], "sigma": [0.5, 1.0]}, repetitions=3)
    parsed = parse_config(cfg)
    assert counts == {"family": 1, "learner": 12, "adversary": 2}
    # one adversary a sigma, which every cell at that sigma plays on
    for cell in parsed.cells:
        assert cell.adversary is parsed.cells[cell.sigma == 1.0].adversary
    assert parsed.cells[0].adversary is not parsed.cells[1].adversary
    summary = run(parsed, output_dir=tmp_path)
    assert len(summary["cells"]) == 12
    assert counts == {"family": 1, "learner": 12, "adversary": 2}


REUSE_LABELS = {
    "greedy": {"label": "greedy"},
    "realizable": {"label": "realizable",
                   "f_star": {"region_index": 3, "theta0": 0.2, "theta1": 0.9}},
    "fixed_sequence": {"label": "fixed_sequence", "labels": [1, 0, 0, 1, 1, 1, 0, 1] * 3},
}


@pytest.mark.parametrize("rule", ["static", "adaptive"])
@pytest.mark.parametrize("label", sorted(REUSE_LABELS))
@pytest.mark.parametrize("learner", [{"uniform": {}}, {"kt": {}}, {"vc_mixture": {}},
                                     {"ftpl": {"n": 8, "alpha": 0.1}}])
def test_reused_learner_and_adversary_replay_a_fresh_game(learner, label, rule):
    # run plays every repetition of a cell on the same two objects
    family = RegionFamily.threshold_grid(8)
    spec = dict(REUSE_LABELS[label], rule=rule)

    def build():
        return (learner_from_spec(learner, family, 24, 0.5),
                adversary_from_spec(spec, family, sigma=0.5))
    played = build()
    run_game(*played, 24, seed=1)
    fresh = run_game(*build(), 24, seed=2)
    reused = run_game(*played, 24, seed=2)
    for column in ("xs", "ys", "qs", "losses"):
        assert np.array_equal(getattr(reused, column), getattr(fresh, column)), column


def test_adaptive_and_static_rules_write_identical_records(tmp_path):
    # "adaptive" names the default static set
    for rule in ("adaptive", "static"):
        run(base_config(adversary={"context": "subset_uniform", "rule": rule, "label": "greedy"},
                        sweep={"learner": [{"vc_mixture": {}}, {"ftpl": {"n": 6, "alpha": 0.05}}],
                               "T": [12, 24], "sigma": [0.25]}, repetitions=2),
            output_dir=tmp_path / rule)
    names = sorted(p.name for p in (tmp_path / "static").glob("records_cell*.csv"))
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "adaptive" / name).read_bytes() == \
            (tmp_path / "static" / name).read_bytes(), name
    summaries = [json.loads((tmp_path / rule / "summary.json").read_text())
                 for rule in ("adaptive", "static")]
    assert summaries[0]["cells"] == summaries[1]["cells"]
    assert summaries[0]["fits"] == summaries[1]["fits"]


class ExplodingLearner:
    """Fails `fail_at` rounds into its reset number `fail_game`, counting from
    1; `run` resets a cell's learner once for all of the cell's repetitions."""

    def __init__(self, fail_game, fail_at):
        self.fail_game = fail_game
        self.fail_at = fail_at
        self.games = 0

    def reset(self, rng):
        self.games += 1
        self.seen = 0

    def predict(self, x):
        if self.games == self.fail_game and self.seen >= self.fail_at:
            raise RuntimeError("boom")
        return 0.5

    def update(self, x, y):
        self.seen += 1


def test_interrupted_run_leaves_parseable_partial_csv(tmp_path, monkeypatch):
    calls = {"n": 0}

    def factory(spec, family, t, sigma):
        calls["n"] += 1
        # the second cell's learner dies mid-game, in both of its repetitions
        return ExplodingLearner(fail_game=1 if calls["n"] == 2 else 0, fail_at=7)

    monkeypatch.setattr(harness, "learner_from_spec", factory)
    cfg = base_config(T=10, repetitions=2, sweep={"sigma": [0.5, 1.0]})
    with pytest.raises(RuntimeError, match="boom"):
        run(cfg, output_dir=tmp_path)
    rows = read_rows(tmp_path / "records_cell000.csv")
    assert len(rows) == 20  # first cell completed both repetitions
    assert all(len(r) == 7 and r["learner_loss"] for r in rows)
    # every completed cell is written, and nothing of the failed one
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records_cell000.csv"]


def test_run_fails_where_the_comparator_decreases(tmp_path, monkeypatch, capsys):
    real = harness.prefix_best_losses
    calls = []

    def dipping(xs, ys, family):
        out = real(xs, ys, family)
        calls.append(out)
        if len(calls) == 4:         # the second cell, its second repetition, round 9
            out[8] = np.nextafter(out[7], -np.inf)
        return out

    monkeypatch.setattr(harness, "prefix_best_losses", dipping)
    cfg = base_config(adversary={"context": "subset_uniform", "rule": "static",
                                 "label": "realizable",
                                 "f_star": {"region_index": 3, "theta0": 0.2, "theta1": 0.7}},
                      repetitions=2, sweep={"sigma": [0.5, 1.0]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: comparator decreased in cell 1, "
                          "repetition 1, round 9: "), err
    assert len(read_rows(tmp_path / "out" / "records_cell000.csv")) == 32
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["records_cell000.csv"]


# Two-sigma sweeps whose four cells, two of each T, share one run_game call:
# (learner, adversary, repetitions)
GROUPED_SWEEPS = {
    "vc_mixture_greedy": ({"vc_mixture": {}}, {"rule": "adaptive", "label": "greedy"}, 2),
    "ftpl_realizable": ({"ftpl": {"n": 30, "alpha": 0.05}},
                        {"rule": "static", "label": "realizable",
                         "f_star": {"region_index": 3, "theta0": 0.2, "theta1": 0.7}}, 3),
    "kt_fixed_sequence": ({"kt": {"beta": 0.5}},
                          {"rule": "static", "label": "fixed_sequence",
                           "labels": [1, 0, 0, 1, 1, 1, 0, 1] * 3}, 2),
}


def spy_on_run_game(monkeypatch):
    """The run ids of every harness.run_game call, in call order."""
    calls, real = [], harness.run_game

    def spy(learner, adversary, T, seeds, run_id):
        calls.append(list(run_id))
        return real(learner, adversary, T, seeds, run_id=run_id)
    monkeypatch.setattr(harness, "run_game", spy)
    return calls


@pytest.mark.parametrize("name", sorted(GROUPED_SWEEPS))
def test_grouped_sweep_writes_the_bytes_of_its_cells_played_alone(tmp_path, monkeypatch, name):
    learner, adversary, reps = GROUPED_SWEEPS[name]
    cfg = base_config(universe=16, family={"kind": "threshold_grid", "size": 16},
                      adversary=dict(adversary, context="subset_uniform"), repetitions=reps,
                      sweep={"learner": [learner], "T": [12, 24], "sigma": [0.25, 0.5]})
    calls = spy_on_run_game(monkeypatch)
    run(cfg, output_dir=tmp_path / "grouped")
    # one call, its cells' games cell by cell, the T = 24 cells first
    assert calls == [[f"c{ci:03d}r{rep:03d}" for ci in (2, 3, 0, 1) for rep in range(reps)]]
    # the same cells, one call each: every artifact keeps its bytes
    alone = parse_config(cfg)
    alone.groups = [[ci] for ci in range(len(alone.cells))]
    run(alone, output_dir=tmp_path / "alone")
    assert len(calls) == 5
    names = sorted(p.name for p in (tmp_path / "alone").iterdir())
    assert len(names) == 5
    for n in names:
        assert (tmp_path / "grouped" / n).read_bytes() == (tmp_path / "alone" / n).read_bytes(), n
    # each sigma as a config of its own plays the same games: the same rows
    # but for the cell number in the run ids
    for k, sigma in enumerate((0.25, 0.5)):
        run(dict(cfg, sweep=dict(cfg["sweep"], sigma=[sigma])), output_dir=tmp_path / str(k))
        for j in range(2):
            ci = 2 * j + k
            want = (tmp_path / str(k) / f"records_cell{j:03d}.csv").read_text()
            assert (tmp_path / "grouped" / f"records_cell{ci:03d}.csv").read_text() == \
                want.replace(f"c{j:03d}r", f"c{ci:03d}r")


def test_cells_at_one_sigma_share_an_adversary_across_calls(tmp_path, monkeypatch):
    # one adversary per sigma, which the one call of both horizons holds
    # once for each T and resets once; the bytes are those of one call per
    # T and of one call per cell
    cfg = base_config(learner={"vc_mixture": {}}, repetitions=2,
                      sweep={"T": [12, 16], "sigma": [0.5, 0.25]})
    built, build = [], harness.adversary_from_spec

    def counting(spec, family, sigma):
        built.append(sigma)
        return build(spec, family, sigma)
    monkeypatch.setattr(harness, "adversary_from_spec", counting)
    parsed = parse_config(cfg)
    assert built == [0.5, 0.25]
    assert parsed.groups == [[0, 1, 2, 3]]
    p, q = parsed.cells[0].adversary, parsed.cells[1].adversary
    assert q is not p
    assert parsed.cells[2].adversary is p and parsed.cells[3].adversary is q
    policies, lockstep = [], harness.LockstepPolicy
    monkeypatch.setattr(harness, "LockstepPolicy",
                        lambda cells: policies.append(cells) or lockstep(cells))
    resets = []
    for policy in (p, q):
        monkeypatch.setattr(policy.context_rule, "reset",
                            lambda *args, real=policy.context_rule.reset:
                            resets.append(args[1]) or real(*args))
    calls = spy_on_run_game(monkeypatch)
    run(parsed, output_dir=tmp_path / "grouped")
    assert calls == [[f"c{ci:03d}r{rep:03d}" for ci in (2, 3, 0, 1) for rep in range(2)]]
    assert [list(map(id, cells)) for cells in policies] == [[id(p), id(q), id(p), id(q)]]
    assert sorted(resets) == [0.25, 0.5]
    for name, groups in (("per_T", [[0, 1], [2, 3]]), ("alone", [[0], [1], [2], [3]])):
        parsed.groups = groups
        run(parsed, output_dir=tmp_path / name)
        names = sorted(path.name for path in (tmp_path / name).iterdir())
        assert len(names) == 5
        for n in names:
            assert (tmp_path / "grouped" / n).read_bytes() == \
                (tmp_path / name / n).read_bytes(), (name, n)
    assert len(calls) == 7


@pytest.mark.parametrize("case", ["one_repetition", "wide_grid_vc_mixture", "default_ftpl",
                                  "custom_learner"])
def test_cells_that_cannot_share_a_call_play_one_call_each(tmp_path, monkeypatch, case):
    cfg = base_config(repetitions=2, learner={"uniform": {}}, sweep={"sigma": [0.25, 0.5]})
    if case == "one_repetition":
        cfg.update(repetitions=1, learner={"kt": {}})
    elif case == "wide_grid_vc_mixture":
        # eps = sigma / T^2 takes every ceil(4 sigma)-th of the 2^14 thresholds
        cfg.update(universe=2 ** 14, family={"kind": "threshold_grid", "size": 2 ** 14},
                   learner={"vc_mixture": {}}, T=64)
    elif case == "default_ftpl":
        cfg.update(learner={"ftpl": {}})        # n = round(T^0.8 / sqrt(sigma))
    else:
        monkeypatch.setattr(harness, "learner_from_spec",
                            lambda spec, family, t, sigma: ExplodingLearner(0, 0))
    parsed = parse_config(cfg)
    assert parsed.groups == [[0], [1]]
    if case == "wide_grid_vc_mixture":
        assert [cell.learner.cover.size for cell in parsed.cells] == [2 ** 14, 2 ** 13 + 1]
    calls = spy_on_run_game(monkeypatch)
    run(parsed, output_dir=tmp_path)
    reps = range(cfg["repetitions"])
    assert calls == [[f"c{ci:03d}r{rep:03d}" for rep in reps] for ci in (0, 1)]


def test_failure_inside_a_call_writes_none_of_its_cells(tmp_path, monkeypatch):
    # two kt specs at T = 8 and 16, sigma 0.5 and 1.0: each spec's four
    # cells share one call, and the second call's learner raises in round
    # 11, when only the T = 16 games still play; the call plays all four
    # cells' games, so the failure writes none of them, not even the T = 8
    # cells, whose games had ended
    cfg = parse_config(base_config(repetitions=2, sweep={
        "learner": [{"kt": {}}, {"kt": {"beta": 1.0}}], "T": [8, 16], "sigma": [0.5, 1.0]}))
    assert cfg.groups == [[0, 1, 2, 3], [4, 5, 6, 7]]
    real = KtLearner.predict

    def predict(self, xs):
        if self._rounds == 10 and any(self is cell.learner for cell in cfg.cells[4:]):
            raise RuntimeError("boom")
        return real(self, xs)
    monkeypatch.setattr(KtLearner, "predict", predict)
    with pytest.raises(RuntimeError, match="^boom$"):
        run(cfg, output_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"records_cell00{ci}.csv"
                                                          for ci in range(4)]
    assert [len(read_rows(tmp_path / f"records_cell00{ci}.csv")) for ci in range(4)] == \
        [16, 16, 32, 32]


def test_each_repetition_comparator_uses_only_its_own_classes(tmp_path, monkeypatch):
    # a repetition's comparator forms its losses over the classes of its own
    # contexts, not over those the cell's other repetitions saw: on a
    # 4096-point grid, at most one threshold per context it saw
    real_losses, real_comparator = hypotheses._region_losses, harness.prefix_best_losses
    calls = []

    def comparator(xs, ys, family):
        calls.append((len(np.unique(xs)), []))
        return real_comparator(xs, ys, family)

    monkeypatch.setattr(hypotheses, "_region_losses", lambda counts, *args: (
        calls[-1][1].append(counts.shape[-1]) or real_losses(counts, *args)))
    monkeypatch.setattr(harness, "prefix_best_losses", comparator)
    run(base_config(universe=4096, family={"kind": "threshold_grid", "size": 4096}, T=64,
                    repetitions=4), tmp_path)
    assert len(calls) == 4
    for distinct, widths in calls:
        assert widths and max(widths) <= distinct, (distinct, widths)


def test_mixture_regret_meets_its_certificate_every_round(tmp_path):
    # A mixture whose cover holds the comparator's region has regret after t
    # rounds at most ln|cover| + ln(n_in + 1) + ln(n_out + 1), at most
    # ln|cover| + 2 ln(t/2 + 1), against any adversary. Under the default
    # eps = sigma / T^2 a 64-point grid's cover holds all 64 thresholds.
    adversaries = {
        "adaptive_greedy": {"context": "subset_uniform", "rule": "adaptive", "label": "greedy"},
        "static_realizable": {"context": "subset_uniform", "rule": "static",
                              "label": "realizable",
                              "f_star": {"region_index": 40, "theta0": 0.1, "theta1": 0.9}},
    }
    for name, adversary in adversaries.items():
        cfg = parse_config({"family": {"kind": "threshold_grid", "size": 64},
                            "adversary": adversary, "learner": {"vc_mixture": {}}, "T": 2048,
                            "repetitions": 3, "base_seed": 47,
                            "sweep": {"sigma": [0.05, 0.2, 1.0]}})
        assert [cell.learner.cover.size for cell in cfg.cells] == [64, 64, 64]
        run(cfg, output_dir=tmp_path / name)
        for ci in range(len(cfg.cells)):
            rows = read_rows(tmp_path / name / f"records_cell{ci:03d}.csv")
            assert len(rows) == 3 * 2048
            t = np.array([int(r["t"]) for r in rows])
            regret = np.array([float(r["cum_regret"]) for r in rows])
            bound = math.log(64) + 2 * np.log(t / 2 + 1)
            worst = int(np.argmax(regret - bound))
            assert regret[worst] <= bound[worst], (name, ci, rows[worst])


def synthetic_summary(values_by_t, sigma=0.1, reps=3, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    cells = []
    for i, (t, v) in enumerate(values_by_t.items()):
        vals = [v + jitter * rng.standard_normal() for _ in range(reps)]
        cells.append({"cell": i, "learner": {"synthetic": {}}, "T": t, "sigma": sigma,
                      "final_regrets": vals,
                      "mean_final_regret": float(np.mean(vals)),
                      "stddev_final_regret": float(np.std(vals))})
    return {"cells": cells}


def test_fit_scaling_recovers_ln_t_slope():
    ts = [2 ** e for e in range(4, 11)]
    summary = synthetic_summary({t: 7.0 * math.log(t) for t in ts})
    fits = fit_scaling(summary)
    g = fits["groups"][0]
    assert g["lnT_slope"] == pytest.approx(7.0, abs=0.01)
    assert g["lnT_intercept"] == pytest.approx(0.0, abs=0.05)


def test_fit_scaling_recovers_power_law():
    ts = [2 ** e for e in range(4, 11)]
    summary = synthetic_summary({t: t ** 0.8 for t in ts})
    fits = fit_scaling(summary)
    g = fits["groups"][0]
    assert g["loglog_slope"] == pytest.approx(0.8, abs=0.01)
    lo, hi = g["loglog_ci"]
    assert lo <= 0.8 <= hi or abs(lo - 0.8) < 0.01


def per_resample_bootstrap(summary, n_boot=200, seed=0):
    """Bootstrap slopes drawn and fitted one resample at a time, one cell at a time."""
    groups = {}
    for cell in summary["cells"]:
        key = json.dumps({"learner": cell["learner"], "sigma": cell["sigma"]}, sort_keys=True)
        groups.setdefault(key, []).append(cell)
    rng = np.random.default_rng(seed)
    out = []
    for _, group in sorted(groups.items()):
        group = sorted(group, key=lambda c: c["T"])
        lnt = np.log(np.array([c["T"] for c in group], dtype=float))
        boot_ll, boot_lt = [], []
        for _ in range(n_boot):
            means = []
            for c in group:
                vals = np.asarray(c["final_regrets"])
                means.append(vals[rng.integers(0, len(vals), len(vals))].mean())
            means = np.asarray(means)
            boot_ll.append(float(np.polyfit(lnt, np.log(np.maximum(means, 1e-9)), 1)[0]))
            boot_lt.append(float(np.polyfit(lnt, means, 1)[0]))
        out.append({"loglog_ci": [float(np.percentile(boot_ll, q)) for q in (2.5, 97.5)],
                    "lnT_ci": [float(np.percentile(boot_lt, q)) for q in (2.5, 97.5)]})
    return out


@pytest.mark.parametrize("n_t", [4, 6, 8, 11, 14])
def test_fit_scaling_bootstrap_equals_per_resample_loop(n_t):
    rng = np.random.default_rng(n_t)
    for trial in range(6):
        cells = []
        for sigma in (0.1, 0.3):
            for i in range(n_t):
                reps = int(rng.integers(1, 25)) if trial % 2 else 10
                vals = (rng.random(reps) * 50.0 - (5.0 if trial % 3 == 0 else 0.0)).tolist()
                cells.append({"learner": {"x": {}}, "sigma": sigma, "T": 2 ** (i + 3),
                              "final_regrets": vals, "mean_final_regret": float(np.mean(vals))})
        got = fit_scaling({"cells": cells}, seed=trial)["groups"]
        want = per_resample_bootstrap({"cells": cells}, seed=trial)
        assert [{k: g[k] for k in ("loglog_ci", "lnT_ci")} for g in got] == want
        # the point fits, bit for bit against np.polyfit
        for g in got:
            lnt, means = np.log(np.array(g["T"], dtype=float)), np.array(g["mean_regret"])
            for name, y in (("loglog", np.log(np.maximum(means, 1e-9))), ("lnT", means)):
                slope, intercept = np.polyfit(lnt, y, 1)
                assert (np.float64(g[f"{name}_slope"]).tobytes(),
                        np.float64(g[f"{name}_intercept"]).tobytes()) == \
                    (slope.tobytes(), intercept.tobytes())


def test_fit_scaling_needs_four_points():
    summary = synthetic_summary({8: 1.0, 16: 2.0, 32: 3.0})
    with pytest.raises(ConfigError, match="4 sweep points"):
        fit_scaling(summary)


def test_cli_fit_with_a_non_finite_fit_exits_3(tmp_path, capsys):
    # finite regrets whose bootstrap means overflow to inf; |regret| <= 745 T
    # keeps every real sweep far below this
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"cells": [
        {"learner": {"synthetic": {}}, "sigma": 0.1, "T": t, "mean_final_regret": 1e308,
         "final_regrets": [1e308, 1e308]} for t in (8, 16, 32, 64)]}))
    assert cli_main(["fit", "--summary", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ('numerical failure: fit: learner {"synthetic": {}} at sigma 0.1 '
                   'has a fitted value that is not finite\n')


# ---------------------------------------------------------------- CLI

def test_cli_run_and_fit(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg = base_config(sweep={"T": [8, 16, 32, 64]}, repetitions=2)
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
    assert (out / "summary.json").exists()
    capsys.readouterr()

    assert cli_main(["fit", "--summary", str(out / "summary.json")]) == 0
    fits = json.loads(capsys.readouterr().out)
    assert fits["fits"]["groups"][0]["lnT_slope"] >= 0.0


def test_cli_chi2_bound_when_sigma_times_n_underflows(capsys):
    assert cli_main(["chi2", "--sigma", "1e-300", "--n", "1e-300", "--universe", "1",
                     "--no-brute"]) == 0
    assert json.loads(capsys.readouterr().out)["chi2"]["bound"] == math.inf


@pytest.mark.parametrize("sigma, n_rate, universe, brute", [
    # 2^62 contexts: past the enumeration's 64 axes, once a MemoryError traceback
    ("5e-324", "4", "4611686018427387904", None),
    # 40 contexts: within them, once numpy's 64-axis error blamed --cutoff
    ("1", "1e-6", "40", -1.0),
])
def test_cli_chi2_one_count_support(capsys, sigma, n_rate, universe, brute):
    assert cli_main(["chi2", "--sigma", sigma, "--n", n_rate, "--universe", universe,
                     "--cutoff", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["chi2"]["brute"] == brute


def test_cli_cached_parser_prints_what_a_fresh_parser_prints(tmp_path, capsys):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"kind": "explicit", "size": 4, "regions": [[0, 1], [2]]}))
    # a value argparse refuses after it has parsed the subcommand, then a good call
    calls = [["cover", "--family", str(family), "--eps", "abc"],
             ["cover", "--family", str(family), "--eps", "0.3"]]

    def call(argv, fresh):
        if fresh:
            build_parser.cache_clear()
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code
        return code, *capsys.readouterr()

    fresh = [call(argv, fresh=True) for argv in calls]
    build_parser.cache_clear()
    cached = [call(argv, fresh=False) for argv in calls]
    assert [code for code, _, _ in cached] == [2, 0]
    assert cached == fresh
    assert build_parser() is build_parser()


def test_cli_chi2_report(capsys):
    assert cli_main(["chi2", "--sigma", "0.5", "--n", "4", "--universe", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)["chi2"]
    assert rep["closed"] <= rep["bound"] + 1e-12
    assert rep["brute"] == pytest.approx(rep["closed"], abs=1e-6 + rep["discarded"])


# chi2 under an address-space limit 500 MiB above what the interpreter already
# maps: 2.5e7 support ids and uniform_on's copy of them fit, 5e7 of each do not
TIGHT_MEMORY_CHI2 = """
import resource, sys
from smoothpa.cli import main
with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmSize:"))
limit = mapped + (500 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("universe", [5 * 10 ** 7, 10 ** 8])
def test_cli_chi2_working_set_fits_or_is_a_universe_error(universe):
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", TIGHT_MEMORY_CHI2, "chi2", "--sigma", "0.5",
                           "--n", "4", "--universe", str(universe), "--no-brute"],
                          env=env, capture_output=True, text=True, timeout=120)
    if universe == 5 * 10 ** 7:
        assert done.returncode == 0, done.stderr
        rep = json.loads(done.stdout)["chi2"]
        assert rep["closed"] == pytest.approx(1.0, rel=1e-12) and rep["bound"] == 1.0
    else:
        assert (done.returncode, done.stderr) == (
            2, f"config error: --universe: {universe} contexts are more than numpy "
               f"can allocate\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cli_chi2_reports_no_brute_force_it_cannot_hold():
    # 15^7 label-1 count vectors pass the size rule, but one 1.3 GiB grid of
    # them does not fit in 500 MiB: the closed form alone, and no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", TIGHT_MEMORY_CHI2, "chi2", "--sigma", "1",
                           "--n", "14", "--universe", "7"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout)["chi2"]
    assert rep["brute"] is None and rep["discarded"] is None
    assert rep["closed"] == pytest.approx(1.0 / 7.0, rel=1e-12)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cli_chi2_reports_no_brute_force_past_its_cell_limit():
    # U = 5e7 is past the 64-context rule: the closed form alone, and no exact power
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", TIGHT_MEMORY_CHI2, "chi2", "--sigma", "0.5",
                           "--n", "4", "--universe", str(5 * 10 ** 7)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout)["chi2"]
    assert rep["brute"] is None and rep["discarded"] is None
    assert rep["closed"] == pytest.approx(1.0, rel=1e-12)


# Every subcommand, the sweeps over both family kinds and all four learners,
# in one process that must never import scipy
NO_SCIPY_RUN = """
import contextlib, io, json, sys
from smoothpa.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_runtime_never_imports_scipy(tmp_path):
    learners = [{"uniform": {}}, {"kt": {}}, {"vc_mixture": {}}, {"ftpl": {}}]
    explicit = {"kind": "explicit", "size": 8, "regions": [[0, 1], [2, 3, 4], [5], []]}
    configs = {"grid": base_config(sweep={"learner": learners, "T": [8, 16, 32, 64]}),
               "explicit": base_config(family=explicit,
                                       sweep={"learner": learners, "T": [8, 16]})}
    argv = []
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        argv.append(["run", "--config", str(tmp_path / f"{name}.json"),
                     "--output-dir", str(tmp_path / name)])
    (tmp_path / "family.json").write_text(json.dumps(explicit))
    (tmp_path / "class.json").write_text(json.dumps(
        {"family": explicit, "hypotheses": [[0, 0.2, 0.7], [1, 0.5, 0.5]]}))
    (tmp_path / "contexts.json").write_text(json.dumps([0, 2, 5, 7]))
    argv += [["chi2", "--sigma", "0.5", "--n", "4", "--universe", "2"],
             ["nml", "--class", str(tmp_path / "class.json"),
              "--contexts", str(tmp_path / "contexts.json")],
             ["cover", "--family", str(tmp_path / "family.json"), "--eps", "0.3"],
             ["fit", "--summary", str(tmp_path / "grid" / "summary.json")]]
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0] * len(argv), "scipy": []}


def test_cli_cover_and_nml(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({"kind": "threshold_grid", "size": 100}))
    assert cli_main(["cover", "--family", str(fam_path), "--eps", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] <= 11

    cls_path = tmp_path / "class.json"
    cls_path.write_text(json.dumps({
        "family": {"kind": "threshold_grid", "size": 4},
        "hypotheses": [[3, 0.0, 0.0], [3, 1.0, 1.0]],
    }))
    ctx_path = tmp_path / "contexts.json"
    ctx_path.write_text(json.dumps([0, 1]))
    assert cli_main(["nml", "--class", str(cls_path), "--contexts", str(ctx_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nml"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(sigma=2.0)))
    assert cli_main(["run", "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["chi2", "--sigma", "2", "--n", "4", "--universe", "2"], "--sigma: 2 outside (0, 1]"),
    (["chi2", "--sigma", "0", "--n", "4", "--universe", "2"], "--sigma: 0 outside (0, 1]"),
    (["chi2", "--sigma", "0.5", "--n", "0", "--universe", "2"], "--n: 0 must be positive and finite"),
    (["chi2", "--sigma", "0.5", "--n", "4", "--universe", "0"], "--universe: 0 must be >= 1"),
    (["chi2", "--sigma", "0.5", "--n", "4", "--universe", "2", "--cutoff", "2"],
     "--cutoff: 2 outside (0, 1)"),
    (["chi2", "--sigma", "0.5", "--n", "4", "--universe", "2", "--cutoff", "0.9"],
     "--cutoff: cutoff 0.9 empties the support at rate 1"),
    (["cover", "--family", "family.json", "--eps", "0"], "--eps: 0 must be positive and finite"),
    (["chi2", "--sigma", "0.5", "--n", "inf", "--universe", "4"],
     "--n: inf must be positive and finite"),
    (["cover", "--family", "family.json", "--eps", "inf"], "--eps: inf must be positive and finite"),
])
def test_cli_argument_errors_exit_2(capsys, argv, message):
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


DIRECTORY = object()    # a test input file that is a directory
GRID4_CLASS = {"family": {"kind": "threshold_grid", "size": 4},
               "hypotheses": [[1, 0.2, 0.7]]}


@pytest.mark.parametrize("argv, files, message", [
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": dict(GRID4_CLASS, hypotheses=[[1]]), "x.json": [0, 3]},
     "hypotheses[0]: must be [region, theta0, theta1]"),
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": dict(GRID4_CLASS, hypotheses=[[1, 0.2, 0.7], [9, 0.5, 0.5]]), "x.json": [0, 3]},
     "hypotheses[1].region_index: 9 outside [0, 4)"),
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": dict(GRID4_CLASS, hypotheses=[[1, "a", 0.5]]), "x.json": [0, 3]},
     "hypotheses[0].theta0: 'a' is not a valid float"),
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": dict(GRID4_CLASS, hypotheses=[[1, 0.5, 1.5]]), "x.json": [0, 3]},
     "hypotheses[0].theta1: 1.5 outside [0, 1]"),
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": GRID4_CLASS, "x.json": [0, -1]},
     "contexts[1]: context id -1 outside [0, 4)"),
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": GRID4_CLASS, "x.json": [0, 9]},
     "contexts[1]: context id 9 outside [0, 4)"),
    (["fit", "--summary", "s.json"], {"s.json": {}},
     "summary.cells: must be a list of sweep cells"),
    (["fit", "--summary", "s.json"], {"s.json": [1, 2]},
     "summary.cells: must be a list of sweep cells"),
    (["fit", "--summary", "s.json"], {"s.json": {"cells": [{"T": 8}]}},
     "summary.cells[0].learner: missing"),
    (["cover", "--family", "f.json", "--eps", "0.3"],
     {"f.json": {"kind": "threshold_grid", "size": math.inf}},
     "family.size: inf is not a valid int"),
    (["cover", "--family", "f.json", "--eps", "0.3"],
     {"f.json": {"kind": "threshold_grid", "size": 2.5}},
     "family.size: 2.5 is not a valid int"),
    (["cover", "--family", "f.json", "--eps", "0.3"],
     {"f.json": {"kind": "explicit", "size": 8, "regions": [[10 ** 20]]}},
     f"family.regions[0][0]: context id {10 ** 20} outside [0, 8)"),
    (["cover", "--family", "f.json", "--eps", "0.3"], {"f.json": b"{"},
     "family: invalid JSON in {tmp}/f.json (Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1))"),
    # a directory, and bytes that are not UTF-8
    (["run", "--config", "d"], {"d": DIRECTORY}, "config: cannot read {tmp}/d: Is a directory"),
    (["cover", "--family", "d", "--eps", "0.3"], {"d": DIRECTORY},
     "family: cannot read {tmp}/d: Is a directory"),
    (["fit", "--summary", "d"], {"d": DIRECTORY}, "summary: cannot read {tmp}/d: Is a directory"),
    (["nml", "--class", "d", "--contexts", "x.json"], {"d": DIRECTORY, "x.json": [0]},
     "class file: cannot read {tmp}/d: Is a directory"),
    (["nml", "--class", "c.json", "--contexts", "d"], {"c.json": GRID4_CLASS, "d": DIRECTORY},
     "contexts file: cannot read {tmp}/d: Is a directory"),
    (["run", "--config", "b.json"], {"b.json": b"\xff\xfe{"},
     "config: {tmp}/b.json is not UTF-8 text"),
    (["cover", "--family", "b.json", "--eps", "0.3"], {"b.json": b"\xff\xfe{"},
     "family: {tmp}/b.json is not UTF-8 text"),
    (["fit", "--summary", "s.json"], {"s.json": b"[" * 10 ** 5 + b"]" * 10 ** 5},
     "summary: {tmp}/s.json nests too deeply"),
    # family sizes numpy refuses before allocating anything (>= 2**63)
    (["cover", "--family", "f.json", "--eps", "0.3"],
     {"f.json": {"kind": "explicit", "regions": [[10 ** 20]]}},
     f"family.size: {10 ** 20 + 1} contexts are more than numpy can allocate"),
    (["cover", "--family", "f.json", "--eps", "0.3"],
     {"f.json": {"kind": "threshold_grid", "size": 10 ** 20}},
     f"family.size: {10 ** 20} contexts are more than numpy can allocate"),
    (["cover", "--family", "f.json", "--eps", "0.3"],
     {"f.json": {"kind": "threshold_grid", "size": 2 ** 63}},
     f"family.size: {2 ** 63} contexts are more than numpy can allocate"),
    (["run", "--config", "c.json"],
     {"c.json": dict(base_config(), universe=10 ** 20 + 1,
                     family={"kind": "explicit", "regions": [[10 ** 20]]})},
     f"family.size: {10 ** 20 + 1} contexts are more than numpy can allocate"),
    (["run", "--config", "c.json"],
     {"c.json": dict(base_config(), universe=10 ** 20,
                     family={"kind": "threshold_grid", "size": 10 ** 20})},
     f"family.size: {10 ** 20} contexts are more than numpy can allocate"),
    # an output directory that names an existing file, from the flag or the config
    (["run", "--config", "c.json", "--output-dir", "f"], {"c.json": base_config(), "f": b""},
     "output_dir: cannot create {tmp}/f: File exists"),
    # more rounds than numpy can allocate, refused whatever the memory limits
    (["run", "--config", "c.json", "--output-dir", "out"],
     {"c.json": base_config(T=2 ** 62), "out": DIRECTORY},
     f"T: {2 ** 62} rounds are more than numpy can allocate"),
    # a chi2 universe numpy refuses from its size alone
    (["chi2", "--sigma", "1", "--n", "4", "--universe", str(2 ** 62), "--no-brute"], {},
     f"--universe: {2 ** 62} contexts are more than numpy can allocate"),
    # class, contexts and summary files of the wrong shape
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": dict(GRID4_CLASS, hypotheses={"0": [1, 0.2, 0.7]}), "x.json": [0, 3]},
     "hypotheses: must be a list of [region, theta0, theta1]"),
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": dict(GRID4_CLASS, hypotheses=[[1, 10 ** 400, 0.5]]), "x.json": [0, 3]},
     f"hypotheses[0].theta0: {10 ** 400} is not a valid float"),
    (["nml", "--class", "c.json", "--contexts", "x.json"],
     {"c.json": GRID4_CLASS, "x.json": {"0": 3}},
     "contexts file: must be a JSON list of context ids"),
    (["fit", "--summary", "s.json"], {"s.json": {"cells": [[8]]}},
     "summary.cells[0]: must be an object"),
    (["fit", "--summary", "s.json"],
     {"s.json": {"cells": [{"learner": {"uniform": {}}, "sigma": 0.5, "T": 8,
                            "mean_final_regret": math.inf, "final_regrets": [1.0]}]}},
     "summary.cells[0].mean_final_regret: inf is not a finite number"),
    # config sections of the wrong type, and missing or empty sweep axes; an
    # empty learner list once built no cell, so no adversary spec was checked
    (["run", "--config", "c.json"], {"c.json": base_config(family=[8])},
     "family: must be an object"),
    (["run", "--config", "c.json"], {"c.json": base_config(adversary="static")},
     "adversary: must be an object"),
    (["run", "--config", "c.json"], {"c.json": dict(base_config(), sweep=["T"])},
     "sweep: must be an object"),
    (["run", "--config", "c.json"],
     {"c.json": {k: v for k, v in base_config().items() if k != "learner"}},
     "learner: missing"),
    (["run", "--config", "c.json", "--output-dir", "out"],
     {"c.json": base_config(learner=[], adversary={"rule": "nonsense"}), "out": DIRECTORY},
     "learner: empty list"),
    (["run", "--config", "c.json"], {"c.json": base_config(T=[])}, "T: empty list"),
    (["run", "--config", "c.json"], {"c.json": base_config(adversary={"label": "coin"})},
     "adversary.label: unknown kind 'coin'"),
    (["run", "--config", "c.json"],
     {"c.json": base_config(adversary={"label": "fixed_sequence", "labels": "0101"})},
     "adversary.labels: required for fixed_sequence, a list of 0/1"),
    # an integer T no float holds
    (["fit", "--summary", "s.json"],
     {"s.json": {"cells": [{"learner": {"uniform": {}}, "sigma": 0.5, "T": 10 ** 400,
                            "mean_final_regret": 1.0, "final_regrets": [1.0]}]}},
     f"summary.cells[0].T: {10 ** 400} outside [1, {sys.maxsize}]"),
])
def test_cli_file_errors_exit_2(tmp_path, capsys, argv, files, message):
    for name, obj in files.items():
        if obj is DIRECTORY:
            (tmp_path / name).mkdir()
        elif isinstance(obj, bytes):
            (tmp_path / name).write_bytes(obj)
        else:
            (tmp_path / name).write_text(json.dumps(obj))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message.format(tmp=tmp_path)}\n"
    # nothing written, also inside a directory given as the output
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == sorted(files)


@pytest.mark.parametrize("spec", [[8], "threshold_grid", 8, None])
def test_one_family_reader_for_every_command(tmp_path, capsys, spec):
    # run, cover and nml read a family with `RegionFamily.from_spec` alone, so
    # a spec that is not an object reads one message under each of them
    commands = [(["run", "--config", "c.json"], {"c.json": base_config(family=spec)}),
                (["cover", "--family", "f.json", "--eps", "0.3"], {"f.json": spec}),
                (["nml", "--class", "c.json", "--contexts", "x.json"],
                 {"c.json": dict(GRID4_CLASS, family=spec), "x.json": [0, 3]})]
    got = []
    for i, (argv, files) in enumerate(commands):
        work = tmp_path / str(i)
        work.mkdir()
        for name, obj in files.items():
            (work / name).write_text(json.dumps(obj))
        code = cli_main([str(work / a) if a in files else a for a in argv])
        got.append((argv[0], code, capsys.readouterr().err))
    assert got == [(command, 2, "config error: family: must be an object\n")
                   for command in ("run", "cover", "nml")]


def test_spec_readers_check_the_type_of_their_spec():
    # the learner and f_star readers, not parse_config, refuse a spec that is
    # not an object, whether it stands alone or in a list
    for learner in (5, [5], [{"uniform": {}}, "kt"]):
        with pytest.raises(ConfigError,
                           match=r"^learner: must be an object with exactly one kind key$"):
            parse_config(base_config(learner=learner))
    realizable = {"rule": "static", "label": "realizable"}
    for f_star in ([2, 0.2, 0.7], "f", 2):
        with pytest.raises(ConfigError, match=r"^adversary\.f_star: must be an object$"):
            parse_config(base_config(adversary=dict(realizable, f_star=f_star)))
    with pytest.raises(ConfigError, match=r"^adversary\.f_star: required for realizable labels$"):
        parse_config(base_config(adversary=realizable))


def summary_with_t(t):
    """A fit summary of four uniform-learner cells, the first at horizon t."""
    return {"cells": [{"learner": {"uniform": {}}, "sigma": 0.5, "T": h,
                       "mean_final_regret": 0.7 * i, "final_regrets": [0.6 * i, 0.8 * i]}
                      for i, h in enumerate((t, 16, 32, 64), start=1)]}


RUN = ["run", "--config", "c.json", "--output-dir", "out"]
NML = ["nml", "--class", "c.json", "--contexts", "x.json"]
REALIZABLE = {"rule": "static", "label": "realizable"}

# Every integer field of a config or CLI input file: the path an error names,
# the command and the files that put the value k there, and a valid k
INTEGER_FIELDS = [
    ("T", lambda k: (RUN, {"c.json": base_config(T=k)}), 8),
    ("universe", lambda k: (RUN, {"c.json": base_config(universe=k)}), 8),
    ("family.size",
     lambda k: (RUN, {"c.json": base_config(family={"kind": "threshold_grid", "size": k})}), 8),
    ("repetitions", lambda k: (RUN, {"c.json": base_config(repetitions=k)}), 2),
    ("base_seed", lambda k: (RUN, {"c.json": base_config(base_seed=k)}), 7),
    ("adversary.f_star.region_index",
     lambda k: (RUN, {"c.json": base_config(adversary=dict(REALIZABLE, f_star={
         "region_index": k, "theta0": 0.2, "theta1": 0.7}))}), 3),
    ("adversary.set[1]",
     lambda k: (RUN, {"c.json": base_config(adversary={"set": [0, k, 2, 3]})}), 5),
    ("family.regions[0][1]",
     lambda k: (RUN, {"c.json": base_config(family={"kind": "explicit", "size": 8,
                                                    "regions": [[0, k, 2], [3]]})}), 5),
    ("adversary.labels[2]",
     lambda k: (RUN, {"c.json": base_config(T=8, adversary={
         "label": "fixed_sequence", "labels": [1, 0, k, 1, 0, 1, 1, 0]})}), 1),
    ("hypotheses[0].region_index",
     lambda k: (NML, {"c.json": dict(GRID4_CLASS, hypotheses=[[k, 0.2, 0.7], [3, 0.5, 0.5]]),
                      "x.json": [0, 3]}), 1),
    ("contexts[1]", lambda k: (NML, {"c.json": GRID4_CLASS, "x.json": [0, k]}), 3),
    ("summary.cells[0].T",
     lambda k: (["fit", "--summary", "s.json"], {"s.json": summary_with_t(k)}), 8),
]


@pytest.mark.parametrize("path, command, k", INTEGER_FIELDS,
                         ids=[field[0] for field in INTEGER_FIELDS])
def test_one_integer_rule_for_every_field(tmp_path, capsys, path, command, k):
    def result(value):
        """Exit code, stderr and what the command made: its report, or for
        `run` every records CSV with the summary's cells and fits."""
        work = tmp_path / str(len(list(tmp_path.iterdir())))
        work.mkdir()
        argv, files = command(value)
        for name, obj in files.items():
            (work / name).write_text(json.dumps(obj))
        code = cli_main([str(work / a) if a in files or a == "out" else a for a in argv])
        out, err = capsys.readouterr()
        if argv[0] != "run" or code != 0:
            return code, err, out
        summary = json.loads((work / "out" / "summary.json").read_text())
        records = {p.name: p.read_text() for p in (work / "out").glob("records_cell*.csv")}
        return code, err, records, summary["cells"], summary["fits"]

    want = result(k)
    assert want[0] == 0, want
    assert result(float(k)) == want
    for bad in (k + 0.5, True, str(k)):
        assert result(bad) == (2, f"config error: {path}: {bad!r} is not a valid int\n", "")


def test_cli_fit_reads_regrets_past_int64(tmp_path, capsys):
    # a JSON integer past 2**64 once made a numpy object array that np.log refused
    summary = summary_with_t(8)
    summary["cells"][0]["final_regrets"] = [10 ** 20, 1]
    summary["cells"][1]["mean_final_regret"] = 10 ** 20
    (tmp_path / "s.json").write_text(json.dumps(summary))
    assert cli_main(["fit", "--summary", str(tmp_path / "s.json")]) == 0
    assert json.loads(capsys.readouterr().out)["fits"]["groups"]


def test_fit_scaling_reads_regrets_past_int64():
    # a JSON integer past 2**64 once made a numpy object array that np.log refused
    summary = summary_with_t(8)
    summary["cells"][0]["final_regrets"] = [10 ** 20, 1.0]
    summary["cells"][1]["mean_final_regret"] = 10 ** 20
    as_floats = json.loads(json.dumps(summary))
    as_floats["cells"][0]["final_regrets"] = [1e20, 1.0]
    as_floats["cells"][1]["mean_final_regret"] = 1e20
    assert fit_scaling(summary) == fit_scaling(as_floats)


def test_only_errors_py_tests_a_value_against_bool():
    # whether a JSON value is an integer or a number is errors.parse_field's rule alone
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    for path in sorted(Path(smoothpa.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tests = [node.lineno for node in ast.walk(tree)
                 if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "isinstance" and "bool" in names(node.args[-1]))
                 or (isinstance(node, ast.Compare) and "bool" in names(node)
                     and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops))]
        assert tests == [], (path.name, tests)


# KT with beta = 5e-324 predicts 5e-324 / 2 = 0.0 in round 3, which label 1 contradicts
INFINITE_LOSS = base_config(learner={"kt": {"beta": 5e-324}}, T=4,
                            adversary={"label": "fixed_sequence", "labels": [0, 0, 1, 1]})


def test_output_dir_in_config_naming_a_file_exits_2_before_play(tmp_path, capsys):
    # this sweep's third round raises InfiniteLossError (exit 3) once it plays
    cfg = dict(INFINITE_LOSS)
    (tmp_path / "f").write_bytes(b"")
    for out in ("f", "f/out"):
        cfg["output_dir"] = str(tmp_path / out)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(path)]) == 2
        reason = "File exists" if out == "f" else "Not a directory"
        assert capsys.readouterr().err == \
            f"config error: output_dir: cannot create {tmp_path / out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "f"]


def test_cli_numerical_assertion_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.json"
    argv = ["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]
    path.write_text(json.dumps(INFINITE_LOSS))
    assert cli_main(argv) == 3
    assert capsys.readouterr().err == \
        "numerical failure: deterministic prediction q1=0.0 contradicted by y=1\n"
    # a static set below ceil(sigma * U) = 4 fails the smoothness check in the
    # first round; parse_config rejects one in a config, so the set goes in here
    monkeypatch.setattr(harness, "adversary_from_spec",
                        lambda spec, family, sigma: AdversaryPolicy(
                            StaticSubsetRule([0]), GreedyLabelRule(), sigma, family.size))
    path.write_text(json.dumps(base_config()))
    assert cli_main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: target set of size 1 below minimum 4")


@pytest.mark.parametrize("name", ["records_cell000.csv", "summary.json"])
def test_cli_output_file_that_is_a_directory_exits_2(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    assert cli_main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: output_dir: cannot write {out / name}: Is a directory\n"
    assert (out / name).is_dir()


# sha256 of every artifact of two static-set, realizable-label sweeps with the
# uniform and KT learners. Their randomness is the context draws and the label
# coins alone, so these bytes stay fixed across changes to the game loop.
STATIC_SWEEPS = {
    "explicit": ({
        "universe": 16,
        "family": {"kind": "explicit", "size": 16,
                   "regions": [[0, 1, 2, 3], [2, 5, 7, 11, 13], [8, 9, 10, 11, 12, 13, 14, 15],
                               [1, 3, 5, 7, 9]]},
        "adversary": {"context": "subset_uniform", "rule": "static",
                      "set": [14, 3, 9, 0, 7, 12, 5, 10], "label": "realizable",
                      "f_star": {"region_index": 1, "theta0": 0.8, "theta1": 0.3}},
        "repetitions": 3, "base_seed": 31,
        "sweep": {"learner": [{"uniform": {}}, {"kt": {"beta": 0.5}}],
                  "T": [16, 40, 100, 300], "sigma": [0.25, 0.5]},
    }, {
        "records_cell000.csv": "9297025fdf7617802259e3fe279e3921da33c9ef24a28b7e65e4866e0634bea1",
        "records_cell001.csv": "05f5ba405686b19885b06f867c4b3ff47368b679dcd8673d22a2fce13b074acb",
        "records_cell002.csv": "64d1dd89dec4ff6a517370236f9ad0d512c707fe6e1dfc8855c2f177263b5dd4",
        "records_cell003.csv": "731cfc287e2b217c3f1d20e4da170018409c28d785c9f97cc4927956b2ebd4a4",
        "records_cell004.csv": "12ebb99bfbb6d4bf902f209abbd2a920d88d1893725e027981433897817277d1",
        "records_cell005.csv": "08241fae8b85f1915bda00597f154c3c71e3084337688417f2f3f34abb5f53e3",
        "records_cell006.csv": "1ddfdaab8f418da174bfa3bd5e7df731ace848a5cb821ed17761701aab69a602",
        "records_cell007.csv": "d867b94d55b4a3b3eb31723f86299ddae5fc73f085b82c6e5403415f3240c40e",
        "records_cell008.csv": "654c4801156000b321e2faa0e4acbeadca2f1830fb8884a06c8a62f1889ae282",
        "records_cell009.csv": "2c36a0342d82e837657dc455760cf45a61898b34c795036f1f177d9cf0d648eb",
        "records_cell010.csv": "135ec53c7205c1c45411294dfa0b87324ae5e8cfa0c9515cef460a12ad11a615",
        "records_cell011.csv": "6e5f8061c835ab2a53bf6360d9e60d21dd630d07f6fb76eec365a55b9708cf47",
        "records_cell012.csv": "37c51f7d47e964bc0ddd93ff7d8a9237c8d057130f66ee3330c3615cd3e87622",
        "records_cell013.csv": "d180fad8280eedbb7421f3efeff04f0ef746af7e6a6dc2e2bee44f467261d3f9",
        "records_cell014.csv": "7a4daef07510192c1cbc7380e09ae0db2ffeaf242977b249e82da57ef3ea2625",
        "records_cell015.csv": "3f7ffc87ae68ea3dd70081971ba9714ff3004a8579e4d5f8b04d0965e84f4354",
        "summary.json": "c97b7246cdc109ee5006016ad0d764d9115b9b1ffbfffaaad99b5dc0173e00be",
    }),
    "grid": ({
        "universe": 32,
        "family": {"kind": "threshold_grid", "size": 32},
        "adversary": {"context": "subset_uniform", "rule": "static", "label": "realizable",
                      "f_star": {"region_index": 20, "theta0": 0.1, "theta1": 0.9}},
        "repetitions": 3, "base_seed": 5,
        "sweep": {"learner": [{"uniform": {}}, {"kt": {"beta": 1.0}}],
                  "T": [64, 500], "sigma": [0.3, 1.0]},
    }, {
        "records_cell000.csv": "d0c1ae61cf676a927e18fa73adc923c068c3ba63473ad5714fd455701d113ec8",
        "records_cell001.csv": "c30752e4bbbb30563749f498cf6368863fc1909730a4d611e80860413919b719",
        "records_cell002.csv": "9d45ecb01f8ccb4bca60dfd3f8bdbbdfc0e8cf39d66bcd1af7133c82c6954d05",
        "records_cell003.csv": "13789139c90cc70959c3229dc7d2a1a8905baa2b258c385c9b14b8bb9b258d5a",
        "records_cell004.csv": "dc8ae9dfadbd5e8fdbf31142efbbc4f2745fadc747129973a6d131f6b28bb57a",
        "records_cell005.csv": "07b01d96e2beb3931fe4945a5029e4d3fad2bc831927a43d7f5a7cb620a0440b",
        "records_cell006.csv": "7014408e745fd66cdf27a90b1b3d684d13d48beb978b33c2c5866d316ce8bfd2",
        "records_cell007.csv": "66e891218eaf50fd12b8a619d960257bdeaa8710a0a347281b3b9a6ecfb4c1a6",
        "summary.json": "6b6433cab92e7ea99b27e04d80b0391aefbbf7e48b921cd981175f5b05b78c8d",
    }),
}


# The family is the one source of the context space's size: without "universe"
# the config plays the same sweep, and summary.json still echoes the family's size
STATIC_SWEEPS.update({f"{name}_without_universe": (
    {k: v for k, v in cfg.items() if k != "universe"}, digests)
    for name, (cfg, digests) in STATIC_SWEEPS.items()})


@pytest.mark.parametrize("name", sorted(STATIC_SWEEPS))
def test_static_realizable_sweep_artifacts_are_pinned(tmp_path, name):
    cfg, digests = STATIC_SWEEPS[name]
    run(cfg, output_dir=tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == digests


# sha256 of every artifact of two FTPL sweeps against the adaptive greedy
# adversary, default tuning and n = 0 and n = 3000 among them. The learner's
# hallucinations come from its own generator, so any exact rewrite of the FTPL
# round leaves these bytes fixed.
FTPL_SWEEPS = {
    "explicit": ({
        "universe": 16,
        "family": {"kind": "explicit", "size": 16,
                   "regions": [[0, 1, 2, 3], [2, 5, 7, 11, 13], [8, 9, 10, 11, 12, 13, 14, 15],
                               [1, 3, 5, 7, 9]]},
        "adversary": {"context": "subset_uniform", "rule": "adaptive", "label": "greedy"},
        "repetitions": 2, "base_seed": 23,
        "sweep": {"learner": [{"ftpl": {}}, {"ftpl": {"n": 0, "alpha": 0.05}},
                              {"ftpl": {"n": 3000, "alpha": 0.01}}],
                  "T": [16, 100, 400], "sigma": [0.5]},
    }, {
        "records_cell000.csv": "3009e21b2f6b2de819922e1888b41c29867f6368155a3636a723fe92242d07c4",
        "records_cell001.csv": "417f4041f5117d9f2e8b4d64472a92f0c7ac03c968be3882b99f29ab64cf9769",
        "records_cell002.csv": "da85eeb954254be9fbc69959f3b9365a7194cdcb8eb64aa209084b939e3d6859",
        "records_cell003.csv": "a2dff8a3b0610ea1ffdf24607afa134ba8e1f799a562e03a2f4a3334cf006e86",
        "records_cell004.csv": "00efd8700fb3a42394c05ff70b856c065a2f05bda477ae40bfcf96b6f33b7d3e",
        "records_cell005.csv": "f7e230dab10edd15187ec3658b068c0d5bfa8f7d6c70f6014294bbf5f8ca71fa",
        "records_cell006.csv": "07c1ac719efeffeeaec968319e5b5cfa837d675503c899483fd049aed7d55999",
        "records_cell007.csv": "e4c5fdb8f637d4930ebc5f154f9eb867847fda331ce0305b9dbd63d4523d1ca4",
        "records_cell008.csv": "0a99d8da96770de917f1866066b0bd540ebcb94fb0610b61880afd5cb4ff9f7e",
        "summary.json": "e5f1a3f04f79c02f02df7ee91fc4edc307c81c1acf7a521358ac6757aa404f54",
    }),
    "grid": ({
        "universe": 32, "family": {"kind": "threshold_grid", "size": 32},
        "adversary": {"context": "subset_uniform", "rule": "adaptive", "label": "greedy"},
        "repetitions": 2, "base_seed": 17,
        "sweep": {"learner": [{"ftpl": {}}, {"ftpl": {"n": 0, "alpha": 0.05}},
                              {"ftpl": {"n": 3000, "alpha": 0.01}}],
                  "T": [16, 100, 400], "sigma": [0.25]},
    }, {
        "records_cell000.csv": "e79231567db9084e92a920bd953d3e88acab6e70dbd2965efcb8988cc31e58ed",
        "records_cell001.csv": "10509cdfcca3033cee4b959a1052b8d4ec6faed4880fbf2b219f741081371c3c",
        "records_cell002.csv": "694617ba8c76cb44de894af575ae2b1c9847af3818f3817321cdb0ec7b221e56",
        "records_cell003.csv": "554059d835333ea031d4455365e511a1b67bbd006d04b04f71aedd319f517c89",
        "records_cell004.csv": "44865d428880f3a22c30e800cd76f1978b9bd5b7a88d5cb72bfffd463b7c4943",
        "records_cell005.csv": "590ed5495086aa564075cf3fe47670efe95b0a9e39340606600a47096c105b95",
        "records_cell006.csv": "dd5bc90466fb692af756a9dbd877aad1b54c7e31b1a16a58d03a5617ded0439a",
        "records_cell007.csv": "a392727c4bea9fdd2651c4980062838d4a346c16a404ca90fa4a92914e380fbf",
        "records_cell008.csv": "312096216fd02878ca245660445a39d45a11b9405e26904f7692773ee6272bc9",
        "summary.json": "1be24a03571bd48e25382ea5b8dd9736076d534834fd306313a952aaec2d0fa3",
    }),
}


@pytest.mark.parametrize("name", sorted(FTPL_SWEEPS))
def test_ftpl_sweep_artifacts_are_pinned(tmp_path, name):
    cfg, digests = FTPL_SWEEPS[name]
    run(cfg, output_dir=tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == digests


# sha256 of every artifact of a vc_mixture sweep against the adaptive greedy
# adversary on a 64-point grid: the default eps = sigma / T^2 covers the whole
# grid, eps = 0.1 a sparse cover. The mixture draws no randomness, so any exact
# rewrite of the game loop or of the CSV writer leaves these bytes fixed.
MIXTURE_SWEEP = ({
    "universe": 64, "family": {"kind": "threshold_grid", "size": 64},
    "adversary": {"context": "subset_uniform", "rule": "adaptive", "label": "greedy"},
    "repetitions": 2, "base_seed": 41,
    "sweep": {"learner": [{"vc_mixture": {}}, {"vc_mixture": {"eps": 0.1}}],
              "T": [40, 300], "sigma": [0.25, 0.5]},
}, {
    "records_cell000.csv": "4c51fa49e91e1ddb93cb1027bb2bc436049496ccb0253a06f7469b51d1880907",
    "records_cell001.csv": "f2f3d3f6975b139289933f8e58fe0069d5baf9d389fc702f7d810466822d18f4",
    "records_cell002.csv": "41a958a3c7e7ba4b23049c70f55b93503c056bb83df4ec87b93033ba15bd1e8a",
    "records_cell003.csv": "44a1d52309610fa478476e85a5bd09accfeee176e201e9a8578cf41407c9d33e",
    "records_cell004.csv": "d52da488422380f417cf1fd90d7b4d02bd8d51e90563e5f63640720d135c37e8",
    "records_cell005.csv": "bbeafc221ff80769cfad0d41e2c9f17c87ede7ef161cd2d3fd779396c0b1d9f8",
    "records_cell006.csv": "54b52562e7aa87e0b08aa472baa54233fa088bb9975e856305a92d77fa5893df",
    "records_cell007.csv": "6a16c4befcee2fca08be481e36df29f243b4d495e39880a6988875e6122d6a0f",
    "summary.json": "1b0acf53576dbca738ffdd9b4c79d3d8dc53ce354d60e47860545207ba0d7818",
})


def test_mixture_sweep_artifacts_are_pinned(tmp_path):
    cfg, digests = MIXTURE_SWEEP
    run(cfg, output_dir=tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == digests


# sha256 of every artifact of a vc_mixture sweep on the 16-context explicit
# family above, computed before the mixture's bookkeeping moved into
# MixtureLearner. The default eps and eps = 0.3 keep all four regions through
# the greedy cover, eps = 0.45 keeps regions 0 and 2, so the cover, the
# membership gather and the side map of an explicit family are all pinned.
EXPLICIT_MIXTURE_SWEEP = ({
    "universe": 16,
    "family": {"kind": "explicit", "size": 16,
               "regions": [[0, 1, 2, 3], [2, 5, 7, 11, 13], [8, 9, 10, 11, 12, 13, 14, 15],
                           [1, 3, 5, 7, 9]]},
    "adversary": {"context": "subset_uniform", "rule": "adaptive", "label": "greedy"},
    "repetitions": 2, "base_seed": 43,
    "sweep": {"learner": [{"vc_mixture": {}}, {"vc_mixture": {"eps": 0.3}},
                          {"vc_mixture": {"eps": 0.45}}],
              "T": [40, 300], "sigma": [0.25, 0.5]},
}, {
    "records_cell000.csv": "c57e392b9a9f0dc06a426c0e1559369814757f047cfc4e822f660c9fe5dc92ec",
    "records_cell001.csv": "c71cfd0548417624de7b702fc9503a0f2bfbf96a737328370e3c5bfb4675ad8b",
    "records_cell002.csv": "b992cd3fa5024ec4a9a40cb48da04933bd5dd8c9801aa36a413fb83f26001709",
    "records_cell003.csv": "225ca8eabc34a12574f0e3868d64f0b275b3abe770d0297324d2b20579f9fe4a",
    "records_cell004.csv": "dce86746eece3cbe94e35a687a983e382c95389cfd67c686e7e1c70ca2fa16ba",
    "records_cell005.csv": "81af80d211fa0a71b6c519beca12a2a1f831e466b3a31985266d7aefb9897dc4",
    "records_cell006.csv": "00f0b205d4c906f8762bd527317cec3d81c5d9292e7d7c5c36eaec378461b006",
    "records_cell007.csv": "39b5ed5773cc202e275538bda36e32860e9c8aaac62f949ed937af5a1f0a4cd5",
    "records_cell008.csv": "743f2c55ca0832bdec71b15b4963fe63f8fd1c3d0ef1c6693e42367742a5df62",
    "records_cell009.csv": "d455edce4c43e4d0101413a59437647aaaf4fdc45f32feed1e1b5facf5bde255",
    "records_cell010.csv": "4345bc6274412a76f798bb28d96e778938730dd2bdf2b087f6b8f4f6c023129b",
    "records_cell011.csv": "81d8e0bb57f841e1fda478a227a9e4f5ae2d679205142e4ead193ee37a3e520c",
    "summary.json": "98bfa56b8a3c11886c80a830d83a14eb831aee371469f3d4bca0a00559c83fdb",
})


def test_explicit_mixture_sweep_artifacts_are_pinned(tmp_path):
    cfg, digests = EXPLICIT_MIXTURE_SWEEP
    run(cfg, output_dir=tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == digests
