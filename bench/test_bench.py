"""Tests of the benchmark itself, at smoke size (each finishes in seconds).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import smoothpa.core  # noqa: E402
import smoothpa.harness  # noqa: E402

SWEEPS = ["mixture_adaptive", "ftpl_adaptive", "explicit_static"]


def traced_op(work, tracer):
    with tracer.installed(), tracer.root_span():
        work.op()


@pytest.mark.parametrize("name", SWEEPS)
def test_traced_run_leaves_artifacts_byte_identical(tmp_path, name):
    plain = workloads.WORKLOADS[name](11, "smoke", tmp_path / "plain")
    traced = workloads.WORKLOADS[name](11, "smoke", tmp_path / "traced")
    plain.op()
    tracer = tracing.Tracer()
    traced_op(traced, tracer)

    files = sorted(p.name for p in plain.out_dir.iterdir())
    assert "summary.json" in files and any(f.startswith("records_cell") for f in files)
    assert files == sorted(p.name for p in traced.out_dir.iterdir())
    for f in files:
        assert (plain.out_dir / f).read_bytes() == (traced.out_dir / f).read_bytes(), f
    assert tracer.calls[tracer.names.index("learners.predict")] == plain.units
    # the wrappers are gone once the traced pass ends
    assert smoothpa.harness.run_game is smoothpa.core.run_game
    assert not hasattr(smoothpa.harness.run, "__wrapped__")


def _rewrite_row(path: Path, row: int, column: int, value: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[row].rstrip("\n").split(",")
    fields[column] = value
    lines[row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def _lower_comparator(path: Path, row: int) -> None:
    """Zero one comparator value, keeping cum_regret = cum_learner - cum_comparator."""
    cum_learner = path.read_text().splitlines()[row].split(",")[4]
    _rewrite_row(path, row, 5, "0")
    _rewrite_row(path, row, 6, cum_learner)


def _drop_row(path: Path, row: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:row] + lines[row + 1:]))


@pytest.mark.parametrize("corrupt, expect", [
    (lambda p: _rewrite_row(p, 5, 6, "0.123"), "cum_regret"),
    (lambda p: _rewrite_row(p, 5, 3, "0.7"), "not ln 2"),
    (lambda p: _lower_comparator(p, 20), "comparator decreased"),
    (lambda p: _drop_row(p, 7), "rows, expected T"),
])
def test_corrupted_csv_row_is_counted_as_failed(tmp_path, corrupt, expect):
    # explicit_static's cell 0 is the uniform learner
    work = workloads.explicit_static(3, "smoke", tmp_path)
    work.op()
    clean = work.check()
    assert clean.failed == 0 and clean.attempted > 1
    corrupt(tmp_path / "records_cell000.csv")
    tally = work.check()
    assert tally.attempted == clean.attempted
    assert 1 <= tally.failed <= 2
    assert expect in tally.problems[0]


def test_ftpl_loss_above_truncation_cap_is_counted(tmp_path):
    work = workloads.ftpl_adaptive(3, "smoke", tmp_path)
    work.op()
    assert work.check().failed == 0
    _rewrite_row(tmp_path / "records_cell000.csv", 1, 3, "9.5")
    tally = work.check()
    assert tally.failed == 1 and "truncation cap" in tally.problems[0]


def test_mixture_slope_gate_is_counted(tmp_path):
    work = workloads.mixture_adaptive(3, "smoke", tmp_path)
    work.op()
    assert work.check().failed == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary["fits"]["groups"][0]["loglog_slope"] = 0.5
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    tally = work.check()
    assert tally.failed == 1 and "slope" in tally.problems[0]


def _corrupt_nml(results, calls):
    i = next(i for i, (k, s) in enumerate(calls) if k == "cli" and s["argv"][0] == "nml")
    results[i] = (0, json.dumps({"nml": -0.25}))


def _corrupt_chi2(results, calls):
    i = next(i for i, (k, s) in enumerate(calls) if k == "cli" and s["argv"][0] == "chi2")
    report = json.loads(results[i][1])
    report["chi2"]["brute"] += 1e-3
    results[i] = (0, json.dumps(report))


def _corrupt_coupling(results, calls):
    i = next(i for i, (k, _) in enumerate(calls) if k == "coupling")
    success, index, samples = results[i]
    results[i] = (~success, index, samples)


@pytest.mark.parametrize("corrupt", [_corrupt_nml, _corrupt_chi2, _corrupt_coupling])
def test_corrupted_diagnostic_value_is_counted_as_failed(tmp_path, corrupt):
    work = workloads.diagnostics(3, "smoke", tmp_path)
    work.op()
    clean = work.check()
    assert clean.failed == 0 and clean.attempted == len(work.calls)
    corrupt(work.results, work.calls)
    assert work.check().failed == 1


def test_raising_pass_is_counted_as_failed(tmp_path):
    work = workloads.mixture_adaptive(3, "smoke", tmp_path)

    def boom():
        raise RuntimeError("boom")
    work.op = boom
    tally = checks.Tally()
    times, refs = bench_run.measure(work, 0.0, tally, min_passes=1)
    assert len(times) == 1 and len(refs) == 2
    assert tally.failed == tally.attempted > 1   # the raise plus every missing trajectory
    assert "RuntimeError: boom" in tally.problems[0]


@pytest.mark.parametrize("name", ["mixture_adaptive", "diagnostics"])
def test_self_times_sum_to_traced_wall_time(tmp_path, name):
    work = workloads.WORKLOADS[name](5, "smoke", tmp_path / "a")
    tracer = tracing.Tracer()
    for _ in range(2):
        work.reset()
        traced_op(work, tracer)
    m = tracer.metrics(untraced_run_s=0.0)
    self_times = {k: v for k, v in m.items() if k.endswith(".self_s")}
    assert all(v >= 0.0 for v in self_times.values())
    assert m["trace.unattributed_s"] >= 0.0
    assert (sum(self_times.values()) + m["trace.unattributed_s"]
            == pytest.approx(m["trace.wall_s"], rel=1e-9))
    assert m["trace.overhead_s"] == m["trace.wall_s"]


def test_spans_of_a_trajectory_share_its_run_id(tmp_path):
    work = workloads.mixture_adaptive(5, "smoke", tmp_path / "a")
    tracer = tracing.Tracer()
    traced_op(work, tracer)
    tracer.write(tmp_path / "spans.csv")
    with open(tmp_path / "spans.csv", newline="") as fh:
        spans = list(csv.DictReader(fh))
    by_id = {s["span"]: s for s in spans}
    games = [s for s in spans if s["name"] == "core.run_game"]
    assert len(games) == len(workloads.sweep_cells(work.config)) * work.config["repetitions"]
    for s in spans:
        if s["name"] in ("learners.predict", "adversary.label",
                         "hypotheses.ComparatorTracker.update"):
            assert s["run_id"]
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "core.run_game":
            assert s["run_id"] == parent["run_id"]
            assert int(parent["start_ns"]) <= int(s["start_ns"]) <= int(s["end_ns"]) \
                <= int(parent["end_ns"])


def test_workload_inputs_come_from_the_seed(tmp_path):
    for name, make in workloads.WORKLOADS.items():
        a, b, c = (make(seed, "smoke", tmp_path / name / str(i))
                   for i, seed in enumerate((1, 1, 2)))
        key = (lambda w: w.config) if name in SWEEPS else \
            (lambda w: [(k, {f: v for f, v in s.items() if f != "argv"}) for k, s in w.calls])
        assert key(a) == key(b) and key(a) != key(c), name


def _result_line(out: str) -> dict:
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_reports_every_metric_at_smoke_size(tmp_path, capsys, name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", name, "--seed", "4", "--seconds", "0", "--trace", str(trace),
                "--size", "smoke"]
        assert bench_run.main(argv, out_root=tmp_path) == 0
        result = _result_line(capsys.readouterr().out)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert (tmp_path / name / "spans.csv").is_file()
    assert (tmp_path / name / "result.json").is_file()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.per_layer_metric_specs()
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mixture_adaptive",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_rescaled_by_the_run_median_reference_time():
    # passes of median 1 s on a host where the kernel's median is 0.2 s
    # ran at half the reference speed, so they count as 0.5 s
    from reference import REFERENCE_NOMINAL_S
    scaled = bench_run.at_reference_speed([1.0, 3.0, 0.5], [0.2, 0.1, 0.3, 0.2])
    assert scaled == pytest.approx(1.0 * REFERENCE_NOMINAL_S / 0.2)
    # code that slows down half as strongly as the kernel is rescaled by the root
    half = bench_run.at_reference_speed([1.0], [0.8, 0.8], exponent=0.5)
    assert half == pytest.approx((REFERENCE_NOMINAL_S / 0.8) ** 0.5)
    assert set(workloads.LOAD_EXPONENT) == set(workloads.WORKLOADS)
