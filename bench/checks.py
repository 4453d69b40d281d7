"""Correctness invariants behind `failed`/`attempted` (and so `failed_frac`).

They are invariants of the mathematics, not byte hashes, so they keep holding
when a change legitimately alters how randomness is consumed. An operation is
one trajectory, one diagnostic call, or one sweep-level gate (artifact row
count, mixture slope).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LN2_12G = f"{math.log(2.0):.12g}"
# Relative rounding slack of a difference of two values printed at 12
# significant digits, compared with a third printed the same way.
DIGITS_12_TOL = 2e-11
MIXTURE_SLOPE_GATE = 0.35          # criterion 07's log-log slope gate
CHI2_ABS_TOL = 1e-6
COUPLING_SE = 4.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problem: str | None, what: str) -> None:
        """Count one operation; `problem` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def _kind(spec: dict) -> str:
    return next(iter(spec))


def check_trajectory(rows: list[list[str]], spec: dict, horizon: int) -> str | None:
    """Invariants of one trajectory's CSV rows (fields after run_id); None if all hold."""
    if len(rows) != horizon:
        return f"{len(rows)} rows, expected T={horizon}"
    kind = _kind(spec)
    if kind == "ftpl":
        alpha = float(spec["ftpl"].get("alpha", 1.0 / horizon))
        loss_cap = math.log((1.0 + 2.0 * alpha) / alpha) * (1.0 + DIGITS_12_TOL)
    prev_comp = -math.inf
    for t, row in enumerate(rows, start=1):
        try:
            _, t_text, loss_text, cum_l, cum_c, regret = row
            t_row, cum_l, cum_c, regret = int(t_text), float(cum_l), float(cum_c), float(regret)
        except ValueError as e:
            return f"malformed row {t}: {e}"
        if t_row != t:
            return f"round {t_text} where {t} was expected"
        if abs(regret - (cum_l - cum_c)) > DIGITS_12_TOL * max(abs(cum_l), abs(cum_c)):
            return f"t={t}: cum_regret {regret!r} != {cum_l!r} - {cum_c!r}"
        if cum_c < prev_comp:
            return f"t={t}: comparator decreased from {prev_comp!r} to {cum_c!r}"
        prev_comp = cum_c
        if kind == "uniform" and loss_text != LN2_12G:
            return f"t={t}: uniform loss {loss_text} is not ln 2"
        if kind == "ftpl" and float(loss_text) > loss_cap:
            return f"t={t}: FTPL loss {loss_text} above the truncation cap {loss_cap!r}"
    return None


def read_trajectories(path: Path) -> dict[str, list[list[str]]]:
    """CSV rows grouped by run_id, in file order."""
    out: dict[str, list[list[str]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            out.setdefault(row[0], []).append(row[1:])
    return out


def check_sweep(out_dir: Path, cells: list[tuple[dict, int, float]],
                repetitions: int) -> Tally:
    """Check the artifacts of one `harness.run` against its cells."""
    tally = Tally()
    rows_seen = 0
    for ci, (spec, horizon, _) in enumerate(cells):
        path = out_dir / f"records_cell{ci:03d}.csv"
        try:
            trajectories = read_trajectories(path)
        except OSError as e:
            trajectories = {}
            tally.problems.append(f"{path.name}: unreadable ({e})")
        expected = [f"c{ci:03d}r{rep:03d}" for rep in range(repetitions)]
        for run_id in expected:
            rows = trajectories.get(run_id)
            problem = "missing" if rows is None else check_trajectory(rows, spec, horizon)
            tally.record(problem, f"{path.name}:{run_id}")
        for run_id in sorted(set(trajectories) - set(expected)):
            tally.record("unexpected trajectory", f"{path.name}:{run_id}")
        rows_seen += sum(len(rows) for rows in trajectories.values())

    want_rows = sum(t for _, t, _ in cells) * repetitions
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        tally.record(f"unreadable ({e})", "summary.json")
        return tally
    problem = None
    if rows_seen != want_rows:
        problem = f"{rows_seen} CSV rows, expected sum(T) x repetitions = {want_rows}"
    elif len(summary.get("cells", [])) != len(cells):
        problem = f"{len(summary.get('cells', []))} summary cells, expected {len(cells)}"
    tally.record(problem, "row count")

    fits = {(json.dumps(g["learner"], sort_keys=True), g["sigma"]): g
            for g in summary.get("fits", {}).get("groups", [])}
    groups = {(json.dumps(spec, sort_keys=True), sigma) for spec, _, sigma in cells
              if _kind(spec) == "vc_mixture"}
    for key in sorted(groups):
        fit = fits.get(key)
        if fit is None:
            problem = "no scaling fit"
        elif not fit["loglog_slope"] < MIXTURE_SLOPE_GATE:
            problem = f"log-log slope {fit['loglog_slope']:.4f} >= {MIXTURE_SLOPE_GATE}"
        else:
            problem = None
        tally.record(problem, f"mixture slope sigma={key[1]}")
    return tally


def check_chi2(report: dict) -> str | None:
    chi2 = report["chi2"]
    closed, brute, bound, discarded = (chi2["closed"], chi2["brute"], chi2["bound"],
                                       chi2["discarded"])
    if brute is None:
        return "brute-force enumeration did not run"
    if not abs(brute - closed) <= CHI2_ABS_TOL + discarded:
        return f"brute {brute!r} vs closed {closed!r} beyond 1e-6 + {discarded!r}"
    # equality holds in exact arithmetic when sigma*U is an integer
    if not closed <= bound * (1.0 + 1e-12):
        return f"closed form {closed!r} above its bound {bound!r}"
    return None


def check_nml(report: dict) -> str | None:
    value = report["nml"]
    if not (math.isfinite(value) and value >= 0.0):
        return f"NML value {value!r} is not finite and >= 0"
    return None


def check_cover(report: dict, spec: dict) -> str | None:
    idx = np.asarray(report["cover"], dtype=np.int64)
    regions = spec["regions"]
    if report["size"] != idx.size or idx.size == 0:
        return f"size {report['size']} for {idx.size} indices"
    if np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= len(regions):
        return "indices not sorted, unique and in range"
    bm = np.zeros((len(regions), spec["universe"]))
    for i, ids in enumerate(regions):
        bm[i, ids] = 1.0
    dist = np.abs(bm[:, None, :] - bm[None, idx, :]).mean(axis=2).min(axis=1)
    if dist.max() > spec["eps"] + 1e-12:
        return f"region at distance {dist.max():.4f} from the cover, eps={spec['eps']}"
    return None


def check_rademacher(est) -> str | None:
    if not (math.isfinite(est.mean) and abs(est.mean) <= 1.0
            and math.isfinite(est.stderr) and est.stderr >= 0.0):
        return f"estimate {est!r} outside [-1, 1] or with a bad stderr"
    return None


def check_coupling(result, spec: dict) -> str | None:
    success, index, _ = result
    if np.any((index >= 0) != success):
        return "accepted index disagrees with the success mask"
    p = (1.0 - spec["sigma"]) ** spec["m"]
    rate = 1.0 - float(np.mean(success))
    se = math.sqrt(p * (1.0 - p) / spec["trials"])
    if abs(rate - p) > COUPLING_SE * se:
        return f"failure rate {rate:.5f} vs (1-sigma)^m = {p:.5f} beyond 4 SE ({se:.5f})"
    return None


def check_diagnostics(calls: list[tuple[str, dict]], results: list) -> Tally:
    """One operation per diagnostic call; a call with no result counts as failed."""
    tally = Tally()
    for i, (kind, spec) in enumerate(calls):
        what = f"call {i} ({spec['argv'][0] if kind == 'cli' else kind})"
        if i >= len(results):
            tally.record("no result", what)
            continue
        result = results[i]
        if kind == "cli":
            code, out = result
            if code != 0:
                tally.record(f"exit code {code}", what)
                continue
            try:
                report = json.loads(out)
            except ValueError as e:
                tally.record(f"unparseable report ({e})", what)
                continue
            command = spec["argv"][0]
            if command == "chi2":
                problem = check_chi2(report)
            elif command == "nml":
                problem = check_nml(report)
            else:
                problem = check_cover(report, spec)
        elif kind == "rademacher":
            problem = check_rademacher(result)
        else:
            problem = check_coupling(result, spec)
        tally.record(problem, what)
    return tally
