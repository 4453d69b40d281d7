"""smoothpa benchmark: one workload, measured untraced or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run from anywhere; the library is imported from the `src/` directory next to
this one, never from an installed copy. Trace 0 reports the end-to-end metrics;
trace 1 reports the per-layer metrics of a traced run (see README.md). The
last line of standard output is the JSON result; the lines before it print
the run context and every metric by name with its unit. Artifacts, the full
result and the spans of a traced run go to `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One single-threaded process: the harness's default single worker, and no
# BLAS threads competing with it on a small machine.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKERS_ENV = "SMOOTHPA_THREADS"
SETUP_SAMPLES = 7
MIN_PASSES = 3

END_TO_END = [
    ("run_s", "s"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import smoothpa
from smoothpa.harness import parse_config
parse_config(sys.argv[1])
print(time.perf_counter() - t0)
if not smoothpa.__file__.startswith(sys.argv[2]):
    sys.exit("imported " + smoothpa.__file__)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def import_library():
    """Import smoothpa from this checkout's src/; None if it is not there."""
    if not (SRC / "smoothpa" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import smoothpa
    if not Path(smoothpa.__file__).resolve().is_relative_to(SRC):
        return None
    return smoothpa


def at_reference_speed(times: list[float], refs: list[float], exponent: float = 1.0) -> float:
    """Median time, rescaled to the host speed at which the reference kernel
    takes REFERENCE_NOMINAL_S: median(times) * (nominal / median(refs))**exponent.

    Run-level medians of both cancel the host's drift from one run to the next
    without adding the noise of single kernel runs to each time. `exponent` is
    how strongly the timed code slows down when the kernel does (see
    workloads.LOAD_EXPONENT)."""
    from reference import REFERENCE_NOMINAL_S
    return statistics.median(times) * (REFERENCE_NOMINAL_S / statistics.median(refs)) ** exponent


def measure_setup(config_path: Path, samples: int) -> tuple[list[float], list[float]]:
    """Seconds to import smoothpa and parse the config, each in a fresh process,
    and the reference kernel's times around them.

    A first, unrecorded process warms the file cache and bytecode."""
    from reference import reference_seconds
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    env.pop(WORKERS_ENV, None)
    times, refs = [], []
    for i in range(samples + 1):
        if i:
            refs.append(reference_seconds())
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path), str(SRC)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            times.append(float(proc.stdout.split()[0]))
    refs.append(reference_seconds())
    return times, refs


def measure(work, seconds: float, tally, tracers=(None,),
            min_passes: int = MIN_PASSES) -> tuple[list[float], list[float]]:
    """Repeat the workload's pass until `seconds` have passed (at least
    `min_passes` times) and check every pass's outputs. Passes cycle through
    `tracers`, where None runs untraced. Returns the wall time of each pass,
    and the reference kernel's times before, between and after them."""
    from reference import reference_seconds
    times, refs = [], [reference_seconds()]
    begin = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - begin < seconds:
        tracer = tracers[len(times) % len(tracers)]
        work.reset()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                work.op()
            else:
                with tracer.installed(), tracer.root_span():
                    work.op()
        except Exception as e:  # a raising pass counts as failed; the benchmark goes on
            tally.record(f"{type(e).__name__}: {e}", "pass")
        times.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
        tally.merge(work.check())
    return times, refs


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_context(args, smoothpa) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "smoothpa": smoothpa.__version__,
        "git_commit": git_commit(),
        "harness_workers": f"default (1); {WORKERS_ENV} unset",
        "thread_env": THREAD_ENV,
    }


def main(argv=None, out_root: Path | None = None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    os.environ.pop(WORKERS_ENV, None)
    smoothpa = import_library()
    if smoothpa is None:
        print(f"error: no smoothpa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = (out_root or ROOT / ".bench_out") / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    work = workloads.WORKLOADS[args.workload](args.seed, args.size, out_dir / "artifacts")
    context = run_context(args, smoothpa)
    tally = checks.Tally()
    record = {"context": context}

    if args.trace == 0:
        config_path = out_dir / "setup_config.json"
        config_path.write_text(json.dumps(workloads.setup_config(work)))
        setup, setup_refs = measure_setup(config_path,
                                          SETUP_SAMPLES if args.size == "full" else 1)
        times, refs = measure(work, args.seconds, tally)
        run_s = at_reference_speed(times, refs, workloads.LOAD_EXPONENT[args.workload])
        metrics = {
            "run_s": run_s,
            "rounds_per_s": work.units / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": at_reference_speed(setup, setup_refs),
        }
        units = dict(END_TO_END)
        record.update(run_wall_s=times, reference_s=refs, setup_wall_s=setup,
                      setup_reference_s=setup_refs,
                      median_run_wall_s=statistics.median(times))
    else:
        # alternate untraced and traced passes, so that drift in the host's
        # speed cancels out of the tracing overhead
        tracer = tracing.Tracer()
        times, _ = measure(work, args.seconds, tally, tracers=(None, tracer), min_passes=2)
        metrics = tracer.metrics(statistics.mean(times[0::2]))
        units = {name: unit for name, unit, _ in tracing.per_layer_metric_specs()}
        tracer.write(out_dir / "spans.csv")
        record.update(run_wall_s=times[0::2], traced_wall_s=times[1::2])

    failed_frac = tally.failed / max(tally.attempted, 1)
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                  failed_frac=failed_frac, problems=tally.problems[:100])
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"context": context}))
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':<44} {failed_frac:>16.6g} fraction "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
