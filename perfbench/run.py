"""spencerctl benchmark: one workload per run, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/spencerkit`` and ``scenes/``).
The run writes the workload's inputs, generated from the seed, under
``perfbench/out/``, measures set-up time in fresh interpreters, then runs
the workload in one fresh worker process with BLAS pinned to one thread.
Operation times are reported in reference seconds (see ``calib.py``), which
cancels the drift of a shared host's speed.  It prints a table of every
metric with its unit and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker alternates untraced and traced passes and the metrics are the
per-layer ones.  The full record, with the environment, goes to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 2  # before and again after the worker: four in all
# Set-up ends when the parser is built, before the interpreter shuts down.
SETUP_CODE = "import spencerkit.cli as cli; cli.build_parser()"
# A fresh interpreter that imports numpy and nothing of the program, timed
# before and after each set-up run.  Set-up time in reference seconds is its
# wall time x SETUP_REF_S / the mean of the two: imports slow down with the
# host much as this interpreter does, and unlike the calibration routine.
SETUP_REF_CODE = "import numpy"
SETUP_REF_S = 0.17
# One BLAS thread: the client is one process, and each of its operations
# then runs on one core, the one the calibration routine is timed on.
BLAS_THREADS = 1
MIN_BEYOND = 10
WORKER_TIMEOUT_S = 150


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def last_level_cache_bytes() -> int | None:
    """Largest cache level ``getconf`` reports (glibc reads it via cpuid)."""
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True,
                                 text=True).stdout.strip()
        except OSError:
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def fresh_interpreter_s(code: str, root: Path, env: dict) -> float:
    """Seconds from a fresh interpreter's start to the end of ``code``."""
    t0 = time.perf_counter()  # CLOCK_MONOTONIC: the child reads the same clock
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport time; print(repr(time.perf_counter()))"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True,
        timeout=WORKER_TIMEOUT_S).stdout
    return float(out.split()[-1]) - t0


def measure_setup(root: Path, env: dict) -> list[dict]:
    """Set-up runs, each between two runs of the reference interpreter."""
    ref = [fresh_interpreter_s(SETUP_REF_CODE, root, env)]
    runs = []
    for _ in range(SETUP_RUNS):
        wall = fresh_interpreter_s(SETUP_CODE, root, env)
        ref.append(fresh_interpreter_s(SETUP_REF_CODE, root, env))
        runs.append({"wall_s": wall, "reference_interpreter_s": ref[-2:],
                     "ref_s": wall * SETUP_REF_S / statistics.mean(ref[-2:])})
    return runs


def min_passes(workload: str, ops_per_pass: int) -> int:
    """Passes a run needs so that its tail percentile has ten ops beyond it."""
    p = workloads.TAIL_PERCENTILE[workload]
    need = -(-MIN_BEYOND * 100 // (100 - p))
    return -(-need // ops_per_pass)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "spencerkit" / "cli.py").is_file() \
            or not (root / "scenes").is_dir():
        print(f"run.py: {root} is not a spencerkit checkout "
              "(needs src/spencerkit and scenes/)", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = HERE / "out"
    work = out / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (out / "results").mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, work.relative_to(root))
    plan = {"ops": ops, "seconds": args.seconds, "trace": args.trace,
            "min_passes": min_passes(args.workload, len(ops)),
            "spans": str(work / "spans.json")}
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))

    env = child_env(root)
    setup = measure_setup(root, env)
    result_path = work / "result.json"
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                        str(result_path)], cwd=root, env=env, check=True,
                       timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"run.py: worker exited with {exc.returncode}", file=sys.stderr)
        return 1
    setup += measure_setup(root, env)
    res = json.loads(result_path.read_text())

    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**res["versions"], "nproc": os.cpu_count(),
                        "usable_cpus": usable_cpus(), "blas_threads": res["blas_threads"],
                        "last_level_cache_bytes": last_level_cache_bytes()},
        "passes": res["passes"], "ops_per_pass": res["ops_per_pass"],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "failure_causes": res["failure_causes"], "failures": res["failures"],
        "setup_runs": setup,
    }
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {m["name"]: (res["per_layer"][m["name"]], m["unit"])
                   for m in spec["per_layer"]}
        record.update({k: res[k] for k in ("traced_passes", "counts_repeat_across_passes",
                                           "passes_with_other_counts", "max_trace_gap_s")})
        correct = failed == 0 and res["max_trace_gap_s"] < 1e-6
    else:
        scale = calib.Scale(res["routine"])
        ref_s = [(b - a) * scale.factor(a, b) for a, b in res["spans"]]
        n = res["ops_per_pass"]
        # each operation's median over the passes: a slow stretch of the
        # machine then moves the rate less than a plain total would
        op_median_s = [statistics.median(ref_s[i::n]) for i in range(n)]
        percentile = workloads.TAIL_PERCENTILE[args.workload]
        tail_s = statistics.quantiles(ref_s, n=100, method="inclusive")[percentile - 1]
        values = {
            "ops_per_s": n / sum(op_median_s),
            "op_p50_s": statistics.median(ref_s),
            "op_tail_s": tail_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(run["ref_s"] for run in setup),
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"])
                   for m in spec["end_to_end"]}
        record.update({"op_samples": len(ref_s), "tail_percentile": percentile,
                       "op_median_s": op_median_s, "op_ref_s": ref_s,
                       "op_walls_s": res["walls"], "routine_s": res["routine"]})
        correct = failed == 0
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} passes={res['passes']} "
          f"ops/pass={res['ops_per_pass']} blas_threads={BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':32s} {failed / attempted:14.6g} 1")
    if not args.trace:
        print(f"# op_p50_s and op_tail_s over {len(ref_s)} ops; "
              f"op_tail_s is p{percentile}; times in reference seconds "
              f"({len(res['routine'])} calibration samples)")
    else:
        print(f"# counts repeat across {res['traced_passes']} traced passes: "
              f"{res['counts_repeat_across_passes']}")
    for cause, count in res["failure_causes"].items():
        print(f"# FAILED x{count}: {cause}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
