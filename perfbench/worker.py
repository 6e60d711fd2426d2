"""Runs one workload's operations in-process and checks every result.

``run.py`` starts this in a fresh interpreter, with the BLAS thread count
already pinned in the environment, so that numpy sees the pin on import and
the process's peak RSS belongs to this workload alone.  The loop is closed
with one client: each operation is a call to ``spencerkit.cli.main`` that
starts after the previous one returned.  The whole pass repeats until the
run time is used up, and every pass after the first must reproduce the
first pass's ``--no-meta`` reports byte for byte.  An untraced run also
times ``calib``'s routine between operations, so that ``run.py`` can scale
wall times to reference seconds.

Usage: worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import operator
import os
import platform
import resource
import sys
import time
from collections import Counter

import numpy as np
import scipy

import calib
from spencerkit import cli

COMPARE = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}
KEPT_FAILURES = 20


def _lookup(report: dict, path: str):
    value = report
    for key in path.split("."):
        value = value[key]
    return value


def check_report(op: dict, rc, text: str) -> str | None:
    """Why the operation's outcome differs from the expected one, or None."""
    if rc != op["rc"]:
        return f"exit code {rc}, expected {op['rc']}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if report.get("passed") is not (rc == 0):
        return f"report passed={report.get('passed')!r} with exit code {rc}"
    for path, cmp, expected in op["checks"]:
        try:
            value = _lookup(report, path)
        except (KeyError, TypeError):
            return f"report has no {path}"
        if not COMPARE[cmp](value, expected):
            return f"{path} = {value!r}, expected {cmp} {expected!r}"
    return None


class Runner:
    """Runs passes over the operation list and keeps the correctness tally."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.hashes: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.causes: Counter = Counter()
        self.failures: list[dict] = []
        self.passes = 0
        self.spans: list[tuple[float, float]] = []  # each op's start and end
        self.routine: list[tuple[float, float]] = []  # calib.measure() results

    def _fail(self, index: int, cause: str):
        self.failed += 1
        name = self.ops[index]["name"]
        self.causes[f"{name}: {cause}"] += 1
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append({"pass": self.passes, "op": index, "name": name,
                                  "argv": self.ops[index]["argv"], "cause": cause})

    def run_pass(self, tracer=None, calibrate=False) -> tuple[list[float], int]:
        """One pass; returns each operation's wall time and the report bytes.

        With ``calibrate``, the calibration routine runs after every operation
        that ends ``calib.EVERY_S`` or more after the routine last ran, and
        the operation spans are kept.
        """
        walls = []
        report_bytes = 0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = self.passes * len(self.ops) + i
            out, err = io.StringIO(), io.StringIO()
            raised = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(list(op["argv"]))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # an op that raises is a failure, not the end
                    rc, raised = None, f"raised {type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            walls.append(t1 - t0)
            if calibrate:
                self.spans.append((t0, t1))
                if not self.routine or t1 - self.routine[-1][0] >= calib.EVERY_S:
                    self.routine.append(calib.measure())
            if tracer is not None:
                tracer.count_after_op()
            text = out.getvalue()
            report_bytes += len(text.encode())
            self.attempted += 1
            cause = raised or check_report(op, rc, text)
            if cause is None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                if self.hashes[i] is None:
                    self.hashes[i] = digest
                elif self.hashes[i] != digest:
                    cause = "--no-meta report differs from the first pass"
            if cause is not None:
                tail = err.getvalue().strip().splitlines()[-1:]
                self._fail(i, cause + (f" [stderr: {tail[0]}]" if tail else ""))
        self.passes += 1
        return walls, report_bytes


def run_untraced(runner: Runner, seconds: float, min_passes: int) -> dict:
    start = time.perf_counter()
    walls: list[float] = []
    runner.routine.append(calib.measure())
    while runner.passes < min_passes or time.perf_counter() - start < seconds:
        walls += runner.run_pass(calibrate=True)[0]
    return {"walls": walls, "spans": runner.spans, "routine": runner.routine}


def run_traced(runner: Runner, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced passes; per-layer figures per pass."""
    from tracing import LAYERS, MB, Tracer, self_times

    tracer = Tracer()
    start = time.perf_counter()
    untraced_total = traced_total = untraced_s = 0.0
    layer_self: Counter = Counter()
    pass_counts: list[dict] = []
    worst_gap = 0.0
    while not pass_counts or time.perf_counter() - start < seconds:
        untraced_total += sum(runner.run_pass()[0])
        first = len(tracer.spans)
        first_op = runner.passes * len(runner.ops)
        tracer.counts.clear()
        tracer.install()
        try:
            walls, report_bytes = runner.run_pass(tracer)
        finally:
            tracer.remove()
        traced_total += sum(walls)
        self_s, calls, self_by_op, covered = self_times(tracer.spans, first)
        layer_self.update(self_s)
        for k, wall in enumerate(walls):
            op_id = first_op + k
            untraced = wall - covered[op_id]
            untraced_s += untraced
            # self times plus untraced time must give the op's wall time
            gap = abs(self_by_op[op_id] + untraced - wall)
            worst_gap = max(worst_gap, gap, -untraced)
        counts = dict(tracer.counts)
        counts["cli.report_bytes"] = report_bytes
        counts.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
        pass_counts.append(counts)

    n = len(pass_counts)
    c = Counter(pass_counts[0])

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {f"{layer}.self_s": layer_self[layer] / n for layer in LAYERS}
    metrics.update({f"{layer}.calls": c[f"{layer}.calls"] for layer in LAYERS})
    metrics.update({
        "expr.tree_nodes": c["expr.tree_nodes"],
        "expr.distinct_nodes": c["expr.distinct_nodes"],
        "expr.distinct_ratio": ratio(c["expr.distinct_nodes"], c["expr.tree_nodes"]),
        "fields.samples_materialized": c["fields.samples_materialized"],
        "fields.sample_mb": c["fields.sample_bytes"] / MB,
        "elliptic.unknowns": c["elliptic.unknowns"],
        "elliptic.matrix_nnz": c["elliptic.matrix_nnz"],
        "elliptic.iterations": c["elliptic.iterations"],
        "elliptic.lu_fill_ratio": ratio(c["elliptic.lu_nnz"], c["elliptic.lu_a_nnz"]),
        "kernel.einsum.mb": c["kernel.einsum.bytes"] / MB,
        "kernel.linalg.mb": c["kernel.linalg.bytes"] / MB,
        "cli.report_bytes": c["cli.report_bytes"],
        "gridio.mb_written": c["gridio.bytes_written"] / MB,
        "trace.untraced_s": untraced_s / n,
        "trace.overhead_ratio": traced_total / untraced_total,
    })
    repeats = [k for k, pc in enumerate(pass_counts) if pc != pass_counts[0]]
    with open(spans_path, "w") as fh:
        json.dump({"columns": ["layer", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    return {"per_layer": metrics, "traced_passes": n,
            "counts_repeat_across_passes": not repeats,
            "passes_with_other_counts": repeats,
            "max_trace_gap_s": worst_gap}


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    runner = Runner(plan["ops"])
    if plan["trace"]:
        out = run_traced(runner, plan["seconds"], plan["spans"])
    else:
        out = run_untraced(runner, plan["seconds"], plan["min_passes"])
    out.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failure_causes": dict(runner.causes),
        "failures": runner.failures,
        "passes": runner.passes,
        "ops_per_pass": len(runner.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    })
    with open(result_path, "w") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
