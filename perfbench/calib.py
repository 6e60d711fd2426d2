"""Speed of the machine while a run measures, for scaling wall times.

The benchmark runs on a few cores of a shared host, whose speed drifts by a
factor of 1.5 and more over seconds and minutes as neighbours come and go.
Between operations the worker runs a fixed routine and records how long it
took.  The routine builds, evaluates and prints a tree of small objects, as
the program's expression layer does, and runs elementwise and batched numpy
kernels, as its fields layer does; through a shared host's slow and fast
spells an operation's time follows this mix more closely than either half.

An operation's time in *reference seconds* is its wall time multiplied by
``REF_S`` over the median of the routine's times measured around it: the
time the operation would take on a machine on which the routine takes
``REF_S``.  The routine is the benchmark's own code and runs nothing of the
program, so a change to the program moves reference times by the same
factor as wall times, while a drift of the host moves both the operation
and the routine and cancels.

Raw wall times are kept beside the scaled ones in every run's record.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

import numpy as np

REF_S = 0.004  # the routine's time on the reference machine
TREE_DEPTH = 8
EVALUATIONS = 4
KERNEL_ROUNDS = 2
EVERY_S = 0.05  # the worker runs the routine after an operation once this has passed
WINDOW_S = 0.5  # routine times this far around an operation scale it


class _Node:
    __slots__ = ("kind", "left", "right")

    def __init__(self, kind, left, right):
        self.kind, self.left, self.right = kind, left, right


def _tree(depth: int, rng: random.Random) -> _Node:
    if depth == 0:
        if rng.random() < 0.5:
            return _Node("x", rng.randrange(4), None)
        return _Node("c", rng.uniform(0.5, 1.5), None)
    return _Node("+" if rng.random() < 0.5 else "*",
                 _tree(depth - 1, rng), _tree(depth - 1, rng))


def _evaluate(node: _Node, env: dict) -> float:
    if node.kind == "x":
        return env[node.left]
    if node.kind == "c":
        return node.left
    a, b = _evaluate(node.left, env), _evaluate(node.right, env)
    return a + b if node.kind == "+" else a * b * 0.5


def _text(node: _Node) -> str:
    if node.kind == "x":
        return f"x{node.left}"
    if node.kind == "c":
        return repr(node.left)
    return f"({_text(node.left)} {node.kind} {_text(node.right)})"


_SAMPLES = np.random.default_rng(0).random(40_000)
_BATCH = np.random.default_rng(1).random((8, 8, 500))


def _routine() -> float:
    tree = _tree(TREE_DEPTH, random.Random(1))
    acc = sum(_evaluate(tree, {0: 0.1 * i, 1: 0.2, 2: 0.3, 3: 0.4})
              for i in range(EVALUATIONS))
    acc += len(_text(tree))
    for _ in range(KERNEL_ROUNDS):
        acc += float((np.sin(_SAMPLES) * _SAMPLES + _SAMPLES ** 2).sum())
        acc += float(np.einsum("ijn,jkn->ikn", _BATCH, _BATCH)[0, 0, 0])
    return acc


def measure() -> tuple[float, float]:
    """(midpoint, seconds) of one run of the routine, with the collector off.

    With the collector on, a collection that the program's heap makes due
    would land in the routine's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _routine()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (t0 + t1) / 2, t1 - t0


class Scale:
    """Reference-time factors from routine times taken during a run."""

    def __init__(self, samples: list[tuple[float, float]]):
        if not samples:
            raise ValueError("no routine times to scale by")
        samples = sorted(samples)
        self.at = [t for t, _ in samples]
        self.took = [s for _, s in samples]

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median routine time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi <= lo:  # nothing close: the nearest on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return REF_S / statistics.median(self.took[lo:hi])
