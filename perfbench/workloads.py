"""Seeded inputs and operation lists for the four benchmark workloads.

Every input comes from ``random.Random(seed)``: the same seed writes the
same scene files and the same operation list.  A workload is a *pass*, an
ordered list of operations that the worker repeats until the run time is
used up.  Each operation is one ``spencerctl`` argv together with the exit
code it must return and the report fields it must satisfy.

Scene shapes are fixed per workload and only the coefficients are drawn, so
operation cost barely moves from seed to seed: the monomials are fixed by
position, and coefficients are positive and bounded away from zero, because
the expression constructors fold zero terms away and would otherwise change
the tree shapes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SHIPPED = "scenes"

# Report checks are [dotted path, operator, value]; see worker.check_report.
ACS_EXACT = [["results.valid", "==", True],
             ["results.acs_residual", "<=", 1e-10]]
CONVERGED = [["results.stats.converged", "==", True]]


def _coef(rng: random.Random, lo: float, hi: float) -> float:
    # one sign throughout: a negative literal parses to a different tree
    # shape, which would make an operation's cost depend on the seed
    return rng.uniform(lo, hi)


def _poly(rng: random.Random, monomials, lo: float, hi: float,
          offset: float | None = None) -> str:
    """Polynomial over fixed monomials with drawn coefficients.

    A monomial is a tuple of 1-based variable indices, ``()`` being the
    constant term; ``offset`` is a fixed constant term written first.
    """
    terms = [f"{offset:.4f}"] if offset is not None else []
    for mono in monomials:
        terms.append("*".join([f"{_coef(rng, lo, hi):.4f}"]
                              + [f"x{k}" for k in mono]))
    return " + ".join(terms)


def _write(path: Path, scene: dict) -> str:
    path.write_text(json.dumps(scene, indent=1, sort_keys=True) + "\n")
    return str(path)


def _op(name: str, argv: list, rc: int = 0, checks: list | None = None) -> dict:
    # --no-meta makes the report byte-identical from pass to pass
    return {"name": name, "argv": [str(a) for a in argv] + ["--no-meta"],
            "rc": rc, "checks": checks or []}


# -- exact_pq ------------------------------------------------------------------

def _pq_scene(rng: random.Random, n: int, resolution: int,
              p_quadratic: int) -> dict:
    d = 2 * n

    def p_entry(i, j):
        a = (i * n + j) % d + 1
        monomials = [(), (a,), (a, a % d + 1)][:3 if p_quadratic else 2]
        return _poly(rng, monomials, 0.05, 0.3)

    p = [[p_entry(i, j) for j in range(n)] for i in range(n)]
    # diagonally dominant Q: |Q_ii + 1| <= 0.12 and |Q_ij| <= 0.1 on the patch
    q = [[_poly(rng, [(2 * i + 2,)], 0.05, 0.3, offset=-1.0) if i == j
          else f"{_coef(rng, 0.01, 0.1):.4f}" for j in range(n)]
         for i in range(n)]
    cubic = _poly(rng, [(1, 2, d), (2, d, d), (1, 1, 2)], 0.2, 1.0)
    return {"schema": 1, "name": f"pq_n{n}", "dim_half": n,
            "patch": {"bounds": [-0.4, 0.4], "resolution": resolution},
            "structure": {"kind": "pq", "p": p, "q": q},
            "fields": {"cubic": cubic}}


def exact_pq(rng: random.Random, work: Path) -> list[dict]:
    """Random (P, Q) pairs at n = 1, 2 and one at n = 3, exact mode.

    Pairs at n <= 2 run all three commands; the n = 3 pair runs ``acs check``
    only, because its ``--nijenhuis`` and ``pluri`` runs take about 2 s each
    and would leave too few passes in a run for steady medians.
    """
    ops = []
    plan = [(1, 7, 1)] * 4 + [(2, 5, 1)] * 6 + [(3, 5, 0)]
    for k, (n, resolution, p_quadratic) in enumerate(plan):
        path = _write(work / f"pq{k}_n{n}.json",
                      _pq_scene(rng, n, resolution, p_quadratic))
        seed = rng.randrange(1000)
        ops.append(_op(f"n{n}.acs-check", ["acs", "check", path, "--seed", seed],
                       checks=ACS_EXACT))
        if n == 3:
            continue
        ops.append(_op(f"n{n}.acs-nijenhuis",
                       ["acs", "check", path, "--nijenhuis", "--seed", seed],
                       checks=ACS_EXACT + [["results.nijenhuis_residual", ">=", 0.0]]))
        ops.append(_op(f"n{n}.pluri", ["pluri", "check", path, "--field", "cubic"],
                       checks=[["results.passes", "==", True]]))
    return ops


# -- dirichlet_sweep -----------------------------------------------------------

def _harmonic_cubic(rng: random.Random) -> str:
    a, b, c, e = (_coef(rng, 0.2, 1.0) for _ in range(4))
    return (f"{a:.4f}*(x1^3 - 3*x1*x2^2) + {b:.4f}*(3*x1^2*x2 - x2^3)"
            f" + {c:.4f}*(x1^2 - x2^2) + {e:.4f}*x1*x2")


def _smooth_bc(rng: random.Random, d: int) -> str:
    monomials = [(), (1,), (2,), (1, 2), (2, 2)] if d == 2 else \
        [(), (1,), (4,), (1, 3), (2, 4)]
    return _poly(rng, monomials, 0.2, 1.0)


def dirichlet_sweep(rng: random.Random, work: Path) -> list[dict]:
    """2D solves on both sides of the direct-solver limit, 4D LU solves."""
    fixture = f"{SHIPPED}/fixture_n1.json"
    pullback = f"{SHIPPED}/pullback2d.json"
    standard = f"{SHIPPED}/standard2d.json"
    type1 = f"{SHIPPED}/type1.json"
    ops = []

    def solve(name, scene, grid, d, extra=(), checks=(), bc=None):
        argv = ["elliptic", "solve", scene, "--grid", grid,
                "--bc", bc or _smooth_bc(rng, d), *extra]
        ops.append(_op(name, argv, checks=CONVERGED + list(checks)))

    # 145^2 grid: 20,449 unknowns, just over DIRECT_SOLVER_LIMIT -> GMRES.
    # Only the scale of the data is drawn: GMRES from a zero guess to a
    # relative tolerance takes the same iterations for any scale.
    solve("2d.gmres", fixture, 145, 2,
          checks=[["results.stats.method", "==", "iterative"]],
          bc=f"{_coef(rng, 0.5, 2.0):.4f}*(1 + x1 + 0.5*x2 + x1*x2 + 0.7*x2^2)")
    for scene in (fixture, pullback) * 2:
        solve("2d.lu", scene, 129, 2,
              checks=[["results.stats.method", "==", "direct"]])
    # Half the small solves are at grid 65, so that the median operation
    # falls inside that group, not in the gap between two grid sizes,
    # where noise would move it from one group to the other.
    for k in range(14):
        scene = (fixture, pullback)[k % 2]
        csv = work / f"solution{k}.csv"
        solve("2d.small-csv", scene, (33, 49, 65, 65)[k % 4], 2,
              extra=("--csv", csv))
    cubic = _harmonic_cubic(rng)
    # the standard operator is twice the Laplacian, which is nodally exact
    # on harmonic cubics: the oracle error is solver precision
    ops.append(_op("2d.oracle", ["elliptic", "solve", standard, "--bc", cubic,
                                 "--grid", 65, "--oracle", cubic, "--tol", 1e-8],
                   checks=CONVERGED + [["results.oracle_max_error", "<=", 1e-8]]))
    for mode in ("exact", "fd"):
        solve(f"4d.lu-{mode}", type1, 10, 4, extra=("--mode", mode),
              checks=[["results.stats.method", "==", "direct"]])
    return ops


# -- wide_grid -----------------------------------------------------------------

def _quaternion_affine(rng: random.Random) -> dict:
    """F(q) = a*q + b, q = x1 + i x2 + j x3 + k x4.

    Left multiplication commutes with the right multiplications that define
    the flat pair, so F is J- and K-hyperholomorphic.
    """
    a = [_coef(rng, 0.2, 1.0) for _ in range(4)]
    b = [_coef(rng, 0.2, 1.0) for _ in range(4)]
    a1, b1, c1, d1 = a
    # columns: a*1, a*i, a*j, a*k
    cols = [(a1, b1, c1, d1), (-b1, a1, d1, -c1),
            (-c1, -d1, a1, b1), (-d1, c1, -b1, a1)]
    comps = {}
    for c, key in enumerate(("u", "v", "zeta", "eta")):
        text = f"{b[c]:.4f}"
        for k in range(4):
            v = cols[k][c]
            text += f" {'-' if v < 0 else '+'} {abs(v):.4f}*x{k + 1}"
        comps[key] = text
    return comps


def _frame(rng: random.Random, d: int) -> list[list[float]]:
    return [[(1.0 if i == j else 0.0) + _coef(rng, 0.02, 0.2) for j in range(d)]
            for i in range(d)]


def wide_grid(rng: random.Random, work: Path) -> list[dict]:
    """Sample-backed FD checks on 4D grids of 15k to 194k nodes."""
    ops = []
    for k, grid in enumerate((11, 13, 15, 17)):
        f = {"re": _poly(rng, [(), (3,), (1, 4)], 0.1, 0.4),
             "im": _poly(rng, [(), (4,), (2, 3)], 0.1, 0.4)}
        type1 = _write(work / f"type1_{k}.json", {
            "schema": 1, "name": f"type1_{k}", "dim_half": 2,
            "patch": {"bounds": [-1.0, 1.0], "resolution": 7},
            "structure": {"kind": "type1", "f": f},
            "charts": {"type1": {"m": 1, "holo": [{"re": "x1", "im": "x2"}],
                                 "complement": [{"re": "x3", "im": "x4"}]}}})
        fd = ["--grid", grid, "--mode", "fd"]
        seed = rng.randrange(1000)
        ops.append(_op("4d.acs-nijenhuis",
                       ["acs", "check", type1, "--nijenhuis", "--seed", seed, *fd],
                       checks=[["results.valid", "==", True]]))
        ops.append(_op("4d.extract-pq", ["acs", "extract-pq", type1, *fd]))
        ops.append(_op("4d.spencer", ["spencer", "verify", type1,
                                      "--chart", "type1", *fd],
                       checks=[["results.pattern.passes", "==", True]]))
        hyper = _write(work / f"hyper_{k}.json", {
            "schema": 1, "name": f"hyper_{k}", "dim_half": 2,
            "patch": {"bounds": [-1.0, 1.0], "resolution": 7},
            "structure": {"kind": "hypercomplex", "pair": "standard"},
            "quaternion_functions": {"F": _quaternion_affine(rng)}})
        ops.append(_op("4d.hyper", ["hyper", "check", hyper, "--function", "F", *fd],
                       checks=[["results.translation.passes", "==", True]]))
        conj = _write(work / f"conj_{k}.json", {
            "schema": 1, "name": f"conj_{k}", "dim_half": 2,
            "patch": {"bounds": [-1.0, 1.0], "resolution": 7},
            "structure": {"kind": "hypercomplex", "pair": "conjugated",
                          "frame": _frame(rng, 4)}})
        ops.append(_op("4d.hyper-conjugated", ["hyper", "check", conj, *fd]))
    # the widest grid: 21^4 = 194,481 nodes
    ops.append(_op("4d.acs-nijenhuis-21",
                   ["acs", "check", f"{SHIPPED}/type1.json", "--nijenhuis",
                    "--grid", 21, "--mode", "fd", "--seed", rng.randrange(1000)],
                   checks=[["results.valid", "==", True]]))
    return ops


# -- shipped_scenes ------------------------------------------------------------

def shipped_scenes(rng: random.Random, work: Path) -> list[dict]:
    """README examples and one command per named object on the shipped scenes."""
    s = SHIPPED
    out = work / "reconstructed.json"
    seed = rng.randrange(1000)
    ops = [
        _op("acs-check", ["acs", "check", f"{s}/standard2d.json", "--seed", seed]),
        _op("solve-oracle", ["elliptic", "solve", f"{s}/standard2d.json",
                             "--bc", "x1^3 - 3*x1*x2^2", "--grid", 65,
                             "--oracle", "x1^3 - 3*x1*x2^2", "--tol", 1e-8],
            checks=CONVERGED + [["results.oracle_max_error", "<=", 1e-8]]),
        _op("from-pq", ["acs", "from-pq", f"{s}/pq_n1.json", "-o", out],
            checks=[["results.acs_residual", "<=", 1e-10]]),
        _op("check-reconstructed", ["acs", "check", out, "--seed", seed],
            checks=ACS_EXACT),
        _op("convergence", ["convergence", f"{s}/pullback2d.json", "--check",
                            "pluri", "--field", "pluri", "--grid", 9,
                            "--expect-order", 2]),
        _op("acs-check", ["acs", "check", f"{s}/fixture_n1.json", "--seed", seed]),
        _op("holo-reduced", ["holo", "reduced", f"{s}/fixture_n1.json",
                             "--field", "linear"]),
        _op("pluri", ["pluri", "check", f"{s}/fixture_n1.json", "--field", "product"]),
        _op("extract-pq", ["acs", "extract-pq", f"{s}/pq_n1.json"]),
        _op("holo-residual-fail", ["holo", "residual", f"{s}/pq_n1.json",
                                   "--field", "z", "--tol", 1e-10], rc=1),
        _op("acs-nijenhuis", ["acs", "check", f"{s}/pullback2d.json",
                              "--nijenhuis", "--seed", seed],
            checks=[["results.nijenhuis_residual", "<=", 1e-10]]),
        _op("pluri", ["pluri", "check", f"{s}/pullback2d.json", "--field", "pluri"]),
        _op("acs-nijenhuis", ["acs", "check", f"{s}/type1.json", "--nijenhuis",
                              "--seed", seed]),
        _op("spencer-superpose", ["spencer", "verify", f"{s}/type1.json",
                                  "--chart", "type1", "--superpose", "zsq"],
            checks=[["results.pattern.passes", "==", True]]),
        _op("spencer-overclaim", ["spencer", "verify", f"{s}/type1.json",
                                  "--chart", "overclaim"], rc=1),
        _op("holo-residual-fail", ["holo", "residual", f"{s}/type1.json",
                                   "--field", "w", "--tol", 1e-10], rc=1),
        _op("hyper", ["hyper", "check", f"{s}/hyper_flat.json", "--function",
                      "identity", "--u", "uj", "--zeta", "zk"],
            checks=[["results.translation.passes", "==", True]]),
        _op("hyper-fail", ["hyper", "check", f"{s}/hyper_flat.json",
                           "--function", "square"], rc=1),
        _op("holo-anti", ["holo", "residual", f"{s}/standard2d.json", "--field",
                          "zbar", "--anti", "--tol", 1e-10]),
        _op("bracket", ["bracket", "check", f"{s}/standard2d.json", "--x", "dz",
                        "--y", "dzbar", "--field", "cubic", "--case",
                        "holo_antiholo"],
            checks=[["results.law.law_residual", "<=", 1e-10]]),
        _op("spencer", ["spencer", "verify", f"{s}/standard2d.json",
                        "--chart", "identity"],
            checks=[["results.pattern.passes", "==", True]]),
    ]
    return ops


WORKLOADS = {
    "exact_pq": exact_pq,
    "dirichlet_sweep": dirichlet_sweep,
    "wide_grid": wide_grid,
    "shipped_scenes": shipped_scenes,
}

# Percentile of operation time reported as op_tail_s.  A run makes at least
# the passes that put ten operations beyond it, even when the machine is
# slow; each is the highest percentile that two passes (ten for the short
# shipped_scenes pass) can carry.
TAIL_PERCENTILE = {
    "exact_pq": 75,
    "dirichlet_sweep": 75,
    "wide_grid": 75,
    "shipped_scenes": 95,
}


def build(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's inputs under ``work`` and return its pass."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
