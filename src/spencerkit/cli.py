"""spencerctl: scene-driven checks from the command line.

Subcommands::

    acs check | acs from-pq | acs extract-pq
    holo residual | holo reduced
    pluri check
    elliptic solve
    bracket check
    hyper check
    spencer verify
    convergence

Reports are JSON on stdout (or --out FILE).  Exit codes: 0 when every
requested tolerance is met, 1 on a tolerance failure, 2 on usage or scene
errors.  With --no-meta the report is byte-deterministic for a fixed scene,
flags and seed.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .fields import Patch, ScalarField, resolve_mode
from .elliptic import (
    ConvergenceError,
    assemble_operator,
    ellipticity_certificate,
    potential_closedness_residual,
    solve_dirichlet,
    theorem_check,
)
from .brackets import EigenfieldError, bracket_j, bracket_law_check, \
    potential_vf_residual
from .gridio import read_field_csv, write_field_csv
from .holomorphy import antiholo_residual, holo_residual, reduced_system, \
    reduced_system_residual, reduction_equivalence_check
from .hypercomplex import (
    hyper_potential_residual,
    j_hyperholo_residual,
    k_hyperholo_residual,
    k_translation_consistency,
)
from .report import default_tolerance, interior_sup, jsonable
from .scene import Scene, SceneError, load_scene
from .spencer import _superposition, _verified
from .structures import PQPair, nijenhuis_residual, normalize_at_origin, \
    reconstruct_from_pq, reconstructs_exactly

DESCRIPTIONS = {
    "acs.check": "structure squares to -E; quadratic form bounded below",
    "acs.from_pq": "cotangent matrix generated from the (P, Q) pair",
    "acs.extract_pq": "block decomposition, moduli pair and round trip",
    "holo.residual": "Cauchy-Riemann type residual of a complex function",
    "holo.reduced": "reduced n-equation residual in the normalized frame",
    "pluri.check": "closedness of the potential form and the operator kernel",
    "elliptic.solve": "Dirichlet solve of the structure operator",
    "bracket.check": "twisted bracket laws and potential residual",
    "hyper.check": "hyperholomorphy residuals on a hypercomplex pair",
    "spencer.verify": "chart pattern and superposition verification",
    "convergence": "re-run a check on refined grids and report orders",
}


# The certificate holds its node indices, directions and cotangent matrices
# for all samples at once: a larger --samples is a usage error, not a
# MemoryError.
MAX_SAMPLES = 1_000_000


def emit(check: str, results: dict, passed: bool, args) -> int:
    report = {
        "schema": 1,
        "check": check,
        "description": DESCRIPTIONS.get(check, ""),
        "passed": bool(passed),
        "results": jsonable(results),
    }
    if not args.no_meta:
        report["meta"] = {
            "tool": "spencerctl",
            "version": __version__,
            "generated": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
        }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _scene(args) -> Scene:
    return load_scene(args.scene, grid_override=args.grid,
                      mode_override=args.mode)


def _tolerance(args, scene: Scene, mode: str | None = None,
               floor: float = 1e-8) -> float | None:
    """The tolerance of a verdict: ``--tol``, else the scene's ``check``
    tolerance, else the default rule in ``mode``, the mode the check ran in
    (never ``auto``).  A verdict that only measures unless it is given a
    tolerance passes no mode, and then gets None."""
    if args.tol is not None:
        return args.tol
    if "check" in scene.tolerances:
        return scene.tolerances["check"]
    if mode is None:
        return None
    return default_tolerance(scene.patch, mode, floor, 30.0)


def _solve(scene: Scene, op, boundary: ScalarField, oracle: str | None):
    """Dirichlet solve at ``tolerances.solver``: the solution (the best one
    if the solver does not converge), its stats, and its interior error
    against the ``oracle`` expression, if given."""
    try:
        solution, stats = solve_dirichlet(op, boundary,
                                          scene.tolerance("solver", 1e-8))
    except ConvergenceError as exc:  # the caller reports it, passed false
        solution, stats = exc.best, exc.stats
    if oracle is None:
        return solution, stats, None
    exact = ScalarField.from_expr(scene.patch, oracle).samples
    return solution, stats, interior_sup(solution.samples - exact, scene.patch)


def _base_node(args, patch: Patch) -> tuple[int, ...]:
    if args.base:
        try:
            node = tuple(int(v) for v in args.base.split(","))
        except ValueError:
            raise SceneError(f"--base needs integer indices, got {args.base!r}") from None
        if len(node) != patch.dim:
            raise SceneError(f"--base needs {patch.dim} indices")
        return node
    return tuple(r // 2 for r in patch.resolution)


# -- command implementations -------------------------------------------------


def cmd_acs_check(args) -> int:
    if args.samples < 1:
        raise SceneError("--samples must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise SceneError(f"--samples must be at most {MAX_SAMPLES:,}")
    scene = _scene(args)
    acs = scene.structure()
    cert = ellipticity_certificate(acs, sample_count=args.samples, seed=args.seed)
    results = {
        "acs_residual": acs.acs_residual,
        "tolerance": acs.tolerance,
        "valid": acs.valid,
        "certificate": cert,
    }
    if args.nijenhuis:
        results["nijenhuis_residual"] = nijenhuis_residual(acs, scene.mode)
    return emit("acs.check", results, acs.valid and cert.passes, args)


def cmd_acs_from_pq(args) -> int:
    scene = load_scene(args.scene, grid_override=args.grid)
    p, q = scene.pq_matrices()
    # the written scene needs entry expressions; decided before Q is sampled
    if not reconstructs_exactly(p, q):
        raise SceneError("symbolic reconstruction unavailable for this pair")
    pq = PQPair(scene.patch, p, q)
    acs = reconstruct_from_pq(pq)
    entries = [[str(e) for e in row] for row in acs.j_cot.exprs]
    out_scene = {
        "schema": 1,
        "name": f"{scene.name}-reconstructed",
        "dim_half": scene.dim_half,
        "patch": {
            "bounds": [list(b) for b in scene.patch.bounds],
            "resolution": list(scene.patch.resolution),
        },
        "structure": {"kind": "matrix", "rep": "cot", "entries": entries},
        "fields": scene.field_specs,
    }
    target = args.out or f"{scene.name}-reconstructed.json"
    with open(target, "w") as fh:
        json.dump(out_scene, fh, sort_keys=True, indent=2)
        fh.write("\n")
    args.out = None  # the JSON scene already went to the target file
    results = {
        "written": target,
        "acs_residual": acs.acs_residual,
        "q_condition": pq.q_condition,
    }
    return emit("acs.from_pq", results, acs.valid, args)


def cmd_acs_extract_pq(args) -> int:
    scene = _scene(args)
    acs = scene.structure()
    base = _base_node(args, scene.patch)
    # the moduli pair, the structure it generates, checked for J^2 = -E as
    # reconstruct_from_pq checks it and compared with the frame, and the
    # block identities, in one pass
    gap, identities, q_condition = normalize_at_origin(acs, base).round_trip()
    # pointwise algebra on the structure's values, which differentiates
    # nothing: no truncation error in any mode
    tol = _tolerance(args, scene, "exact", 1e-10)
    passed = gap <= tol and max(identities.values()) <= tol
    results = {
        "base_node": list(base),
        "round_trip_gap": gap,
        "identity_residuals": identities,
        "q_condition": q_condition,
        "tolerance": tol,
    }
    return emit("acs.extract_pq", results, passed, args)


def cmd_holo_residual(args) -> int:
    scene = _scene(args)
    acs = scene.structure()
    f = scene.complex_field(args.field)
    fn = antiholo_residual if args.anti else holo_residual
    rep = fn(acs, f, scene.mode)
    tol = _tolerance(args, scene)
    passed = tol is None or rep.sup_norm <= tol
    results = {"field": args.field, "anti": bool(args.anti),
               "residual": rep}
    if tol is not None:
        results["tolerance"] = tol
    return emit("holo.residual", results, passed, args)


def cmd_holo_reduced(args) -> int:
    scene = _scene(args)
    acs = scene.structure()
    f = scene.complex_field(args.field)
    bd = normalize_at_origin(acs, _base_node(args, scene.patch))
    system = reduced_system(bd, f, scene.mode)
    rep = reduced_system_residual(bd, system)
    equiv = reduction_equivalence_check(bd, system)
    tol = _tolerance(args, scene)
    passed = equiv.identity_residual <= 1e-8 and (tol is None or rep.sup_norm <= tol)
    results = {
        "field": args.field,
        "residual": rep,
        "equivalence": equiv,
    }
    if tol is not None:
        results["tolerance"] = tol
    return emit("holo.reduced", results, passed, args)


def cmd_pluri_check(args) -> int:
    scene = _scene(args)
    acs = scene.structure()
    u = scene.scalar_field(args.field)
    theorem = theorem_check(acs, u, scene.mode)
    bound = _tolerance(args, scene)  # closedness is measured unless bounded
    passed = theorem.passes and (bound is None or theorem.closedness.sup_norm <= bound)
    results = {"field": args.field, "tolerance": _tolerance(args, scene, theorem.mode),
               **jsonable(theorem)}
    return emit("pluri.check", results, passed, args)


def cmd_elliptic_solve(args) -> int:
    sources = [flag for flag, value in (("--bc", args.bc), ("--bc-field", args.bc_field),
                                        ("--bc-csv", args.bc_csv)) if value]
    if not sources:
        raise SceneError("elliptic solve needs --bc, --bc-field or --bc-csv")
    if len(sources) > 1:
        raise SceneError(f"elliptic solve takes one boundary source, got "
                         f"{' and '.join(sources)}")
    scene = _scene(args)
    acs = scene.structure()
    op = assemble_operator(acs, scene.mode)
    if args.bc:
        boundary = ScalarField.from_expr(scene.patch, args.bc)
    elif args.bc_field:
        boundary = scene.scalar_field(args.bc_field)
    else:
        boundary = read_field_csv(args.bc_csv)
        if boundary.patch != scene.patch:
            raise SceneError("boundary CSV grid does not match the scene patch")
    solution, stats, err = _solve(scene, op, boundary, args.oracle or None)
    boundary_mask = np.ones(scene.patch.resolution, dtype=bool)
    boundary_mask[scene.patch.interior()] = False
    results = {
        "stats": stats,
        "interior_abs_max": interior_sup(solution.samples, scene.patch),
        "boundary_abs_max": float(np.abs(boundary.samples[boundary_mask]).max()),
    }
    passed = stats.converged
    if err is not None:
        results["oracle_max_error"] = err
        tol = _tolerance(args, scene)
        if tol is not None:
            passed = passed and err <= tol
            results["tolerance"] = tol
    if args.csv:
        write_field_csv(solution, args.csv)
        results["csv"] = args.csv
    return emit("elliptic.solve", results, passed, args)


def cmd_bracket_check(args) -> int:
    scene = _scene(args)
    acs = scene.structure()
    x = scene.vector_field(args.x)
    y = scene.vector_field(args.y)
    u = scene.complex_field(args.field)
    twisted = bracket_j(acs, x, y, u, scene.mode)
    pot = potential_vf_residual(acs, x, y, u, scene.mode)
    results = {
        "x": args.x, "y": args.y, "field": args.field,
        "bracket_j_sup": interior_sup(twisted.values, scene.patch),
        "potential_residual_sup": interior_sup(pot.values, scene.patch),
    }
    passed = True
    if args.case:
        tol = _tolerance(args, scene, resolve_mode(
            scene.mode, acs, *x.components, *y.components, u))
        results["tolerance"] = tol
        try:
            law = bracket_law_check(acs, x, y, u, args.case, scene.mode, tol)
        except EigenfieldError as exc:
            # a failed verdict, not a usage error: the fields are reported
            results["eigen_residuals"] = exc.residuals
            return emit("bracket.check", results, False, args)
        results["law"] = law
        passed = law.law_residual <= tol
    return emit("bracket.check", results, passed, args)


def cmd_hyper_check(args) -> int:
    if (args.u is None) != (args.zeta is None):
        given, missing = ("u", "zeta") if args.zeta is None else ("zeta", "u")
        raise SceneError(f"hyper check --{given} needs --{missing}")
    scene = _scene(args)
    h = scene.hypercomplex()
    results: dict = {"anti_residual": h.anti_residual}
    passed = True
    if args.function:
        F = scene.quaternion_function(args.function)
        tol = _tolerance(args, scene, resolve_mode(scene.mode, h.J, h.K,
                                                   *F.components()))
        jres = j_hyperholo_residual(h, F, scene.mode)
        kres = k_hyperholo_residual(h, F, scene.mode)
        results["function"] = args.function
        results["j_residual"] = jres
        results["k_residual"] = kres
        results["tolerance"] = tol
        passed = jres.sup_norm <= tol and kres.sup_norm <= tol
        if passed:
            trans = k_translation_consistency(kres, jres, tol)
            results["translation"] = trans
            passed = passed and trans.passes
    if args.u is not None:
        rep = hyper_potential_residual(h, scene.scalar_field(args.u),
                                       scene.scalar_field(args.zeta),
                                       scene.mode)
        results["potential"] = rep
    return emit("hyper.check", results, passed, args)


def cmd_spencer_verify(args) -> int:
    scene = _scene(args)
    acs = scene.structure()
    chart = scene.chart(args.chart)
    h = scene.complex_field(args.superpose) if args.superpose else None
    # without a given tolerance, _verified takes the default of its mode
    (rep,), basis = _verified(acs, chart, scene.mode, _tolerance(args, scene))
    results = {"chart": args.chart, "pattern": rep}
    passed = rep.passes
    # superposition is defined on a verified chart only
    if h is not None and passed:
        sup = _superposition(acs, chart, h, rep, basis)
        results["superposition"] = sup
        passed = sup.sup_norm <= rep.tolerance
    return emit("spencer.verify", results, passed, args)


_CONV_CHECKS = ("holo", "pluri", "solve")


def cmd_convergence(args) -> int:
    needed = ("bc", "oracle") if args.check == "solve" else ("field",)
    for flag in needed:
        if getattr(args, flag) is None:
            raise SceneError(f"convergence --check {args.check} needs --{flag}")
    base_scene = load_scene(args.scene, grid_override=args.grid, mode_override="fd")
    values = []
    for factor in (1, 2, 4):
        scene = base_scene.refined(factor) if factor > 1 else base_scene
        acs = scene.structure()
        if args.check == "holo":
            rep = holo_residual(acs, scene.complex_field(args.field), "fd")
            values.append(rep.sup_norm)
        elif args.check == "pluri":
            rep = potential_closedness_residual(
                acs, scene.scalar_field(args.field), "fd")
            values.append(rep.sup_norm)
        else:
            _, stats, err = _solve(scene, assemble_operator(acs, "fd"),
                                   ScalarField.from_expr(scene.patch, args.bc),
                                   args.oracle)
            if not stats.converged:
                results = {"check": args.check, "values": values, "stats": stats}
                return emit("convergence", results, False, args)
            values.append(err)
    orders = []
    for a, b in zip(values, values[1:]):
        # order undefined when a level is exactly resolved (residual 0)
        orders.append(float(np.log2(a / b)) if b > 0 and a > 0 else None)
    results = {
        "check": args.check,
        "values": values,
        "richardson_orders": orders,
    }
    passed = True
    if args.expect_order is not None:
        window = args.order_window
        passed = all(o is not None and abs(o - args.expect_order) <= window
                     for o in orders)
        results["expected_order"] = args.expect_order
        results["order_window"] = window
    return emit("convergence", results, passed, args)


# -- argument wiring ----------------------------------------------------------


def _finite(text: str) -> float:
    """A finite float flag: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _finite_non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


# Flags that only some commands read; each command names the ones it takes.
_SHARED = {
    "--mode": dict(choices=("exact", "fd", "auto"), default=None,
                   help="differentiation mode override"),
    "--tol": dict(type=_finite_non_negative, default=None,
                  help="pass/fail tolerance for the check"),
    "--seed": dict(type=_non_negative_int, default=0,
                   help="seed for randomized certificates"),
}


def _command(sub, name: str, fn, help: str, *shared: str) -> argparse.ArgumentParser:
    """Subcommand ``name`` of ``sub`` that runs ``fn``: the flags every
    command reads, then the ``_SHARED`` flags named."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(fn=fn)
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--grid", type=int, default=None,
                   help="override resolution on every axis")
    p.add_argument("--out", "-o", default=None, help="write the report here")
    p.add_argument("--no-meta", action="store_true",
                   help="omit timestamps for byte-identical output")
    for flag in shared:
        p.add_argument(flag, **_SHARED[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spencerctl",
        description="Desk-scale checks for almost-complex and hypercomplex "
                    "structures declared in JSON scenes.")
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)

    def group(name: str, help: str):
        return groups.add_parser(name, help=help).add_subparsers(dest="command",
                                                                 required=True)

    checks = ("--mode", "--tol")  # the shared flags of most commands
    acs = group("acs", "structure validation and moduli")
    q = _command(acs, "check", cmd_acs_check, "validate and certify ellipticity",
                 "--mode", "--seed")
    q.add_argument("--nijenhuis", action="store_true",
                   help="also evaluate the Nijenhuis residual")
    q.add_argument("--samples", type=int, default=10_000,
                   help="certificate sample count")
    _command(acs, "from-pq", cmd_acs_from_pq, "generate a structure from (P, Q)")
    q = _command(acs, "extract-pq", cmd_acs_extract_pq,
                 "normalize, decompose and round-trip", *checks)
    q.add_argument("--base", default=None,
                   help="base node indices, comma separated")

    holo = group("holo", "holomorphy residuals")
    q = _command(holo, "residual", cmd_holo_residual, "full Cauchy-Riemann residual",
                 *checks)
    q.add_argument("--field", required=True, help="named complex field")
    q.add_argument("--anti", action="store_true",
                   help="check antiholomorphy instead")
    q = _command(holo, "reduced", cmd_holo_reduced, "reduced system residual", *checks)
    q.add_argument("--field", required=True, help="named complex field")
    q.add_argument("--base", default=None,
                   help="base node indices, comma separated")

    q = _command(group("pluri", "potential-form checks"), "check", cmd_pluri_check,
                 "closedness plus operator kernel", *checks)
    q.add_argument("--field", required=True, help="named real field")

    q = _command(group("elliptic", "operator assembly and solves"), "solve",
                 cmd_elliptic_solve, "Dirichlet solve", *checks)
    q.add_argument("--bc", default=None, help="boundary expression")
    q.add_argument("--bc-field", default=None, help="named boundary field")
    q.add_argument("--bc-csv", default=None, help="boundary trace from a grid dump")
    q.add_argument("--oracle", default=None,
                   help="expression to compare the solution against")
    q.add_argument("--csv", default=None, help="dump the solution grid here")

    q = _command(group("bracket", "twisted bracket checks"), "check",
                 cmd_bracket_check, "bracket laws and potential residual", *checks)
    q.add_argument("--x", required=True, help="named vector field")
    q.add_argument("--y", required=True, help="named vector field")
    q.add_argument("--field", required=True, help="function the bracket acts on")
    q.add_argument("--case", default=None,
                   choices=("holo_holo", "antiholo_antiholo",
                            "holo_antiholo", "antiholo_holo"),
                   help="also check the bracket law for this pair of types")

    q = _command(group("hyper", "hypercomplex checks"), "check", cmd_hyper_check,
                 "hyperholomorphy residuals", *checks)
    q.add_argument("--function", default=None, help="named quaternion function")
    q.add_argument("--u", default=None, help="real field for the J potential")
    q.add_argument("--zeta", default=None, help="real field for the K potential")

    q = _command(group("spencer", "chart verification"), "verify", cmd_spencer_verify,
                 "pattern and superposition checks", *checks)
    q.add_argument("--chart", required=True, help="named chart")
    q.add_argument("--superpose", default=None,
                   help="holomorphic field to expand over the chart")

    # always in fd mode, with the pass/fail rule of --expect-order
    q = _command(groups, "convergence", cmd_convergence, "re-run a check at h, h/2, h/4")
    q.add_argument("--check", required=True, choices=_CONV_CHECKS,
                   help="check to re-run on each grid")
    q.add_argument("--field", default=None,
                   help="named field for the holo and pluri checks")
    q.add_argument("--bc", default=None,
                   help="boundary expression for the solve check")
    q.add_argument("--oracle", default=None,
                   help="expression the solve check compares against")
    q.add_argument("--expect-order", type=_finite, default=None,
                   help="fail unless every order is this one, within the window")
    q.add_argument("--order-window", type=_finite_non_negative, default=0.5,
                   help="allowed distance from --expect-order")
    return parser


# Built once per process: parsing leaves the parser as it was, and each call
# gets a fresh namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SceneError, ValueError, OSError) as exc:
        print(f"spencerctl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
