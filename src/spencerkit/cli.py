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
from .fields import Patch, ScalarField
from .elliptic import (
    ConvergenceError,
    DirichletProblem,
    assemble_operator,
    ellipticity_certificate,
    potential_closedness_residual,
    solve_dirichlet,
    theorem_check,
)
from .brackets import bracket_j, bracket_law_check, potential_vf_residual
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
from .structures import extract_pq, nijenhuis_residual, normalize_at_origin, \
    reconstruct_from_pq

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


def _tolerance(args, scene: Scene, floor: float = 1e-8) -> float:
    """``--tol``, else the scene's ``check`` tolerance, else the default rule."""
    if args.tol is not None:
        return args.tol
    if "check" in scene.tolerances:
        return scene.tolerance("check", floor)
    return default_tolerance(scene.patch, scene.mode, floor, 30.0)


def _base_node(args, patch: Patch) -> tuple[int, ...]:
    if args.base:
        node = tuple(int(v) for v in args.base.split(","))
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
    scene = _scene(args)
    pq = scene.pq_pair()
    acs = reconstruct_from_pq(pq, symbolic="always")
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
    bd = normalize_at_origin(acs, base)
    pq = extract_pq(bd)
    back = reconstruct_from_pq(pq, symbolic="never")
    gap = float(np.abs(back.cot_values() - bd.reassembled()).max())
    identities = bd.identity_residuals()
    tol = _tolerance(args, scene, 1e-10)
    passed = gap <= tol and max(identities.values()) <= tol
    results = {
        "base_node": list(base),
        "round_trip_gap": gap,
        "identity_residuals": identities,
        "q_condition": pq.q_condition,
        "tolerance": tol,
    }
    return emit("acs.extract_pq", results, passed, args)


def cmd_holo_residual(args) -> int:
    scene = _scene(args)
    acs = scene.structure()
    f = scene.complex_field(args.field)
    fn = antiholo_residual if args.anti else holo_residual
    rep = fn(acs, f, scene.mode)
    tol = args.tol
    passed = True if tol is None else rep.sup_norm <= tol
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
    pq = extract_pq(bd)
    system = reduced_system(bd, f, scene.mode)
    rep = reduced_system_residual(bd, pq, f, system=system)
    equiv = reduction_equivalence_check(acs, bd, pq, f, system=system)
    tol = args.tol
    passed = equiv.identity_residual <= 1e-8 and \
        (True if tol is None else rep.sup_norm <= tol)
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
    tol = _tolerance(args, scene)
    passed = theorem.passes and (args.tol is None
                                 or theorem.closedness.sup_norm <= tol)
    results = {"field": args.field, "tolerance": tol, **jsonable(theorem)}
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
    problem = DirichletProblem(op, boundary,
                               tolerance=scene.tolerance("solver", 1e-8))
    try:
        solution, stats = solve_dirichlet(problem)
    except ConvergenceError as exc:  # reported below, with passed false
        solution, stats = exc.best, exc.stats
    boundary_mask = np.ones(scene.patch.resolution, dtype=bool)
    boundary_mask[scene.patch.interior()] = False
    results = {
        "stats": stats,
        "interior_abs_max": interior_sup(solution.samples, scene.patch),
        "boundary_abs_max": float(np.abs(boundary.samples[boundary_mask]).max()),
    }
    passed = stats.converged
    if args.oracle:
        oracle = ScalarField.from_expr(scene.patch, args.oracle)
        err = interior_sup(solution.samples - oracle.samples, scene.patch)
        results["oracle_max_error"] = err
        if args.tol is not None:
            passed = passed and err <= args.tol
            results["tolerance"] = args.tol
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
        tol = _tolerance(args, scene)
        law = bracket_law_check(acs, x, y, u, args.case, scene.mode, tol)
        results["law"] = law
        results["tolerance"] = tol
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
    tol = _tolerance(args, scene)
    if args.function:
        F = scene.quaternion_function(args.function)
        jres = j_hyperholo_residual(h, F, scene.mode)
        kres = k_hyperholo_residual(h, F, scene.mode)
        results["function"] = args.function
        results["j_residual"] = jres
        results["k_residual"] = kres
        results["tolerance"] = tol
        passed = jres.sup_norm <= tol and kres.sup_norm <= tol
        if passed:
            trans = k_translation_consistency(h, F, scene.mode, tol,
                                              kres=kres, jres=jres)
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
    tol = _tolerance(args, scene)
    (rep,), basis = _verified(acs, chart, scene.mode, tol)
    results = {"chart": args.chart, "pattern": rep}
    passed = rep.passes
    # superposition is defined on a verified chart only
    if h is not None and passed:
        sup = _superposition(acs, chart, h, rep, basis)
        results["superposition"] = sup
        passed = sup.sup_norm <= tol
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
            op = assemble_operator(acs, "fd")
            boundary = ScalarField.from_expr(scene.patch, args.bc)
            problem = DirichletProblem(op, boundary,
                                       tolerance=scene.tolerance("solver", 1e-8))
            try:
                solution, _ = solve_dirichlet(problem)
            except ConvergenceError as exc:
                results = {"check": args.check, "values": values, "stats": exc.stats}
                return emit("convergence", results, False, args)
            oracle = ScalarField.from_expr(scene.patch, args.oracle)
            values.append(interior_sup(solution.samples - oracle.samples, scene.patch))
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


def _common(p: argparse.ArgumentParser):
    p.add_argument("scene", help="scene JSON file")
    p.add_argument("--grid", type=int, default=None,
                   help="override resolution on every axis")
    p.add_argument("--tol", type=_finite_non_negative, default=None,
                   help="pass/fail tolerance for the check")
    p.add_argument("--mode", choices=("exact", "fd", "auto"), default=None,
                   help="differentiation mode override")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="seed for randomized certificates")
    p.add_argument("--out", "-o", default=None, help="write the report here")
    p.add_argument("--no-meta", action="store_true",
                   help="omit timestamps for byte-identical output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spencerctl",
        description="Desk-scale checks for almost-complex and hypercomplex "
                    "structures declared in JSON scenes.")
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)

    acs = groups.add_parser("acs", help="structure validation and moduli")
    acs_sub = acs.add_subparsers(dest="command", required=True)
    q = acs_sub.add_parser("check", help="validate and certify ellipticity")
    _common(q)
    q.add_argument("--nijenhuis", action="store_true",
                   help="also evaluate the Nijenhuis residual")
    q.add_argument("--samples", type=int, default=10_000,
                   help="certificate sample count")
    q.set_defaults(fn=cmd_acs_check)
    q = acs_sub.add_parser("from-pq", help="generate a structure from (P, Q)")
    _common(q)
    q.set_defaults(fn=cmd_acs_from_pq)
    q = acs_sub.add_parser("extract-pq",
                           help="normalize, decompose and round-trip")
    _common(q)
    q.add_argument("--base", default=None,
                   help="base node indices, comma separated")
    q.set_defaults(fn=cmd_acs_extract_pq)

    holo = groups.add_parser("holo", help="holomorphy residuals")
    holo_sub = holo.add_subparsers(dest="command", required=True)
    q = holo_sub.add_parser("residual", help="full Cauchy-Riemann residual")
    _common(q)
    q.add_argument("--field", required=True, help="named complex field")
    q.add_argument("--anti", action="store_true",
                   help="check antiholomorphy instead")
    q.set_defaults(fn=cmd_holo_residual)
    q = holo_sub.add_parser("reduced", help="reduced system residual")
    _common(q)
    q.add_argument("--field", required=True)
    q.add_argument("--base", default=None)
    q.set_defaults(fn=cmd_holo_reduced)

    pluri = groups.add_parser("pluri", help="potential-form checks")
    pluri_sub = pluri.add_subparsers(dest="command", required=True)
    q = pluri_sub.add_parser("check", help="closedness plus operator kernel")
    _common(q)
    q.add_argument("--field", required=True, help="named real field")
    q.set_defaults(fn=cmd_pluri_check)

    ell = groups.add_parser("elliptic", help="operator assembly and solves")
    ell_sub = ell.add_subparsers(dest="command", required=True)
    q = ell_sub.add_parser("solve", help="Dirichlet solve")
    _common(q)
    q.add_argument("--bc", default=None, help="boundary expression")
    q.add_argument("--bc-field", default=None, help="named boundary field")
    q.add_argument("--bc-csv", default=None, help="boundary trace from a grid dump")
    q.add_argument("--oracle", default=None,
                   help="expression to compare the solution against")
    q.add_argument("--csv", default=None, help="dump the solution grid here")
    q.set_defaults(fn=cmd_elliptic_solve)

    br = groups.add_parser("bracket", help="twisted bracket checks")
    br_sub = br.add_subparsers(dest="command", required=True)
    q = br_sub.add_parser("check", help="bracket laws and potential residual")
    _common(q)
    q.add_argument("--x", required=True, help="named vector field")
    q.add_argument("--y", required=True, help="named vector field")
    q.add_argument("--field", required=True, help="function the bracket acts on")
    q.add_argument("--case", default=None,
                   choices=("holo_holo", "antiholo_antiholo",
                            "holo_antiholo", "antiholo_holo"))
    q.set_defaults(fn=cmd_bracket_check)

    hyp = groups.add_parser("hyper", help="hypercomplex checks")
    hyp_sub = hyp.add_subparsers(dest="command", required=True)
    q = hyp_sub.add_parser("check", help="hyperholomorphy residuals")
    _common(q)
    q.add_argument("--function", default=None, help="named quaternion function")
    q.add_argument("--u", default=None, help="real field for the J potential")
    q.add_argument("--zeta", default=None, help="real field for the K potential")
    q.set_defaults(fn=cmd_hyper_check)

    sp = groups.add_parser("spencer", help="chart verification")
    sp_sub = sp.add_subparsers(dest="command", required=True)
    q = sp_sub.add_parser("verify", help="pattern and superposition checks")
    _common(q)
    q.add_argument("--chart", required=True, help="named chart")
    q.add_argument("--superpose", default=None,
                   help="holomorphic field to expand over the chart")
    q.set_defaults(fn=cmd_spencer_verify)

    conv = groups.add_parser("convergence",
                             help="re-run a check at h, h/2, h/4")
    _common(conv)
    conv.add_argument("--check", required=True, choices=_CONV_CHECKS)
    conv.add_argument("--field", default=None)
    conv.add_argument("--bc", default=None)
    conv.add_argument("--oracle", default=None)
    conv.add_argument("--expect-order", type=_finite, default=None)
    conv.add_argument("--order-window", type=_finite_non_negative, default=0.5)
    conv.set_defaults(fn=cmd_convergence)
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
