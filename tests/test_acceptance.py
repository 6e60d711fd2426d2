"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import time

import numpy as np

from spencerkit.brackets import VectorFieldC, bracket_law_check, \
    potential_vf_residual
from spencerkit.elliptic import (
    apply_pointwise,
    assemble_operator,
    contraction_identity_residual,
    d_oneform,
    ellipticity_certificate,
    laplacian_stencil,
    potential_oneform,
    solve_dirichlet,
)
from spencerkit.fields import ComplexField, MatrixField, Patch, ScalarField
from spencerkit.fixtures import (
    flat_hypercomplex,
    pullback_structure,
    standard_structure,
    structure_from_cot,
    type1_chart_functions,
    type1_structure,
)
from spencerkit.holomorphy import reduced_system, reduced_system_residual, \
    reduction_equivalence_check
from spencerkit.hypercomplex import QuaternionFunction, j_hyperholo_residual, \
    k_hyperholo_residual
from spencerkit.spencer import SpencerChart, superposition_check, verify_chart
from spencerkit.structures import (
    PQPair,
    extract_pq,
    normalize_at_origin,
    quaternionic_standard,
    reconstruct_from_pq,
    twistor_structure,
    validate_acs,
)

from conftest import random_poly_text
from test_structures import random_pq


def report(criterion: int, message: str):
    print(f"[acceptance] criterion {criterion:2d}: PASS  {message}")


def normalized_random_pq(rng, patch, scale=0.3):
    """Pair with P vanishing and Q = -E at the grid center node."""
    n = patch.dim_half
    d = patch.dim
    center = tuple(r // 2 for r in patch.resolution)
    shift = [float(ax[i]) for ax, i in zip(patch.axes, center)]

    def vanishing():
        # polynomial with no constant term relative to the center
        k = int(rng.integers(1, d + 1))
        c = float(rng.uniform(-scale, scale))
        return f"({c!r})*(x{k} - ({shift[k - 1]!r}))"

    p_rows = [[vanishing() for _ in range(n)] for _ in range(n)]
    q_rows = [[("-1 + " if i == j else "") + vanishing() for j in range(n)]
              for i in range(n)]
    return PQPair(patch, MatrixField.from_exprs(patch, p_rows),
                  MatrixField.from_exprs(patch, q_rows)), center


def test_criterion_1_generation_rule_section_property():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    count = 0
    worst = 0.0
    for n, cases in ((1, 67), (2, 67), (3, 66)):
        patch = Patch.box(n, -0.5, 0.5, 5)
        for _ in range(cases):
            pq = random_pq(rng, patch, scale=0.3)
            acs = reconstruct_from_pq(pq)
            worst = max(worst, acs.acs_residual)
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 200
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(1, f"200 pairs (n in 1..3), worst residual {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_2_moduli_round_trip():
    rng = np.random.default_rng(102)
    worst_gap = 0.0
    worst_identity = 0.0
    for n in (1, 2):
        patch = Patch.box(n, -0.4, 0.4, 7 if n == 1 else 5)
        for _ in range(25):
            pq, center = normalized_random_pq(rng, patch)
            acs = reconstruct_from_pq(pq)
            bd = normalize_at_origin(acs, center)
            assert np.array_equal(bd.G, np.eye(patch.dim))
            out = extract_pq(bd)
            gap = max(np.abs(out.P.values - pq.P.values).max(),
                      np.abs(out.Q.values - pq.Q.values).max())
            worst_gap = max(worst_gap, gap)
            worst_identity = max(worst_identity,
                                 max(bd.identity_residuals().values()))
    assert worst_gap <= 1e-10
    assert worst_identity <= 1e-10
    report(2, f"50 normalized pairs, round-trip gap {worst_gap:.2e}, "
              f"block identities {worst_identity:.2e}")


def test_criterion_3_block_reduction_proposition():
    rng = np.random.default_rng(103)
    worst_identity = 0.0
    for k in range(100):
        n = 1 if k % 2 == 0 else 2
        patch = Patch.box(n, -0.4, 0.4, 7 if n == 1 else 5)
        pq, center = normalized_random_pq(rng, patch)
        acs = reconstruct_from_pq(pq)
        bd = normalize_at_origin(acs, center)
        f = ComplexField.from_exprs(patch, random_poly_text(rng, patch.dim),
                                    random_poly_text(rng, patch.dim))
        rep = reduction_equivalence_check(bd, reduced_system(bd, f))
        worst_identity = max(worst_identity, rep.identity_residual)
    assert worst_identity <= 1e-10

    # reduced residual ~ 0 forces full residual <= 1e-8: constant fixtures
    # with kernel functions built from the reduced operator
    worst_full = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 3))
        patch = Patch.box(n, -0.5, 0.5, 5)
        p0 = rng.uniform(-0.5, 0.5, size=(n, n))
        q0 = -np.eye(n) + rng.uniform(-0.2, 0.2, size=(n, n))
        pq = PQPair(patch,
                    MatrixField.constant(patch, p0),
                    MatrixField.constant(patch, q0))
        acs = reconstruct_from_pq(pq)
        bd = normalize_at_origin(acs)
        w = np.linalg.solve(bd.C.values[(0,) * patch.dim] - np.eye(n),
                            bd.D.values[(0,) * patch.dim] - 1j * np.eye(n))
        h2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        h = np.concatenate([-w @ h2, h2])
        grad = bd.G @ h
        re = " + ".join(f"({float(grad[q].real)!r})*x{q + 1}"
                        for q in range(patch.dim))
        im = " + ".join(f"({float(grad[q].imag)!r})*x{q + 1}"
                        for q in range(patch.dim))
        f = ComplexField.from_exprs(patch, re, im)
        system = reduced_system(bd, f)
        rep = reduced_system_residual(bd, system)
        assert rep.sup_norm <= 1e-10
        equiv = reduction_equivalence_check(bd, system)
        worst_full = max(worst_full, equiv.full_residual)
    assert worst_full <= 1e-8
    report(3, f"identity residual {worst_identity:.2e} on 100 fixtures; "
              f"kernel functions give full residual {worst_full:.2e}")


def test_criterion_4_standard_reduction():
    for n in (1, 2):
        patch = Patch.box(n, 0.0, 1.0, 9)
        op = assemble_operator(standard_structure(patch))
        d = patch.dim
        assert np.array_equal(op.A.values,
                              np.broadcast_to(2.0 * np.eye(d),
                                              patch.resolution + (d, d)))
        for b in op.B:
            assert np.abs(b.samples).max() == 0.0
        lap = laplacian_stencil(patch)
        assert set(op.stencil) == set(lap)
        for key, coeff in lap.items():
            assert np.array_equal(op.stencil[key], 2.0 * coeff)
    report(4, "A = 2E and B = 0 exactly; stencil is bit-for-bit twice the "
              "discrete Laplacian (2D and 4D)")


def _fixture_structures():
    p2 = Patch.box(1, -1.0, 1.0, 9)
    p4 = Patch.box(2, -1.0, 1.0, 5)
    rng = np.random.default_rng(105)
    fixtures = [
        ("standard-2d", standard_structure(p2)),
        ("standard-4d", standard_structure(p4)),
        ("trace-free", structure_from_cot(
            p2, [["x2", "x2^2 + 1"], ["-1", "-x2"]])),
        ("pullback", pullback_structure(
            Patch.box(1, 0.0, 1.0, 9), ["x1", "x2 + 0.3*x1^2"])),
        ("type1", type1_structure(p4)),
    ]
    h = flat_hypercomplex(p4)
    fixtures.append(("flat-J", h.J))
    fixtures.append(("flat-K", h.K))
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    fixtures.append(("twistor", twistor_structure(h, *v)))
    for k in range(3):
        patch = Patch.box(1, -0.4, 0.4, 9)
        fixtures.append((f"pq-random-{k}", reconstruct_from_pq(
            random_pq(rng, patch))))
    return fixtures


def test_criterion_5_ellipticity_lower_bound():
    worst = np.inf
    for name, acs in _fixture_structures():
        cert = ellipticity_certificate(acs, sample_count=10_000, seed=7)
        assert cert.passes, name
        assert cert.min_quadratic_form >= 1.0 - 1e-10, name
        worst = min(worst, cert.min_quadratic_form)
    report(5, f"10^4 samples per fixture; global minimum of the quadratic "
              f"form {worst:.6f} >= 1 - 1e-10")


def test_criterion_6_contraction_identity_and_kernel():
    rng = np.random.default_rng(106)
    worst = 0.0
    patch = Patch.box(1, -0.4, 0.4, 9)
    for _ in range(100):
        acs = reconstruct_from_pq(random_pq(rng, patch))
        u = ScalarField.from_expr(patch, random_poly_text(rng, 2, 3))
        worst = max(worst,
                    contraction_identity_residual(acs, u, "exact").sup_norm)
    assert worst <= 1e-10

    # manufactured pluriharmonic fixtures: exact kernel and FD order 2
    kernel_sup = 0.0
    for phi, u_text in (
        (["x1", "x2 + 0.3*x1^2"], "x1^2 - (x2 + 0.3*x1^2)^2"),
        (["x1 + 0.1*x2^2", "x2"], "exp(x1 + 0.1*x2^2)*cos(x2)"),
    ):
        p = Patch.box(1, 0.0, 1.0, 17)
        acs = pullback_structure(p, phi)
        u = ScalarField.from_expr(p, u_text)
        op = assemble_operator(acs, "exact")
        sl = p.interior()
        kernel_sup = max(kernel_sup,
                         float(np.abs(apply_pointwise(op, u, "exact")[sl]).max()))
    assert kernel_sup <= 1e-10

    fd_errs = []
    for res in (17, 33):
        p = Patch.box(1, 0.0, 1.0, res)
        acs_exact = pullback_structure(p, ["x1", "x2 + 0.3*x1^2"])
        acs = validate_acs(MatrixField.from_values(p, acs_exact.cot_values()),
                           tolerance=1e-10)
        u = ScalarField.from_samples(
            p, ScalarField.from_expr(p, "exp(x1)*cos(x2 + 0.3*x1^2)").samples)
        op = assemble_operator(acs, "fd")
        sl = (slice(2, -2), slice(2, -2))
        fd_errs.append(float(np.abs(apply_pointwise(op, u, "fd")[sl]).max()))
    order = float(np.log2(fd_errs[0] / fd_errs[1]))
    assert abs(order - 2.0) <= 0.5
    report(6, f"contraction gap {worst:.2e} on 100 fixtures; pluriharmonic "
              f"kernel {kernel_sup:.2e} exact, FD order {order:.2f}")


def test_criterion_7_dirichlet_solver():
    start = time.perf_counter()

    def solve_errors(boundary_text):
        errors = []
        for res in (17, 33, 65):
            p = Patch.box(1, 0.0, 1.0, res)
            op = assemble_operator(standard_structure(p))
            bc = ScalarField.from_expr(p, boundary_text)
            sol, stats = solve_dirichlet(op, bc)
            assert stats.converged
            ref = bc.samples
            errors.append(np.abs(sol.samples - ref)[p.interior()].max())
        return errors

    # the stated harmonic boundary Re(z^3): the five-point scheme is nodally
    # exact on cubics, so the discrete solution matches the oracle to
    # roundoff at every grid (a stronger statement than O(h^2) decay)
    cubic_errors = solve_errors("x1^3 - 3*x1*x2^2")
    assert max(cubic_errors) <= 1e-10

    # second-order convergence, observed on a harmonic with nonvanishing
    # fourth derivatives (the cubic has zero truncation error by design)
    exp_errors = solve_errors("exp(x1)*cos(x2)")
    ratios = [a / b for a, b in zip(exp_errors, exp_errors[1:])]
    for ratio in ratios:
        assert 3.0 <= ratio <= 5.0

    # discrete maximum principle on a monotone-regime fixture
    p = Patch.box(1, -1.0, 1.0, 17)
    acs = structure_from_cot(p, [["x2", "x2^2 + 1"], ["-1", "-x2"]])
    op = assemble_operator(acs)
    assert op.mesh_peclet() <= 1.0
    bc = ScalarField.from_expr(p, "x1 + 0.5*x2^2")
    sol, stats = solve_dirichlet(op, bc)
    mask = np.ones(p.resolution, dtype=bool)
    mask[p.interior()] = False
    assert sol.samples[p.interior()].max() <= bc.samples[mask].max() + 10e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"cubic boundary solved to {max(cubic_errors):.2e}; "
              f"transcendental ratios {ratios[0]:.2f}, {ratios[1]:.2f} in "
              f"[3, 5]; maximum principle holds; {elapsed:.1f}s")


def test_criterion_8_quaternionic_algebra():
    s, t = quaternionic_standard()
    assert s.tolist() == [[0, 1, 0, 0], [-1, 0, 0, 0],
                          [0, 0, 0, -1], [0, 0, 1, 0]]
    assert t.tolist() == [[0, 0, 1, 0], [0, 0, 0, 1],
                          [-1, 0, 0, 0], [0, -1, 0, 0]]
    eye = np.eye(4)
    st = s @ t
    assert np.array_equal(s @ s, -eye)
    assert np.array_equal(t @ t, -eye)
    assert np.array_equal(st @ st, -eye)
    assert np.array_equal(st + t @ s, np.zeros((4, 4)))

    patch = Patch.box(2, -1.0, 1.0, 5)
    h = flat_hypercomplex(patch)
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        tw = twistor_structure(h, *(float(x) for x in v))
        worst = max(worst, tw.acs_residual)
    assert worst <= 1e-12
    report(8, f"printed matrices verified exactly; 100 twistor points with "
              f"worst residual {worst:.2e}")


def test_criterion_9_hyperholomorphy():
    patch = Patch.box(2, -1.0, 1.0, 5)
    h = flat_hypercomplex(patch)
    rng = np.random.default_rng(109)
    worst = 0.0
    maps = [QuaternionFunction.identity(patch)]
    for _ in range(20):
        a = tuple(float(v) for v in rng.normal(size=4))
        b = tuple(float(v) for v in rng.normal(size=4))
        maps.append(QuaternionFunction.affine(patch, a, b))
    for F in maps:
        worst = max(worst, j_hyperholo_residual(h, F).sup_norm,
                    k_hyperholo_residual(h, F).sup_norm)
    assert worst <= 1e-10

    conj = QuaternionFunction.from_exprs(patch, "x1", "-x2", "-x3", "-x4")
    square = QuaternionFunction.from_exprs(
        patch, "x1^2 - x2^2 - x3^2 - x4^2", "2*x1*x2", "2*x1*x3", "2*x1*x4")
    rejected = []
    for F in (conj, square):
        rejected.append(max(j_hyperholo_residual(h, F).sup_norm,
                            k_hyperholo_residual(h, F).sup_norm))
        assert rejected[-1] > 0.1
    report(9, f"identity and 20 affine maps within {worst:.2e}; conjugation "
              f"and squaring rejected at {min(rejected):.2f}")


def test_criterion_10_chart_verification_and_laws():
    patch = Patch.box(2, -1.0, 1.0, 7)
    acs = type1_structure(patch)
    holo, comp = type1_chart_functions(patch)
    chart = SpencerChart(1, tuple(holo), tuple(comp))
    rep = verify_chart(acs, chart)
    assert rep.passes
    assert max(rep.block_residuals.values()) <= 1e-8

    overclaim = SpencerChart(2, (holo[0], comp[0]), ())
    bad = verify_chart(acs, overclaim)
    assert not bad.passes
    assert max(bad.holo_residuals) > 0.1

    zsq = holo[0] * holo[0]
    sup = superposition_check(acs, chart, zsq)
    assert sup.sup_norm <= 1e-8

    # bracket laws on 50 random polynomial eigenfield pairs
    p2 = Patch.box(1, -1.0, 1.0, 9)
    std = standard_structure(p2)
    base10 = VectorFieldC.from_exprs(p2, [("0.5", "0"), ("0", "-0.5")])
    base01 = VectorFieldC.from_exprs(p2, [("0.5", "0"), ("0", "0.5")])
    rng = np.random.default_rng(110)
    cases = ("holo_holo", "antiholo_antiholo", "holo_antiholo",
             "antiholo_holo")
    u = ScalarField.from_expr(p2, "x1^3*x2 - x2^2 + x1")
    worst = 0.0
    for k in range(50):
        case = cases[k % 4]

        def eigenfield(sign):
            g = ComplexField.from_exprs(p2, random_poly_text(rng, 2),
                                        random_poly_text(rng, 2))
            base = base10 if sign > 0 else base01
            return VectorFieldC(p2, tuple(g * c for c in base.components))

        sx = +1 if case.startswith("holo") else -1
        sy = +1 if case.endswith("_holo") else -1
        x = eigenfield(sx)
        y = eigenfield(sy)
        law = bracket_law_check(std, x, y, u, case)
        worst = max(worst, law.law_residual)
    assert worst <= 1e-10
    report(10, f"type-1 chart verified (m=1), overclaim rejected, "
               f"superposition holds; 50 law checks within {worst:.2e}")


def test_criterion_11_cross_module_consistency():
    rng = np.random.default_rng(111)
    worst = 0.0
    for name, acs in _fixture_structures():
        patch = acs.patch
        if not acs.is_exact:
            continue
        u = ScalarField.from_expr(patch, random_poly_text(rng, patch.dim, 2))
        r = d_oneform(potential_oneform(acs, u, "exact"), "exact")
        for s in range(patch.dim):
            for q in range(s + 1, min(s + 3, patch.dim)):
                x = VectorFieldC.coordinate(patch, s + 1)
                y = VectorFieldC.coordinate(patch, q + 1)
                res = potential_vf_residual(acs, x, y, u, "exact")
                gap = np.abs(res.values - r[..., s, q])
                worst = max(worst, float(gap[patch.interior()].max()))
    assert worst <= 1e-10
    report(11, f"vector-field residual equals the exterior-derivative "
               f"components on all fixtures, gap {worst:.2e}")
