import numpy as np
import pytest
import sympy as sp

from spencerkit.elliptic import (
    ConvergenceError,
    DirichletProblem,
    apply_operator,
    apply_pointwise,
    assemble_operator,
    contraction_identity_residual,
    ellipticity_certificate,
    laplacian_stencil,
    potential_closedness_residual,
    solve_dirichlet,
    theorem_check,
)
from spencerkit.fields import MatrixField, Patch, ScalarField
from spencerkit.fixtures import pullback_structure, standard_structure, \
    structure_from_cot
from spencerkit.structures import reconstruct_from_pq

from test_structures import random_pq


@pytest.fixture
def fixture_acs(patch2d_sym):
    return structure_from_cot(patch2d_sym,
                              [["x2", "x2^2 + 1"], ["-1", "-x2"]],
                              tolerance=1e-12)


class TestAssemble:
    def test_standard_reduces_to_twice_identity(self, patch2d):
        op = assemble_operator(standard_structure(patch2d))
        assert np.abs(op.A.values - 2 * np.eye(2)).max() == 0.0
        for b in op.B:
            assert np.abs(b.samples).max() == 0.0
        assert op.mode == "exact"

    def test_standard_stencil_is_twice_laplacian_bitwise(self, patch2d):
        op = assemble_operator(standard_structure(patch2d))
        lap = laplacian_stencil(patch2d)
        assert set(op.stencil) == set(lap)
        for key, coeff in lap.items():
            assert np.array_equal(op.stencil[key], 2.0 * coeff)

    def test_constant_structure_drift_free(self, patch4d):
        op = assemble_operator(standard_structure(patch4d))
        for b in op.B:
            assert np.abs(b.samples).max() == 0.0

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    def test_coefficients_match_entrywise_sums(self, mode):
        # A_sp = sum_q C[q,s] C[q,p] + E and
        # B_p = sum_sq C[q,s] (d_s C[q,p] - d_q C[s,p]), summed node by node
        rng = np.random.default_rng(11)
        patch = Patch.box(2, -0.4, 0.4, 5)
        acs = reconstruct_from_pq(random_pq(rng, patch))
        op = assemble_operator(acs, mode)
        c = acs.cot_values()
        dc = [acs.j_cot.diff(s, mode).values for s in range(1, 5)]
        for s in range(4):
            for p in range(4):
                a_ref = sum(c[..., q, s] * c[..., q, p] for q in range(4)) + (s == p)
                assert np.abs(op.A.values[..., s, p] - a_ref).max() <= 1e-13
        for p in range(4):
            b_ref = sum(c[..., q, s] * (dc[s][..., q, p] - dc[q][..., s, p])
                        for s in range(4) for q in range(4))
            scale = max(1.0, np.abs(b_ref).max())
            assert np.abs(op.B[p].samples - b_ref).max() <= 1e-13 * scale

    def test_fixture_against_symbolic_expansion(self, fixture_acs):
        # independent oracle: expand A = C^T C + E and the drift in sympy
        patch = fixture_acs.patch
        x1, x2 = sp.symbols("x1 x2", real=True)
        J = sp.Matrix([[x2, x2**2 + 1], [-1, -x2]])
        A_ref = J.T * J + sp.eye(2)
        xs = [x1, x2]
        B_ref = []
        for p in range(2):
            B_ref.append(sp.expand(sum(
                J[q, s] * (sp.diff(J[q, p], xs[s]) - sp.diff(J[s, p], xs[q]))
                for s in range(2) for q in range(2))))
        op = assemble_operator(fixture_acs)
        mesh = patch.mesh
        for i in range(2):
            for j in range(2):
                ref = sp.lambdify((x1, x2), A_ref[i, j], "numpy")(*mesh)
                assert np.abs(op.A.values[..., i, j]
                              - np.broadcast_to(ref, patch.resolution)).max() <= 1e-12
        for p in range(2):
            ref = sp.lambdify((x1, x2), B_ref[p], "numpy")(*mesh)
            assert np.abs(op.B[p].samples
                          - np.broadcast_to(ref, patch.resolution)).max() <= 1e-12

    def test_symmetry_and_lower_bound(self, fixture_acs):
        op = assemble_operator(fixture_acs)
        av = op.A.values
        assert np.abs(av - np.swapaxes(av, -1, -2)).max() <= 1e-12
        eigs = np.linalg.eigvalsh(av - np.eye(2))
        assert eigs.min() >= -1e-12


class TestCertificate:
    def test_standard_quadratic_form_is_two(self, patch2d):
        op = assemble_operator(standard_structure(patch2d))
        cert = ellipticity_certificate(op, 2000, seed=3)
        assert cert.min_quadratic_form == pytest.approx(2.0, abs=1e-12)
        assert cert.passes

    def test_lower_bound_on_fixtures(self, fixture_acs):
        op = assemble_operator(fixture_acs)
        cert = ellipticity_certificate(op, 5000, seed=1)
        assert cert.min_quadratic_form >= 1.0 - 1e-10
        assert cert.identity_gap <= 1e-10

    def test_fixture_value_at_unit_row(self, fixture_acs):
        # at x2 = 1 the cotangent matrix is [[1, 2], [-1, -1]]; for xi = e1
        # the quadratic form is |C xi|^2 + 1 = (1 + 1) + 1 = 3
        patch = fixture_acs.patch
        op = assemble_operator(fixture_acs)
        idx = int(np.argmin(np.abs(patch.axes[1] - 1.0)))
        a = op.A.values[0, idx]
        xi = np.array([1.0, 0.0])
        assert xi @ a @ xi == pytest.approx(3.0, abs=1e-12)

    def test_deterministic_under_seed(self, fixture_acs):
        op = assemble_operator(fixture_acs)
        a = ellipticity_certificate(op, 500, seed=9)
        b = ellipticity_certificate(op, 500, seed=9)
        assert a.min_quadratic_form == b.min_quadratic_form
        assert a.worst_node == b.worst_node


class TestApply:
    def test_harmonic_quadratic_zero(self, patch2d):
        op = assemble_operator(standard_structure(patch2d))
        u = ScalarField.from_expr(patch2d, "x1^2 - x2^2")
        out = apply_operator(op, u).samples
        assert np.nanmax(np.abs(out[patch2d.interior()])) == 0.0

    def test_twice_laplacian_value(self, patch2d):
        op = assemble_operator(standard_structure(patch2d))
        out = apply_operator(op, ScalarField.from_expr(patch2d, "x1^2")).samples
        assert np.abs(out[patch2d.interior()] - 4.0).max() <= 1e-11

    def test_first_order_part_only(self, fixture_acs):
        op = assemble_operator(fixture_acs)
        out = apply_operator(op, ScalarField.from_expr(fixture_acs.patch, "x1"))
        sl = fixture_acs.patch.interior()
        assert np.abs(out.samples[sl] - op.B[0].samples[sl]).max() <= 1e-11

    def test_linearity_machine_precision(self, fixture_acs):
        patch = fixture_acs.patch
        op = assemble_operator(fixture_acs)
        u = ScalarField.from_expr(patch, "x1^2*x2").sampled()
        v = ScalarField.from_expr(patch, "sin(x1) + x2^3").sampled()
        alpha, beta = 1.375, -2.25  # binary-exact scalars
        combo = ScalarField.from_samples(patch,
                                         alpha * u.samples + beta * v.samples)
        lhs = apply_operator(op, combo).samples
        rhs = alpha * apply_operator(op, u).samples \
            + beta * apply_operator(op, v).samples
        sl = patch.interior()
        scale = np.abs(rhs[sl]).max()
        assert np.abs(lhs - rhs)[sl].max() <= 1e-13 * max(scale, 1.0)


class TestClosedness:
    def test_harmonic_on_standard(self, patch2d):
        std = standard_structure(patch2d)
        u = ScalarField.from_expr(patch2d, "x1^2 - x2^2")
        assert potential_closedness_residual(std, u).sup_norm == 0.0

    def test_non_pluriharmonic_value(self, patch2d):
        std = standard_structure(patch2d)
        u = ScalarField.from_expr(patch2d, "x1^2")
        rep = potential_closedness_residual(std, u)
        assert rep.sup_norm == pytest.approx(2.0, abs=1e-14)

    def test_pullback_oracle(self):
        phi = ["x1", "x2 + 0.3*x1^2"]
        exact_errs = []
        fd_errs = []
        for res in (17, 33):
            p = Patch.box(1, 0.0, 1.0, res)
            acs = pullback_structure(p, phi)
            u = ScalarField.from_expr(p, "x1^2 - (x2 + 0.3*x1^2)^2")
            exact_errs.append(potential_closedness_residual(acs, u, "exact").sup_norm)
            fd = potential_closedness_residual(
                acs, ScalarField.from_samples(p, u.samples), "fd")
            fd_errs.append(fd.sup_norm)
        assert max(exact_errs) <= 1e-10
        assert 3.0 <= fd_errs[0] / fd_errs[1] <= 5.0


class TestContraction:
    def test_constant_structure_quadratic(self, patch2d):
        std = standard_structure(patch2d)
        u = ScalarField.from_expr(patch2d, "x1^2 + 3*x1*x2")
        assert contraction_identity_residual(std, u).sup_norm <= 1e-13

    def test_hand_value_for_twice_laplacian(self, patch2d):
        # L(x1^2) = 4 and the contraction sum gives 1*2 + (-1)*(-2) = 4
        std = standard_structure(patch2d)
        u = ScalarField.from_expr(patch2d, "x1^2")
        op = assemble_operator(std)
        lap = apply_pointwise(op, u)
        sl = patch2d.interior()
        assert np.abs(lap[sl] - 4.0).max() <= 1e-12
        assert contraction_identity_residual(std, u).sup_norm <= 1e-12

    def test_fixture_exact(self, fixture_acs):
        u = ScalarField.from_expr(fixture_acs.patch, "x1*x2")
        rep = contraction_identity_residual(fixture_acs, u)
        assert rep.sup_norm <= 1e-10
        assert rep.mode == "exact"

    def test_random_structures_and_functions(self):
        rng = np.random.default_rng(29)
        patch = Patch.box(1, -0.4, 0.4, 9)
        for _ in range(10):
            acs = reconstruct_from_pq(random_pq(rng, patch))
            u = ScalarField.from_expr(
                patch, f"x1^3 + ({rng.uniform(-1, 1)!r})*x1*x2^2 + x2")
            assert contraction_identity_residual(acs, u).sup_norm <= 1e-10

    def test_fd_mode_second_order(self, fixture_acs):
        errs = []
        for res in (17, 33):
            p = Patch.box(1, -1.0, 1.0, res)
            acs = structure_from_cot(p, [["x2", "x2^2 + 1"], ["-1", "-x2"]])
            u = ScalarField.from_samples(
                p, ScalarField.from_expr(p, "sin(x1)*x2^2").samples)
            sampled = MatrixField.from_values(p, acs.cot_values())
            from spencerkit.structures import validate_acs
            acs_fd = validate_acs(sampled, tolerance=1e-10)
            errs.append(contraction_identity_residual(acs_fd, u, "fd").sup_norm)
        assert 3.0 <= errs[0] / errs[1] <= 5.5


class TestTheorem:
    def test_pullback_pluriharmonic(self):
        p = Patch.box(1, 0.0, 1.0, 17)
        acs = pullback_structure(p, ["x1", "x2 + 0.3*x1^2"])
        u = ScalarField.from_expr(p, "x1^2 - (x2 + 0.3*x1^2)^2")
        rep = theorem_check(acs, u)
        assert rep.closedness.sup_norm <= 1e-10
        assert rep.laplacian_sup <= 1e-10
        assert rep.passes

    def test_classical_harmonic_fd(self):
        # log harmonic with the singularity outside the patch
        p = Patch.box(1, 0.0, 1.0, 33)
        std = standard_structure(p)
        u = ScalarField.from_samples(
            p, np.log((p.mesh[0] - 2.0) ** 2 + (p.mesh[1] - 2.0) ** 2))
        rep = theorem_check(std, u, "fd")
        h = max(p.spacing)
        assert rep.closedness.sup_norm <= 10 * h * h
        assert rep.laplacian_sup <= 10 * h * h
        assert rep.passes

    def test_bound_for_non_pluriharmonic(self, patch2d):
        std = standard_structure(patch2d)
        u = ScalarField.from_expr(patch2d, "x1^2")
        rep = theorem_check(std, u)
        assert rep.closedness.sup_norm == pytest.approx(2.0, abs=1e-13)
        assert rep.laplacian_sup == pytest.approx(4.0, abs=1e-12)
        # 2n(2n-1) * sup|J| * closedness = 2 * 1 * 2 = 4 covers it exactly
        assert rep.passes

    def test_random_fixture_bound(self):
        rng = np.random.default_rng(41)
        patch = Patch.box(1, -0.4, 0.4, 9)
        for _ in range(5):
            acs = reconstruct_from_pq(random_pq(rng, patch))
            u = ScalarField.from_expr(patch, "x1^2*x2 + x2^2")
            assert theorem_check(acs, u).passes


class TestSolve:
    def _solve(self, acs, boundary_text, res=None):
        patch = acs.patch
        op = assemble_operator(acs)
        bc = ScalarField.from_expr(patch, boundary_text)
        return solve_dirichlet(DirichletProblem(op, bc))

    def test_cubic_harmonic_solved_to_roundoff(self):
        # the five-point scheme is nodally exact on harmonic cubics, so the
        # discrete solution coincides with the analytic one to solver noise
        for res in (17, 33):
            p = Patch.box(1, 0.0, 1.0, res)
            std = standard_structure(p)
            sol, stats = self._solve(std, "x1^3 - 3*x1*x2^2")
            ref = ScalarField.from_expr(p, "x1^3 - 3*x1*x2^2").samples
            assert np.abs(sol.samples - ref).max() <= 1e-10
            assert stats.converged and stats.method == "direct"

    def test_constant_boundary_constant_solution(self):
        # no zeroth-order term, so constants are in the discrete kernel
        p = Patch.box(1, -1.0, 1.0, 17)
        acs = structure_from_cot(p, [["x2", "x2^2 + 1"], ["-1", "-x2"]])
        op = assemble_operator(acs)
        bc = ScalarField.const(p, 3.25)
        sol, stats = solve_dirichlet(DirichletProblem(op, bc))
        assert np.abs(sol.samples - 3.25).max() <= 1e-9
        assert stats.converged

    def test_transcendental_harmonic_second_order(self):
        errors = []
        for res in (17, 33, 65):
            p = Patch.box(1, 0.0, 1.0, res)
            std = standard_structure(p)
            sol, _ = self._solve(std, "exp(x1)*cos(x2)")
            ref = ScalarField.from_expr(p, "exp(x1)*cos(x2)").samples
            errors.append(np.abs(sol.samples - ref)[p.interior()].max())
        for a, b in zip(errors, errors[1:]):
            assert 3.0 <= a / b <= 5.0

    def test_pullback_boundary_matches_composition(self):
        errors = []
        for res in (17, 33):
            p = Patch.box(1, 0.0, 1.0, res)
            acs = pullback_structure(p, ["x1", "x2 + 0.3*x1^2"])
            # composed harmonic with nonzero fourth derivatives
            u_text = "exp(x1)*cos(x2 + 0.3*x1^2)"
            sol, stats = self._solve(acs, u_text)
            ref = ScalarField.from_expr(p, u_text).samples
            errors.append(np.abs(sol.samples - ref)[p.interior()].max())
            assert stats.max_principle_guaranteed
        assert 3.0 <= errors[0] / errors[1] <= 5.0

    def test_discrete_maximum_principle(self):
        patch = Patch.box(1, -1.0, 1.0, 17)
        acs = structure_from_cot(patch, [["x2", "x2^2 + 1"], ["-1", "-x2"]])
        op = assemble_operator(acs)
        assert op.mesh_peclet() <= 1.0  # monotone regime for this grid
        bc = ScalarField.from_expr(patch, "x1 + 0.5*x2^2")
        sol, stats = solve_dirichlet(DirichletProblem(op, bc))
        assert stats.max_principle_guaranteed
        mask = np.ones(patch.resolution, dtype=bool)
        mask[patch.interior()] = False
        boundary_max = bc.samples[mask].max()
        interior_max = sol.samples[patch.interior()].max()
        assert interior_max <= boundary_max + 10 * 1e-8

    def test_iterative_path_agrees_with_direct(self):
        p = Patch.box(1, 0.0, 1.0, 33)
        std = standard_structure(p)
        op = assemble_operator(std)
        bc = ScalarField.from_expr(p, "exp(x1)*cos(x2)")
        direct, _ = solve_dirichlet(DirichletProblem(op, bc, method="direct"))
        iterative, stats = solve_dirichlet(
            DirichletProblem(op, bc, method="iterative", tolerance=1e-10))
        assert stats.iterations > 0
        assert np.abs(direct.samples - iterative.samples).max() <= 1e-6

    def test_nonconvergence_reports_best_iterate(self):
        p = Patch.box(1, 0.0, 1.0, 33)
        std = standard_structure(p)
        op = assemble_operator(std)
        bc = ScalarField.from_expr(p, "exp(x1)*cos(x2)")
        with pytest.raises(ConvergenceError) as err:
            solve_dirichlet(DirichletProblem(op, bc, method="iterative",
                                             tolerance=1e-14, max_iterations=1))
        assert err.value.best is not None
        assert err.value.stats.converged is False

    def test_peclet_warning_on_coarse_drifty_grid(self):
        # steep structure on a coarse grid: drift overwhelms the spacing
        p = Patch.box(1, -1.0, 1.0, 5)
        acs = structure_from_cot(p, [["4*x2", "1"],
                                     ["-(1 + 16*x2^2)", "-4*x2"]],
                                 tolerance=1e-8)
        op = assemble_operator(acs)
        assert op.mesh_peclet() > 1.0
        bc = ScalarField.const(p, 1.0)
        with pytest.warns(RuntimeWarning, match="Peclet"):
            solve_dirichlet(DirichletProblem(op, bc))
