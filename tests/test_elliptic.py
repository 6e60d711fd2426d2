import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

import scipy.sparse as sparse

from spencerkit import elliptic
from spencerkit.elliptic import (
    CertificateReport,
    ConvergenceError,
    EllipticOperator,
    apply_pointwise,
    assemble_operator,
    contraction_identity_residual,
    ellipticity_certificate,
    laplacian_stencil,
    potential_closedness_residual,
    solve_dirichlet,
    theorem_check,
)
from spencerkit.elliptic import _assemble_system
from spencerkit.fields import DEFAULT_POINT_BUDGET, MatrixField, Patch, ScalarField
from spencerkit.fixtures import pullback_structure, standard_structure, \
    structure_from_cot, type1_structure
from spencerkit.report import jsonable
from spencerkit.scene import load_scene
from spencerkit.structures import reconstruct_from_pq, validate_acs

from conftest import fresh_python, reference_partial
from test_structures import random_pq

SCENES = Path(__file__).resolve().parent.parent / "scenes"


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
        dc = [reference_partial(acs.j_cot, s, mode).values for s in range(1, 5)]
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


class TestPrincipalPart:
    @staticmethod
    def _loop(c):
        # the plain per-node sum A = sum_q C[q, :]^T C[q, :] from zeros, + E
        d = c.shape[-1]
        a = np.zeros(c.shape)
        for q in range(d):
            a += c[..., q, :, None] * c[..., q, None, :]
        a[..., range(d), range(d)] += 1.0
        return a

    @pytest.mark.parametrize("shape", [(7, 9, 2, 2), (300, 4, 4), (3, 4, 5, 6, 6, 6)])
    def test_bits_of_the_per_node_sum(self, shape):
        c = np.random.default_rng(8).normal(size=shape)
        c[..., 0, :] = -0.0  # a sum of signed zeros reads +0
        for view in (c, np.swapaxes(c, -1, -2)):
            a = elliptic._principal_part(view)
            assert a.shape == view.shape and a.flags.c_contiguous
            assert a.tobytes() == self._loop(view).tobytes()


class TestCertificate:
    def test_standard_quadratic_form_is_two(self, patch2d):
        cert = ellipticity_certificate(standard_structure(patch2d), 2000, seed=3)
        assert cert.min_quadratic_form == pytest.approx(2.0, abs=1e-12)
        assert cert.passes

    def test_lower_bound_on_fixtures(self, fixture_acs):
        cert = ellipticity_certificate(fixture_acs, 5000, seed=1)
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
        a = ellipticity_certificate(fixture_acs, 500, seed=9)
        b = ellipticity_certificate(fixture_acs, 500, seed=9)
        assert a.min_quadratic_form == b.min_quadratic_form
        assert a.worst_node == b.worst_node

    def test_refuses_an_invalid_structure(self, patch2d):
        acs = validate_acs(MatrixField.constant(patch2d, np.eye(2)), strict=False)
        with pytest.raises(ValueError, match="invalid structure"):
            ellipticity_certificate(acs)

    @pytest.mark.parametrize("case", ["trace-free", "pullback-tan", "type1", "pq"])
    def test_matches_the_operator_at_the_same_nodes(self, case, fixture_acs,
                                                   patch4d):
        acs = {
            "trace-free": lambda: fixture_acs,
            "pullback-tan": lambda: pullback_structure(
                Patch.box(1, 0.0, 1.0, 9), ["x1", "x2 + 0.3*x1^2"]),
            "type1": lambda: type1_structure(patch4d),
            "pq": lambda: reconstruct_from_pq(random_pq(
                np.random.default_rng(4), Patch.box(1, -0.4, 0.4, 9))),
        }[case]()
        # the certificate as read from the full-grid operator: same draws
        av = assemble_operator(acs).A.values.reshape(-1, acs.dim, acs.dim)
        rng = np.random.default_rng(11)
        nodes = rng.integers(0, av.shape[0], size=3000)
        xi = rng.normal(size=(3000, acs.dim))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        quad = np.einsum("ni,nij,nj->n", xi, av[nodes], xi)
        k = int(np.argmin(quad))
        cert = ellipticity_certificate(acs, 3000, seed=11)
        assert cert.min_quadratic_form == quad[k]
        assert cert.worst_node == tuple(
            int(i) for i in np.unravel_index(nodes[k], acs.patch.resolution))
        assert cert.passes and quad[k] >= 1.0 - 1e-10

    @pytest.mark.parametrize("case, samples", [
        ("pullback-tan", 3000), ("type1", 3000), ("type1", 2401), ("constant", 3000)])
    def test_a_small_grid_forms_a_once_per_node(self, monkeypatch, patch4d, case,
                                                samples):
        # fewer nodes than samples: A is formed on the grid and gathered,
        # with the report of A formed at the drawn nodes, bit for bit
        acs = {
            "pullback-tan": lambda: pullback_structure(
                Patch.box(1, 0.0, 1.0, 9), ["x1", "x2 + 0.3*x1^2"]),
            "type1": lambda: type1_structure(patch4d),
            "constant": lambda: standard_structure(patch4d),
        }[case]()
        resolution, d = acs.patch.resolution, acs.dim
        principal_part, formed = elliptic._principal_part, []
        monkeypatch.setattr(elliptic, "_principal_part",
                            lambda c: formed.append(c.shape) or principal_part(c))
        cert = ellipticity_certificate(acs, samples, seed=11)
        grid_path = acs.patch.n_points < samples
        assert formed == [(resolution if grid_path else (samples,)) + (d, d)]
        # the sample path, as on a grid of at least ``samples`` nodes
        rng = np.random.default_rng(11)
        nodes = rng.integers(0, acs.patch.n_points, size=samples)
        xi = rng.normal(size=(samples, d))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        c_sel = acs.cot_values()[np.unravel_index(nodes, resolution)]
        quad = np.einsum("ni,nij,nj->n", xi, principal_part(c_sel), xi)
        c_xi = np.einsum("nij,nj->ni", c_sel, xi)
        ident = np.einsum("ni,ni->n", c_xi, c_xi) + np.einsum("ni,ni->n", xi, xi)
        k = int(np.argmin(quad))
        assert repr(jsonable(cert)) == repr(jsonable(CertificateReport(
            min_quadratic_form=quad[k], identity_gap=float(np.abs(quad - ident).max()),
            samples=samples, seed=11, passes=True,
            worst_node=tuple(int(i) for i in np.unravel_index(nodes[k], resolution)))))

    def test_a_constant_structure_is_not_copied_to_the_grid(self):
        # 21^4 = 194,481 nodes, more than the 10,000 samples: C is gathered
        # from its one node, so the peak holds sample-sized arrays only,
        # not a copy of C on the grid (23.7 MiB) nor of one row of it
        acs = standard_structure(Patch.box(2, -1.0, 1.0, 21))
        assert not any(acs.cot_values().strides[:4])
        tracemalloc.start()
        try:
            cert = ellipticity_certificate(acs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.passes and cert.min_quadratic_form == pytest.approx(2.0, abs=1e-12)
        assert peak < acs.patch.n_points * acs.dim * 8

    def test_identity_fails_for_the_transposed_principal_part(self, monkeypatch):
        # C C^T + E differs from C^T C + E where C is not normal, as it is
        # for the fixture_n1 scene; the identity gap is read from C itself
        acs = load_scene(SCENES / "fixture_n1.json").structure()
        assert ellipticity_certificate(acs).passes

        principal_part = elliptic._principal_part

        def transposed(c):
            return principal_part(np.swapaxes(c, -1, -2))

        monkeypatch.setattr(elliptic, "_principal_part", transposed)
        cert = ellipticity_certificate(acs)
        assert not cert.passes
        assert cert.identity_gap > 1.0


class TestApply:
    def test_harmonic_quadratic_zero(self, patch2d):
        op = assemble_operator(standard_structure(patch2d))
        u = ScalarField.from_expr(patch2d, "x1^2 - x2^2")
        out = elliptic._stencil_sum(op, u.samples)
        assert np.nanmax(np.abs(out)) == 0.0

    def test_twice_laplacian_value(self, patch2d):
        op = assemble_operator(standard_structure(patch2d))
        out = elliptic._stencil_sum(op, ScalarField.from_expr(patch2d, "x1^2").samples)
        assert np.abs(out - 4.0).max() <= 1e-11

    def test_first_order_part_only(self, fixture_acs):
        op = assemble_operator(fixture_acs)
        out = elliptic._stencil_sum(op, ScalarField.from_expr(fixture_acs.patch, "x1").samples)
        sl = fixture_acs.patch.interior()
        assert np.abs(out - op.B[0].samples[sl]).max() <= 1e-11

    def test_pointwise_field_on_another_patch_is_an_error(self):
        op = assemble_operator(standard_structure(Patch.box(1, 0.0, 1.0, 9)))
        u = ScalarField.from_expr(Patch.box(1, -3.0, 3.0, 9), "x1*x2")
        with pytest.raises(ValueError, match="different patches"):
            apply_pointwise(op, u)

    def test_linearity_machine_precision(self, fixture_acs):
        patch = fixture_acs.patch
        op = assemble_operator(fixture_acs)
        u = ScalarField.from_expr(patch, "x1^2*x2").sampled()
        v = ScalarField.from_expr(patch, "sin(x1) + x2^3").sampled()
        alpha, beta = 1.375, -2.25  # binary-exact scalars
        combo = ScalarField.from_samples(patch,
                                         alpha * u.samples + beta * v.samples)
        lhs = elliptic._stencil_sum(op, combo.samples)
        rhs = alpha * elliptic._stencil_sum(op, u.samples) \
            + beta * elliptic._stencil_sum(op, v.samples)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-13 * max(scale, 1.0)


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

    def test_quadratic_reads_a_read_only_exact_hessian(self, patch2d):
        # the exact Hessian stack of a quadratic is one node broadcast to the
        # grid, a read-only view; apply_pointwise writes into a copy of it
        u = ScalarField.from_expr(patch2d, "x1^2 + 3*x1*x2 - 2*x2^2")
        grad = MatrixField(patch2d, [[g] for g in u.diff("exact")])
        assert not grad.derivatives("exact").flags.writeable
        zero = ScalarField.from_expr(patch2d, "0")
        a = MatrixField.constant(patch2d, [[1.0, 0.5], [0.25, 2.0]])
        op = EllipticOperator(patch2d, a, (zero, zero), "exact")
        # 1*2 + 0.5*3 + 0.25*3 + 2*(-4), every term exact
        assert np.array_equal(apply_pointwise(op, u, "exact"),
                              np.full(patch2d.resolution, -3.75))

    def test_fd_gradient_is_the_one_derivative_stack(self, fixture_acs, monkeypatch):
        # in fd mode grad u is u's derivative stack as it stands, not a copy
        # of it stacked from the d fields of u.diff: same memory, same bits
        patch = fixture_acs.patch
        op = assemble_operator(fixture_acs, "fd")
        u = ScalarField.from_expr(patch, "sin(x1)*x2^2 + x1*x2").sampled()
        built = []  # (field, stack) of each derivatives call
        derivatives = MatrixField.derivatives

        def recorded(self, mode="auto", tile=None):
            built.append((self, derivatives(self, mode, tile)))
            return built[-1][1]

        monkeypatch.setattr(MatrixField, "derivatives", recorded)
        apply_pointwise(op, u, "fd")
        (first, stack), (grad, _) = built  # grad u, then its Hessian
        assert first is u and np.shares_memory(grad.values, stack)
        assert grad.values.tobytes() == \
            MatrixField(patch, [[g] for g in u.diff("fd")]).values.tobytes()

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


def _assemble_by_subtraction(op, boundary):
    """The Dirichlet system built node by node: each stencil neighbour is an
    unknown or a boundary node, whose term ``np.subtract.at`` moves to the
    right-hand side."""
    patch = op.patch
    res = patch.resolution
    idx = np.arange(patch.n_points).reshape(res)
    inner = patch.interior()
    interior_ids = idx[inner].ravel()
    unknown_of = np.full(patch.n_points, -1, dtype=np.int64)
    unknown_of[interior_ids] = np.arange(interior_ids.size)
    rows, cols, data = [], [], []
    rhs = np.zeros(interior_ids.size)
    row_ids = np.arange(interior_ids.size)
    bflat = boundary.ravel()
    for off, coeff in op.stencil.items():
        neigh = idx[tuple(slice(1 + o, r - 1 + o) for o, r in zip(off, res))].ravel()
        cvals = coeff[inner].ravel()
        target = unknown_of[neigh]
        is_unknown = target >= 0
        rows.append(row_ids[is_unknown])
        cols.append(target[is_unknown])
        data.append(cvals[is_unknown])
        outside = ~is_unknown
        np.subtract.at(rhs, row_ids[outside], cvals[outside] * bflat[neigh[outside]])
    matrix = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(interior_ids.size, interior_ids.size))
    return matrix, rhs


def _same_bits(a, b):
    """Equal dtype, shape and bytes: zeros must agree in sign too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestAssembleSystem:
    @pytest.mark.parametrize("case", ["2d-standard", "2d-fixture", "4d-exact", "4d-fd"])
    def test_right_hand_side_is_the_stencil_on_the_boundary(self, case):
        if case.startswith("2d"):
            p = Patch.box(1, -1.0, 1.0, 11)
            acs = standard_structure(p) if case == "2d-standard" else structure_from_cot(
                p, [["x2", "x2^2 + 1"], ["-1", "-x2"]], tolerance=1e-12)
            # exact zeros of both signs on the boundary
            bc = "x1*x2 - x2"
        else:
            p = Patch.box(2, -1.0, 1.0, 7)
            acs = type1_structure(p)
            bc = "x1*x3 - x2*x4 + sin(x1)"
        op = assemble_operator(acs, "fd" if case == "4d-fd" else "auto")
        boundary = ScalarField.from_expr(p, bc).samples
        matrix, rhs = _assemble_system(op, boundary)
        ref_matrix, ref_rhs = _assemble_by_subtraction(op, boundary)
        assert _same_bits(rhs, ref_rhs)
        for part in ("data", "indices", "indptr"):
            assert _same_bits(getattr(matrix, part), getattr(ref_matrix, part))
        # the rows with no boundary neighbour hold +0.0
        assert (rhs == 0.0).any() and not np.signbit(rhs[rhs == 0.0]).any()


class TestSolve:
    def _solve(self, acs, boundary_text, res=None):
        patch = acs.patch
        op = assemble_operator(acs)
        bc = ScalarField.from_expr(patch, boundary_text)
        return solve_dirichlet(op, bc)

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
        sol, stats = solve_dirichlet(op, bc)
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
        sol, stats = solve_dirichlet(op, bc)
        assert stats.max_principle_guaranteed
        mask = np.ones(patch.resolution, dtype=bool)
        mask[patch.interior()] = False
        boundary_max = bc.samples[mask].max()
        interior_max = sol.samples[patch.interior()].max()
        assert interior_max <= boundary_max + 10 * 1e-8

    @staticmethod
    def _iterative(monkeypatch, cap=None):
        """Send every later solve to GMRES, capped at ``cap`` iterations."""
        monkeypatch.setattr(elliptic, "DIRECT_SOLVER_LIMIT", 0)
        if cap is not None:
            monkeypatch.setattr(elliptic, "_MAX_ITERATIONS", cap)

    def test_iterative_path_agrees_with_direct(self, monkeypatch):
        p = Patch.box(1, 0.0, 1.0, 33)
        std = standard_structure(p)
        op = assemble_operator(std)
        bc = ScalarField.from_expr(p, "exp(x1)*cos(x2)")
        direct, _ = solve_dirichlet(op, bc)
        self._iterative(monkeypatch)
        iterative, stats = solve_dirichlet(op, bc, tolerance=1e-10)
        assert stats.iterations > 0
        assert np.abs(direct.samples - iterative.samples).max() <= 1e-6

    @staticmethod
    def _fixture_n1(res):
        patch = Patch.box(1, -1.0, 1.0, res)
        return structure_from_cot(patch, [["x2", "x2^2 + 1"], ["-1", "-x2"]])

    def test_multigrid_iterations_flat_in_h(self, monkeypatch):
        # the V-cycle preconditioner makes the GMRES count independent of h
        self._iterative(monkeypatch)
        counts = []
        for res in (65, 129, 257):
            op = assemble_operator(self._fixture_n1(res))
            bc = ScalarField.from_expr(op.patch, "1 + x1 + 0.5*x2 + x1*x2")
            _, stats = solve_dirichlet(op, bc)
            assert stats.converged and stats.method == "iterative"
            counts.append(stats.iterations)
        assert max(counts) <= 20
        assert max(counts) - min(counts) <= 5

    @pytest.mark.parametrize("acs, bc", [
        # mixed-derivative and convection terms
        (lambda: TestSolve._fixture_n1(65), "exp(x1)*cos(x2)"),
        (lambda: type1_structure(Patch.box(2, -1.0, 1.0, 9)), "x1*x3 + x2^2 - x4"),
    ], ids=["fixture_n1-65", "type1-9"])
    def test_iterative_agrees_with_direct_beyond_the_laplacian(self, monkeypatch, acs, bc):
        op = assemble_operator(acs())
        bc = ScalarField.from_expr(op.patch, bc)
        direct, _ = solve_dirichlet(op, bc)
        self._iterative(monkeypatch)
        iterative, stats = solve_dirichlet(op, bc, tolerance=1e-10)
        assert stats.converged and stats.iterations > 0
        assert np.abs(direct.samples - iterative.samples).max() <= 1e-6

    @pytest.mark.parametrize("acs", [
        lambda: TestSolve._fixture_n1(146),
        lambda: type1_structure(Patch.box(2, -1.0, 1.0, 12)),
    ], ids=["2d-146", "4d-12"])
    def test_grid_that_cannot_be_halved_converges(self, monkeypatch, acs):
        # r - 1 is odd: no coarse level, and no LU of the whole fine system
        op = assemble_operator(acs())
        bc = ScalarField.from_expr(op.patch, "1 + x1 + 0.5*x2 + x1*x2")
        self._iterative(monkeypatch)
        sol, stats = solve_dirichlet(op, bc)
        assert stats.converged and stats.iterations > 0
        assert np.isfinite(sol.samples).all()

    def test_nonconvergence_reports_best_iterate(self, monkeypatch):
        p = Patch.box(1, 0.0, 1.0, 33)
        std = standard_structure(p)
        op = assemble_operator(std)
        bc = ScalarField.from_expr(p, "exp(x1)*cos(x2)")
        self._iterative(monkeypatch, cap=1)
        with pytest.raises(ConvergenceError) as err:
            solve_dirichlet(op, bc, tolerance=1e-14)
        assert err.value.best is not None
        assert err.value.stats.converged is False

    @pytest.mark.parametrize("cap", [1, 5])
    def test_max_iterations_caps_inner_iterations(self, monkeypatch, cap):
        # the cap counts what SolveStats.iterations counts, not restart cycles
        p = Patch.box(1, 0.0, 1.0, 33)
        op = assemble_operator(standard_structure(p))
        bc = ScalarField.from_expr(p, "exp(x1)*cos(x2)")
        self._iterative(monkeypatch, cap=cap)
        with pytest.raises(ConvergenceError) as err:
            solve_dirichlet(op, bc, tolerance=1e-14)
        assert err.value.stats.iterations == cap

    @pytest.mark.parametrize("boundary, message", [
        (lambda p: ScalarField.const(Patch.box(1, 0.0, 2.0, 9), 1.0), "different patch"),
        (lambda p: ScalarField.from_samples(p, np.full(p.resolution, np.inf)),
         "non-finite"),
    ], ids=["other-patch", "non-finite"])
    def test_boundary_data_is_checked(self, boundary, message):
        p = Patch.box(1, 0.0, 1.0, 9)
        op = assemble_operator(standard_structure(p))
        with pytest.raises(ValueError, match=message):
            solve_dirichlet(op, boundary(p))

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
            solve_dirichlet(op, bc)


def _off_axis(op) -> bool:
    """Whether a stencil offset of ``op`` moves on more than one axis."""
    return any(np.count_nonzero(off) > 1 for off in op.stencil)


class TestLuOrdering:
    """``elliptic._lu_solver``: nested dissection for a stencil that couples
    diagonal neighbours, minimum degree for an axis-only one."""

    @pytest.mark.parametrize("shape, order", [
        # 15 nodes: cut across axis 1 at index 2, lo and hi halves of 6
        # nodes in C order, then the separator column
        ((3, 5), [0, 1, 5, 6, 10, 11, 3, 4, 8, 9, 13, 14, 2, 7, 12]),
        # equal axes: axis 0 is cut first, at row 2; each half of 10 nodes
        # is cut again across axis 1
        ((5, 5), [0, 1, 5, 6, 3, 4, 8, 9, 2, 7,
                  15, 16, 20, 21, 18, 19, 23, 24, 17, 22,
                  10, 11, 12, 13, 14]),
    ], ids=["3x5", "5x5"])
    def test_dissection_order_by_hand(self, shape, order):
        assert elliptic._dissection_order(shape).tolist() == order

    @staticmethod
    def _dissection_by_recursion(shape):
        """The numbering box by box, each box cut and numbered in turn."""
        def number(box):
            if box.size <= 8:
                return box.ravel().tolist()
            k = int(np.argmax(box.shape))
            half = box.shape[k] // 2

            def part(cut):
                return box[(slice(None),) * k + (cut,)]

            return number(part(slice(half))) + number(part(slice(half + 1, None))) \
                + part(slice(half, half + 1)).ravel().tolist()

        return number(np.arange(math.prod(shape)).reshape(shape))

    @pytest.mark.parametrize("shape", [(9, 14), (17, 16), (8,) * 4, (6, 5, 7, 4), (3,) * 8])
    def test_dissection_order_cuts_box_by_box(self, shape):
        assert elliptic._dissection_order(shape).tolist() == self._dissection_by_recursion(shape)

    @pytest.mark.parametrize("shape", [
        (63, 63), (64, 64), (8,) * 4, (3,) * 8, (4,) * 8,
        # the largest square 2D grid within the point budget
        (math.isqrt(DEFAULT_POINT_BUDGET) - 2,) * 2,
    ], ids=["2d-odd", "2d-even", "4d-8", "8d-3", "8d-4", "2d-budget"])
    def test_dissection_order_is_a_permutation(self, shape):
        order = elliptic._dissection_order(shape)
        assert order.shape == (math.prod(shape),)
        assert (np.bincount(order, minlength=order.size) == 1).all()

    @staticmethod
    def _recording(monkeypatch):
        """Record the column ordering and the factor of every ``splu``."""
        elliptic.__getattr__("spla")
        real, calls = elliptic.spla, []

        def splu(a, **kwargs):
            lu = real.splu(a, **kwargs)
            calls.append((kwargs["permc_spec"], lu))
            return lu

        monkeypatch.setattr(elliptic, "spla", SimpleNamespace(
            splu=splu, gmres=real.gmres, LinearOperator=real.LinearOperator))
        return calls

    @staticmethod
    def _system(acs, bc):
        op = assemble_operator(acs)
        boundary = ScalarField.from_expr(op.patch, bc).samples
        matrix, rhs = _assemble_system(op, boundary)
        return op, matrix, rhs, tuple(r - 2 for r in op.patch.resolution)

    @pytest.mark.parametrize("acs, bc", [
        (lambda: TestSolve._fixture_n1(33), "exp(x1)*cos(x2)"),
        (lambda: type1_structure(Patch.box(2, -1.0, 1.0, 7)), "x1*x3 + x2^2 - x4"),
    ], ids=["fixture_n1-33", "type1-7"])
    def test_nested_dissection_matches_minimum_degree(self, monkeypatch, acs, bc):
        op, matrix, rhs, shape = self._system(acs(), bc)
        assert _off_axis(op)
        calls = self._recording(monkeypatch)
        x = elliptic._lu_solver(matrix, shape, True)(rhs)
        ((spec, lu),) = calls
        assert spec == "NATURAL"
        assert np.array_equal(lu.perm_r, np.arange(rhs.size))
        mmd = elliptic.spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                 **elliptic._LU_OPTIONS)
        ref = mmd.solve(rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz

    def test_standard_structure_keeps_minimum_degree_bytes(self, monkeypatch):
        op, matrix, rhs, shape = self._system(
            standard_structure(Patch.box(1, 0.0, 1.0, 33)), "exp(x1)*cos(x2)")
        assert not _off_axis(op)
        calls = self._recording(monkeypatch)
        sol, _ = solve_dirichlet(op, ScalarField.from_expr(op.patch, "exp(x1)*cos(x2)"))
        assert [spec for spec, _ in calls] == ["MMD_AT_PLUS_A"]
        ref = elliptic.spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.1,
                                 options={"SymmetricMode": True}).solve(rhs)
        assert sol.samples[op.patch.interior()].tobytes() == ref.reshape(shape).tobytes()

    def test_galerkin_coarse_level_couples_diagonal_neighbours(self, monkeypatch):
        # the standard stencil is axis-only, but P^T A P of multilinear
        # interpolation is not
        op, matrix, rhs, shape = self._system(
            standard_structure(Patch.box(1, 0.0, 1.0, 65)), "exp(x1)*cos(x2)")
        calls = self._recording(monkeypatch)
        elliptic._vcycle(matrix, shape)
        assert [spec for spec, _ in calls] == ["NATURAL"]

    @pytest.mark.parametrize("name, grid, mode, spec", [
        ("fixture_n1", 33, "auto", "NATURAL"),
        ("fixture_n1", 129, "auto", "NATURAL"),
        ("pullback2d", 65, "auto", "NATURAL"),
        ("pullback2d", 129, "auto", "NATURAL"),
        ("pq_n1", None, "auto", "NATURAL"),
        ("standard2d", 65, "auto", "MMD_AT_PLUS_A"),
        ("type1", 10, "exact", "NATURAL"),
        ("type1", 10, "fd", "NATURAL"),
    ])
    def test_ordering_read_off_the_stencil(self, monkeypatch, name, grid, mode, spec):
        # nested dissection exactly where an entry of the matrix joins two
        # nodes that differ on more than one axis
        scene = load_scene(SCENES / f"{name}.json", grid_override=grid,
                           mode_override=mode)
        op = assemble_operator(scene.structure(), scene.mode)
        boundary = ScalarField.from_expr(op.patch, "1 + x1*x2")
        matrix, _ = _assemble_system(op, boundary.samples)
        shape = tuple(r - 2 for r in op.patch.resolution)
        coo = matrix.tocoo()
        moved = sum(r != c for r, c in zip(np.unravel_index(coo.row, shape),
                                           np.unravel_index(coo.col, shape)))
        assert _off_axis(op) == bool((moved > 1).any()) == (spec == "NATURAL")
        calls = self._recording(monkeypatch)
        _, stats = solve_dirichlet(op, boundary)
        assert stats.method == "direct"
        assert [s for s, _ in calls] == [spec]


class TestScipyAtFirstUse:
    """The solver's helpers find scipy's sparse modules when a caller enters
    them directly, in an interpreter where no solve has loaded them yet."""

    @pytest.mark.parametrize("code", [
        "from spencerkit import elliptic\n"
        "assert elliptic._interpolation(3).shape == (7, 3)",
        "import numpy as np, scipy.sparse\nfrom spencerkit import elliptic\n"
        "m = elliptic._vcycle(scipy.sparse.identity(4, format='csr'), (2, 2))\n"
        "assert np.array_equal(m.matvec(np.ones(4)), np.ones(4))",
    ], ids=["interpolation", "vcycle"])
    def test_helper_entered_first(self, code):
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr

    def test_other_names_are_still_missing(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            elliptic.nope
