import numpy as np
import pytest

from spencerkit.fields import ComplexField, MatrixField, Patch, complex_gradient
from spencerkit.fixtures import (
    coordinate_function,
    standard_structure,
    type1_structure,
)
from spencerkit.holomorphy import (
    antiholo_residual,
    holo_residual,
    reduced_system,
    reduced_system_residual,
    reduction_equivalence_check,
)
from spencerkit.report import interior_sup
from spencerkit.structures import PQPair, extract_pq, normalize_at_origin, \
    reconstruct_from_pq

from test_structures import random_pq

ROOT8 = 2.0 * np.sqrt(2.0)


class TestHoloResidual:
    def test_linear_holomorphic_zero(self, patch2d):
        std = standard_structure(patch2d)
        z = ComplexField.from_exprs(patch2d, "x1", "x2")
        assert holo_residual(std, z).sup_norm == 0.0

    def test_conjugate_residual_value(self, patch2d):
        # hand computation: the complex covector is (-2i, -2), norm 2*sqrt(2)
        std = standard_structure(patch2d)
        zbar = ComplexField.from_exprs(patch2d, "x1", "-x2")
        rep = holo_residual(std, zbar)
        assert rep.sup_norm == pytest.approx(ROOT8, rel=1e-14)
        assert rep.breakdown["du_system"] == pytest.approx(2.0)
        assert rep.breakdown["dv_system"] == pytest.approx(2.0)

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    @pytest.mark.parametrize("sign, check", [(1.0, holo_residual),
                                             (-1.0, antiholo_residual)])
    def test_real_halves_are_the_real_systems(self, patch4d, mode, sign, check):
        # the breakdown reads the halves off the complex residual; the real
        # systems J*du + sign*dv and J*dv - sign*du are the reference
        acs = type1_structure(patch4d)
        f = ComplexField.from_exprs(patch4d, "x1*x3 + 0.4*x2^3", "x4^2 - x1*x2")
        g = complex_gradient(f, mode)
        ju = np.einsum("...qp,...p->...q", acs.cot_values(), g.real)
        jv = np.einsum("...qp,...p->...q", acs.cot_values(), g.imag)
        rep = check(acs, f, mode)
        du = interior_sup(np.abs(ju + sign * g.imag).max(axis=-1), patch4d)
        dv = interior_sup(np.abs(jv - sign * g.real).max(axis=-1), patch4d)
        assert du > 0.0 and dv > 0.0
        assert rep.breakdown == {"du_system": du, "dv_system": dv}

    def test_type1_coordinate_zero(self, patch4d):
        acs = type1_structure(patch4d)
        z = coordinate_function(patch4d, 1)
        assert holo_residual(acs, z).sup_norm <= 1e-10

    def test_type1_second_coordinate_fails(self, patch4d):
        acs = type1_structure(patch4d)
        w = coordinate_function(patch4d, 2)
        assert holo_residual(acs, w).sup_norm > 0.1


class TestAntiholoResidual:
    def test_conjugate_is_antiholomorphic(self, patch2d):
        std = standard_structure(patch2d)
        zbar = ComplexField.from_exprs(patch2d, "x1", "-x2")
        assert antiholo_residual(std, zbar).sup_norm == 0.0

    def test_holomorphic_fails_antiholomorphy(self, patch2d):
        std = standard_structure(patch2d)
        z = ComplexField.from_exprs(patch2d, "x1", "x2")
        assert antiholo_residual(std, z).sup_norm == pytest.approx(ROOT8,
                                                                   rel=1e-14)

    def test_real_function_scaled_gradient(self, patch2d):
        # v = 0 forces residual sqrt(2)*|grad u| for an orthogonal structure
        std = standard_structure(patch2d)
        u = ComplexField.from_exprs(patch2d, "x1^2", "0")
        rep = antiholo_residual(std, u)
        sl = patch2d.interior()
        grad_sup = np.abs(2 * patch2d.mesh[0][sl]).max()
        assert rep.sup_norm == pytest.approx(np.sqrt(2.0) * grad_sup, rel=1e-12)

    def test_mirror_of_holo_exactly(self, patch2d_sym):
        rng = np.random.default_rng(2)
        std = standard_structure(patch2d_sym)
        for _ in range(10):
            re = f"({rng.uniform(-1, 1)!r})*x1^2 + ({rng.uniform(-1, 1)!r})*x2"
            im = f"({rng.uniform(-1, 1)!r})*x1*x2 + ({rng.uniform(-1, 1)!r})*x1"
            f = ComplexField.from_exprs(patch2d_sym, re, im)
            a = holo_residual(std, f)
            b = antiholo_residual(std, f.conjugate())
            assert a.sup_norm == b.sup_norm
            assert a.worst_node == b.worst_node


class TestHolomorphicAlgebra:
    def _holos(self, patch):
        z = ComplexField.from_exprs(patch, "x1", "x2")
        zsq = z * z
        expz = ComplexField.from_exprs(patch, "exp(x1)*cos(x2)",
                                       "exp(x1)*sin(x2)")
        return z, zsq, expz

    def test_products_and_sums_stay_holomorphic(self, patch2d):
        std = standard_structure(patch2d)
        z, zsq, expz = self._holos(patch2d)
        for f in (z + zsq, z * expz, zsq * expz + z):
            assert holo_residual(std, f).sup_norm <= 1e-10

    def test_fd_mode_residual_second_order(self):
        # truncation-only residual for a sampled holomorphic function
        errs = []
        for res in (17, 33):
            p = Patch.box(1, 0.0, 1.0, res)
            std = standard_structure(p)
            f = ComplexField.from_exprs(p, "exp(x1)*cos(x2)",
                                        "exp(x1)*sin(x2)")
            sampled = ComplexField(f.re.sampled(), f.im.sampled())
            rep = holo_residual(std, sampled)
            assert rep.mode == "fd"
            errs.append(rep.sup_norm)
        assert 3.0 <= errs[0] / errs[1] <= 5.0


class TestReducedSystem:
    def _normalized(self, patch):
        pq = PQPair(patch, MatrixField.from_exprs(patch, [["0"]]),
                    MatrixField.from_exprs(patch, [["-1"]]))
        acs = reconstruct_from_pq(pq)
        bd = normalize_at_origin(acs, (0, 0))
        return acs, bd, extract_pq(bd)

    def test_holomorphic_zero(self, patch2d):
        acs, bd, _ = self._normalized(patch2d)
        f = ComplexField.from_exprs(patch2d, "x1", "x2")
        rep = reduced_system_residual(bd, reduced_system(bd, f))
        assert rep.sup_norm <= 1e-14
        assert rep.breakdown["factored_form_gap"] <= 1e-14

    def test_factored_form_sign_discrimination(self, patch2d):
        # the reduced operator equals P - iQ; the opposite sign P + iQ
        # would misclassify the holomorphic coordinate (reduced row would
        # become f_x - i f_y with value 2 on f = z)
        acs, bd, pq = self._normalized(patch2d)
        eye = np.eye(1)
        cm = bd.C.values - eye
        w = np.linalg.solve(cm, bd.D.values - 1j * eye)
        assert np.abs(w - (pq.P.values - 1j * pq.Q.values)).max() <= 1e-14
        assert np.abs(w - (pq.P.values + 1j * pq.Q.values)).max() \
            == pytest.approx(2.0, abs=1e-14)

    def test_conjugate_value_two(self, patch2d):
        # hand computation: row (1, i) applied to (1, -i) gives 2
        acs, bd, _ = self._normalized(patch2d)
        f = ComplexField.from_exprs(patch2d, "x1", "-x2")
        rep = reduced_system_residual(bd, reduced_system(bd, f))
        assert rep.sup_norm == pytest.approx(2.0, rel=1e-14)

    def test_full_residual_zero_implies_reduced_zero(self, patch2d_sym):
        rng = np.random.default_rng(31)
        patch = Patch.box(1, -0.4, 0.4, 9)
        acs = reconstruct_from_pq(random_pq(rng, patch))
        bd = normalize_at_origin(acs, (4, 4))
        # z is generally not holomorphic for this structure, but the reduced
        # residual is always dominated by the full one
        f = ComplexField.from_exprs(patch, "x1", "x2")
        full = holo_residual(acs, f)
        rep = reduced_system_residual(bd, reduced_system(bd, f))
        assert rep.sup_norm <= full.sup_norm * np.abs(np.linalg.inv(bd.G)).sum() + 1e-10


    def test_field_on_another_patch_is_an_error(self):
        bd = normalize_at_origin(standard_structure(Patch.box(1, 0.0, 1.0, 9)))
        f = ComplexField.from_exprs(Patch.box(1, -3.0, 3.0, 9), "x1", "x2")
        with pytest.raises(ValueError, match="different patches"):
            reduced_system(bd, f)


class TestReductionEquivalence:
    def test_constant_pair_identity_exact(self, patch2d):
        pq = PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0"]]),
                    MatrixField.from_exprs(patch2d, [["-1"]]))
        acs = reconstruct_from_pq(pq)
        bd = normalize_at_origin(acs, (0, 0))
        f = ComplexField.from_exprs(patch2d, "x1", "x2")
        rep = reduction_equivalence_check(bd, reduced_system(bd, f))
        assert rep.identity_residual <= 1e-14
        assert rep.bound_holds

    def test_random_fixtures_identity(self):
        rng = np.random.default_rng(17)
        patch = Patch.box(1, -0.4, 0.4, 9)
        for _ in range(20):
            acs = reconstruct_from_pq(random_pq(rng, patch))
            bd = normalize_at_origin(acs, (4, 4))
            f = ComplexField.from_exprs(patch, "x1*x2", "x1 - x2")
            rep = reduction_equivalence_check(bd, reduced_system(bd, f))
            assert rep.identity_residual <= 1e-10
            assert rep.bound_holds

    def test_zero_reduced_forces_small_full(self, patch2d):
        # holomorphic function: reduced residual ~0, full must be <= 1e-8
        pq = PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0"]]),
                    MatrixField.from_exprs(patch2d, [["-1"]]))
        acs = reconstruct_from_pq(pq)
        bd = normalize_at_origin(acs, (0, 0))
        z = ComplexField.from_exprs(patch2d, "x1", "x2")
        zsq = z * z
        rep = reduction_equivalence_check(bd, reduced_system(bd, zsq))
        assert rep.reduced_residual <= 1e-10
        assert rep.full_residual <= 1e-8
