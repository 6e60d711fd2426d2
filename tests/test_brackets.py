import numpy as np
import pytest

from spencerkit.brackets import (
    EigenfieldError,
    VectorFieldC,
    apply_vf,
    bracket,
    bracket_j,
    bracket_law_check,
    eigen_residual,
    j_action,
    leibniz_defect_check,
    potential_vf_residual,
)
from spencerkit.elliptic import d_oneform, potential_oneform
from spencerkit.fields import ComplexField, ScalarField
from spencerkit.fixtures import flat_hypercomplex, standard_structure, \
    structure_from_cot
from spencerkit.structures import twistor_structure


@pytest.fixture
def std(patch2d_sym):
    return standard_structure(patch2d_sym)


def d_dz(patch):
    return VectorFieldC.from_exprs(patch, [("0.5", "0"), ("0", "-0.5")])


def d_dzbar(patch):
    return VectorFieldC.from_exprs(patch, [("0.5", "0"), ("0", "0.5")])


class TestApplyVf:
    def test_coordinate_action(self, patch2d_sym):
        x = VectorFieldC.coordinate(patch2d_sym, 1)
        u = ScalarField.from_expr(patch2d_sym, "x1*x2")
        out = apply_vf(x, u)
        assert np.abs(out.values - patch2d_sym.mesh[1]).max() <= 1e-14

    def test_imaginary_coefficient(self, patch2d_sym):
        x = VectorFieldC.from_exprs(patch2d_sym, [("0", "1"), ("0", "0")])
        u = ScalarField.from_expr(patch2d_sym, "x1")
        out = apply_vf(x, u)
        assert np.abs(out.values - 1j).max() <= 1e-14

    def test_conjugate_coefficient_field(self, patch2d_sym):
        zbar_dx1 = VectorFieldC.from_exprs(patch2d_sym,
                                           [("x1", "-x2"), ("0", "0")])
        u = ScalarField.from_expr(patch2d_sym, "x1")
        out = apply_vf(zbar_dx1, u)
        ref = patch2d_sym.mesh[0] - 1j * patch2d_sym.mesh[1]
        assert np.abs(out.values - ref).max() <= 1e-14


class TestJAction:
    def test_standard_sends_d1_to_d2(self, std, patch2d_sym):
        jx = j_action(std, VectorFieldC.coordinate(patch2d_sym, 1))
        assert np.abs(jx.components[0].values).max() == 0.0
        assert np.abs(jx.components[1].values - 1.0).max() == 0.0

    def test_eigenfield_stays_eigen(self, std, patch2d_sym):
        x = d_dz(patch2d_sym)
        jx = j_action(std, x)
        for a, b in zip(jx.components, x.components):
            assert np.abs(a.values - 1j * b.values).max() <= 1e-14

    def test_twistor_action_composes(self, patch4d):
        h = flat_hypercomplex(patch4d)
        tw = twistor_structure(h, 0.0, 0.0, 1.0)
        x = VectorFieldC.coordinate(patch4d, 1)
        lhs = j_action(tw, x)
        # cotangent product J K corresponds to tangent action K^T J^T... the
        # composed tangent matrix is the transpose of j_cot(J) @ j_cot(K)
        ref = (h.J.j_cot @ h.K.j_cot).values[(0,) * 4].T
        got = np.array([c.values[(0,) * 4] for c in lhs.components])
        assert np.abs(got - ref[:, 0]).max() <= 1e-14


class TestBracket:
    def test_coordinate_fields_commute(self, std, patch2d_sym):
        x = VectorFieldC.coordinate(patch2d_sym, 1)
        y = VectorFieldC.coordinate(patch2d_sym, 2)
        u = ScalarField.from_expr(patch2d_sym, "sin(x1)*x2^3")
        out = bracket(x, y, u)
        assert np.abs(out.values).max() <= 1e-14

    def test_hand_value(self, patch2d_sym):
        # X = x1 d2, Y = d1: [X, Y](x2) = -1
        x = VectorFieldC.from_exprs(patch2d_sym, [("0", "0"), ("x1", "0")])
        y = VectorFieldC.coordinate(patch2d_sym, 1)
        u = ScalarField.from_expr(patch2d_sym, "x2")
        out = bracket(x, y, u)
        assert np.abs(out.values + 1.0).max() <= 1e-14

    def test_self_bracket_zero(self, std, patch2d_sym):
        x = VectorFieldC.from_exprs(patch2d_sym, [("x1", "0"), ("x2", "x1")])
        u = ScalarField.from_expr(patch2d_sym, "x1^2*x2")
        assert np.abs(bracket(x, x, u).values).max() <= 1e-13
        assert np.abs(bracket_j(std, x, x, u).values).max() <= 1e-13


class TestBracketJ:
    def test_harmonic_annihilated(self, std, patch2d_sym):
        x = VectorFieldC.coordinate(patch2d_sym, 1)
        y = VectorFieldC.coordinate(patch2d_sym, 2)
        u = ScalarField.from_expr(patch2d_sym, "x1^2 - x2^2")
        assert np.abs(bracket_j(std, x, y, u).values).max() <= 1e-13

    def test_magnitude_matches_laplacian(self, std, patch2d_sym):
        x = VectorFieldC.coordinate(patch2d_sym, 1)
        y = VectorFieldC.coordinate(patch2d_sym, 2)
        u = ScalarField.from_expr(patch2d_sym, "x1^2")
        vals = bracket_j(std, x, y, u).values
        assert np.abs(np.abs(vals) - 2.0).max() <= 1e-13

    def test_antisymmetry_and_bilinearity(self, std, patch2d_sym):
        patch = patch2d_sym
        x = VectorFieldC.from_exprs(patch, [("x2", "0.5"), ("1", "0")])
        y = VectorFieldC.from_exprs(patch, [("0", "x1"), ("x2", "1")])
        u = ScalarField.from_expr(patch, "x1^3 - x2^2")
        xy = bracket_j(std, x, y, u).values
        yx = bracket_j(std, y, x, u).values
        assert np.abs(xy + yx).max() <= 1e-13
        combo = bracket_j(std, x + y.scaled(2.0), y, u).values
        ref = xy + 2.0 * bracket_j(std, y, y, u).values
        assert np.abs(combo - ref).max() <= 1e-12


class TestPotentialResidual:
    def test_coordinate_fields_reproduce_curl_components(self, patch2d_sym):
        acs = structure_from_cot(patch2d_sym,
                                 [["x2", "x2^2 + 1"], ["-1", "-x2"]])
        u = ScalarField.from_expr(patch2d_sym, "x1^2*x2 + x1")
        x = VectorFieldC.coordinate(patch2d_sym, 1)
        y = VectorFieldC.coordinate(patch2d_sym, 2)
        res = potential_vf_residual(acs, x, y, u)
        r = d_oneform(potential_oneform(acs, u, "exact"), "exact")
        assert np.abs(res.values - r[..., 0, 1]).max() <= 1e-12

    def test_pluriharmonic_annihilates_random_fields(self, std, patch2d_sym):
        rng = np.random.default_rng(8)
        u = ScalarField.from_expr(patch2d_sym, "x1^3 - 3*x1*x2^2")
        for _ in range(5):
            c = [float(v) for v in rng.uniform(-1, 1, size=8)]
            x = VectorFieldC.from_exprs(patch2d_sym, [
                (f"({c[0]!r})*x1 + ({c[1]!r})", f"({c[2]!r})*x2"),
                (f"({c[3]!r})", f"({c[4]!r})*x1")])
            y = VectorFieldC.from_exprs(patch2d_sym, [
                (f"({c[5]!r})*x2", "0"), (f"({c[6]!r})", f"({c[7]!r})")])
            res = potential_vf_residual(std, x, y, u)
            assert np.abs(res.values).max() <= 1e-12

    def test_nonharmonic_magnitude(self, std, patch2d_sym):
        u = ScalarField.from_expr(patch2d_sym, "x1^2")
        x = VectorFieldC.coordinate(patch2d_sym, 1)
        y = VectorFieldC.coordinate(patch2d_sym, 2)
        res = potential_vf_residual(std, x, y, u)
        assert np.abs(np.abs(res.values) - 2.0).max() <= 1e-13


class TestLaws:
    def test_same_space_trivial(self, std, patch2d_sym):
        x = d_dz(patch2d_sym)
        u = ScalarField.from_expr(patch2d_sym, "x1")
        rep = bracket_law_check(std, x, x, u, "holo_holo")
        assert rep.law_residual <= 1e-14

    def test_holo_pair_with_coefficient(self, std, patch2d_sym):
        # zbar * d/dz is still a (1, 0) field
        y = VectorFieldC.from_exprs(patch2d_sym,
                                    [("0.5*x1", "-0.5*x2"),
                                     ("-0.5*x2", "-0.5*x1")])
        assert eigen_residual(std, y, +1) <= 1e-14
        rep = bracket_law_check(std, d_dz(patch2d_sym), y,
                                ScalarField.from_expr(patch2d_sym, "x1"),
                                "holo_holo")
        assert rep.law_residual <= 1e-10

    def test_mixed_case_sign_report(self, std, patch2d_sym):
        u = ScalarField.from_expr(patch2d_sym, "x1^3*x2 + x2^2")
        rep = bracket_law_check(std, d_dz(patch2d_sym), d_dzbar(patch2d_sym),
                                u, "holo_antiholo")
        assert rep.law_residual <= 1e-10
        # the conventional pairing for this case carries the opposite sign;
        # the report surfaces the mismatch instead of hiding it
        assert rep.alternative_residual > 0.1
        assert not rep.displayed_matches

    def test_mixed_reverse_case(self, std, patch2d_sym):
        u = ScalarField.from_expr(patch2d_sym, "x1^2*x2")
        rep = bracket_law_check(std, d_dzbar(patch2d_sym), d_dz(patch2d_sym),
                                u, "antiholo_holo")
        assert rep.law_residual <= 1e-10

    def test_sampled_function_runs_in_fd(self, std, patch2d_sym):
        x = d_dz(patch2d_sym)
        u = ScalarField.from_expr(patch2d_sym, "x1^2*x2").sampled()
        rep = bracket_law_check(std, x, x, u, "holo_holo")
        assert rep.mode == "fd"
        assert rep.law_residual <= 1e-12

    def test_eigen_precondition_enforced(self, std, patch2d_sym):
        x = VectorFieldC.coordinate(patch2d_sym, 1)  # not an eigenfield
        u = ScalarField.from_expr(patch2d_sym, "x1")
        with pytest.raises(EigenfieldError) as err:
            bracket_law_check(std, x, d_dz(patch2d_sym), u, "holo_holo")
        # the error carries the residuals of X and Y, which the CLI reports
        assert err.value.residuals == (1.0, 0.0)

    def test_random_polynomial_eigenfields(self, std, patch2d_sym):
        rng = np.random.default_rng(12)
        patch = patch2d_sym
        u = ScalarField.from_expr(patch, "x1^2*x2 - x2^3 + x1")
        base10 = d_dz(patch)
        base01 = d_dzbar(patch)
        for _ in range(10):

            def poly():
                return (f"({float(rng.uniform(-1, 1))!r}) + ({float(rng.uniform(-1, 1))!r})"
                        f"*x1 + ({float(rng.uniform(-1, 1))!r})*x2^2")

            gx = ComplexField.from_exprs(patch, poly(), poly())
            gy = ComplexField.from_exprs(patch, poly(), poly())
            x = VectorFieldC(patch, tuple(gx * c for c in base10.components))
            y = VectorFieldC(patch, tuple(gy * c for c in base10.components))
            rep = bracket_law_check(std, x, y, u, "holo_holo")
            assert rep.law_residual <= 1e-10
            ymix = VectorFieldC(patch,
                                tuple(gy * c for c in base01.components))
            repm = bracket_law_check(std, x, ymix, u, "holo_antiholo")
            assert repm.law_residual <= 1e-10


class TestLeibniz:
    def test_constants_trivial(self, std, patch2d_sym):
        one = ScalarField.const(patch2d_sym, 1.0)
        rep = leibniz_defect_check(std, d_dz(patch2d_sym),
                                   d_dzbar(patch2d_sym), one, one)
        assert rep.defect_residual == 0.0

    def test_coordinate_product(self, std, patch2d_sym):
        x = VectorFieldC.coordinate(patch2d_sym, 1)
        y = VectorFieldC.coordinate(patch2d_sym, 2)
        f = ScalarField.from_expr(patch2d_sym, "x1")
        h = ScalarField.from_expr(patch2d_sym, "x2")
        rep = leibniz_defect_check(std, x, y, f, h)
        assert rep.defect_residual <= 1e-13

    def test_random_polynomials(self, std, patch2d_sym):
        rng = np.random.default_rng(6)
        patch = patch2d_sym
        for _ in range(10):
            coeffs = [float(v) for v in rng.uniform(-1, 1, size=8)]
            f = ScalarField.from_expr(
                patch, f"({coeffs[0]!r})*x1^2 + ({coeffs[1]!r})*x2")
            h = ScalarField.from_expr(
                patch, f"({coeffs[2]!r})*x1*x2 + ({coeffs[3]!r})")
            x = VectorFieldC.from_exprs(patch, [
                (f"({coeffs[4]!r})", "0"), (f"({coeffs[5]!r})", "0")])
            y = VectorFieldC.from_exprs(patch, [
                (f"({coeffs[6]!r})", "0"), (f"({coeffs[7]!r})", "0")])
            rep = leibniz_defect_check(std, x, y, f, h)
            assert rep.defect_residual <= 1e-10
