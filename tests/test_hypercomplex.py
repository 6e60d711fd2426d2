import numpy as np
import pytest

from spencerkit.fields import Patch, ScalarField
from spencerkit.fixtures import conjugated_hypercomplex, flat_hypercomplex
from spencerkit.hypercomplex import (
    EigenPreconditionError,
    QuaternionFunction,
    hyper_potential_residual,
    j_hyperholo_residual,
    k_hyperholo_residual,
    k_translation_consistency,
    left_multiplication_matrix,
    matrix_condition_residual,
    quaternion_multiply,
)
from spencerkit.structures import quaternionic_standard, twistor_structure


@pytest.fixture
def flat(patch4d):
    return flat_hypercomplex(patch4d)


def conjugate_map(patch):
    return QuaternionFunction.from_exprs(patch, "x1", "-x2", "-x3", "-x4")


def square_map(patch):
    return QuaternionFunction.from_exprs(
        patch, "x1^2 - x2^2 - x3^2 - x4^2", "2*x1*x2", "2*x1*x3", "2*x1*x4")


class TestQuaternionAlgebra:
    def test_unit_table(self):
        i = (0, 1, 0, 0)
        j = (0, 0, 1, 0)
        k = (0, 0, 0, 1)
        assert quaternion_multiply(i, j) == (0, 0, 0, 1)   # ij = k
        assert quaternion_multiply(j, i) == (0, 0, 0, -1)
        assert quaternion_multiply(j, k) == (0, 1, 0, 0)
        assert quaternion_multiply(k, i) == (0, 0, 1, 0)
        assert quaternion_multiply(i, i) == (-1, 0, 0, 0)

    def test_left_multiplication_matrix(self):
        rng = np.random.default_rng(0)
        a = tuple(float(v) for v in rng.normal(size=4))
        q = tuple(float(v) for v in rng.normal(size=4))
        ref = np.array(quaternion_multiply(a, q))
        assert np.abs(left_multiplication_matrix(a) @ np.array(q) - ref).max() \
            <= 1e-14

    def test_square_map_is_quaternion_square(self, patch4d):
        sq = square_map(patch4d)
        node = (3, 4, 5, 2)
        q = tuple(float(ax[i]) for ax, i in zip(patch4d.axes, node))
        ref = quaternion_multiply(q, q)
        got = tuple(c.samples[node] for c in sq.components())
        assert np.abs(np.array(got) - np.array(ref)).max() <= 1e-14


class TestJResidual:
    def test_identity(self, flat):
        F = QuaternionFunction.identity(flat.patch)
        assert j_hyperholo_residual(flat, F).sup_norm == 0.0

    def test_affine_family(self, flat):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = tuple(float(v) for v in rng.normal(size=4))
            b = tuple(float(v) for v in rng.normal(size=4))
            F = QuaternionFunction.affine(flat.patch, a, b)
            assert j_hyperholo_residual(flat, F).sup_norm <= 1e-10

    def test_conjugate_rejected(self, flat):
        rep = j_hyperholo_residual(flat, conjugate_map(flat.patch))
        assert rep.sup_norm > 0.1

    def test_square_rejected(self, flat):
        rep = j_hyperholo_residual(flat, square_map(flat.patch))
        assert rep.sup_norm > 0.1


class TestKResidual:
    def test_identity(self, flat):
        G = QuaternionFunction.identity(flat.patch)
        assert k_hyperholo_residual(flat, G).sup_norm == 0.0

    def test_affine_family(self, flat):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = tuple(float(v) for v in rng.normal(size=4))
            b = tuple(float(v) for v in rng.normal(size=4))
            G = QuaternionFunction.affine(flat.patch, a, b)
            assert k_hyperholo_residual(flat, G).sup_norm <= 1e-10

    def test_conjugate_and_square_rejected(self, flat):
        assert k_hyperholo_residual(flat, conjugate_map(flat.patch)).sup_norm > 0.1
        assert k_hyperholo_residual(flat, square_map(flat.patch)).sup_norm > 0.1

    def test_k_holomorphic_pairs_detected(self, flat):
        # u + i zeta analytic in (x1 + i x3, x2 + i x4) passes the K system
        patch = flat.patch
        G = QuaternionFunction.from_exprs(
            patch, "x1^2 - x3^2", "x2", "2*x1*x3", "x4")
        assert k_hyperholo_residual(flat, G).sup_norm <= 1e-12
        assert j_hyperholo_residual(flat, G).sup_norm > 0.1


class TestMatrixCondition:
    def test_equivalence_on_fixtures(self, flat):
        s, t = quaternionic_standard()
        patch = flat.patch
        cases = [
            (QuaternionFunction.identity(patch), True),
            (QuaternionFunction.affine(patch, (0.5, -1.0, 2.0, 0.25),
                                       (1.0, 0.0, 0.0, -2.0)), True),
            (conjugate_map(patch), False),
            (square_map(patch), False),
        ]
        for F, good in cases:
            split = j_hyperholo_residual(flat, F).sup_norm
            matrix = matrix_condition_residual(flat.J, F, s)
            if good:
                assert split <= 1e-10 and matrix <= 1e-10
            else:
                assert split > 0.1 and matrix > 0.1
        G = QuaternionFunction.identity(patch)
        assert matrix_condition_residual(flat.K, G, t) <= 1e-12

    def test_twistor_pairing(self, flat):
        # identity map satisfies the matrix condition for every twistor
        # structure paired with the matching right multiplication
        s, t = quaternionic_standard()
        rng = np.random.default_rng(9)
        F = QuaternionFunction.identity(flat.patch)
        for _ in range(25):
            v = rng.normal(size=3)
            b, c, d = (float(x) for x in v / np.linalg.norm(v))
            tw = twistor_structure(flat, b, c, d)
            r = b * s + c * t + d * (s @ t)
            assert matrix_condition_residual(tw, F, r) <= 1e-12


def _translation(h, G):
    return k_translation_consistency(k_hyperholo_residual(h, G),
                                     j_hyperholo_residual(h, G))


class TestTranslationConsistency:
    def test_identity(self, flat):
        rep = _translation(flat, QuaternionFunction.identity(flat.patch))
        assert rep.passes
        assert rep.antiholo_residual == 0.0
        assert rep.holo_residual == 0.0

    def test_affine(self, flat):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = tuple(float(v) for v in rng.normal(size=4))
            b = tuple(float(v) for v in rng.normal(size=4))
            G = QuaternionFunction.affine(flat.patch, a, b)
            assert _translation(flat, G).passes

    def test_precondition_failure(self, flat):
        with pytest.raises(EigenPreconditionError):
            _translation(flat, square_map(flat.patch))


class TestConjugatedPair:
    def test_affine_maps_in_conjugated_frame(self, patch4d):
        # for the constant-frame pair, components transform by the frame
        rng = np.random.default_rng(21)
        g = np.eye(4) + 0.15 * rng.normal(size=(4, 4))
        h = conjugated_hypercomplex(patch4d, g)
        assert h.anti_residual <= 1e-10
        # the structure-level identities survive conjugation
        jc = h.J.cot_values()[(0,) * 4]
        kc = h.K.cot_values()[(0,) * 4]
        assert np.abs(jc @ jc + np.eye(4)).max() <= 1e-10
        assert np.abs(jc @ kc + kc @ jc).max() <= 1e-10


class TestHyperPotential:
    def test_separately_pluriharmonic(self, flat):
        patch = flat.patch
        u = ScalarField.from_expr(patch, "x1^2 - x2^2")      # J plane (x1, x2)
        zeta = ScalarField.from_expr(patch, "x1^2 - x3^2")   # K plane (x1, x3)
        rep = hyper_potential_residual(flat, u, zeta)
        assert rep.coupled <= 1e-12
        assert rep.j_closedness <= 1e-12
        assert rep.k_closedness <= 1e-12
        assert rep.laplacian_j_u <= 1e-12
        assert rep.laplacian_k_zeta <= 1e-12

    def test_triangle_inequality(self, flat):
        patch = flat.patch
        rng = np.random.default_rng(2)
        for _ in range(5):
            c = [float(v) for v in rng.uniform(-1, 1, size=4)]
            u = ScalarField.from_expr(
                patch, f"({c[0]!r})*x1^2*x2 + ({c[1]!r})*x3*x4")
            zeta = ScalarField.from_expr(
                patch, f"({c[2]!r})*x2^2 + ({c[3]!r})*x1*x3^2")
            rep = hyper_potential_residual(flat, u, zeta)
            assert rep.coupled <= rep.j_closedness + rep.k_closedness + 1e-12

    def test_closed_part_does_not_mask_the_other(self, flat):
        # zeta = x1*x3 is K-pluriharmonic (a K-plane harmonic), so the
        # coupled residual reduces to the open J-part of u = x1^2
        patch = flat.patch
        u = ScalarField.from_expr(patch, "x1^2")
        zeta = ScalarField.from_expr(patch, "x1*x3")
        rep = hyper_potential_residual(flat, u, zeta)
        assert rep.k_closedness <= 1e-12
        assert rep.j_closedness == pytest.approx(2.0, abs=1e-12)
        assert rep.coupled == pytest.approx(rep.j_closedness, abs=1e-12)


class TestDimensionChecks:
    def test_quaternion_function_needs_4n(self):
        p = Patch.box(1, 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="4n"):
            QuaternionFunction.from_exprs(p, "x1", "x2", "x1", "x2")

    def test_function_patch_must_match(self, flat):
        other = Patch.box(2, 0.0, 2.0, 5)
        F = QuaternionFunction.identity(other)
        with pytest.raises(ValueError, match="different patches"):
            j_hyperholo_residual(flat, F)
