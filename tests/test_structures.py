import numpy as np
import pytest

from spencerkit.fields import MatrixField, Patch, ScalarField
from spencerkit.fixtures import (
    conjugated_hypercomplex,
    flat_hypercomplex,
    pullback_structure,
    standard_structure,
    structure_from_cot,
    type1_structure,
)
from spencerkit.report import node_sup, slab_map
from spencerkit import structures
from spencerkit.elliptic import EllipticOperator
from spencerkit.structures import (
    InvalidStructureError,
    PQPair,
    SingularMatrixError,
    extract_pq,
    make_hypercomplex,
    nijenhuis_residual,
    normalize_at_origin,
    pointwise_inverse,
    pointwise_solve,
    quaternionic_standard,
    reconstruct_from_pq,
    symbolic_inverse,
    twistor_structure,
    validate_acs,
    _nijenhuis_sup,
)

from conftest import frame_values, random_poly_text
from test_slabs import _pulled_back_pair


def random_pq(rng, patch, scale=0.25):
    """Random pair with Q a perturbation of -E (invertible on the patch)."""
    n = patch.dim_half
    d = patch.dim
    p_rows = [[random_poly_text(rng, d, 2, scale) for _ in range(n)]
              for _ in range(n)]
    q_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            base = "-1 + " if i == j else ""
            row.append(base + random_poly_text(rng, d, 2, scale / n))
        q_rows.append(row)
    return PQPair(patch, MatrixField.from_exprs(patch, p_rows),
                  MatrixField.from_exprs(patch, q_rows))


class TestValidate:
    def test_standard_residual_zero(self, patch2d):
        acs = standard_structure(patch2d)
        assert acs.acs_residual == 0.0
        assert np.array_equal(acs.cot_values()[0, 0],
                              np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_interleaved_blocks_4d(self, patch4d):
        acs = standard_structure(patch4d)
        assert acs.acs_residual == 0.0
        assert acs.cot_values()[0, 0, 0, 0][2, 3] == 1.0

    def test_printed_block_matrix_is_valid(self, patch2d):
        # the per-pair block [[0, -1], [1, 0]] also squares to -E
        m = MatrixField.constant(patch2d, np.array([[0.0, -1.0], [1.0, 0.0]]))
        acs = validate_acs(m, tolerance=1e-12)
        assert acs.acs_residual == 0.0

    def test_identity_invalid_residual_two(self, patch2d):
        m = MatrixField.identity(patch2d, 2)
        with pytest.raises(InvalidStructureError) as err:
            validate_acs(m)
        assert err.value.residual == 2.0
        flagged = validate_acs(m, strict=False)
        assert not flagged.valid and flagged.acs_residual == 2.0

    def test_trace_free_unit_det_fixture(self, patch2d_sym):
        acs = structure_from_cot(patch2d_sym,
                                 [["x2", "x2^2 + 1"], ["-1", "-x2"]],
                                 tolerance=1e-12)
        assert acs.acs_residual <= 1e-12

    def test_odd_dimension_rejected(self, patch2d):
        rows = [[ScalarField.const(patch2d, 0.0)]]
        with pytest.raises(ValueError, match="dimension"):
            validate_acs(MatrixField(patch2d, rows))

    def test_representations_are_transposes(self, patch2d_sym):
        acs = structure_from_cot(patch2d_sym,
                                 [["x2", "x2^2 + 1"], ["-1", "-x2"]])
        assert np.array_equal(acs.tan_values(),
                              np.swapaxes(acs.cot_values(), -1, -2))

    def test_tangent_representation_input(self, patch2d):
        # supplying the tangent matrix must yield the same structure as
        # supplying its transpose as the cotangent matrix
        from spencerkit.holomorphy import holo_residual
        from spencerkit.fields import ComplexField
        tan = MatrixField.constant(patch2d, np.array([[0.0, -1.0], [1.0, 0.0]]))
        acs = validate_acs(tan, rep="tan", tolerance=1e-12)
        z = ComplexField.from_exprs(patch2d, "x1", "x2")
        assert holo_residual(acs, z).sup_norm == 0.0


class TestReconstruct:
    def test_pq_zero_minus_identity(self, patch2d):
        pq = PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0"]]),
                    MatrixField.from_exprs(patch2d, [["-1"]]))
        acs = reconstruct_from_pq(pq)
        ref = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.abs(acs.cot_values() - ref).max() == 0.0

    def test_pq_zero_plus_identity(self, patch2d):
        pq = PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0"]]),
                    MatrixField.from_exprs(patch2d, [["1"]]))
        acs = reconstruct_from_pq(pq)
        ref = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.abs(acs.cot_values() - ref).max() == 0.0

    def test_scalar_pair_trace_and_det(self, patch2d):
        # n = 1: entries [[-p/q, -p^2/q - q], [1/q, p/q]]
        pq = PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0.3"]]),
                    MatrixField.from_exprs(patch2d, [["-1.2"]]))
        jc = reconstruct_from_pq(pq).cot_values()[0, 0]
        p, q = 0.3, -1.2
        assert jc[0, 0] == pytest.approx(-p / q)
        assert jc[0, 1] == pytest.approx(-p * p / q - q)
        assert jc[1, 0] == pytest.approx(1 / q)
        assert jc[1, 1] == pytest.approx(p / q)
        assert np.trace(jc) == pytest.approx(0.0, abs=1e-14)
        assert np.linalg.det(jc) == pytest.approx(1.0, rel=1e-14)

    def test_singular_q_reports_node(self, patch2d):
        with pytest.raises(SingularMatrixError):
            PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0"]]),
                   MatrixField.from_exprs(patch2d, [["x1"]]))

    def test_sampled_pair_gives_the_bits_of_np_block(self):
        patch = Patch.box(2, -0.4, 0.4, 7)
        pair = random_pq(np.random.default_rng(21), patch)
        sampled = PQPair(patch, MatrixField.from_values(patch, pair.P.values),
                         MatrixField.from_values(patch, pair.Q.values))
        pv, qv, qinv = sampled.P.values, sampled.Q.values, sampled.qinv
        pqinv = pv @ qinv
        expected = np.block([[-pqinv, -(pqinv @ pv) - qv], [qinv, qinv @ pv]])
        assert reconstruct_from_pq(sampled).cot_values().tobytes() == expected.tobytes()

    def test_symbolic_path_produces_expressions(self, patch2d_sym):
        rng = np.random.default_rng(7)
        pq = random_pq(rng, patch2d_sym)
        acs = reconstruct_from_pq(pq)
        assert acs.is_exact
        assert acs.acs_residual <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_pairs_square_to_minus_identity(self, n):
        rng = np.random.default_rng(n)
        patch = Patch.box(n, -0.5, 0.5, 5)
        for _ in range(5):
            acs = reconstruct_from_pq(random_pq(rng, patch))
            assert acs.acs_residual <= 1e-10

    def test_generation_is_continuous(self, patch2d_sym):
        # entrywise-converging pairs yield entrywise-converging structures
        base = PQPair(patch2d_sym,
                      MatrixField.from_exprs(patch2d_sym, [["x2"]]),
                      MatrixField.from_exprs(patch2d_sym, [["-1 + 0.1*x1"]]))
        target = reconstruct_from_pq(base).cot_values()
        gaps = []
        for k in (1, 2, 4, 8, 16):
            eps = 1.0 / (10 * k)
            pk = PQPair(
                patch2d_sym,
                MatrixField.from_exprs(patch2d_sym, [[f"x2 + {eps!r}"]]),
                MatrixField.from_exprs(patch2d_sym,
                                       [[f"-1 + 0.1*x1 + {eps!r}*x2"]]))
            gaps.append(np.abs(reconstruct_from_pq(pk).cot_values()
                               - target).max())
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05


class TestNormalize:
    def test_already_normal_gives_identity_frame(self, patch2d):
        pq = PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0"]]),
                    MatrixField.from_exprs(patch2d, [["-1"]]))
        bd = normalize_at_origin(reconstruct_from_pq(pq), (0, 0))
        assert np.array_equal(bd.G, np.eye(2))
        for block in (bd.A, bd.B, bd.C, bd.D):
            assert np.abs(block.values).max() == 0.0

    def test_interleaved_standard_blocks_vanish_at_base(self, patch4d):
        acs = standard_structure(patch4d)
        base = (3, 3, 3, 3)
        bd = normalize_at_origin(acs, base)
        assert abs(np.linalg.det(bd.G)) > 1e-8
        for block in (bd.A, bd.B, bd.C, bd.D):
            assert np.abs(block.values[base]).max() <= 1e-10
        # the frame conjugates the cotangent matrix to the normal form
        m0 = acs.cot_values()[base]
        normal = np.linalg.solve(bd.G, m0 @ bd.G)
        ref = np.block([[np.zeros((2, 2)), np.eye(2)],
                        [-np.eye(2), np.zeros((2, 2))]])
        assert np.abs(normal - ref).max() <= 1e-12

    def test_moduli_fixture_identities(self):
        patch = Patch.box(1, -0.3, 0.3, 9)
        pq = PQPair(patch, MatrixField.from_exprs(patch, [["x2"]]),
                    MatrixField.from_exprs(patch, [["-1 + 0.1*x1"]]))
        bd = normalize_at_origin(reconstruct_from_pq(pq), (4, 4))
        assert max(bd.identity_residuals().values()) <= 1e-10

    def test_block_identities_random_fixtures(self):
        rng = np.random.default_rng(11)
        patch = Patch.box(2, -0.4, 0.4, 5)
        for _ in range(10):
            acs = reconstruct_from_pq(random_pq(rng, patch))
            bd = normalize_at_origin(acs, (2, 2, 2, 2))
            assert max(bd.identity_residuals().values()) <= 1e-10
            recon = frame_values(bd)
            conj = np.einsum(
                "ij,...jk,kl->...il", np.linalg.inv(bd.G),
                acs.cot_values(), bd.G)
            assert np.abs(recon - conj).max() <= 1e-10

    def test_only_the_inverted_block_is_sampled(self):
        # an exact structure's frame blocks are sampled when first read, so
        # normalizing reads C - E alone and extracting the pair adds D
        rng = np.random.default_rng(41)
        acs = reconstruct_from_pq(random_pq(rng, Patch.box(2, -0.4, 0.4, 5)))
        bd = normalize_at_origin(acs, (2, 2, 2, 2))
        assert acs.is_exact
        assert [block._values is None for block in bd.frame] == [True, True, False, True]
        extract_pq(bd)
        assert [block._values is None for block in bd.frame] == [True, True, False, False]

    @pytest.mark.parametrize("kind", ["exact", "sampled"])
    def test_frame_is_the_conjugated_structure(self, kind):
        rng = np.random.default_rng(43)
        acs = reconstruct_from_pq(random_pq(rng, Patch.box(2, -0.4, 0.4, 5)))
        if kind == "sampled":
            acs = validate_acs(MatrixField.from_values(acs.patch, acs.cot_values()))
        bd = normalize_at_origin(acs, (1, 2, 3, 2))
        conj = structures.conjugate_by_constant(acs.j_cot, np.linalg.inv(bd.G), bd.G)
        assert frame_values(bd).tobytes() == conj.values.tobytes()

    def test_frame_of_the_standard_structure_is_one_node(self, patch4d):
        bd = normalize_at_origin(standard_structure(patch4d))
        for values in [block.values for block in bd.frame] + [bd.cminv]:
            assert values.shape == patch4d.resolution + (2, 2)
            assert not any(values.strides[:4])

    def test_derived_block_relations(self):
        # consequences of the four identities used by the reduction:
        # A = -(C-E)^-1 D (C-E) and B + E = -(C-E)^-1 (D^2 + E)
        rng = np.random.default_rng(35)
        for n in (1, 2):
            patch = Patch.box(n, -0.4, 0.4, 7 if n == 1 else 5)
            eye = np.eye(n)
            for _ in range(5):
                acs = reconstruct_from_pq(random_pq(rng, patch))
                bd = normalize_at_origin(acs)
                cm = bd.C.values - eye
                d = bd.D.values
                a_ref = -np.linalg.solve(cm, d @ cm)
                bp_ref = -np.linalg.solve(cm, d @ d + eye)
                assert np.abs(bd.A.values - a_ref).max() <= 1e-10
                assert np.abs(bd.B.values + eye - bp_ref).max() <= 1e-10


class TestExtract:
    def test_constant_normal_form(self, patch2d):
        pq = PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0"]]),
                    MatrixField.from_exprs(patch2d, [["-1"]]))
        bd = normalize_at_origin(reconstruct_from_pq(pq), (0, 0))
        out = extract_pq(bd)
        assert np.abs(out.P.values).max() == 0.0
        assert np.abs(out.Q.values + 1.0).max() == 0.0

    def test_round_trip_reproduces_conjugated_structure(self):
        rng = np.random.default_rng(23)
        patch = Patch.box(1, -0.4, 0.4, 9)
        for _ in range(20):
            acs = reconstruct_from_pq(random_pq(rng, patch))
            bd = normalize_at_origin(acs, (4, 4))
            back = reconstruct_from_pq(extract_pq(bd))
            assert np.abs(back.cot_values() - frame_values(bd)).max() <= 1e-10

    def test_normalized_pair_recovered_exactly(self, patch2d_sym):
        # pair vanishing at the base: extract o reconstruct is the identity
        patch = patch2d_sym
        pq = PQPair(patch, MatrixField.from_exprs(patch, [["0.2*x1"]]),
                    MatrixField.from_exprs(patch, [["-1 + 0.1*x2"]]))
        acs = reconstruct_from_pq(pq)
        bd = normalize_at_origin(acs, (4, 4))
        assert np.array_equal(bd.G, np.eye(2))
        out = extract_pq(bd)
        assert np.abs(out.P.values - pq.P.values).max() <= 1e-12
        assert np.abs(out.Q.values - pq.Q.values).max() <= 1e-12

    def test_trace_free_fixture_round_trip(self, patch2d_sym):
        acs = structure_from_cot(patch2d_sym,
                                 [["x2", "x2^2 + 1"], ["-1", "-x2"]])
        bd = normalize_at_origin(acs, (4, 4))
        back = reconstruct_from_pq(extract_pq(bd))
        assert np.abs(back.cot_values() - frame_values(bd)).max() <= 1e-10

    def test_type1_fixture_through_moduli_pipeline(self, patch4d):
        # non-integrable 4D structure: normalization needs a genuine
        # eigenvector frame (interleaved vs block layout), and the moduli
        # round trip still closes
        acs = type1_structure(patch4d)
        base = (3, 3, 3, 3)
        bd = normalize_at_origin(acs, base)
        assert not np.array_equal(bd.G, np.eye(4))
        for block in (bd.A, bd.B, bd.C, bd.D):
            assert np.abs(block.values[base]).max() <= 1e-10
        assert max(bd.identity_residuals().values()) <= 1e-10
        back = reconstruct_from_pq(extract_pq(bd))
        assert np.abs(back.cot_values() - frame_values(bd)).max() <= 1e-10


class TestQuaternionic:
    def test_printed_matrices(self):
        s, t = quaternionic_standard()
        assert s[0].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert t[0].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert s.tolist() == [[0, 1, 0, 0], [-1, 0, 0, 0],
                              [0, 0, 0, -1], [0, 0, 1, 0]]
        assert t.tolist() == [[0, 0, 1, 0], [0, 0, 0, 1],
                              [-1, 0, 0, 0], [0, -1, 0, 0]]

    def test_algebra_exact(self):
        s, t = quaternionic_standard()
        eye = np.eye(4)
        assert np.array_equal(s @ s, -eye)
        assert np.array_equal(t @ t, -eye)
        assert np.array_equal(s @ t @ s @ t, -eye)
        assert np.array_equal(s @ t + t @ s, np.zeros((4, 4)))

    def test_flat_pair_anticommutes(self, patch4d):
        h = flat_hypercomplex(patch4d)
        assert h.anti_residual == 0.0
        assert h.J.acs_residual == 0.0 and h.K.acs_residual == 0.0

    def test_conjugated_pair(self, patch4d):
        rng = np.random.default_rng(5)
        g = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
        h = conjugated_hypercomplex(patch4d, g)
        assert h.anti_residual <= 1e-10

    def test_non_anticommuting_pair_reports_worst_node(self, patch4d):
        # K' = cos(t) K + sin(t) J squares to -E, and J K' + K' J = -2 sin(t) E;
        # t = (x1 + 1) / 2 runs over [0, 1], so the gap is largest on the
        # nodes (6, *, *, *), the first of which is (6, 0, 0, 0)
        h = flat_hypercomplex(patch4d)
        cos = ScalarField.from_expr(patch4d, "cos(0.5*x1 + 0.5)")
        sin = ScalarField.from_expr(patch4d, "sin(0.5*x1 + 0.5)")

        def times(m, f):
            return MatrixField(patch4d, [[e * f for e in row] for row in m.entries])

        tilted = validate_acs(times(h.K.j_cot, cos) + times(h.J.j_cot, sin))
        with pytest.raises(InvalidStructureError) as err:
            make_hypercomplex(h.J, tilted)
        assert err.value.node == (6, 0, 0, 0)
        assert err.value.residual == pytest.approx(2 * np.sin(1.0))

    def test_off_spectrum_base_reports_eigenvalue_gap_at_base_node(self, patch2d):
        # J^2 = -1.001 E passes a 1e-2 square tolerance, but the eigenvalues
        # +-i sqrt(1.001) lie 5.0e-4 off +-i at every node, the base included
        acs = structure_from_cot(patch2d, [["0", "1"], ["-1.001", "0"]],
                                 tolerance=1e-2)
        with pytest.raises(InvalidStructureError, match="eigenvalues") as err:
            normalize_at_origin(acs, (3, 5))
        assert err.value.node == (3, 5)
        assert err.value.residual == pytest.approx(np.sqrt(1.001) - 1.0)

    def test_singular_q_names_first_singular_node(self, patch2d):
        # Q = x1 - 0.5 vanishes on the nodes (4, *) of the 9-node unit grid
        with pytest.raises(SingularMatrixError, match=r"^Q is singular at node \(4, 0\)$"):
            PQPair(patch2d, MatrixField.from_exprs(patch2d, [["0"]]),
                   MatrixField.from_exprs(patch2d, [["x1 - 0.5"]]))


class TestTwistor:
    def test_j_itself(self, patch4d):
        h = flat_hypercomplex(patch4d)
        tw = twistor_structure(h, 1.0, 0.0, 0.0)
        assert np.abs(tw.cot_values() - h.J.cot_values()).max() == 0.0

    def test_composition_of_pair(self, patch4d):
        h = flat_hypercomplex(patch4d)
        tw = twistor_structure(h, 0.0, 0.0, 1.0)
        ref = np.einsum("...ik,...kj->...ij", h.J.cot_values(),
                        h.K.cot_values())
        assert np.abs(tw.cot_values() - ref).max() == 0.0
        assert tw.acs_residual <= 1e-12

    def test_random_sphere_points(self, patch4d):
        h = flat_hypercomplex(patch4d)
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            tw = twistor_structure(h, *v)
            assert tw.acs_residual <= 1e-12

    def test_off_sphere_rejected(self, patch4d):
        h = flat_hypercomplex(patch4d)
        with pytest.raises(ValueError, match="sphere"):
            twistor_structure(h, 1.0, 1.0, 0.0)

    def test_sphere_points_on_conjugated_pair(self, patch4d):
        rng = np.random.default_rng(19)
        g = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
        h = conjugated_hypercomplex(patch4d, g)
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            tw = twistor_structure(h, *(float(x) for x in v))
            assert tw.acs_residual <= 1e-10


class TestNijenhuis:
    def test_constant_structure_zero(self, patch2d):
        assert nijenhuis_residual(standard_structure(patch2d)) == 0.0

    def test_pullback_integrable(self):
        for res, bound in ((9, 1e-10), (17, 1e-10)):
            p = Patch.box(1, 0.0, 1.0, res)
            acs = pullback_structure(p, ["x1", "x2 + 0.3*x1^2"])
            assert nijenhuis_residual(acs, "exact") <= bound
            # FD mode shrinks at second order
        errs = []
        for res in (9, 17):
            p = Patch.box(1, 0.0, 1.0, res)
            acs = pullback_structure(p, ["x1", "x2 + 0.3*x1^2"])
            sampled = MatrixField.from_values(p, acs.cot_values())
            fd_acs = validate_acs(sampled, tolerance=1e-8)
            errs.append(nijenhuis_residual(fd_acs, "fd"))
        assert errs[1] <= errs[0] / 3.0 + 1e-12

    def test_type1_fixture_bounded_away_from_zero(self, patch4d):
        # frozen from the independent symbolic expansion: the largest
        # component is the constant 2, so the sup is exactly 2 on any patch
        acs = type1_structure(patch4d)
        assert nijenhuis_residual(acs, "exact") == pytest.approx(2.0, abs=1e-12)
        finer = type1_structure(Patch.box(2, -1.0, 1.0, 9))
        assert nijenhuis_residual(finer, "exact") == pytest.approx(2.0, abs=1e-12)


def _reference_nijenhuis_sup(T, DT):
    """The Nijenhuis kernel as two einsum contractions, each antisymmetrized."""
    term1 = np.einsum("nsi,nskj->nkij", T, DT)
    term3 = np.einsum("nks,njsi->nkij", T, DT)
    return node_sup(term1 - term1.transpose(0, 1, 3, 2)
                    + term3 - term3.transpose(0, 1, 3, 2))


class TestNijenhuisKernel:
    """The batched-product kernel agrees with the einsum one at every node,
    to 1e-13 of the largest per-node value."""

    @staticmethod
    def assert_agrees(C, T, DT, grid):
        d = T.shape[-1]
        new = slab_map(_nijenhuis_sup, grid, 8 * d ** 3, C, T, DT)
        ref = slab_map(_reference_nijenhuis_sup, grid, 8 * d ** 3, T, DT)
        assert np.abs(ref).max() > 0.0
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    def check_structure(self, acs, mode):
        self.assert_agrees(acs.cot_values(), acs.tan_values(),
                           acs.j_tan.derivatives(mode), acs.patch.resolution)

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    def test_type1(self, patch4d, mode):
        self.check_structure(type1_structure(patch4d), mode)

    def test_pulled_back_pair(self):
        self.check_structure(_pulled_back_pair().J, "fd")

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_random_arrays(self, d):
        rng = np.random.default_rng(d)
        T = rng.normal(size=(50, d, d))
        DT = rng.normal(size=(50, d, d, d))
        self.assert_agrees(np.ascontiguousarray(T.transpose(0, 2, 1)), T, DT, (50,))

    @pytest.mark.parametrize("d", [4, 8])
    def test_in_place_layout_keeps_the_bits(self, d):
        # M built in the [i, k, j] layout, with its second sum added and its
        # absolute value taken in place, sums what the [k, i, j] layout summed
        rng = np.random.default_rng(d + 10)
        nodes = 16384 if d == 4 else 2048
        T = rng.normal(size=(nodes, d, d))
        DT = rng.normal(size=(nodes, d, d, d))
        for C in (np.swapaxes(T, 1, 2), np.ascontiguousarray(np.swapaxes(T, 1, 2))):
            assert np.array_equal(_nijenhuis_sup(C, T, DT), _k_i_j_nijenhuis_sup(C, T, DT))


def _k_i_j_nijenhuis_sup(C, T, DT):
    """The Nijenhuis kernel with M in the [k, i, j] layout, each sum a new
    array, antisymmetrized into another."""
    n, d = T.shape[:2]
    m = (C @ DT.reshape(n, d, d * d)).reshape(n, d, d, d).transpose(0, 2, 1, 3)
    m = m + (T[:, None] @ DT).transpose(0, 2, 3, 1)
    return node_sup(m - m.transpose(0, 1, 3, 2))


class TestSymbolicInverse:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_numeric(self, n):
        rng = np.random.default_rng(n + 40)
        patch = Patch.box(n, -0.4, 0.4, 5)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                lead = "1 + " if i == j else ""
                row.append(lead + random_poly_text(rng, patch.dim, 2, 0.1))
            rows.append(row)
        m = MatrixField.from_exprs(patch, rows)
        inv = symbolic_inverse(m)
        prod = np.einsum("...ik,...kj->...ij", m.values, inv.values)
        assert np.abs(prod - np.eye(n)).max() <= 1e-12


def _lapack_guard(values):
    """The singular-matrix guard of ``pointwise_inverse`` with numpy's LU
    determinant, per node of a (*grid, n, n) stack."""
    n = values.shape[-1]
    flat = values.reshape(-1, n, n)
    bad = np.abs(np.linalg.det(flat)) <= \
        structures._SINGULAR_THRESHOLD * structures._det_scale(flat)
    return bad.reshape(values.shape[:-2])


def _band_matrix(n, x):
    """A matrix with determinant x: [[x]] at n = 1, else n x n with entries
    at most 1, one of them 1, whose first two columns are parallel but for x."""
    return {1: [[x]],
            2: [[1.0, 0.5], [0.25, 0.125 + x]],
            3: [[1.0, 0.5, 0.0], [0.25, 0.125 + x, 0.5], [0.5, 0.25, 1.0]],
            4: [[1.0, 0.5, 0.0, 0.0], [0.25, 0.125 + x, 0.5, 0.0],
                [0.5, 0.25, 1.0, 0.0], [0.25, 0.125, 0.5, 1.0]]}[n]


def _band_stack(rng, n, grid=(6, 8)):
    """Random well-scaled n x n matrices, entries scaled by up to 100, with
    nodes whose determinant sits at 0, 0.5 and 0.9 times the guard's
    threshold (singular) and at 1.1, 2 and 10 times it (regular)."""
    values = rng.normal(size=grid + (n, n))
    values[..., range(n), range(n)] += 3.0
    values *= 10.0 ** rng.uniform(-1, 2, size=grid + (1, 1))
    for (i, j), factor in zip([(0, 3), (1, 1), (2, 6), (3, 0), (4, 5), (5, 7)],
                              [0.0, 0.5, 0.9, 1.1, 2.0, 10.0]):
        # entries of size at most s >= 1, so the guard's scale is s^n, and a
        # determinant of factor times the threshold 1e-12 s^n
        s = 10.0 ** rng.uniform(0, 2)
        x = factor * structures._SINGULAR_THRESHOLD
        band = np.array(_band_matrix(n, x))
        values[i, j] = band if n == 1 else s * band
    return values


class TestClosedFormInverse:
    """For n <= 4 ``pointwise_inverse`` takes the determinant and the
    inverse in closed form, and ``pointwise_solve`` solves by Cramer's rule,
    with no LAPACK call per node."""

    def test_1x1_inverse_is_lapacks_bit_for_bit(self):
        rng = np.random.default_rng(11)
        values = rng.choice([-1.0, 1.0], (6, 8, 1, 1)) * rng.uniform(1, 10, (6, 8, 1, 1)) \
            * 10.0 ** rng.integers(-10, 100, (6, 8, 1, 1))
        assert pointwise_inverse(values, "m").tobytes() == np.linalg.inv(values).tobytes()

    def test_2x2_inverse_agrees_with_lapack_to_a_few_ulps(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(20000, 2, 2))
        values = values[np.linalg.cond(values) < 10.0]
        reference = np.linalg.inv(values)
        ulp = np.spacing(np.abs(reference).max(axis=(-2, -1), keepdims=True))
        error = np.abs(pointwise_inverse(values, "m") - reference)
        assert len(values) > 10000 and (error <= 8 * ulp).all()

    def test_3x3_inverse_agrees_with_lapack_to_roundoff(self):
        # within a few ulps of the largest entry, times the condition number
        rng = np.random.default_rng(13)
        values = rng.normal(size=(20000, 3, 3))
        reference = np.linalg.inv(values)
        ulp = np.spacing(np.abs(reference).max(axis=(-2, -1), keepdims=True))
        cond = np.linalg.cond(values)[:, None, None]
        error = np.abs(pointwise_inverse(values, "m") - reference)
        assert (error <= 8 * cond * ulp).all()
        assert np.median(cond) > 5.0  # not all well conditioned

    def test_4x4_forms_agree_with_lapack_to_roundoff(self):
        # the determinant, the inverse and the solve, each within a few ulps
        # of its largest entry, times the condition number
        rng = np.random.default_rng(15)
        values = rng.normal(size=(20000, 4, 4))
        b = rng.normal(size=(20000, 4, 4))
        cond = np.linalg.cond(values)
        det = np.linalg.det(values)
        assert (np.abs(structures._det(values) - det)
                <= 8 * cond * np.spacing(np.abs(det))).all()
        for x, reference in ((pointwise_inverse(values, "m"), np.linalg.inv(values)),
                             (pointwise_solve(values, b), np.linalg.solve(values, b))):
            ulp = np.spacing(np.abs(reference).max(axis=(-2, -1), keepdims=True))
            assert (np.abs(x - reference) <= 8 * cond[:, None, None] * ulp).all()
        assert np.median(cond) > 5.0  # not all well conditioned

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cramers_rule_agrees_with_lapacks_solve(self, n):
        # the reduced system's (C - E) w = D - iE, and the real right-hand
        # side of a chart frame's solve: bit for bit at n = 1, and within a
        # few ulps of the largest entry, times the condition number
        rng = np.random.default_rng(14)
        a = rng.normal(size=(6, 8, n, n))
        real = rng.normal(size=(6, 8, n, n))
        cond = np.linalg.cond(a)[..., None, None]
        for b in (real - 1j * np.eye(n), real):
            reference = np.linalg.solve(a, b)
            x = pointwise_solve(a, b)
            if n == 1:
                assert x.tobytes() == reference.tobytes()
            ulp = np.spacing(np.abs(reference).max(axis=(-2, -1), keepdims=True))
            assert x.dtype == b.dtype and (np.abs(x - reference) <= 8 * cond * ulp).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_guard_gives_the_lapack_verdicts(self, n, seed):
        values = _band_stack(np.random.default_rng(seed), n)
        verdicts = structures._singular(values.reshape(-1, n, n)).reshape(values.shape[:-2])
        assert verdicts.tolist() == _lapack_guard(values).tolist()
        assert verdicts.sum() == 3
        with pytest.raises(SingularMatrixError) as err:
            pointwise_inverse(values, "m")
        assert err.value.node == (0, 3)
        # with the exactly singular node gone, the first band node is named
        values[0, 3] = np.eye(n)
        with pytest.raises(SingularMatrixError) as err:
            pointwise_inverse(values, "m")
        assert err.value.node == (1, 1)

    @pytest.mark.parametrize("n, lapack", [(1, {}), (2, {}), (3, {}), (4, {}),
                                           (5, {"det": 1, "inv": 1})])
    def test_lapack_only_from_n_5(self, monkeypatch, n, lapack):
        calls = {}
        for name in ("det", "inv"):
            def counting(a, name=name, original=getattr(np.linalg, name)):
                calls[name] = calls.get(name, 0) + 1
                return original(a)

            monkeypatch.setattr(np.linalg, name, counting)
        values = np.eye(n) + 0.1 * np.random.default_rng(n).normal(size=(6, 8, n, n))
        inverse = pointwise_inverse(values, "m")
        assert calls == lapack
        assert np.abs(inverse @ values - np.eye(n)).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_constant_input_costs_one_node(self, monkeypatch, n):
        patch = Patch.box(2, -1.0, 1.0, 9)
        m = np.eye(n) + 0.3 * np.arange(n * n).reshape(n, n)
        values = MatrixField.constant(patch, m).values
        kernel_nodes = []
        for name in ("_singular", "_inverse"):
            def counting(v, original=getattr(structures, name)):
                kernel_nodes.append(len(v))
                return original(v)

            monkeypatch.setattr(structures, name, counting)
        inverse = pointwise_inverse(values, "m")
        assert kernel_nodes == [1, 1]
        assert inverse.shape == values.shape and not any(inverse.strides[:4])
        assert inverse[(0,) * 4].tobytes() == \
            pointwise_inverse(m[None], "m")[0].tobytes()
        with pytest.raises(ValueError):
            inverse[0, 0, 0, 0, 0, 0] = 1.0

    def test_cminv_of_the_standard_structure_is_one_node(self, patch4d):
        bd = normalize_at_origin(standard_structure(patch4d))
        assert bd.cminv.shape == patch4d.resolution + (2, 2)
        assert not any(bd.cminv.strides[:4])
        np.testing.assert_array_equal(bd.cminv[(0,) * 4],
                                      np.linalg.inv(bd.C.values[(0,) * 4] - np.eye(2)))


class TestPeclet2D:
    @pytest.mark.parametrize("seed", range(4))
    def test_lambda_min_agrees_with_eigvalsh(self, seed):
        # A = C^T C + E, as the operator forms it, with C of any size
        patch = Patch.box(1, -1.0, 1.0, 33)
        rng = np.random.default_rng(seed)
        c = rng.normal(size=patch.resolution + (2, 2)) * 10.0 ** rng.uniform(-3, 2)
        a = np.swapaxes(c, -1, -2) @ c + np.eye(2)
        a = (a + np.swapaxes(a, -1, -2)) / 2
        b = rng.normal(size=(2,) + patch.resolution)
        op = EllipticOperator(patch, MatrixField.from_values(patch, a),
                              tuple(ScalarField.from_samples(patch, x) for x in b), "fd")
        lam_min = np.linalg.eigvalsh(a)[..., 0].min()
        worst = max(np.abs(x).max() * h for x, h in zip(b, patch.spacing))
        assert op.mesh_peclet() == pytest.approx(worst / lam_min, rel=1e-12)

    def test_no_eigvalsh_in_2d(self, monkeypatch, patch2d):
        from spencerkit.elliptic import assemble_operator

        op = assemble_operator(pullback_structure(patch2d, ["x1", "x2 + 0.3*x1^2"]), "fd")

        def no_eigvalsh(a):
            raise AssertionError("eigvalsh called in 2D")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert op.mesh_peclet() > 0.0
