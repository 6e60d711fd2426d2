from pathlib import Path

import numpy as np
import pytest

from spencerkit.fields import (
    ComplexField,
    EvaluationError,
    MatrixField,
    ModeError,
    OneForm,
    Patch,
    PatchError,
    ScalarField,
    d_oneform,
    gradient,
    line_integral,
    matvec,
)
from spencerkit.scene import load_scene

from conftest import reference_evaluate

SCENES = Path(__file__).resolve().parent.parent / "scenes"


class TestPatch:
    def test_basic_properties(self):
        p = Patch(1, ((0.0, 1.0), (0.0, 2.0)), (5, 9))
        assert p.dim == 2
        assert p.spacing == (0.25, 0.25)
        assert p.n_points == 45

    def test_invalid_bounds(self):
        with pytest.raises(PatchError):
            Patch(1, ((1.0, 0.0), (0.0, 1.0)), (5, 5))

    def test_too_coarse(self):
        with pytest.raises(PatchError, match="at least 5"):
            Patch(1, ((0.0, 1.0), (0.0, 1.0)), (4, 5))

    def test_budget(self):
        with pytest.raises(PatchError, match="budget"):
            Patch(1, ((0.0, 1.0), (0.0, 1.0)), (2000, 2000))

    def test_refined_halves_spacing(self):
        p = Patch.box(1, 0.0, 1.0, 9)
        q = p.refined(2)
        assert q.spacing[0] == pytest.approx(p.spacing[0] / 2)
        assert q.bounds == p.bounds


class TestEvalField:
    def test_sum_on_unit_square(self):
        p = Patch(1, ((0.0, 1.0), (0.0, 1.0)), (5, 5))
        u = ScalarField.from_expr(p, "x1 + x2").sampled()
        corners = (u.samples[0, 0], u.samples[-1, 0],
                   u.samples[0, -1], u.samples[-1, -1])
        assert corners == (0.0, 1.0, 1.0, 2.0)

    def test_constant(self, patch2d):
        u = ScalarField.from_expr(patch2d, "7").sampled()
        assert (u.samples == 7.0).all()

    def test_division_by_zero_reports_node(self):
        p = Patch(1, ((-1.0, 1.0), (-1.0, 1.0)), (5, 5))
        with pytest.raises(EvaluationError) as err:
            ScalarField.from_expr(p, "1/x1").samples
        assert err.value.node == (2, 0)

    @pytest.mark.parametrize("text", ["x1 + 1/0", "x1 + 0^-1", "x1*10^400"])
    def test_constant_arithmetic_error_names_field_and_node(self, patch2d, text):
        # the constant raises on Python floats; it fails at every node, and
        # the first node is reported
        other = ScalarField.from_expr(patch2d, "x2")
        bad = ScalarField.from_expr(patch2d, text)
        with pytest.raises(EvaluationError, match="non-finite constant") as err:
            MatrixField(patch2d, [[other, bad]]).values
        assert str(bad.expr) in str(err.value)
        assert err.value.node == (0, 0)
        with pytest.raises(EvaluationError, match="non-finite constant") as err:
            bad.eval_at(np.array([[0.5, 0.5], [1.0, 1.0]]))
        assert err.value.node == (4, 4)

    def test_point_evaluation_reports_nearest_node(self):
        p = Patch(1, ((-1.0, 1.0), (-1.0, 1.0)), (5, 5))
        u = ScalarField.from_expr(p, "1/x1")
        points = np.array([[0.5, 0.5], [0.0, 0.6], [0.0, -1.0]])
        with pytest.raises(EvaluationError, match="at point 1 ") as err:
            u.eval_at(points)
        # (0.0, 0.6) lies between nodes 3 (x = 0.5) and 4 (x = 1.0) of x2
        assert err.value.node == (2, 3)

    def test_exact_mode_requires_expression(self, patch2d):
        u = ScalarField.from_samples(patch2d, np.zeros(patch2d.resolution))
        with pytest.raises(ModeError):
            u.diff(1, "exact")


class TestGradient:
    def test_exact_on_quadratic_interior(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1^2").sampled()
        g = gradient(u, "fd")
        x1 = patch2d.mesh[0]
        assert np.abs(g[0].samples - 2 * x1).max() < 1e-13

    def test_constant_gradient_zero(self, patch2d):
        g = gradient(ScalarField.from_expr(patch2d, "3.5"), "exact")
        for comp in g:
            assert np.abs(comp.samples).max() == 0.0

    def test_fd_second_order_richardson(self):
        # sin(x1): FD error vs analytic cos must shrink by 4 +- tolerance
        errors = []
        for res in (17, 33):
            p = Patch.box(1, 0.0, 1.0, res)
            u = ScalarField.from_expr(p, "sin(x1)").sampled()
            g = gradient(u, "fd")[0].samples
            ref = np.cos(p.mesh[0])
            sl = p.interior()
            errors.append(np.abs(g - ref)[sl].max())
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 5.0

    def test_symbolic_vs_fd_richardson(self):
        # generic smooth field: symbolic derivative is the reference
        errors = []
        for res in (17, 33):
            p = Patch.box(1, 0.0, 1.0, res)
            u = ScalarField.from_expr(p, "exp(x1)*cos(x2) + x1*x2^3")
            exact = u.diff(2, "exact").samples
            fd = u.sampled().diff(2, "fd").samples
            errors.append(np.abs(exact - fd)[p.interior()].max())
        assert 3.0 <= errors[0] / errors[1] <= 5.0


class TestDOneForm:
    def test_d_of_du_vanishes_exact(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1*x2")
        omega = OneForm(patch2d, gradient(u, "exact"))
        r = d_oneform(omega, "exact")
        assert r.sup_interior() == 0.0

    def test_rotation_form(self, patch2d):
        omega = OneForm(patch2d, (ScalarField.from_expr(patch2d, "-x2"),
                                  ScalarField.from_expr(patch2d, "x1")))
        r = d_oneform(omega, "exact")
        assert np.abs(r.component(0, 1).samples - 2.0).max() == 0.0

    def test_quadratic_component(self, patch2d):
        omega = OneForm(patch2d, (ScalarField.from_expr(patch2d, "x2^2"),
                                  ScalarField.from_expr(patch2d, "0")))
        r = d_oneform(omega, "exact")
        x2 = patch2d.mesh[1]
        assert np.abs(r.component(0, 1).samples + 2 * x2).max() < 1e-14

    def test_antisymmetry_access(self, patch2d):
        omega = OneForm(patch2d, (ScalarField.from_expr(patch2d, "x2^2"),
                                  ScalarField.from_expr(patch2d, "x1")))
        r = d_oneform(omega, "exact")
        assert np.array_equal(r.component(1, 0).samples,
                              -r.component(0, 1).samples)

    def test_dd_zero_fd_mode(self):
        # smooth fixture, h = 1/32: mixed FD partials commute to roundoff
        p = Patch.box(1, 0.0, 1.0, 33)
        u = ScalarField.from_expr(p, "exp(x1)*sin(x2)").sampled()
        omega = OneForm(p, gradient(u, "fd"))
        r = d_oneform(omega, "fd")
        scale = np.abs(u.samples).max()
        assert r.sup_interior() <= 1e-8 * scale


class TestLineIntegral:
    def _square_loop(self, lo, hi, per_side):
        t = np.linspace(lo, hi, per_side + 1)
        pts = []
        pts += [(v, lo) for v in t]
        pts += [(hi, v) for v in t[1:]]
        pts += [(v, hi) for v in t[-2::-1]]
        pts += [(lo, v) for v in t[-2::-1]]
        return np.array(pts)

    def test_green_area_form(self, patch2d):
        omega = OneForm(patch2d, (ScalarField.from_expr(patch2d, "-x2"),
                                  ScalarField.from_expr(patch2d, "x1")))
        val = line_integral(omega, self._square_loop(0.0, 1.0, 16))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_exact_form_closed_loop(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1^2*x2 + x2^3")
        omega = OneForm(patch2d, gradient(u, "exact"))
        val = line_integral(omega, self._square_loop(0.0, 1.0, 32))
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_potential_form_of_pluriharmonic_converges_to_zero(self, patch2d):
        # omega = J du for the standard structure and u = x1^2 - x2^2 is
        # closed; quadrature refinement must drive the loop integral to zero
        u = ScalarField.from_expr(patch2d, "x1^2 - x2^2")
        g = gradient(u, "exact")
        jcot = MatrixField.from_exprs(patch2d, [["0", "1"], ["-1", "0"]])
        omega = OneForm(patch2d, matvec(jcot, g))
        vals = [abs(line_integral(omega, self._square_loop(0.25, 0.75, n)))
                for n in (4, 8, 16)]
        assert vals[-1] <= 1e-12
        assert all(v <= 1e-10 for v in vals)

    def test_degenerate_loop_exactly_zero(self, patch2d):
        omega = OneForm(patch2d, (ScalarField.from_expr(patch2d, "x1"),
                                  ScalarField.from_expr(patch2d, "x2")))
        pts = np.array([[0.5, 0.5]] * 4)
        assert line_integral(omega, pts) == 0.0

    def test_point_outside_patch(self, patch2d):
        omega = OneForm(patch2d, (ScalarField.from_expr(patch2d, "x1"),
                                  ScalarField.from_expr(patch2d, "x2")))
        with pytest.raises(ValueError, match="outside"):
            line_integral(omega, np.array([[0.0, 0.0], [2.0, 0.0]]))

    def test_sampled_components_interpolated(self, patch2d):
        omega = OneForm(patch2d, (
            ScalarField.from_expr(patch2d, "-x2").sampled(),
            ScalarField.from_expr(patch2d, "x1").sampled()))
        val = line_integral(omega, self._square_loop(0.0, 1.0, 8))
        assert val == pytest.approx(2.0, abs=1e-12)


class TestFieldAlgebra:
    def test_expression_backed_arithmetic_stays_exact(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1")
        v = ScalarField.from_expr(patch2d, "x2")
        w = u * v + u
        assert w.is_exact
        assert w.diff(1, "exact").samples[2, 3] == pytest.approx(
            patch2d.axes[1][3] + 1.0)

    def test_mixed_arithmetic_falls_back_to_samples(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1")
        v = ScalarField.from_expr(patch2d, "x2").sampled()
        w = u + v
        assert not w.is_exact
        assert np.abs(w.samples - (patch2d.mesh[0] + patch2d.mesh[1])).max() == 0

    def test_complex_product(self, patch2d):
        z = ComplexField.from_exprs(patch2d, "x1", "x2")
        zsq = z * z
        ref = (patch2d.mesh[0] + 1j * patch2d.mesh[1]) ** 2
        assert np.abs(zsq.values - ref).max() < 1e-14

    def test_matrix_field_matmul_symbolic(self, patch2d):
        m = MatrixField.from_exprs(patch2d, [["x1", "1"], ["0", "x2"]])
        sq = m @ m
        assert sq.is_exact
        ref = np.einsum("...ik,...kj->...ij", m.values, m.values)
        assert np.abs(sq.values - ref).max() < 1e-14

    def test_matrix_transpose(self, patch2d):
        m = MatrixField.from_exprs(patch2d, [["x1", "1"], ["0", "x2"]])
        assert np.array_equal(m.transpose().values,
                              np.swapaxes(m.values, -1, -2))


class TestMatrixArray:
    ROWS = [["x1^2*x2", "sin(x1 + x2)", "1"], ["exp(x2)", "x1*x2^3", "x2 - x1"]]

    def test_fd_diff_is_per_entry_gradient_bitwise(self, patch2d):
        m = MatrixField.from_exprs(patch2d, self.ROWS)
        for axis in (1, 2):
            h = patch2d.spacing[axis - 1]
            stacked = m.diff(axis, "fd").values
            for i in range(2):
                for j in range(3):
                    ref = np.gradient(m[i, j].samples, h, axis=axis - 1, edge_order=2)
                    assert stacked[..., i, j].tobytes() == ref.tobytes()

    def test_entry_samples_are_views_of_the_array(self, patch2d):
        m = MatrixField.from_exprs(patch2d, self.ROWS)
        for i in range(2):
            for j in range(3):
                entry = m[i, j]
                assert entry.expr is m.exprs[i][j]
                assert np.shares_memory(entry.samples, m.values)
                assert np.array_equal(entry.samples, m.values[..., i, j])

    def test_derivatives_stack_every_axis(self, patch2d):
        m = MatrixField.from_exprs(patch2d, self.ROWS)
        for mode in ("exact", "fd"):
            stacked = m.derivatives(mode)
            assert stacked.shape == patch2d.resolution + (2, 2, 3)
            for s in (1, 2):
                assert np.array_equal(stacked[..., s - 1, :, :],
                                      m.diff(s, mode).values)

    def test_state_is_expressions_and_one_array(self, patch2d):
        m = MatrixField.from_exprs(patch2d, self.ROWS)
        assert MatrixField.__slots__ == ("patch", "exprs", "_values")
        assert m._values is None
        m.values
        sampled = MatrixField.from_values(patch2d, m.values)
        assert sampled.exprs is None and sampled.values is m.values
        assert sampled[1, 2].expr is None
        assert np.shares_memory(sampled[1, 2].samples, m.values)

    def test_exact_and_sampled_algebra_agree(self, patch2d):
        m = MatrixField.from_exprs(patch2d, [["x1", "x2"], ["1", "x1*x2"]])
        s = MatrixField.from_values(patch2d, m.values)
        for exact, sampled in ((m @ m, s @ s), (m + m, s + s), (m - m.transpose(),
                               s - s.transpose()), (-m, -s), (m.scaled(0.5), s.scaled(0.5)),
                               (m.block(slice(1, 2), slice(0, 2)),
                                s.block(slice(1, 2), slice(0, 2)))):
            assert exact.is_exact and not sampled.is_exact
            assert np.abs(exact.values - sampled.values).max() <= 1e-15


def _scene_scalar_fields(scene):
    """Every expression-backed scalar field a shipped scene declares."""
    specs = [scene.field_specs, scene.chart_specs, scene.vector_field_specs,
             scene.quaternion_specs, scene.structure_spec]
    texts = []
    while specs:
        spec = specs.pop()
        if isinstance(spec, str):
            texts.append(spec)
        elif isinstance(spec, dict):
            specs.extend(v for k, v in spec.items()
                         if k not in ("kind", "rep", "pair"))
        elif isinstance(spec, list):
            specs.extend(spec)
    fields = [ScalarField.from_expr(scene.patch, t) for t in texts]
    if scene.structure_spec["kind"] != "hypercomplex":
        fields += [e for row in scene.structure().j_cot.entries for e in row
                   if e.is_exact]
    return fields


@pytest.mark.parametrize("path", sorted(SCENES.glob("*.json")), ids=lambda p: p.stem)
def test_open_mesh_samples_match_full_mesh(path):
    scene = load_scene(path)
    fields = _scene_scalar_fields(scene)
    assert fields
    for f in fields:
        with np.errstate(all="ignore"):
            full = reference_evaluate(f.expr, scene.patch.mesh)
        full = np.broadcast_to(np.asarray(full, dtype=float), scene.patch.resolution)
        assert f.samples.tobytes() == full.tobytes(), str(f.expr)
