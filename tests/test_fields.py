from pathlib import Path

import numpy as np
import pytest

from spencerkit.elliptic import EllipticOperator, apply_pointwise, potential_oneform
from spencerkit.fields import (
    ComplexField,
    EvaluationError,
    MatrixField,
    ModeError,
    Patch,
    PatchError,
    ScalarField,
    complex_gradient,
    d_oneform,
    gradient,
    line_integral,
    matvec,
)
from spencerkit.fixtures import conjugated_hypercomplex
from spencerkit.hypercomplex import k_hyperholo_residual
from spencerkit.report import interior_sup, report_from_pointwise
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
        omega = MatrixField(patch2d, [[c] for c in gradient(u, "exact")])
        r = d_oneform(omega, "exact")
        assert interior_sup(r, patch2d) == 0.0

    def test_rotation_form(self, patch2d):
        omega = MatrixField(patch2d, [[c] for c in (
            ScalarField.from_expr(patch2d, "-x2"),
            ScalarField.from_expr(patch2d, "x1"))])
        r = d_oneform(omega, "exact")
        assert np.abs(r[..., 0, 1] - 2.0).max() == 0.0

    def test_quadratic_component(self, patch2d):
        omega = MatrixField(patch2d, [[c] for c in (
            ScalarField.from_expr(patch2d, "x2^2"),
            ScalarField.from_expr(patch2d, "0"))])
        r = d_oneform(omega, "exact")
        x2 = patch2d.mesh[1]
        assert np.abs(r[..., 0, 1] + 2 * x2).max() < 1e-14

    def test_antisymmetry_access(self, patch2d):
        omega = MatrixField(patch2d, [[c] for c in (
            ScalarField.from_expr(patch2d, "x2^2"),
            ScalarField.from_expr(patch2d, "x1"))])
        r = d_oneform(omega, "exact")
        assert np.array_equal(r[..., 1, 0], -r[..., 0, 1])

    def test_dd_zero_fd_mode(self):
        # smooth fixture, h = 1/32: mixed FD partials commute to roundoff
        p = Patch.box(1, 0.0, 1.0, 33)
        u = ScalarField.from_expr(p, "exp(x1)*sin(x2)").sampled()
        omega = MatrixField(p, [[c] for c in gradient(u, "fd")])
        r = d_oneform(omega, "fd")
        scale = np.abs(u.samples).max()
        assert interior_sup(r, p) <= 1e-8 * scale


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
        omega = MatrixField(patch2d, [[c] for c in (
            ScalarField.from_expr(patch2d, "-x2"),
            ScalarField.from_expr(patch2d, "x1"))])
        val = line_integral(omega, self._square_loop(0.0, 1.0, 16))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_exact_form_closed_loop(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1^2*x2 + x2^3")
        omega = MatrixField(patch2d, [[c] for c in gradient(u, "exact")])
        val = line_integral(omega, self._square_loop(0.0, 1.0, 32))
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_potential_form_of_pluriharmonic_converges_to_zero(self, patch2d):
        # omega = J du for the standard structure and u = x1^2 - x2^2 is
        # closed; quadrature refinement must drive the loop integral to zero
        u = ScalarField.from_expr(patch2d, "x1^2 - x2^2")
        g = gradient(u, "exact")
        jcot = MatrixField.from_exprs(patch2d, [["0", "1"], ["-1", "0"]])
        omega = MatrixField(patch2d, [[c] for c in matvec(jcot, g)])
        vals = [abs(line_integral(omega, self._square_loop(0.25, 0.75, n)))
                for n in (4, 8, 16)]
        assert vals[-1] <= 1e-12
        assert all(v <= 1e-10 for v in vals)

    def test_degenerate_loop_exactly_zero(self, patch2d):
        omega = MatrixField(patch2d, [[c] for c in (
            ScalarField.from_expr(patch2d, "x1"),
            ScalarField.from_expr(patch2d, "x2"))])
        pts = np.array([[0.5, 0.5]] * 4)
        assert line_integral(omega, pts) == 0.0

    def test_point_outside_patch(self, patch2d):
        omega = MatrixField(patch2d, [[c] for c in (
            ScalarField.from_expr(patch2d, "x1"),
            ScalarField.from_expr(patch2d, "x2"))])
        with pytest.raises(ValueError, match="outside"):
            line_integral(omega, np.array([[0.0, 0.0], [2.0, 0.0]]))

    def test_sampled_components_interpolated(self, patch2d):
        omega = MatrixField(patch2d, [[c] for c in (
            ScalarField.from_expr(patch2d, "-x2").sampled(),
            ScalarField.from_expr(patch2d, "x1").sampled())])
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
        z = ComplexField.from_exprs(patch2d, *self.ROWS[1][:2])
        for axis in (1, 2):
            h = patch2d.spacing[axis - 1]
            stacked = m.diff(axis, "fd").values
            for i in range(2):
                for j in range(3):
                    ref = np.gradient(m[i, j].samples, h, axis=axis - 1, edge_order=2)
                    assert stacked[..., i, j].tobytes() == ref.tobytes()
            dz = z.diff(axis, "fd")
            for part, base in ((dz.re, z.re), (dz.im, z.im)):
                ref = np.gradient(base.samples, h, axis=axis - 1, edge_order=2)
                assert part.samples.tobytes() == ref.tobytes()

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

    def test_scalar_and_complex_fields_are_views_on_matrix_storage(self, patch2d):
        u = ScalarField(patch2d, "x1*x2")
        assert isinstance(u, MatrixField) and u.shape == (1, 1)
        assert ScalarField.__slots__ == ()
        assert u._samples is None
        assert np.shares_memory(u.samples, u.values) and u._samples is not None
        z = ComplexField.from_exprs(patch2d, "x1^2", "sin(x2)")
        assert z.parts.shape == (1, 2) and z.re.expr is z.parts.exprs[0][0]
        z.values
        for j, part in enumerate((z.re, z.im)):
            assert np.shares_memory(part.samples, z.parts.values)
            assert np.array_equal(part.samples, z.parts.values[..., 0, j])

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

    def test_exact_and_sampled_complex_products_agree(self, patch2d):
        z = ComplexField.from_exprs(patch2d, "x1", "x2 - x1^2")
        w = ComplexField.from_exprs(patch2d, "x1*x2", "1 - exp(x1)")
        u = ScalarField(patch2d, "sin(x2)")
        zs, ws = (ComplexField(f.re.sampled(), f.im.sampled()) for f in (z, w))
        for exact, sampled in ((z * w, zs * ws), (u * z, u.sampled() * zs),
                               (z * 0.5j, zs * 0.5j), (1 - z * w, 1 - zs * ws),
                               (z.conjugate() + w, zs.conjugate() + ws)):
            assert exact.is_exact and not sampled.is_exact
            assert np.array_equal(exact.values, sampled.values)


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


# -- the form core against per-entry ScalarField.diff ---------------------------

FORM_SCENES = [p for p in sorted(SCENES.glob("*.json")) if p.stem != "hyper_flat"]


def _hessian_entry(u, s, p, mode):
    """(d_s d_p u) read through ``apply_pointwise`` with A = e_s e_p^T, B = 0."""
    patch = u.patch
    a = np.zeros(patch.resolution + (patch.dim, patch.dim))
    a[..., s, p] = 1.0
    zero = ScalarField.from_samples(patch, np.zeros(patch.resolution))
    op = EllipticOperator(patch, MatrixField.from_values(patch, a),
                          (zero,) * patch.dim, mode)
    return apply_pointwise(op, u, mode)


@pytest.mark.parametrize("mode", ["exact", "fd"])
@pytest.mark.parametrize("path", FORM_SCENES, ids=lambda p: p.stem)
class TestFormCore:
    def test_d_oneform_is_antisymmetric_curl_bitwise(self, path, mode):
        scene = load_scene(path)
        acs = scene.structure()
        d = scene.patch.dim
        for u in _scene_scalar_fields(scene):
            omega = potential_oneform(acs, u, mode)
            assert omega.shape == (d, 1)
            r = d_oneform(omega, mode)
            assert r.shape == scene.patch.resolution + (d, d)
            assert np.array_equal(r, -np.swapaxes(r, -1, -2))
            for s in range(d):
                for q in range(d):
                    ref = (omega[q, 0].diff(s + 1, mode).samples
                           - omega[s, 0].diff(q + 1, mode).samples)
                    assert r[..., s, q].tobytes() == ref.tobytes()

    def test_complex_gradient_is_per_part_diff_bitwise(self, path, mode):
        scene = load_scene(path)
        for name, spec in scene.field_specs.items():
            if isinstance(spec, str):
                continue
            f = scene.complex_field(name)
            g = complex_gradient(f, mode)
            for k in range(scene.patch.dim):
                ref = (f.re.diff(k + 1, mode).samples
                       + 1j * f.im.diff(k + 1, mode).samples)
                assert g[..., k].tobytes() == ref.tobytes()

    def test_hessian_is_symmetric_and_per_entry_bitwise(self, path, mode):
        scene = load_scene(path)
        d = scene.patch.dim
        for u in _scene_scalar_fields(scene):
            for s in range(d):
                for p in range(s, d):
                    upper = _hessian_entry(u, s, p, mode)
                    ref = u.diff(s + 1, mode).diff(p + 1, mode).samples
                    assert np.array_equal(upper, ref)
                    assert np.array_equal(_hessian_entry(u, p, s, mode), upper)


@pytest.mark.parametrize("mode", ["exact", "fd"])
@pytest.mark.parametrize("name", ["identity", "conjugate", "square"])
def test_k_hyperholo_matches_per_component_reference(name, mode):
    scene = load_scene(SCENES / "hyper_flat.json")
    frame = np.eye(4) + 0.15 * np.random.default_rng(21).normal(size=(4, 4))
    h = conjugated_hypercomplex(scene.patch, frame)
    G = scene.quaternion_function(name)
    grads = {c: np.stack([getattr(G, c).diff(k, mode).samples
                          for k in range(1, 5)], axis=-1)
             for c in ("u", "v", "zeta", "eta")}
    jc = h.K.cot_values()
    ref = {}
    for part, a, b, sign in (("du", "u", "zeta", -1.0), ("dzeta", "zeta", "u", 1.0),
                             ("dv", "v", "eta", -1.0), ("deta", "eta", "v", 1.0)):
        resid = np.einsum("...qp,...p->...q", jc, grads[a]) - sign * grads[b]
        ref[part] = report_from_pointwise(np.linalg.norm(resid, axis=-1),
                                          scene.patch, mode)
    rep = k_hyperholo_residual(h, G, mode)
    for part, want in ref.items():
        assert abs(rep.breakdown[part] - want.sup_norm) <= 1e-15
    worst = max(ref.values(), key=lambda r: r.sup_norm)
    assert abs(rep.l2_norm - max(r.l2_norm for r in ref.values())) <= 1e-15
    assert rep.worst_node == worst.worst_node
