import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spencerkit import expr, fields
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
    resolve_mode,
)
from spencerkit.fixtures import conjugated_hypercomplex, type1_structure
from spencerkit.hypercomplex import k_hyperholo_residual
from spencerkit.report import interior_sup, report_from_pointwise, \
    tiles as report_tiles
from spencerkit.scene import load_scene

from conftest import reference_evaluate, reference_partial

SCENES = Path(__file__).resolve().parent.parent / "scenes"


class TestPatch:
    def test_basic_properties(self):
        p = Patch(1, ((0.0, 1.0), (0.0, 2.0)), (5, 9))
        assert p.dim == 2
        assert p.spacing == (0.25, 0.25)
        assert p.n_points == 45

    def test_interior_rings(self):
        p = Patch(1, ((0.0, 1.0), (0.0, 2.0)), (5, 9))
        v = np.arange(45.0).reshape(5, 9)
        assert v[p.interior(0)].shape == (5, 9)
        assert v[p.interior()].shape == (3, 7)
        assert v[p.interior(2)].shape == (1, 5)
        # depth 0 reports on every node, as ``sup_and_node`` searches them
        rep = report_from_pointwise(v, p, "exact", depth=0)
        assert rep.sup_norm == 44.0 and rep.worst_node == (4, 8)
        assert rep.l2_norm == np.sqrt(np.mean(v**2))

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

    def test_exact_mode_requires_expression(self, patch2d):
        u = ScalarField.from_samples(patch2d, np.zeros(patch2d.resolution))
        with pytest.raises(ModeError):
            u.diff("exact")


class TestResolveMode:
    def test_auto_is_exact_only_when_every_input_is(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1*x2")
        z = ComplexField.from_exprs(patch2d, "x1", "x2")
        assert resolve_mode("auto", u, z) == "exact"
        assert resolve_mode("auto", u, z, u.sampled()) == "fd"
        assert resolve_mode("fd", u, z) == "fd"
        with pytest.raises(ModeError):
            resolve_mode("exact", u.sampled(), z)
        with pytest.raises(ValueError, match="unknown mode"):
            resolve_mode("symbolic", u)

    def test_inputs_on_different_patches_are_an_error(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1")
        v = ScalarField.from_expr(Patch.box(1, -3.0, 3.0, 9), "x1")
        assert v.patch.resolution == u.patch.resolution
        for mode in ("auto", "exact", "fd"):
            with pytest.raises(ValueError, match="different patches"):
                resolve_mode(mode, u, v)


class TestDiff:
    def test_exact_on_quadratic_interior(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1^2").sampled()
        g = u.diff("fd")
        x1 = patch2d.mesh[0]
        assert np.abs(g[0].samples - 2 * x1).max() < 1e-13

    def test_constant_gradient_zero(self, patch2d):
        g = ScalarField.from_expr(patch2d, "3.5").diff("exact")
        for comp in g:
            assert np.abs(comp.samples).max() == 0.0

    def test_fd_second_order_richardson(self):
        # sin(x1): FD error vs analytic cos must shrink by 4 +- tolerance
        errors = []
        for res in (17, 33):
            p = Patch.box(1, 0.0, 1.0, res)
            u = ScalarField.from_expr(p, "sin(x1)").sampled()
            g = u.diff("fd")[0].samples
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
            exact = u.diff("exact")[1].samples
            fd = u.sampled().diff("fd")[1].samples
            errors.append(np.abs(exact - fd)[p.interior()].max())
        assert 3.0 <= errors[0] / errors[1] <= 5.0

    def test_fields_of_the_callers_type_exact_again_fd_one_stack(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1^3*x2 - 2*x1*x2^2 + x2^3")
        z = ComplexField.from_exprs(patch2d, "x1^2*x2", "x1 - x2^3")
        for f, kind in ((u, ScalarField), (z.parts, MatrixField)):
            for mode in ("exact", "fd"):
                g = f.diff(mode)
                assert len(g) == patch2d.dim
                assert all(type(c) is kind and c.shape == f.shape for c in g)
        # exact: expression-backed fields, differentiated exactly again
        for s, du in enumerate(u.diff("exact"), start=1):
            assert du.is_exact
            for p, ddu in enumerate(du.diff("exact"), start=1):
                ref = ScalarField.from_expr(patch2d, u.expr.derivative(s).derivative(p))
                assert ddu.is_exact
                assert ddu.samples.tobytes() == ref.samples.tobytes()
        # fd: views of one (*grid, d, r, c) stack
        for f in (u.sampled(), z.parts):
            g = f.diff("fd")
            stack = g[0].values.base
            assert stack.shape == patch2d.resolution + (patch2d.dim,) + f.shape
            for s, c in enumerate(g):
                assert c.values.base is stack and np.shares_memory(c.values, stack)
                assert c.values.tobytes() == stack[..., s, :, :].tobytes()


class TestDOneForm:
    def test_d_of_du_vanishes_exact(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1*x2")
        omega = MatrixField(patch2d, [[c] for c in u.diff("exact")])
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
        omega = MatrixField(p, [[c] for c in u.diff("fd")])
        r = d_oneform(omega, "fd")
        scale = np.abs(u.samples).max()
        assert interior_sup(r, p) <= 1e-8 * scale


class TestFieldAlgebra:
    def test_expression_backed_arithmetic_stays_exact(self, patch2d):
        u = ScalarField.from_expr(patch2d, "x1")
        v = ScalarField.from_expr(patch2d, "x2")
        w = u * v + u
        assert w.is_exact
        assert w.diff("exact")[0].samples[2, 3] == pytest.approx(
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
        for axis, dm, dz in zip((1, 2), m.diff("fd"), z.parts.diff("fd")):
            for f, df in ((m, dm), (z.parts, dz)):
                for i, j in np.ndindex(f.shape):
                    ref = reference_partial(f[i, j], axis, "fd").values
                    assert df[i, j].values.tobytes() == ref.tobytes()

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
                layer = reference_partial(m, s, mode).values
                assert np.array_equal(stacked[..., s - 1, :, :], layer)
                # array_equal cannot tell -0.0 from +0.0; the bytes can
                assert stacked[..., s - 1, :, :].tobytes() == layer.tobytes()

    def test_exact_stack_is_one_walk_and_one_evaluation(self, patch2d, monkeypatch):
        walks, evaluations = [], []
        walk, evaluate_all = expr._walk, fields.evaluate_all

        def counting_walk(roots, skip=None, uses=None):
            if skip is not None:  # a derivative walk; evaluation passes uses
                walks.append(len(roots))
            return walk(roots, skip, uses)

        def counting_evaluate_all(exprs, coords):
            evaluations.append(len(exprs))
            return evaluate_all(exprs, coords)

        monkeypatch.setattr(expr, "_walk", counting_walk)
        monkeypatch.setattr(fields, "evaluate_all", counting_evaluate_all)
        MatrixField.from_exprs(patch2d, self.ROWS).derivatives("exact")
        # one walk over the 2 x 3 entries, one evaluation of the 2 x 2 x 3 stack
        assert walks == [6] and evaluations == [12]

    @pytest.mark.parametrize("rows, message, node, tiles", [
        ([["x2", "sqrt(x1)"]], "'1.0 / (2.0 * sqrt(x1))'", (0, 0), ()),
        # axis 1 has a non-finite value, axis 2 a raising constant (0^-1):
        # the error is axis 1's, as when each axis was sampled on its own
        ([["sqrt(x1) + x2*0^-1"]], "'1.0 / (2.0 * sqrt(x1))'", (0, 0),
         [(slice(3, 5), slice(0, 9))]),
        ([["x2*0^-1", "sqrt(x1)"]], "'1.0 / (2.0 * sqrt(x1))'", (0, 0),
         [(slice(0, 2), slice(0, 9))]),
        # axis 1 is non-finite from row 6 on, axis 2 on column 0 of every
        # row: a tile of rows 0 and 1 meets only axis 2's error, and a tile
        # of row 6 from column 3 on, axis 1's at another node
        ([["sqrt(x2)", "sqrt(0.75 - x1)"]], "'(-1.0) / (2.0 * sqrt(0.75 - x1))'", (6, 0),
         [(slice(0, 2), slice(0, 9)), (slice(6, 7), slice(3, 9)), (slice(8, 9), slice(0, 9))]),
    ], ids=["rows0", "rows1", "rows2", "rows3"])
    def test_exact_stack_error_names_first_axis_entry_and_node(self, patch2d, rows,
                                                               message, node, tiles):
        m = MatrixField.from_exprs(patch2d, rows)
        # the whole grid, then tiles with a non-finite derivative
        for tile in (None, *tiles):
            with pytest.raises(EvaluationError) as err:
                m.derivatives("exact", tile)
            assert str(err.value) == f"non-finite value in field {message} at node {node}"
            assert err.value.node == node

    def test_exact_stack_peak_memory_is_near_its_size(self):
        # 4D grid 13: the stack is 13.9 MiB; sampling the axes one by one
        # peaked at 1.28 times that, the batched slab write at 1.09
        j_tan = type1_structure(Patch.box(2, -1.0, 1.0, 13)).j_tan
        tracemalloc.start()
        try:
            stack = j_tan.derivatives("exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * stack.nbytes

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


class TestSampleSlabs:
    # integer coordinates: x1 = 0 .. 10 on 11 rows, x2 = 0 .. 6 on 7 columns
    PATCH = Patch(1, ((0.0, 10.0), (0.0, 6.0)), (11, 7))
    # every shape evaluate_all returns: a Python float, a numpy scalar, open
    # mesh arrays varying along one axis, (11, 1) and (1, 7), and the full
    # grid
    TEXTS = ["2.5", "sin(2)", "x1^2 - 3", "exp(x2)", "x1*x2 + sin(x1 - x2)",
             "-1", "x1/7", "x2*cos(x1*x2)"]

    # one row per slab, or three rows with a last slab of two; all eight
    # roots, or two of them (an open mesh root and a full-grid one)
    @pytest.mark.parametrize("texts", [TEXTS, TEXTS[3:5]])
    @pytest.mark.parametrize("rows, slabs", [(1, 11), (3, 4)])
    def test_slab_seams_do_not_change_bytes(self, monkeypatch, texts, rows, slabs):
        exprs = [fields._field_expr(self.PATCH, t) for t in texts]
        whole = fields._sample(self.PATCH, exprs)
        copies = []
        moveaxis = np.moveaxis
        monkeypatch.setattr(np, "moveaxis", lambda *a: copies.append(a) or moveaxis(*a))
        monkeypatch.setattr(fields, "SAMPLE_BUFFER_BYTES", rows * 7 * 8 * len(exprs))
        slabbed = fields._sample(self.PATCH, exprs)
        assert len(copies) == slabs  # one transposing copy per slab
        assert slabbed.shape == (11, 7, len(exprs))
        assert slabbed.tobytes() == whole.tobytes()
        for k, e in enumerate(exprs):
            with np.errstate(all="ignore"):
                ref = reference_evaluate(e, self.PATCH.mesh)
            assert slabbed[..., k].tobytes() == \
                np.broadcast_to(ref, (11, 7)).astype(float).tobytes()

    def test_non_finite_root_in_a_later_slab_is_named(self, monkeypatch):
        # root 1 is infinite on row 9 only, root 2 on row 2 only, and the
        # last row is finite: the first expression with a non-finite value
        # is named, at its first node
        exprs = [fields._field_expr(self.PATCH, t)
                 for t in ["x1", "1/(x1 - 9)", "1/(x1 - 2)"] + self.TEXTS[:5]]
        monkeypatch.setattr(fields, "SAMPLE_BUFFER_BYTES", 1)
        with pytest.raises(EvaluationError) as err:
            fields._sample(self.PATCH, exprs)
        assert str(err.value) == "non-finite value in field '1.0 / (x1 - 9.0)' at node (9, 0)"



class TestConstantFields:
    """A field whose entries use no variable samples one node: its values
    are a read-only broadcast view of the full shape."""

    PATCH = Patch.box(2, -1.0, 1.0, 6)

    def test_values_are_one_node_broadcast(self):
        m = MatrixField.constant(self.PATCH, [[1.0, 2.0], [3.0, 4.0]])
        v = m.values
        assert v.shape == self.PATCH.resolution + (2, 2)
        assert v.strides[:4] == (0, 0, 0, 0)
        assert v.tobytes() == np.broadcast_to([[1.0, 2.0], [3.0, 4.0]], v.shape).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            v[1, 2, 3, 4, 0, 0] = 5.0
        assert m[1, 0].samples.strides == (0, 0, 0, 0)
        # a field that uses a variable is sampled at every node
        assert all(MatrixField.from_exprs(self.PATCH, [["x3", "2"]]).values.strides[:4])

    def test_a_row_of_sampled_constants_stays_one_node(self):
        re, im = (ScalarField.const(self.PATCH, x).sampled() for x in (1.5, -0.25))
        parts = ComplexField(re, im).parts.values
        assert parts.shape == self.PATCH.resolution + (1, 2)
        assert parts.strides[:4] == (0, 0, 0, 0)
        assert parts.tobytes() == np.broadcast_to([[1.5, -0.25]], parts.shape).tobytes()
        # beside an entry that uses a variable the row stacks the full grid
        x3 = ScalarField.from_expr(self.PATCH, "x3").sampled()
        mixed = ComplexField(re, x3).parts.values
        assert all(mixed.strides[:4])
        assert mixed.tobytes() == np.stack([np.broadcast_to(1.5, x3.samples.shape),
                                            x3.samples], axis=-1)[..., None, :].tobytes()

    # the error names the same expression and node as sampling every node
    # did: a constant raises, or is non-finite, at every node alike
    @pytest.mark.parametrize("text, values, exact", [
        ("1/0", "non-finite constant (ZeroDivisionError) in field '1.0 / 0.0'",
         "non-finite constant (ZeroDivisionError) in field '0.0 / 0.0'"),
        ("10^400", "non-finite constant (OverflowError) in field '10.0^400'", None),
        ("exp(1000)", "non-finite value in field 'exp(1000.0)'", None),
    ])
    def test_a_bad_constant_names_its_expression_and_the_first_node(
            self, text, values, exact):
        m = MatrixField.from_exprs(self.PATCH, [["2", text]])
        tile = list(report_tiles(self.PATCH.resolution, 36))[7]  # not at node 0
        for sample, message in ((lambda: m.values, values),
                                (lambda: m.derivatives("fd", tile), values),
                                (lambda: m.derivatives("exact", tile), exact)):
            if message is None:  # the derivative of a constant power is 0
                assert not sample().any()
                continue
            with pytest.raises(EvaluationError) as err:
                sample()
            assert str(err.value) == f"{message} at node (0, 0, 0, 0)"
            assert err.value.node == (0, 0, 0, 0)

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


# -- the form core against per-entry partials (conftest.reference_partial) -----

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
                    ref = (reference_partial(omega[q, 0], s + 1, mode).values
                           - reference_partial(omega[s, 0], q + 1, mode).values)
                    ref = ref[..., 0, 0]
                    assert r[..., s, q].tobytes() == ref.tobytes()

    def test_complex_gradient_is_per_part_diff_bitwise(self, path, mode):
        scene = load_scene(path)
        for name, spec in scene.field_specs.items():
            if isinstance(spec, str):
                continue
            f = scene.complex_field(name)
            g = complex_gradient(f, mode)
            for k in range(scene.patch.dim):
                df = reference_partial(f.parts, k + 1, mode).values
                ref = df[..., 0, 0] + 1j * df[..., 0, 1]
                assert g[..., k].tobytes() == ref.tobytes()

    def test_hessian_is_symmetric_and_per_entry_bitwise(self, path, mode):
        scene = load_scene(path)
        d = scene.patch.dim
        for u in _scene_scalar_fields(scene):
            for s in range(d):
                for p in range(s, d):
                    upper = _hessian_entry(u, s, p, mode)
                    ref = reference_partial(reference_partial(u, s + 1, mode),
                                            p + 1, mode).values[..., 0, 0]
                    assert np.array_equal(upper, ref)
                    assert np.array_equal(_hessian_entry(u, p, s, mode), upper)


@pytest.mark.parametrize("mode", ["exact", "fd"])
@pytest.mark.parametrize("name", ["identity", "conjugate", "square"])
def test_k_hyperholo_matches_per_component_reference(name, mode):
    scene = load_scene(SCENES / "hyper_flat.json")
    frame = np.eye(4) + 0.15 * np.random.default_rng(21).normal(size=(4, 4))
    h = conjugated_hypercomplex(scene.patch, frame)
    G = scene.quaternion_function(name)
    grads = {c: np.stack([reference_partial(getattr(G, c), k, mode).values[..., 0, 0]
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
