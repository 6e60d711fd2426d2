import numpy as np
import pytest

from conftest import curved_chart
from spencerkit.fields import ComplexField, MatrixField, Patch
from spencerkit.fixtures import (
    conjugated_hypercomplex,
    coordinate_function,
    flat_hypercomplex,
    standard_structure,
    type1_chart_functions,
    type1_structure,
)
from spencerkit.holomorphy import antiholo_residual, holo_residual
from spencerkit import spencer, structures
from spencerkit.hypercomplex import QuaternionFunction
from spencerkit.report import slab_map
from spencerkit.spencer import (
    ChartError,
    DegenerateChartError,
    SpencerChart,
    _basis_columns,
    _over_basis,
    fit_polynomial_map,
    hyper_spencer_pattern_check,
    independence_rank,
    superposition_check,
    transition_holomorphy_check,
    verify_chart,
)


@pytest.fixture
def type1(patch4d):
    acs = type1_structure(patch4d)
    holo, comp = type1_chart_functions(patch4d)
    return acs, SpencerChart(1, tuple(holo), tuple(comp))


def _t(n):
    """T = [[E, E], [iE, -iE]], which takes a chart's real frame R to its
    complex basis B = R T."""
    e = np.eye(n)
    return np.block([[e, e], [1j * e, -1j * e]])


def _chart_basis(chart, mode="exact"):
    """The complex chart basis B = R T, from the real Jacobian R of the
    chart map."""
    return _basis_columns(chart, mode) @ _t(chart.n)


class TestVerifyChart:
    def test_integrable_full_type(self, patch4d):
        std = standard_structure(patch4d)
        chart = SpencerChart(2, (coordinate_function(patch4d, 1),
                                 coordinate_function(patch4d, 2)), ())
        rep = verify_chart(std, chart)
        assert rep.passes
        assert max(rep.block_residuals.values()) <= 1e-12
        # integrable case: even the unconstrained blocks are structured
        # (the full representation is diag(i, i, -i, -i))
        basis = _chart_basis(chart)
        jc = std.cot_values().astype(complex)
        M = np.linalg.solve(basis, np.einsum("...ij,...jk->...ik", jc, basis))
        ref = np.diag([1j, 1j, -1j, -1j])
        assert np.abs(M - ref).max() <= 1e-12

    def test_type1_chart_passes_with_genuine_stars(self, type1, patch4d):
        acs, chart = type1
        rep = verify_chart(acs, chart)
        assert rep.passes
        assert max(rep.block_residuals.values()) <= 1e-10
        # the unconstrained complement column genuinely carries the structure
        basis = _chart_basis(chart)
        jc = acs.cot_values().astype(complex)
        M = np.linalg.solve(basis, np.einsum("...ij,...jk->...ik", jc, basis))
        star = np.abs(M[..., 2, 1])  # dz_bar row of the dw column
        assert star.max() > 0.5

    def test_overclaimed_type_fails(self, type1, patch4d):
        acs, _ = type1
        holo, comp = type1_chart_functions(patch4d)
        chart = SpencerChart(2, (holo[0], comp[0]), ())
        rep = verify_chart(acs, chart)
        assert not rep.passes
        assert max(rep.holo_residuals) > 0.1

    def test_degenerate_jacobian_detected(self, patch4d):
        std = standard_structure(patch4d)
        z1 = coordinate_function(patch4d, 1)
        with pytest.raises(DegenerateChartError):
            verify_chart(std, SpencerChart(2, (z1, z1), ()))

    def test_fd_mode_tolerance_scales_with_grid(self):
        p = Patch.box(2, -1.0, 1.0, 9)
        acs = type1_structure(p)
        holo, comp = type1_chart_functions(p)
        chart = SpencerChart(1, tuple(holo), tuple(comp))
        sampled_chart = SpencerChart(
            1,
            tuple(ComplexField(f.re.sampled(), f.im.sampled()) for f in holo),
            tuple(ComplexField(f.re.sampled(), f.im.sampled()) for f in comp))
        rep = verify_chart(acs, sampled_chart)
        assert rep.mode == "fd"
        assert rep.passes  # linear chart: finite differences are exact


class TestIndependenceRank:
    def test_full_rank_coordinates(self, patch4d):
        chart = SpencerChart(2, (coordinate_function(patch4d, 1),
                                 coordinate_function(patch4d, 2)), ())
        assert independence_rank(chart) == 2

    def test_dependent_pair_detected(self, patch4d):
        z1 = coordinate_function(patch4d, 1)
        chart = SpencerChart(2, (z1, z1 * z1), ())
        # rank drops to 1 on the locus z1 = 0, which lies on this grid
        assert independence_rank(chart) == 1

    def test_linear_recombination_keeps_rank(self, patch4d):
        z1 = coordinate_function(patch4d, 1)
        z2 = coordinate_function(patch4d, 2)
        assert independence_rank(SpencerChart(2, (z1, z1 + z2), ())) == 2

    def test_rank_invariant_under_constant_recombination(self, patch4d):
        rng = np.random.default_rng(3)
        z1 = coordinate_function(patch4d, 1)
        z2 = coordinate_function(patch4d, 2)
        for _ in range(5):
            a = [complex(*v) for v in rng.normal(size=(4, 2))]
            det = a[0] * a[3] - a[1] * a[2]
            if abs(det) < 0.1:
                continue
            w1 = z1 * a[0] + z2 * a[1]
            w2 = z1 * a[2] + z2 * a[3]
            assert independence_rank(SpencerChart(2, (w1, w2), ())) == 2

    def test_type0_chart_has_rank_zero(self, patch2d):
        chart = SpencerChart(0, (), (coordinate_function(patch2d, 1),))
        assert independence_rank(chart) == 0


class TestSuperposition:
    def test_square_of_holomorphic_coordinate(self, type1):
        acs, chart = type1
        h = chart.holo[0] * chart.holo[0]
        rep = superposition_check(acs, chart, h)
        assert rep.sup_norm <= 1e-12

    def test_classical_exponential(self, patch2d_sym):
        std = standard_structure(patch2d_sym)
        z = ComplexField.from_exprs(patch2d_sym, "x1", "x2")
        chart = SpencerChart(1, (z,), ())
        expz = ComplexField.from_exprs(patch2d_sym, "exp(x1)*cos(x2)",
                                       "exp(x1)*sin(x2)")
        rep = superposition_check(std, chart, expz)
        assert rep.sup_norm <= 1e-10

    def test_sampled_h_runs_in_fd(self, patch2d_sym):
        std = standard_structure(patch2d_sym)
        z = ComplexField.from_exprs(patch2d_sym, "x1", "x2")
        h = z * z
        sampled = ComplexField(h.re.sampled(), h.im.sampled())
        rep = superposition_check(std, SpencerChart(1, (z,), ()), sampled)
        assert rep.mode == "fd"
        assert rep.sup_norm <= 1e-12

    def test_non_holomorphic_input_rejected(self, type1):
        acs, chart = type1
        h = chart.holo[0] + chart.complement[0]
        with pytest.raises(ChartError, match="not almost holomorphic"):
            superposition_check(acs, chart, h)

    def test_chart_is_verified_at_the_given_tolerance(self, type1):
        acs, chart = type1
        z = chart.holo[0]
        # off holomorphic by O(1e-3): passes at 0.1, fails the default 1e-8
        bent = SpencerChart(1, (z + ComplexField.from_exprs(z.patch, "0.001*x3^2", "0"),),
                            chart.complement)
        with pytest.raises(ChartError, match="chart failed verification"):
            superposition_check(acs, bent, z * z)
        rep = superposition_check(acs, bent, z * z, tolerance=0.1)
        assert 1e-3 < rep.sup_norm < 2e-3
        with pytest.raises(ChartError, match="chart failed verification"):
            superposition_check(acs, bent, z * z, tolerance=1e-3)

    def test_coefficients_covariant_under_recombination(self, patch4d):
        std = standard_structure(patch4d)
        z1 = coordinate_function(patch4d, 1)
        z2 = coordinate_function(patch4d, 2)
        h = z1 * z2 + z2 * z2
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = [complex(*v) for v in rng.normal(size=(4, 2))]
            if abs(a[0] * a[3] - a[1] * a[2]) < 0.1:
                continue
            chart = SpencerChart(2, (z1 * a[0] + z2 * a[1],
                                     z1 * a[2] + z2 * a[3]), ())
            rep = superposition_check(std, chart, h)
            assert rep.sup_norm <= 1e-10


class TestTransition:
    def test_affine_transition(self, patch2d_sym):
        std = standard_structure(patch2d_sym)
        z = ComplexField.from_exprs(patch2d_sym, "x1", "x2")
        ca = SpencerChart(1, (z,), ())
        cb = SpencerChart(1, (z * 2.0 + 1.0,), ())
        rep = transition_holomorphy_check(ca, cb, std)
        assert rep.sup_norm <= 1e-12

    def test_square_transition_off_origin(self):
        p = Patch.box(1, 0.5, 1.5, 9)
        std = standard_structure(p)
        z = ComplexField.from_exprs(p, "x1", "x2")
        ca = SpencerChart(1, (z,), ())
        cb = SpencerChart(1, (z * z,), ())
        rep = transition_holomorphy_check(ca, cb, std)
        assert rep.sup_norm <= 1e-10

    def test_conjugate_chart_rejected_before_transition(self, patch2d_sym):
        std = standard_structure(patch2d_sym)
        z = ComplexField.from_exprs(patch2d_sym, "x1", "x2")
        ca = SpencerChart(1, (z,), ())
        cbar = SpencerChart(1, (z.conjugate(),), ())
        with pytest.raises(ChartError, match="failed verification"):
            transition_holomorphy_check(ca, cbar, std)

    def test_disjoint_patches_rejected(self, patch2d_sym):
        std = standard_structure(patch2d_sym)
        z = ComplexField.from_exprs(patch2d_sym, "x1", "x2")
        other = Patch.box(1, 5.0, 6.0, 9)
        zo = ComplexField.from_exprs(other, "x1", "x2")
        with pytest.raises(ChartError, match="disjoint"):
            transition_holomorphy_check(SpencerChart(1, (z,), ()),
                                        SpencerChart(1, (zo,), ()), std)


class TestHyperPattern:
    def test_flat_identity_chart(self, patch4d):
        h = flat_hypercomplex(patch4d)
        F = QuaternionFunction.identity(patch4d)
        rep = hyper_spencer_pattern_check(h, [F.f], [F.phi])
        assert rep.passes
        assert rep.holo_pattern.passes and rep.antiholo_pattern.passes

    def test_affine_transition_is_affine(self, patch4d):
        h = flat_hypercomplex(patch4d)
        F = QuaternionFunction.identity(patch4d)
        trans = QuaternionFunction.affine(patch4d, (0.5, 1.0, -0.25, 2.0),
                                          (0.0, 1.0, 0.0, -1.0))
        rep = hyper_spencer_pattern_check(h, [F.f], [F.phi], transition=trans)
        assert rep.passes
        assert rep.transition["affine_fit_residual"] <= 1e-9
        assert rep.transition["j_residual"] <= 1e-10
        assert rep.transition["k_residual"] <= 1e-10

    def test_sampled_transition_runs_in_fd(self, patch4d):
        h = flat_hypercomplex(patch4d)
        F = QuaternionFunction.identity(patch4d)
        trans = QuaternionFunction.affine(patch4d, (0.5, 1.0, -0.25, 2.0),
                                          (0.0, 1.0, 0.0, -1.0))
        sampled = QuaternionFunction(*(c.sampled() for c in trans.components()))
        rep = hyper_spencer_pattern_check(h, [F.f], [F.phi], transition=sampled)
        assert rep.holo_pattern.mode == "fd"
        assert rep.passes

    def test_square_transition_fails_k(self, patch4d):
        h = flat_hypercomplex(patch4d)
        F = QuaternionFunction.identity(patch4d)
        sq = QuaternionFunction.from_exprs(
            patch4d, "x1^2 - x2^2 - x3^2 - x4^2", "2*x1*x2", "2*x1*x3",
            "2*x1*x4")
        rep = hyper_spencer_pattern_check(h, [F.f], [F.phi], transition=sq)
        assert not rep.passes
        assert rep.transition["k_residual"] > 0.1
        assert "affine_fit_residual" not in rep.transition

    def test_two_quaternionic_coordinates_on_h2(self, monkeypatch):
        # full chart on the 8-dimensional flat pair: both coordinate pairs
        p8 = Patch.box(4, -1.0, 1.0, 5)
        h = flat_hypercomplex(p8)
        f1 = coordinate_function(p8, 1)
        phi1 = coordinate_function(p8, 2)
        f2 = coordinate_function(p8, 3)
        phi2 = coordinate_function(p8, 4)
        # one derivative stack of all four coordinates, the chart's R
        calls, rep = _derivative_calls(
            monkeypatch, lambda: hyper_spencer_pattern_check(h, [f1, f2], [phi1, phi2]))
        assert calls == 1
        assert rep.passes
        assert rep.holo_pattern.m == 2

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    @pytest.mark.parametrize("pair", ["flat", "conjugated"])
    def test_residuals_are_those_of_each_coordinate(self, patch4d, pair, mode):
        # the chart-led residuals are holo_residual of each f, and the
        # antichart-led ones holo_residual of each conj(phi), bit for bit
        h = flat_hypercomplex(patch4d) if pair == "flat" else _conjugated_pair(patch4d)
        f = coordinate_function(patch4d, 1) + ComplexField.from_exprs(
            patch4d, "0.2*x1*x3", "0.1*x2^2")
        phi = coordinate_function(patch4d, 2) + ComplexField.from_exprs(
            patch4d, "0.1*x4^2", "0.2*x1*x2")
        rep = hyper_spencer_pattern_check(h, [f], [phi], mode=mode)
        holo = holo_residual(h.J, f, mode).sup_norm
        anti = holo_residual(h.J, phi.conjugate(), mode).sup_norm
        assert min(holo, anti) > 0.0
        assert rep.holo_pattern.holo_residuals == (holo,)
        assert rep.antiholo_pattern.holo_residuals == (anti,)
        assert rep.precondition_residuals == {"holo_1": holo, "antiholo_1": anti}


def _conjugated_pair(patch):
    frame = np.eye(4) + 0.1 * np.random.default_rng(5).normal(size=(4, 4))
    return conjugated_hypercomplex(patch, frame)


class TestMirrorPattern:
    """The antichart-led pattern is read from the chart-led solve; the
    antichart-led chart verified on its own is the reference."""

    @pytest.mark.parametrize("pair, curved, passes", [
        ("flat", False, True), ("conjugated", False, False), ("conjugated", True, False)])
    @pytest.mark.parametrize("mode", ["exact", "fd"])
    def test_antiholo_pattern_matches_the_mirror_chart(self, patch4d, pair, curved,
                                                       passes, mode):
        h = flat_hypercomplex(patch4d) if pair == "flat" else _conjugated_pair(patch4d)
        F = QuaternionFunction.identity(patch4d)
        f, phi = F.f, F.phi
        if curved:  # worst nodes away from the first interior node
            f = f + ComplexField.from_exprs(patch4d, "0.2*x1^2*x3", "0.1*x2*x4^2")
            phi = phi + ComplexField.from_exprs(patch4d, "0.1*x3^3", "0.2*x1*x2")
        rep = hyper_spencer_pattern_check(h, [f], [phi], mode=mode, tolerance=1e-8)
        mirror = verify_chart(h.J, SpencerChart(1, (phi.conjugate(),), (f,)), mode, 1e-8)
        anti = rep.antiholo_pattern
        assert anti.passes is mirror.passes is passes
        assert anti.block_residuals.keys() == mirror.block_residuals.keys()
        for name, value in mirror.block_residuals.items():
            assert abs(anti.block_residuals[name] - value) <= 1e-15
        assert anti.worst_node == mirror.worst_node
        if curved:
            assert anti.worst_node != (1, 1, 1, 1)
        assert rep.precondition_residuals == {
            "holo_1": holo_residual(h.J, f, mode).sup_norm,
            "antiholo_1": antiholo_residual(h.J, phi, mode).sup_norm}
        assert rep.holo_pattern == verify_chart(
            h.J, SpencerChart(1, (f,), (phi.conjugate(),)), mode, 1e-8)


def _derivative_calls(monkeypatch, check):
    """The number of ``MatrixField.derivatives`` calls during ``check()``,
    and its result."""
    calls = []
    derivatives = MatrixField.derivatives

    def counting(self, *args, **kwargs):
        calls.append(self)
        return derivatives(self, *args, **kwargs)

    monkeypatch.setattr(MatrixField, "derivatives", counting)
    result = check()
    return len(calls), result


class TestOneBasisPerChart:
    """Each chart check takes the real Jacobian R of each chart once, as one
    derivative stack of the chart's real parts (the 8-dim hyper check is
    counted in TestHyperPattern)."""

    def test_verify_chart(self, monkeypatch, type1):
        acs, chart = type1
        calls, _ = _derivative_calls(monkeypatch, lambda: verify_chart(acs, chart))
        assert calls == 1

    def test_superposition(self, monkeypatch, type1):
        # R, then the gradient of h
        acs, chart = type1
        h = chart.holo[0] * chart.holo[0]
        calls, _ = _derivative_calls(monkeypatch,
                                     lambda: superposition_check(acs, chart, h))
        assert calls == 2

    def test_transition(self, monkeypatch, patch2d_sym):
        std = standard_structure(patch2d_sym)
        z = ComplexField.from_exprs(patch2d_sym, "x1", "x2")
        ca, cb = SpencerChart(1, (z,), ()), SpencerChart(1, (z * 2.0 + 1.0,), ())
        calls, _ = _derivative_calls(monkeypatch,
                                     lambda: transition_holomorphy_check(ca, cb, std))
        assert calls == 2  # one R per chart

    def test_a_linear_chart_has_one_frame_node_in_exact_mode(self, type1):
        # R of (x1 + i x2, x3 + i x4) is [grad x1, grad x3, grad x2, grad x4]
        _, chart = type1
        frame = _basis_columns(chart, "exact")
        assert frame.shape == chart.patch.resolution + (4, 4)
        assert not any(frame.strides[:4])
        assert frame[0, 0, 0, 0].tobytes() == np.eye(4)[:, [0, 2, 1, 3]].tobytes()
        # an fd derivative stack is a new array
        assert all(_basis_columns(chart, "fd").strides[:4])

    @pytest.mark.parametrize("pair", ["flat", "conjugated"])
    def test_a_constant_structure_reads_a_linear_chart_on_one_node(self, monkeypatch,
                                                                  pair):
        # on a spacing of 0.5 the fd R of the chart's sampled copy is exact,
        # so that copy's run over every node is the reference, bit for bit
        patch = Patch.box(2, -1.5, 1.5, 7)
        h = flat_hypercomplex(patch) if pair == "flat" else _conjugated_pair(patch)
        w, z = coordinate_function(patch, 1), coordinate_function(patch, 2)
        chart = SpencerChart(1, (w,), (z,))
        sampled = SpencerChart(1, *[(ComplexField(f.re.sampled(), f.im.sampled()),)
                                    for f in (w, z)])
        nodes = []  # the nodes each kernel call of the chart check gets

        def counted(kernel, *args):
            return slab_map(lambda *v: nodes.append(len(v[0])) or kernel(*v), *args)

        monkeypatch.setattr(spencer, "slab_map", counted)
        rep = verify_chart(h.J, chart, tolerance=1e-8)
        assert nodes == [1, 1]  # the determinant guard, then the pattern
        nodes.clear()
        ref = verify_chart(h.J, sampled, tolerance=1e-8)
        # the guard on every node, the pattern on the interior its report reads
        assert nodes == [patch.n_points, 5 ** 4]
        assert (rep.mode, ref.mode) == ("exact", "fd")
        assert _bits(rep) == _bits(ref)
        if pair == "conjugated":
            assert min(rep.holo_residuals) > 0.0 and not rep.passes


def _bits(rep):
    """A pattern report but its mode, each float by its bits."""
    floats = [*rep.block_residuals.values(), *rep.holo_residuals, rep.tolerance]
    return ([np.float64(x).tobytes() for x in floats], list(rep.block_residuals),
            rep.passes, rep.worst_node)


def _swapped(m):
    """The antichart-led order of ``hyper_spencer_pattern_check``."""
    return np.arange(4 * m).reshape(4, m)[[1, 0, 3, 2]].ravel()


def _reference_representation(jc, basis, order):
    """B^-1 jc B for the basis B[:, order], by one complex solve."""
    basis = basis[..., order]
    return np.linalg.solve(basis, jc.astype(complex) @ basis)


def _first_columns_gaps(jc, frame, order):
    """The reference M = B^-1 jc B, B = R T, in ``order``, and two gaps: of
    [P; Q] = ``_over_basis(R, jc R)``, rows and columns in ``order``, from
    M's first n columns, and of M's last n columns from the conjugates of
    its first n with the halves swapped, M = [[P, conj Q], [Q, conj P]]:
    what lets the checks read [P; Q] alone."""
    n = frame.shape[-1] // 2
    ref = _reference_representation(jc, frame @ _t(n), order)
    conj_gap = max(np.abs(ref[..., n:, n:] - ref[..., :n, :n].conj()).max(),
                   np.abs(ref[..., :n, n:] - ref[..., n:, :n].conj()).max())
    rows = np.arange(2 * n)[order]
    pq = _over_basis(frame, jc @ frame)[..., rows, :][..., rows[:n]]
    return ref, np.abs(pq - ref[..., :n]).max(), conj_gap


class TestRealFrame:
    """The checks factor the real Jacobian R of the chart map and apply T^-1
    in closed form; the complex basis B = R T, factored per node, is the
    reference."""

    @pytest.mark.parametrize("order", ["lead", "swapped"])
    @pytest.mark.parametrize("curved", [False, True])
    def test_representation_on_type1(self, type1, patch4d, curved, order):
        acs, chart = type1
        if curved:
            chart = curved_chart(patch4d)
        order = slice(None) if order == "lead" else _swapped(1)
        ref, gap, conj_gap = _first_columns_gaps(
            acs.cot_values(), _basis_columns(chart, "exact"), order)
        assert np.abs(ref).max() > 1.0
        assert conj_gap <= 1e-12
        assert gap <= 1e-12

    @pytest.mark.parametrize("order", ["lead", "swapped"])
    @pytest.mark.parametrize("pair", ["flat", "conjugated"])
    def test_representation_on_the_8_dim_hyper_fixture(self, pair, order):
        # the chart of test_two_quaternionic_coordinates_on_h2, at one node:
        # its gradients are constant, and the full grid holds 390,625 nodes
        p8 = Patch.box(4, -1.0, 1.0, 5)
        g = np.eye(8) + 0.1 * np.random.default_rng(8).normal(size=(8, 8))
        h = flat_hypercomplex(p8) if pair == "flat" else conjugated_hypercomplex(p8, g)
        f1, phi1, f2, phi2 = (coordinate_function(p8, k) for k in (1, 2, 3, 4))
        chart = (f1, f2, phi1.conjugate(), phi2.conjugate())
        frame = np.empty((8, 8))
        for j, fn in enumerate(chart):
            frame[:, j::4] = fn.parts.derivatives("exact")[(0,) * 8][:, 0, :]
        order = slice(None) if order == "lead" else _swapped(2)
        _, gap, conj_gap = _first_columns_gaps(h.J.cot_values()[(0,) * 8], frame, order)
        assert conj_gap <= 1e-12
        assert gap <= 1e-12

    @pytest.mark.parametrize("d", [4, 8])
    def test_representation_of_random_matrices(self, d):
        rng = np.random.default_rng(d)
        frame, jc = rng.normal(size=(2, 500, d, d))
        ref, gap, conj_gap = _first_columns_gaps(jc, frame, slice(None))
        assert conj_gap <= 1e-12 * np.abs(ref).max()
        assert gap <= 1e-12 * np.abs(ref).max()

    def test_each_solve_reads_its_tile_of_r_without_copying_it(self, monkeypatch, type1,
                                                                patch4d):
        # in fd mode R spans the grid; the pattern, superposition and
        # transition kernels get each tile of it as one entry-major copy,
        # which the closed-form solve reads as it is (``_entry_major``)
        acs, chart = type1
        bent = SpencerChart(1, (ComplexField.from_exprs(patch4d, "x1 + 0.1*(x1^2 - x2^2)",
                                                        "x2 + 0.2*x1*x2"),), chart.complement)
        layouts = []
        adjugate = structures._adjugate

        def recording(v):
            layouts.append(np.moveaxis(v, (-2, -1), (0, 1)).flags.c_contiguous)
            return adjugate(v)

        monkeypatch.setattr(structures, "_adjugate", recording)
        superposition_check(acs, chart, chart.holo[0] * chart.holo[0], "fd")
        transition_holomorphy_check(chart, bent, acs, "fd")
        # the superposition's pattern and coefficients, then the two
        # patterns of the transition and its expansion, one tile each
        assert layouts == [True] * 5

    def test_superposition_coefficients(self, patch4d):
        # coefficients of dh for an h that is not holomorphic, so none vanish
        chart = curved_chart(patch4d)
        h = ComplexField.from_exprs(patch4d, "x1*x3 + x2^2", "x4 - 0.5*x1*x2")
        g = h.parts.derivatives("exact")[..., 0, :]
        coeffs = _over_basis(_basis_columns(chart, "exact"), g)[..., 0]
        grad = g[..., 0] + 1j * g[..., 1]
        ref = np.linalg.solve(_chart_basis(chart), grad[..., None])[..., 0]
        assert np.abs(ref[..., 1:]).max() > 0.5
        assert np.abs(coeffs - ref).max() <= 1e-12

    def test_degenerate_nodes_are_named_first_in_c_order(self):
        # w2 = x3 + i x4 g(x1, x2, x3): det R = -g, which vanishes exactly on
        # the grid lines through (0.5, -1, 0) and (1, -1.5, -1), indices
        # (4, 1, 3, *) and (5, 0, 1, *); the first node is (4, 1, 3, 0)
        p = Patch.box(2, -1.5, 1.5, 7)
        g = "((x1 - 0.5)^2 + (x2 + 1)^2 + x3^2) * ((x1 - 1)^2 + (x2 + 1.5)^2 + (x3 + 1)^2)"
        chart = SpencerChart(2, (coordinate_function(p, 1),
                                 ComplexField.from_exprs(p, "x3", f"x4 * ({g})")), ())
        with pytest.raises(DegenerateChartError) as err:
            verify_chart(standard_structure(p), chart)
        assert err.value.node == (4, 1, 3, 0)
        assert "normalized determinant 0.00e+00" in str(err.value)

    @pytest.mark.parametrize("mode", ["exact", "fd"])
    @pytest.mark.parametrize("w2, node", [(("1", "2"), (0, 0, 0, 0)),
                                          (("x1^2 - x2^2", "2*x1*x2"), (0, 0, 0, 0)),
                                          (("x1*x3", "x1*x4"), (3, 0, 0, 0))],
                             ids=["constant", "square", "hyperplane"])
    def test_a_degenerate_4x4_frame_is_named_as_by_lu(self, patch4d, mode, w2, node):
        # the closed-form determinant of R names the node and the value that
        # LU named: w2 constant, w2 = w1^2 (R of rank 2 on every node, not
        # constant) and w2 = x1 (x3 + i x4) (rank 2 on the hyperplane x1 = 0)
        chart = SpencerChart(1, (coordinate_function(patch4d, 1),),
                             (ComplexField.from_exprs(patch4d, *w2),))
        with pytest.raises(DegenerateChartError) as err:
            verify_chart(type1_structure(patch4d), chart, mode)
        assert err.value.node == node
        assert "normalized determinant 0.00e+00" in str(err.value)

    @pytest.mark.parametrize("constants", [1, 2])
    def test_constant_coordinates_are_degenerate(self, patch4d, constants):
        # zero gradients give a normalized determinant of 0, not 0 / 0, which
        # passed the guard and left the solve to raise
        coords = [ComplexField.from_exprs(patch4d, "1", "2") for _ in range(constants)]
        coords += [coordinate_function(patch4d, 1)] * (2 - constants)
        with pytest.raises(DegenerateChartError) as err:
            verify_chart(standard_structure(patch4d), SpencerChart(2, tuple(coords), ()))
        assert err.value.node == (0, 0, 0, 0)


class TestPolynomialFit:
    def test_exact_affine_data(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 3))
        vals = 2.0 * pts[:, 0] - pts[:, 2] + 0.5
        _, resid = fit_polynomial_map(pts, vals, 1)
        assert resid <= 1e-12

    def test_quadratic_needs_degree_two(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(60, 2))
        vals = pts[:, 0] ** 2 + pts[:, 1]
        _, r1 = fit_polynomial_map(pts, vals, 1)
        _, r2 = fit_polynomial_map(pts, vals, 2)
        assert r1 > 0.1
        assert r2 <= 1e-10
