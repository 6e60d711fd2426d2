"""Pointwise kernels run over node slabs (``report.slab_map``).

Every check moved onto slabs must give the same report, bit for bit, when
its kernel sees the grid in many slabs as when it sees it in one; a tie or
a search for the first singular node must still pick the first node in C
order, wherever the slab boundaries fall.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spencerkit import holomorphy, hypercomplex, report, spencer, structures
from spencerkit.cli import main
from spencerkit.elliptic import assemble_operator
from spencerkit.fields import ComplexField, EvaluationError, MatrixField, Patch, ScalarField
from spencerkit.fixtures import (
    conjugated_hypercomplex,
    coordinate_function,
    flat_hypercomplex,
    standard_structure,
    type1_chart_functions,
    type1_structure,
)
from spencerkit.holomorphy import antiholo_residual, holo_residual
from spencerkit.hypercomplex import QuaternionFunction, k_hyperholo_residual
from spencerkit.spencer import SpencerChart, _basis_columns, _normalized_det, \
    superposition_check, transition_holomorphy_check, verify_chart
from spencerkit.structures import (
    InvalidStructureError,
    SingularMatrixError,
    extract_pq,
    make_hypercomplex,
    nijenhuis_residual,
    normalize_at_origin,
    pointwise_inverse,
    quaternionic_standard,
    reconstruct_from_pq,
    validate_acs,
)

from conftest import curved_chart, frame_values, reference_partial

SCENES = Path(__file__).resolve().parent.parent / "scenes"
# 2,401 nodes, in one slab by default; spacing 0.5, so FD gradients of
# linear functions are exact and equal at every node
PATCH = Patch.box(2, -1.5, 1.5, 7)
# 700-node slabs for the smallest per-node intermediate of a converted
# kernel (8 bytes x d = 32 bytes), so every kernel sees at least 4 slabs
SMALL_SLABS = 32 * 700
# two interior nodes with flat indices 400 and 2000: slabs 0 and 2
FIRST, LATER = (1, 1, 1, 1), (5, 5, 5, 5)
# PATCH's grid on a box small enough for random moduli pairs
SMALL_PATCH = Patch.box(2, -0.4, 0.4, 7)


def whole_and_slabbed(monkeypatch, check):
    """``check()`` with the grid in one slab, then in many."""
    assert report.SLAB_BYTES // 512 >= PATCH.n_points
    whole = check()
    monkeypatch.setattr(report, "SLAB_BYTES", SMALL_SLABS)
    return whole, check()


def _pulled_back_pair(patch=PATCH):
    """The flat pair pulled back by phi = x + 0.1 (x2^2, x3 x4, x1^2, x1 x2),
    sampled: a hypercomplex pair that varies from node to node."""
    x1, x2, x3, x4 = patch.mesh
    dphi = np.zeros(patch.resolution + (4, 4))
    dphi[..., range(4), range(4)] = 1.0
    dphi[..., 0, 1] += 0.2 * x2
    dphi[..., 1, 2] += 0.1 * x4
    dphi[..., 1, 3] += 0.1 * x3
    dphi[..., 2, 0] += 0.2 * x1
    dphi[..., 3, 0] += 0.1 * x2
    dphi[..., 3, 1] += 0.1 * x1
    s, t = quaternionic_standard()
    J, K = (validate_acs(MatrixField.from_values(patch, np.linalg.solve(dphi, m @ dphi)),
                         rep="tan", tolerance=1e-10) for m in (s, t))
    return make_hypercomplex(J, K, tolerance=1e-10)


@pytest.fixture(scope="module")
def pair():
    return _pulled_back_pair()


def test_slab_map_cuts_node_major_slabs(monkeypatch):
    # a slab is a tile: a block of the grid whose nodes are consecutive in C
    # order, cut on the first axis one index of which fits the budget
    monkeypatch.setattr(report, "SLAB_BYTES", 80)
    values = np.arange(24.0).reshape(3, 4, 2)
    nodes = np.arange(12).reshape(3, 4)
    for node_bytes, sizes in (
            (1, [12]),         # 80 nodes a tile: the whole grid
            (8, [8, 4]),       # 10 nodes: rows 0-1, then row 2, cut on axis 0
            (16, [4, 4, 4]),   # 5 nodes: one row each
            (27, [2] * 6),     # 2 nodes: two halves of each row, cut on axis 1
            (1000, [1] * 12)):  # a node over the budget still makes one-node tiles
        seen, tiles = [], []

        def kernel(v, w):
            seen.append(len(v))
            assert v.tobytes() == w.tobytes()
            return np.stack([v.sum(axis=-1), v.max(axis=-1)], axis=-1)

        def tile_values(tile):  # a callable input: the tile's block, grid axes leading
            tiles.append(tile)
            return values[tile]

        out = report.slab_map(kernel, (3, 4), node_bytes, values, tile_values)
        assert seen == sizes
        assert out.shape == (3, 4, 2)
        assert out[..., 0].tobytes() == values.sum(axis=-1).tobytes()
        # each tile starts at the node after the last one of the tile before
        assert np.concatenate([nodes[t].ravel() for t in tiles]).tolist() == list(range(12))


def test_a_lone_tile_keeps_its_own_result():
    # one tile: a result that owns its memory is the grid's array, uncopied;
    # a view of the input is copied, so the result never aliases an input
    values = np.arange(24.0).reshape(3, 4, 2)
    results = []

    def kernel(v):
        results.append(v.sum(axis=-1))
        return results[-1]

    out = report.slab_map(kernel, (3, 4), 16, values)
    assert len(results) == 1 and np.shares_memory(out, results[0])
    assert out.tobytes() == values.sum(axis=-1).tobytes()
    view = report.slab_map(lambda v: v[:, 0], (3, 4), 16, values)
    assert not np.shares_memory(view, values)
    assert view.tobytes() == np.ascontiguousarray(values[..., 0]).tobytes()


def test_slab_map_refuses_a_grid_that_needs_a_copy():
    values = np.arange(24.0).reshape(4, 3, 2).transpose(1, 0, 2)
    with pytest.raises(ValueError, match="without a copy"):
        report.slab_map(lambda v: v[:, 0], (3, 4), 16, values)
    # a leading-axis slice still merges without a copy
    part = np.arange(48.0).reshape(6, 4, 2)[1:4]
    out = report.slab_map(lambda v: v[:, 0], (3, 4), 16, part)
    assert np.array_equal(out, part[..., 0])


def test_slab_map_over_a_box_reads_its_nodes_in_grid_coordinates(monkeypatch):
    # a box, such as Patch.interior(1), is tiled as a grid of its own: each
    # tile reaches a callable in grid coordinates, an array's tile is copied
    # node-major, and the results take the box's shape
    monkeypatch.setattr(report, "SLAB_BYTES", 80)
    values = np.arange(60.0).reshape(4, 5, 3)
    box = (slice(1, 3), slice(1, 4))
    seen, tiles = [], []

    def kernel(v, w):
        seen.append(len(v))
        assert v.flags.c_contiguous and v.tobytes() == w.tobytes()
        return v.sum(axis=-1)

    def tile_values(tile):
        tiles.append(tile)
        return values[tile]

    out = report.slab_map(kernel, box, 27, values, tile_values)  # 2 nodes a tile
    assert seen == [2, 1, 2, 1]
    assert tiles == [(slice(1, 2), slice(1, 3)), (slice(1, 2), slice(3, 4)),
                     (slice(2, 3), slice(1, 3)), (slice(2, 3), slice(3, 4))]
    assert out.tobytes() == values[box].sum(axis=-1).tobytes()
    # every input broadcast: one node, broadcast to the box
    const = np.broadcast_to(np.array([1.0, 2.0]), (4, 5, 2))
    out = report.slab_map(lambda v: v.sum(axis=-1), box, 16, const)
    assert out.shape == (2, 3) and not any(out.strides) and out[0, 0] == 3.0


def test_reductions_read_a_box_as_the_interior_of_its_grid():
    patch = Patch.box(1, 0.0, 1.0, 7)
    full = np.random.default_rng(3).standard_normal(patch.resolution)
    for depth in (1, 2):
        inner = np.array(full[patch.interior(depth)])
        assert repr(report.sup_and_node(inner, depth, patch.resolution)) == \
            repr(report.sup_and_node(full, depth))
        assert repr(report.interior_sup(inner, patch, depth)) == \
            repr(report.interior_sup(full, patch, depth))
        assert repr(report.report_from_pointwise(np.abs(inner), patch, "fd", depth=depth)) \
            == repr(report.report_from_pointwise(np.abs(full), patch, "fd", depth=depth))
    with pytest.raises(ValueError, match=r"per-node values of shape \(6, 7\)"):
        report.interior_sup(full[1:], patch)


def test_node_sup():
    slab = np.array([[[-3.0, 1.0]], [[0.5, -0.25]]])
    assert np.array_equal(report.node_sup(slab), [3.0, 0.5])
    assert np.array_equal(report.node_sup(np.zeros((3, 0))), np.zeros(3))


@pytest.mark.parametrize("entries", [(1,), (3,), (2, 2), (7,), (8,), (3, 3), (4, 4)])
def test_node_sup_of_few_and_many_entries(entries):
    # below 8 entries the columns are folded one by one, from 8 on numpy
    # reduces each node: both give each node's max |entry|, NaN included
    slab = np.random.default_rng(3).normal(size=(50,) + entries)
    slab[7].flat[-1] = -1e300
    slab[9].flat[0] = np.nan
    expected = [np.abs(node).max() for node in slab]
    assert report.node_sup(slab).tobytes() == np.array(expected).tobytes()


class TestSupAndNode:
    """``report.sup_and_node``, the one search for a worst node."""

    values = np.array([[9.0, 0.0, 0.0, 0.0],
                       [0.0, 1.0, 2.0, 0.0],
                       [0.0, 3.0, 2.0, 0.0],
                       [0.0, 0.0, 0.0, 5.0]])

    def test_depth_0_searches_every_node(self):
        assert report.sup_and_node(self.values) == (9.0, (0, 0))

    def test_depth_1_skips_the_boundary_ring(self):
        assert report.sup_and_node(self.values, 1) == (3.0, (2, 1))

    def test_a_tie_goes_to_the_first_node_in_c_order(self):
        tied = np.zeros((3, 4, 5))
        tied[2, 0, 1] = tied[1, 3, 4] = tied[1, 3, 0] = 7.0
        assert report.sup_and_node(tied) == (7.0, (1, 3, 0))

    def test_nan_is_the_largest_value(self):
        v = self.values.copy()
        v[1, 2] = v[2, 1] = np.nan
        sup, node = report.sup_and_node(v, 1)
        assert np.isnan(sup) and node == (1, 2)

    def test_a_boolean_array_gives_its_first_true(self):
        mask = np.zeros((4, 5), dtype=bool)
        mask[3, 0] = mask[2, 4] = True
        assert report.sup_and_node(mask) == (1.0, (2, 4))
        assert report.sup_and_node(np.zeros((4, 5), dtype=bool)) == (0.0, (0, 0))

    def test_a_1d_array_and_a_minimum(self):
        v = np.array([3.0, -1.0, 4.0, -1.0, 5.0])
        assert report.sup_and_node(v) == (5.0, (4,))
        assert report.sup_and_node(-v) == (1.0, (1,))
        assert report.sup_and_node(v, 2) == (4.0, (2,))


def test_nijenhuis_residual(monkeypatch, pair):
    whole, slabbed = whole_and_slabbed(monkeypatch, lambda: nijenhuis_residual(pair.J, "fd"))
    assert whole > 0.0 and slabbed == whole


def test_structure_residuals(monkeypatch):
    def residuals():
        h = _pulled_back_pair()
        return h.J.acs_residual, h.K.acs_residual, h.anti_residual

    whole, slabbed = whole_and_slabbed(monkeypatch, residuals)
    assert min(whole) > 0.0
    assert slabbed == whole


@pytest.mark.parametrize("check", [holo_residual, antiholo_residual])
def test_cauchy_riemann_report(monkeypatch, pair, check):
    f = ComplexField.from_exprs(PATCH, "x1 + 0.3*x3^2", "x2*x4 - x1")
    whole, slabbed = whole_and_slabbed(monkeypatch, lambda: check(pair.J, f))
    assert whole.sup_norm > 0.0 and whole.breakdown["du_system"] > 0.0
    assert slabbed == whole


def test_k_hyperholomorphy_report(monkeypatch, pair):
    F = QuaternionFunction.affine(PATCH, (0.5, 0.2, -0.3, 0.7), (1.0, 0.0, 0.5, -1.0))
    whole, slabbed = whole_and_slabbed(monkeypatch, lambda: k_hyperholo_residual(pair, F))
    assert whole.sup_norm > 0.0
    assert slabbed == whole


@pytest.mark.parametrize("m", [1, 2])
def test_chart_pattern_and_determinant(monkeypatch, pair, m):
    z1, z2 = (coordinate_function(PATCH, k) for k in (1, 2))
    chart = SpencerChart(m, (z1, z2)[:m], (z1, z2)[m:])

    def check():
        return verify_chart(pair.J, chart), _normalized_det(_basis_columns(chart, "fd"))

    (whole, ndet), (slabbed, ndet_slabbed) = whole_and_slabbed(monkeypatch, check)
    assert whole.block_residuals["lead_identity"] > 0.0
    assert slabbed == whole
    assert np.array_equal(ndet_slabbed, ndet)


def _standard_with_two_bad_nodes():
    """The standard structure with J[0, 0] = 0.25 at FIRST and at LATER, where
    J^2 + E is off by the same amount."""
    values = np.zeros(PATCH.resolution + (4, 4))
    values[..., [0, 2], [1, 3]] = 1.0
    values[..., [1, 3], [0, 2]] = -1.0
    for node in (FIRST, LATER):
        values[node + (0, 0)] = 0.25
    return MatrixField.from_values(PATCH, values)


def test_tie_goes_to_the_first_node_in_c_order(monkeypatch):
    m = _standard_with_two_bad_nodes()
    f = ComplexField.from_exprs(PATCH, "x1", "x2")

    def check():
        with pytest.raises(InvalidStructureError) as err:
            validate_acs(m)
        return err.value.node, holo_residual(validate_acs(m, strict=False), f)

    whole, slabbed = whole_and_slabbed(monkeypatch, check)
    assert whole[0] == slabbed[0] == FIRST
    assert whole[1].worst_node == slabbed[1].worst_node == FIRST
    assert slabbed[1] == whole[1]


def test_first_singular_node_in_a_later_slab(monkeypatch):
    values = np.zeros(PATCH.resolution + (2, 2))
    values[..., range(2), range(2)] = 1.0
    values[4, 2, 3, 1] = 0.0  # flat index 1,492: slab 2
    values[6, 3, 0, 0] = 0.0  # flat index 2,205: slab 3

    def check():
        with pytest.raises(SingularMatrixError) as err:
            pointwise_inverse(values, "Q is singular")
        return err.value.node

    assert whole_and_slabbed(monkeypatch, check) == ((4, 2, 3, 1), (4, 2, 3, 1))


# Nodes a tile at PATCH's 4D grid 7, whose one index of axis 0 spans 343
# nodes and of axis 1 49: axis 0 cut at every index, so one node from each
# edge; axis 0 cut at 5; axis 1 cut at 6, one node from its top edge; axis
# 1 cut at every index
TILINGS = (343, 5 * 343, 6 * 49, 49)


@pytest.mark.parametrize("mode", ["fd", "exact"])
def test_nijenhuis_residual_in_every_tiling(monkeypatch, mode):
    acs = type1_structure(PATCH)
    _tiled_by(monkeypatch, PATCH.n_points)
    whole = np.float64(nijenhuis_residual(acs, mode))
    assert whole > 0.0
    for nodes in TILINGS:
        _tiled_by(monkeypatch, nodes)
        assert np.float64(nijenhuis_residual(acs, mode)).tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pointwise_inverse_in_every_tiling(monkeypatch, n):
    # n <= 3 in closed form, n = 4 by LAPACK: the guard and the inverse give
    # the bits and the named node of one tile in every tiling
    values = np.eye(n) + 0.2 * np.random.default_rng(n).normal(size=PATCH.resolution + (n, n))
    singular = values.copy()
    singular[4, 2, 3, 1] = singular[6, 3, 0, 0] = 0.0

    def outcome():
        with pytest.raises(SingularMatrixError) as err:
            pointwise_inverse(singular, "m")
        return pointwise_inverse(values, "m").tobytes(), err.value.node

    whole = outcome()
    assert whole[1] == (4, 2, 3, 1)
    for nodes in TILINGS:
        _tiled_by(monkeypatch, nodes)
        assert outcome() == whole


def _untiled_gap_and_identities(bd, back):
    """The round-trip gap and the block identities of ``acs extract-pq``,
    each a sup over whole-grid arrays of the frame blocks as they stand."""
    eye = np.eye(bd.n)
    a, bp, cm, d = (b.values for b in bd.frame)
    return [float(np.abs(x).max()) for x in (
        back.cot_values() - frame_values(bd),
        a @ a + bp @ cm + eye, a @ bp + bp @ d, cm @ a + d @ cm, cm @ bp + d @ d + eye)]


def _random_moduli_structure(pair):
    from test_structures import random_pq  # which imports this module
    return reconstruct_from_pq(random_pq(np.random.default_rng(5), SMALL_PATCH))


@pytest.mark.parametrize("acs", [
    _random_moduli_structure,  # exact blocks
    lambda pair: pair.J,       # sample-backed blocks
], ids=["random pair", "pulled back"])
def test_extract_pq_gap_and_identities_in_every_tiling(monkeypatch, pair, acs):
    # the sweep of acs extract-pq gives the gap and the identities of the
    # whole-grid arrays, and the condition estimate of PQPair, every bit
    acs = acs(pair)
    bd = normalize_at_origin(acs, (2, 3, 4, 3))
    pq = extract_pq(bd)
    untiled = _untiled_gap_and_identities(bd, reconstruct_from_pq(pq))
    assert max(untiled) > 0.0
    for nodes in (acs.patch.n_points,) + TILINGS:  # one tile, then many
        _tiled_by(monkeypatch, nodes)
        gap, identities, q_condition = bd.round_trip()
        tiled = [gap, *identities.values()]
        assert np.array(tiled).tobytes() == np.array(untiled).tobytes()
        assert list(bd.identity_residuals().values()) == tiled[1:]
        assert np.float64(q_condition).tobytes() == np.float64(pq.q_condition).tobytes()


def test_sampled_reconstruction_in_every_tiling(monkeypatch, pair):
    pq = extract_pq(normalize_at_origin(_random_moduli_structure(pair), (2, 3, 4, 3)))
    whole = reconstruct_from_pq(pq).cot_values().tobytes()
    for nodes in TILINGS:
        _tiled_by(monkeypatch, nodes)
        assert reconstruct_from_pq(pq).cot_values().tobytes() == whole


def test_round_trip_names_the_node_reconstruction_names(monkeypatch, pair):
    # with no tolerance for roundoff, J^2 + E of the generated structure
    # fails at its worst node, which the tiled round trip must name too
    bd = normalize_at_origin(_random_moduli_structure(pair), (2, 3, 4, 3))
    pq = extract_pq(bd)
    monkeypatch.setattr(structures, "_GENERATED_TOLERANCE", 0.0)
    with pytest.raises(InvalidStructureError) as whole:
        reconstruct_from_pq(pq)
    assert whole.value.residual > 0.0
    for nodes in TILINGS:
        _tiled_by(monkeypatch, nodes)
        with pytest.raises(InvalidStructureError) as tiled:
            bd.round_trip()
        assert str(tiled.value) == str(whole.value)
        assert tiled.value.node == whole.value.node


# C - E at two nodes of SMALL_PATCH, -E at the rest: at the first 1e7 E,
# whose inverse Q fails the singularity guard; at the second
# [[1, 1], [1, 1 + 3e-12]], which passes the guard, as its inverse Q does,
# with a condition estimate of 1.3e12
_SINGULAR_Q, _ILL_CONDITIONED_Q = (5, 1, 0, 2), (1, 4, 6, 3)


def _moduli_failure(singular: bool):
    """A decomposition at the centre of SMALL_PATCH whose C - E fails
    nothing and whose Q fails at the nodes above, and the error that
    ``PQPair`` raises on its moduli pair."""
    cm = np.broadcast_to(-np.eye(2), SMALL_PATCH.resolution + (2, 2)).copy()
    cm[_ILL_CONDITIONED_Q] = [[1.0, 1.0], [1.0, 1.0 + 3e-12]]
    if singular:
        cm[_SINGULAR_Q] = 1e7 * np.eye(2)
    # J = [[0, E], [C - E, 0]]: the standard structure at the centre, so
    # the frame is conjugated by G = E
    j = np.zeros(SMALL_PATCH.resolution + (4, 4))
    j[..., :2, 2:] = np.eye(2)
    j[..., 2:, :2] = cm
    bd = normalize_at_origin(validate_acs(MatrixField.from_values(SMALL_PATCH, j),
                                          strict=False))
    assert np.array_equal(bd.G, np.eye(4))
    with pytest.raises(SingularMatrixError) as err:
        extract_pq(bd)
    return bd, err.value


@pytest.mark.parametrize("singular", [True, False], ids=["singular", "ill-conditioned"])
def test_round_trip_names_the_q_failure_the_pair_names(monkeypatch, singular):
    # a singular Q is named before an ill-conditioned one, at a later node,
    # as PQPair's guard runs over the grid before its condition estimate
    bd, expected = _moduli_failure(singular)
    node = _SINGULAR_Q if singular else _ILL_CONDITIONED_Q
    assert expected.node == node
    assert str(expected).startswith("Q is singular" if singular else "Q condition estimate")
    for nodes in (SMALL_PATCH.n_points,) + TILINGS:
        _tiled_by(monkeypatch, nodes)
        with pytest.raises(SingularMatrixError) as err:
            bd.round_trip()
        assert (str(err.value), err.value.node) == (str(expected), node)


def test_round_trip_of_a_constant_structure_runs_on_one_node(monkeypatch):
    # the standard structure's conjugated samples and (C - E)^-1 are one
    # node each, broadcast, so the sweep's kernel runs once, on one node
    bd = normalize_at_origin(standard_structure(PATCH))
    nodes = []

    def counting(conj, q, original=structures._round_trip_nodes):
        nodes.append(len(q))
        return original(conj, q)

    monkeypatch.setattr(structures, "_round_trip_nodes", counting)
    gap, identities, q_condition = bd.round_trip()
    assert nodes == [1]
    assert (gap, q_condition) == (0.0, 1.0) and max(identities.values()) == 0.0


# fields whose derivative stacks are tiled: type1's tangent samples are a
# transposed view of its cotangent ones, the pulled-back pair's are in C
# order, and the last field's derivatives run through transcendental ufuncs
FIELDS = {
    "type1": lambda pair: type1_structure(PATCH).j_tan,
    "pulled back": lambda pair: pair.J.j_tan,
    "transcendental": lambda pair: MatrixField.from_exprs(
        PATCH, [["sin(x1 + x2*x3)", "exp(x4)*x1"], ["x2^3 - x1*x4", "sqrt(2 + cos(x3))"]]),
}


@pytest.mark.parametrize("field, mode", [
    ("type1", "fd"), ("type1", "exact"), ("pulled back", "fd"),
    ("transcendental", "fd"), ("transcendental", "exact")])
def test_derivative_stack_of_a_tile_is_its_block_of_the_whole(pair, field, mode):
    m = FIELDS[field](pair)
    whole = m.derivatives(mode)
    for nodes in TILINGS + (6,):  # 6: axis 3 cut at 6, in 686 tiles
        for tile in report.tiles(PATCH.resolution, nodes):
            assert m.derivatives(mode, tile).tobytes() == whole[tile].tobytes()


def _nijenhuis_peak(grid: int) -> int:
    """``tracemalloc`` peak of the fd Nijenhuis residual of type1 at 4D
    ``grid``, with its tangent and cotangent samples taken beforehand."""
    acs = type1_structure(Patch.box(2, -1.0, 1.0, grid))
    acs.tan_values(), acs.cot_values()
    tracemalloc.start()
    try:
        assert nijenhuis_residual(acs, "fd") == pytest.approx(2.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nijenhuis_peak_memory_is_bounded():
    # Tiles keep the kernel's intermediates, and the derivative stack each
    # tile builds for it, near report.SLAB_BYTES.  At 4D grid 15 (50,625
    # nodes) the full-grid kernel peaked at 112.9 MiB; slabbed over a
    # full-grid (*grid, d, d, d) stack of 24.7 MiB, at 49.4 MiB; tiled, at
    # 27.0 MiB, of which a tile's stack is 6.6 MiB.
    assert _nijenhuis_peak(15) < 40 * 2**20


def test_nijenhuis_peak_memory_at_grid_21_is_bounded():
    # 194,481 nodes: a full-grid stack would be 95.0 MiB, and over it the
    # slabbed kernel peaked at 140.3 MiB; tiled, it peaks at 19.8 MiB
    assert _nijenhuis_peak(21) < 32 * 2**20



@pytest.mark.parametrize("curved", [False, True], ids=["straight", "curved"])
@pytest.mark.parametrize("mode", ["fd", "exact"])
def test_chart_holomorphy_residuals_in_every_tiling(monkeypatch, mode, curved):
    # the pattern pass reads the chart coordinates' Cauchy-Riemann residuals
    # with the bits of holo_residual, whose kernel sees the grid in one tile
    acs = type1_structure(PATCH)
    chart = curved_chart(PATCH) if curved else SpencerChart(
        1, *map(tuple, type1_chart_functions(PATCH)))
    ref = [np.float64(holo_residual(acs, w, mode).sup_norm).tobytes() for w in chart.holo]
    whole = verify_chart(acs, chart, mode)
    assert [np.float64(r).tobytes() for r in whole.holo_residuals] == ref
    for nodes in TILINGS:
        _tiled_by(monkeypatch, nodes)
        assert verify_chart(acs, chart, mode) == whole

# a scene shaped as perfbench's wide_grid type1 scenes: f is a constant plus
# one linear and one bilinear monomial in each part, the chart is (z, w)
WIDE_GRID_TYPE1 = {
    "schema": 1, "name": "wide", "dim_half": 2,
    "patch": {"bounds": [-1.0, 1.0], "resolution": 7},
    "structure": {"kind": "type1",
                  "f": {"re": "0.3166 + 0.2534*x3 + 0.3580*x1*x4",
                        "im": "0.2050 + 0.2449*x4 + 0.3488*x2*x3"}},
    "charts": {"type1": {"m": 1, "holo": [{"re": "x1", "im": "x2"}],
                         "complement": [{"re": "x3", "im": "x4"}]}}}


def _command_peak(tmp_path, capsys, *argv) -> int:
    """``tracemalloc`` peak of one fd ``spencerctl`` command on the
    wide_grid-shaped type1 scene at 4D grid 17 (83,521 nodes)."""
    scene = tmp_path / "wide.json"
    scene.write_text(json.dumps(WIDE_GRID_TYPE1))
    tracemalloc.start()
    try:
        code = main([*argv[:2], str(scene), *argv[2:], "--grid", "17", "--mode", "fd",
                     "--no-meta"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["passed"]
    return peak


def test_chart_verification_peak_memory_at_grid_17_is_bounded(tmp_path, capsys):
    # the structure's samples are 10.2 MiB, and so is the real frame R of
    # the chart map.  A full-grid complex basis B = R T (20.4 MiB), factored
    # per node, peaked at 52.0 MiB; the real frame and T^-1 in closed form
    # peaked at 34.7 MiB, and the pattern read from [P; Q] alone, with the
    # holomorphy residuals in the same pass, peaks at 32.7 MiB.
    peak = _command_peak(tmp_path, capsys, "spencer", "verify", "--chart", "type1")
    assert peak < 44 * 2**20


def test_moduli_round_trip_peak_memory_at_grid_17_is_bounded(tmp_path, capsys):
    # the structure's samples are 10.2 MiB, and the sampled C - E and
    # (C - E)^-1 2.5 MiB each.  Beside them, the full-grid reconstructed
    # structure peaked at 51.8 MiB; the four frame blocks, P and Q^-1 with
    # the structure rebuilt tile by tile, at 39.8 MiB; one sweep over tiles
    # of the conjugated structure, sampled from its expressions, peaks at
    # 19.0 MiB
    peak = _command_peak(tmp_path, capsys, "acs", "extract-pq")
    assert peak < 20 * 2**20


def test_moduli_round_trip_peak_memory_of_the_shipped_type1_at_grid_13_is_bounded(capsys):
    # 28,561 nodes: the four frame blocks, P and Q^-1 with the structure
    # rebuilt tile by tile peaked at 17.1 MiB; the sweep peaks at 9.2 MiB
    tracemalloc.start()
    try:
        code = main(["acs", "extract-pq", str(SCENES / "type1.json"), "--grid", "13",
                     "--mode", "fd", "--no-meta"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["passed"]
    assert peak < 11 * 2**20


# -- the operator: A, B and lambda_min over tiles -----------------------------

def _operator_bits(acs, mode):
    """The bytes of A, of each B_p and of the mesh Peclet number."""
    op = assemble_operator(acs, mode)
    assert any(np.any(b.samples) for b in op.B)
    return (op.A.values.tobytes(), [b.samples.tobytes() for b in op.B],
            np.float64(op.mesh_peclet()).tobytes())


@pytest.mark.parametrize("mode", ["exact", "fd"])
@pytest.mark.parametrize("acs", [
    lambda pair: type1_structure(PATCH),
    _random_moduli_structure,
], ids=["type1", "random pair"])
def test_operator_in_every_tiling(monkeypatch, pair, acs, mode):
    # A, B and lambda_min are per-node kernels and a minimum is exact, so
    # each has the bits of one tile in every tiling
    acs = acs(pair)
    assert report.SLAB_BYTES // (8 * 4 ** 3) >= PATCH.n_points  # one tile
    whole = _operator_bits(acs, mode)
    for nodes in TILINGS:
        _tiled_by(monkeypatch, nodes)
        assert _operator_bits(acs, mode) == whole


@pytest.mark.parametrize("mode", ["exact", "fd"])
def test_the_standard_operator_holds_one_node_of_a(mode):
    op = assemble_operator(standard_structure(PATCH), mode)
    assert not any(op.A.values.strides[:4])
    assert op.A.values[0, 0, 0, 0].tobytes() == (2.0 * np.eye(4)).tobytes()
    assert op.mesh_peclet() == 0.0


def test_operator_peak_memory_at_grid_21_is_bounded():
    # fd on type1 at 4D grid 21 (194,481 nodes), with the cotangent samples
    # taken beforehand: A is 23.7 MiB and B 5.9 MiB.  A full-grid A kernel
    # and a full-grid dC/dx^s per axis peaked at 79.5 MiB; tiled, 37.4 MiB,
    # of which a tile's derivative stack is 8 MiB.
    acs = type1_structure(Patch.box(2, -1.0, 1.0, 21))
    acs.cot_values()
    tracemalloc.start()
    try:
        assemble_operator(acs, "fd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


# -- constant fields: one node, with the bits of the full grid ----------------

_TILES = report.tiles


def _tiled_by(monkeypatch, nodes):
    """``slab_map`` cuts tiles of ``nodes`` nodes, whatever its node bytes.
    Each call replaces the tiling of the one before, not wraps it."""
    monkeypatch.setattr(report, "tiles", lambda grid, step: _TILES(grid, nodes))


def _full_grid_copy(m):
    """The samples of ``m`` held as one full-grid array."""
    return MatrixField.from_values(m.patch, np.array(m.values))


def _outcome(check):
    """``check()`` as text with every float's bits, or the error it raises
    with the node it names."""
    try:
        return repr(report.jsonable(check()))
    except (InvalidStructureError, SingularMatrixError) as exc:
        return f"{type(exc).__name__}: {exc} {exc.node}"


S, T = quaternionic_standard()
_G = np.eye(4) + 0.1 * np.sin(np.arange(16.0)).reshape(4, 4)
# the flat pair; a conjugated one, whose entries carry roundoff; and a J with
# its first row zeroed, which fails J^2 = -E, and is singular, at every node
CONSTANT_PAIRS = {
    "flat": (S, T),
    "conjugated": (np.linalg.solve(_G, S @ _G), np.linalg.solve(_G, T @ _G)),
    "invalid": (np.vstack([np.zeros(4), S[1:]]), T),
}


def _checks(j, k):
    """What the checks give on the structure fields ``j`` and ``k``, in fd
    mode, which a constant and its sample-backed copy share."""
    J = validate_acs(j, tolerance=1e-10, strict=False)
    K = validate_acs(k, tolerance=1e-10, strict=False)
    f = ComplexField.from_exprs(PATCH, "x1 + 0.3*x3^2", "x2*x4 - x1")
    F = QuaternionFunction.affine(PATCH, (0.5, 0.2, -0.3, 0.7), (1.0, 0.0, 0.5, -1.0))
    per_node = report.slab_map(report.node_sup, PATCH.resolution, 8 * 16, j.values)
    return [_outcome(check) for check in (
        lambda: validate_acs(j, tolerance=1e-10).acs_residual,
        lambda: (J.acs_residual, J.valid),
        lambda: make_hypercomplex(J, K, tolerance=1e-10).anti_residual,
        lambda: pointwise_inverse(j.values, "J is singular").tobytes(),
        lambda: holo_residual(J, f, "fd"),
        lambda: k_hyperholo_residual(make_hypercomplex(J, K, np.inf), F, "fd"),
        lambda: report.report_from_pointwise(per_node, PATCH, "fd"),
        lambda: report.sup_and_node(per_node, 2),
    )]


@pytest.mark.parametrize("pair", CONSTANT_PAIRS)
def test_a_constant_gives_the_bits_of_its_full_grid_copy(monkeypatch, pair):
    j, k = (MatrixField.constant(PATCH, m) for m in CONSTANT_PAIRS[pair])
    assert not any(j.values.strides[:4])
    copies = [_full_grid_copy(m) for m in (j, k)]
    for nodes in (PATCH.n_points,) + TILINGS:  # one tile, then many
        _tiled_by(monkeypatch, nodes)
        assert _checks(j, k) == _checks(*copies)
    if pair == "invalid":
        outcomes = _checks(j, k)
        assert outcomes[0].startswith("InvalidStructureError") and \
            outcomes[0].endswith("at node (0, 0, 0, 0) (tolerance 1.0e-10) (0, 0, 0, 0)")
        assert outcomes[3] == \
            "SingularMatrixError: J is singular at node (0, 0, 0, 0) (0, 0, 0, 0)"


@pytest.mark.parametrize("pair", CONSTANT_PAIRS)
def test_exact_residuals_of_a_constant_run_on_one_node(monkeypatch, pair):
    # an affine F has constant exact derivatives, so with a constant K every
    # input of the K-residual kernel is broadcast; the reference holds the
    # constants' samples as full-grid arrays beside their expressions
    j, k = (MatrixField.constant(PATCH, m) for m in CONSTANT_PAIRS[pair])
    copies = [MatrixField._of(PATCH, m.exprs, np.array(m.values)) for m in (j, k)]
    F = QuaternionFunction.affine(PATCH, (0.5, 0.2, -0.3, 0.7), (1.0, 0.0, 0.5, -1.0))
    f = ComplexField.from_exprs(PATCH, "x1 + 0.3*x3^2", "x2*x4 - x1")

    def residuals(j, k):
        J, K = (validate_acs(m, tolerance=1e-10, strict=False) for m in (j, k))
        h = make_hypercomplex(J, K, np.inf)
        return [_outcome(lambda: k_hyperholo_residual(h, F, "exact")),
                _outcome(lambda: holo_residual(J, f, "exact"))]

    nodes = []  # the nodes each call of the K-residual kernel gets

    def counted(kernel, *args):
        return report.slab_map(lambda *v: nodes.append(len(v[0])) or kernel(*v), *args)

    monkeypatch.setattr(hypercomplex, "slab_map", counted)
    whole = residuals(*copies)
    # the four 1-form systems in one kernel, on the interior its report reads
    assert nodes == [5 ** 4]
    for n in (PATCH.n_points,) + TILINGS:
        _tiled_by(monkeypatch, n)
        nodes.clear()
        assert residuals(j, k) == whole
        assert nodes == [1]  # the four 1-form systems on one node


def _four_pass_k_residual(h, G, mode):
    """``k_hyperholo_residual`` as four whole-grid passes, one per 1-form
    system K*da = sign * db, each with the formula of the pass it had."""
    jc = h.K.cot_values()
    jac = MatrixField(PATCH, [G.components()]).derivatives(mode)[..., 0, :]
    du, dv, dzeta, deta = np.moveaxis(jac, -1, 0)

    def oneform(a, b, sign):
        norm = np.linalg.norm(np.einsum("...qp,...p->...q", jc, a) - sign * b, axis=-1)
        return report.report_from_pointwise(norm, PATCH, mode)

    return report.merge_reports({
        "du": oneform(du, dzeta, -1.0), "dzeta": oneform(dzeta, du, +1.0),
        "dv": oneform(dv, deta, -1.0), "deta": oneform(deta, dv, +1.0)}, mode)


K_FUNCTIONS = {
    "affine": lambda: QuaternionFunction.affine(
        PATCH, (0.5, 0.2, -0.3, 0.7), (1.0, 0.0, 0.5, -1.0)),
    "square": lambda: QuaternionFunction.from_exprs(
        PATCH, "x1^2 - x2^2 - x3^2 - x4^2", "2*x1*x2", "2*x1*x3", "2*x1*x4"),
}


@pytest.mark.parametrize("mode", ["exact", "fd"])
@pytest.mark.parametrize("function", K_FUNCTIONS)
@pytest.mark.parametrize("pair", ["flat", "conjugated"])
def test_k_residual_is_the_four_pass_formula_in_every_tiling(monkeypatch, pair,
                                                             function, mode):
    # the four systems are one kernel; each norm keeps the bits of its pass
    h = flat_hypercomplex(PATCH) if pair == "flat" else conjugated_hypercomplex(PATCH, _G)
    G = K_FUNCTIONS[function]()
    ref = _outcome(lambda: _four_pass_k_residual(h, G, mode))
    for nodes in (PATCH.n_points,) + TILINGS:
        _tiled_by(monkeypatch, nodes)
        assert _outcome(lambda: k_hyperholo_residual(h, G, mode)) == ref
    if function == "square":
        assert k_hyperholo_residual(h, G, mode).sup_norm > 0.1


def test_fd_k_residual_peak_memory_at_grid_17_is_bounded():
    # 83,521 nodes: G's samples are 2.5 MiB.  Beside them the full-grid fd
    # Jacobian of G (10.2 MiB) peaked at 15.2 MiB; differenced tile by tile
    # from G's samples, taken once, the residual peaks at 7.5 MiB
    patch = Patch.box(2, -1.0, 1.0, 17)
    h = flat_hypercomplex(patch)
    G = QuaternionFunction.from_exprs(patch, "x1^2 - x2^2 - x3^2 - x4^2", "2*x1*x2",
                                      "2*x1*x3", "2*x1*x4")
    h.K.cot_values()
    tracemalloc.start()
    try:
        assert k_hyperholo_residual(h, G, "fd").sup_norm > 0.1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_exact_k_residual_names_a_non_finite_derivative_on_the_ring():
    # the kernel reads the interior, but exact mode samples G's Jacobian on
    # the whole grid, which names d sqrt(x1) = 1 / (2 sqrt(x1)) at x1 = 0;
    # fd mode differences G's samples, which are finite
    patch = Patch.box(2, 0.0, 1.0, 5)
    h = flat_hypercomplex(patch)
    G = QuaternionFunction.from_exprs(patch, "sqrt(x1)", "x2", "x3", "x4")
    with pytest.raises(EvaluationError) as err:
        k_hyperholo_residual(h, G, "exact")
    assert err.value.node == (0, 0, 0, 0)
    assert np.isfinite(k_hyperholo_residual(h, G, "fd").sup_norm)


def test_a_stack_of_samples_has_the_bits_of_np_stack(monkeypatch):
    # entries broadcast on every grid axis, on axes 0, 2 and 3, and on none,
    # beside one that is sampled only when the matrix stacks it
    x2 = np.broadcast_to(PATCH.axes[1][None, :, None, None], PATCH.resolution)
    rows = [[ScalarField.const(PATCH, 1.5).sampled(), ScalarField.from_samples(PATCH, x2),
             ScalarField.from_expr(PATCH, "x1*x4 + sin(x2)").sampled()],
            [ScalarField.from_expr(PATCH, "x3 - x2"),
             ScalarField.from_expr(PATCH, "exp(x3)").sampled(),
             ScalarField.const(PATCH, -0.25).sampled()]]
    ref = np.stack([np.stack([e.samples for e in row], axis=-1) for row in rows], axis=-2)
    for nodes in (PATCH.n_points,) + TILINGS:
        _tiled_by(monkeypatch, nodes)
        values = MatrixField(PATCH, rows).values
        assert values.shape == ref.shape and values.tobytes() == ref.tobytes()
    # every entry broadcast: one node, a read-only view
    consts = [[ScalarField.const(PATCH, x).sampled() for x in row]
              for row in ((1.5, 2.0), (-0.25, 0.0))]
    values = MatrixField(PATCH, consts).values
    assert not any(values.strides[:4]) and not values.flags.writeable
    assert values.tobytes() == np.stack(
        [np.stack([e.samples for e in row], axis=-1) for row in consts], axis=-2).tobytes()


@pytest.mark.parametrize("mode", ["fd", "exact"])
def test_derivatives_of_a_constant(mode):
    m = MatrixField.constant(PATCH, CONSTANT_PAIRS["conjugated"][0])
    if mode == "fd":
        copy = _full_grid_copy(m)
        whole = copy.derivatives("fd")
        for axis in range(1, 5):
            assert whole[..., axis - 1, :, :].tobytes() == \
                reference_partial(m, axis, "fd").values.tobytes()
        # the one-sided edge formula leaves roundoff on a constant; the fd
        # stack is a new array
        assert np.abs(whole).max() > 0.0
        assert m.derivatives("fd").flags.writeable
    else:
        whole = np.zeros(PATCH.resolution + (4, 4, 4))
    assert m.derivatives(mode).tobytes() == whole.tobytes()
    for nodes in TILINGS + (6,):
        for tile in report.tiles(PATCH.resolution, nodes):
            assert m.derivatives(mode, tile).tobytes() == whole[tile].tobytes()


# -- slab_map with broadcast inputs -------------------------------------------

class TestBroadcastInputs:
    GRID = (3, 4, 5)
    # one node's 2-vector; a (4, 2) row, the same at every index of axes 0
    # and 2; and a full-grid array
    NODE = np.array([2.0, -3.0])
    ROW = np.array([[1.0, 0.5], [-4.0, 2.0], [0.0, 3.0], [7.0, -1.0]])
    FULL = np.arange(120.0).reshape(3, 4, 5, 2)

    def run(self, *inputs, node_bytes=16):
        seen = []

        def kernel(*slabs):
            seen.append(len(slabs[0]))
            return report.node_sup(sum(slabs))

        return report.slab_map(kernel, self.GRID, node_bytes, *inputs), seen

    @staticmethod
    def _broadcast(a, shape):
        return np.broadcast_to(a, shape + a.shape[-1:])

    def node_sups(self, full):
        return report.node_sup(full.reshape(-1, 2)).reshape(self.GRID)

    def test_every_input_broadcast_runs_one_node(self):
        node = self._broadcast(self.NODE, self.GRID)
        out, seen = self.run(node, node)
        assert seen == [1]
        assert out.shape == self.GRID and not out.flags.writeable
        assert not any(out.strides)
        assert out.tobytes() == np.full(self.GRID, 6.0).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0, 0] = 1.0

    def test_nothing_collapses_unless_every_input_is_broadcast_on_every_axis(self):
        # ROW varies along axis 1 alone, so the kernel gets every node: the
        # broadcast inputs are copied tile by tile, 5 nodes a tile here,
        # also beside a full-grid array
        node = self._broadcast(self.NODE, self.GRID)
        row = self._broadcast(self.ROW[:, None], self.GRID)
        for inputs in ((node, row), (node, row, self.FULL)):
            out, seen = self.run(*inputs, node_bytes=report.SLAB_BYTES // 5)
            assert seen == [5] * 12
            expected = self.node_sups(sum(np.array(x) for x in inputs))
            assert out.flags.writeable and out.tobytes() == expected.tobytes()

    def test_a_callable_input_still_gets_each_tile(self):
        tiles = []

        def full(tile):
            tiles.append(tile)
            return self.FULL[tile]

        node = self._broadcast(self.NODE, self.GRID)
        out, seen = self.run(node, full, node_bytes=report.SLAB_BYTES // 5)
        assert seen == [5] * 12 and len(tiles) == 12
        expected = self.node_sups(np.array(node) + self.FULL)
        assert out.tobytes() == expected.tobytes()
        # a callable that returns a broadcast tile is copied, not refused
        out, seen = self.run(node, lambda tile: node[tile])
        assert seen == [60]
        assert out.tobytes() == np.full(self.GRID, 6.0).tobytes()

    def test_sup_and_node_of_a_broadcast_array(self):
        # the same on axes 0 and 2; a NaN is the largest value
        values = np.broadcast_to(np.array([1.0, np.nan, 3.0, 3.0])[:, None], self.GRID)
        for depth in (0, 1):
            assert repr(report.sup_and_node(values, depth)) == \
                repr(report.sup_and_node(np.array(values), depth))
        assert report.sup_and_node(values)[1] == (0, 1, 0)
        tied = np.broadcast_to(np.array([1.0, 5.0, 3.0, 5.0])[:, None], self.GRID)
        assert report.sup_and_node(tied) == (5.0, (0, 1, 0))
        assert report.sup_and_node(-tied, 1) == (-3.0, (1, 2, 1))


def test_the_8_dim_flat_pair_holds_one_node():
    # sampled at every node, the pair takes about 1 s and 455 MB of max RSS
    patch = Patch.box(4, -1.0, 1.0, 5)
    tracemalloc.start()
    try:
        h = flat_hypercomplex(patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert h.anti_residual == h.J.acs_residual == h.K.acs_residual == 0.0
    assert h.J.cot_values().shape == patch.resolution + (8, 8)



# -- kernels over the interior their reports read ---------------------------

def _boxed_checks(h):
    """The four checks whose kernels run over ``patch.interior(1)`` in fd
    mode, on the pair ``h``: each as the module whose ``slab_map`` runs the
    kernel, and the check."""
    patch = h.patch
    z1, z2 = (coordinate_function(patch, k) for k in (1, 2))
    f = ComplexField.from_exprs(patch, "x1 + 0.3*x3^2", "x2*x4 - x1")
    G = QuaternionFunction.from_exprs(patch, "x1^2 - x2^2 - x3^2 - x4^2", "2*x1*x2",
                                      "2*x1*x3", "2*x1*x4")
    return {
        "nijenhuis": (structures, lambda: nijenhuis_residual(h.J, "fd")),
        "pattern": (spencer, lambda: verify_chart(h.J, SpencerChart(1, (z1,), (z2,)), "fd")),
        "cauchy_riemann": (holomorphy, lambda: antiholo_residual(h.J, f, "fd")),
        "k_hyperholo": (hypercomplex, lambda: k_hyperholo_residual(h, G, "fd")),
    }


BOXED = ("nijenhuis", "pattern", "cauchy_riemann", "k_hyperholo")


@pytest.mark.parametrize("check", BOXED)
def test_a_boxed_check_has_the_bits_of_the_whole_grid_in_every_tiling(monkeypatch, pair,
                                                                      check):
    # the reference runs the kernel on every node and reduces the interior;
    # the check runs it on the 5^4 interior alone, in tiles of 625 nodes down
    # to one node, and its report keeps every bit
    module, run = _boxed_checks(pair)[check]
    interior = PATCH.interior(1)
    declared, nodes = [], []

    def whole_grid(kernel, box, node_bytes, *inputs):
        if box == interior:
            declared.append(node_bytes)
        return report.slab_map(kernel, PATCH.resolution, node_bytes, *inputs)

    def counted(kernel, box, *args):
        def counting(*v):
            nodes.append(len(v[0]))
            return kernel(*v)

        return report.slab_map(counting if box == interior else kernel, box, *args)

    monkeypatch.setattr(module, "slab_map", whole_grid)
    whole = _outcome(run)
    assert len(declared) == 1 and "Error" not in whole
    monkeypatch.setattr(module, "slab_map", counted)
    # a step of 75 cuts axis 1 of the box in 3 + 2 indices, one of 2 axis 3
    for step, sizes in ((625, [625]), (125, [125] * 5), (75, [75, 50] * 5),
                        (2, [2, 2, 1] * 125), (1, [1] * 625)):
        monkeypatch.setattr(report, "SLAB_BYTES", step * declared[0])
        nodes.clear()
        assert _outcome(run) == whole
        assert nodes == sizes


def _traced_slope(monkeypatch, call, nodes: int) -> float:
    """The traced peak of a ``slab_map`` call, ``call`` = (kernel, box,
    node_bytes, *inputs), in tiles of ``nodes`` and of 3 ``nodes`` nodes:
    how much it grows a node."""
    kernel, box, node_bytes, *inputs = call
    peaks = []
    for size in (nodes, 3 * nodes):
        monkeypatch.setattr(report, "SLAB_BYTES", size * node_bytes)
        report.slab_map(kernel, box, node_bytes, *inputs)  # lazy set-up first
        tracemalloc.start()
        try:
            report.slab_map(kernel, box, node_bytes, *inputs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (2 * nodes)


@pytest.mark.parametrize("check", BOXED)
def test_a_boxed_tile_holds_at_most_its_declared_bytes(monkeypatch, check):
    # node_bytes declares what a tile holds a node: the kernel's temporaries
    # and the input tiles built or copied for it.  Over the 9^4 interior of
    # a 4D grid 11, in tiles of one and of three indices of the box's first
    # axis, the traced peak grows by at most that much a node.
    patch = Patch.box(2, -1.0, 1.0, 11)
    module, run = _boxed_checks(_pulled_back_pair(patch))[check]
    calls = []

    def recorded(kernel, box, *args):
        if box == patch.interior(1):
            calls.append((kernel, box, *args))
        return report.slab_map(kernel, box, *args)

    monkeypatch.setattr(module, "slab_map", recorded)
    run()
    (call,) = calls
    assert 0.0 < _traced_slope(monkeypatch, call, 729) <= call[2]


def _guards_and_chart_solves(patch):
    """The two guards over the whole grid, of the chart frame and of
    J^2 = -E, the chart frame's solves of a superposition and of a
    transition over the interior, on a 4D ``patch`` in fd mode, and the
    moduli round trip of type1, sampled on each tile.  Each is the module
    whose ``slab_map`` runs the kernel, the kernel's name, its box, and a
    check that runs it."""
    h = _pulled_back_pair(patch)
    z1, z2 = (coordinate_function(patch, k) for k in (1, 2))
    acs = type1_structure(patch)
    chart = SpencerChart(1, *(tuple(f) for f in type1_chart_functions(patch)))
    # w = z1 + 0.1 z1^2 and z2, a chart whose transition from the first is
    # holomorphic and not linear
    bent = SpencerChart(1, (ComplexField.from_exprs(patch, "x1 + 0.1*(x1^2 - x2^2)",
                                                    "x2 + 0.2*x1*x2"),), chart.complement)
    square = ComplexField.from_exprs(patch, "x1^2 - x2^2", "2*x1*x2")
    grid, interior = patch.resolution, patch.interior(1)
    return {
        "chart_frame": (spencer, "normalized", grid,
                        lambda: verify_chart(h.J, SpencerChart(1, (z1,), (z2,)), "fd")),
        "square": (structures, "_square_sup", grid,
                   lambda: validate_acs(h.J.j_cot, tolerance=1e-10)),
        "superposition": (spencer, "blocks", interior,
                          lambda: superposition_check(acs, chart, square, "fd")),
        "transition": (spencer, "tail", interior,
                       lambda: transition_holomorphy_check(chart, bent, acs, "fd")),
        "round_trip": (structures, "tile_round_trip", grid,
                       lambda: normalize_at_origin(acs).round_trip()),
    }


@pytest.mark.parametrize("name", ["chart_frame", "square", "superposition", "transition",
                                  "round_trip"])
def test_a_guard_or_chart_solve_tile_holds_at_most_its_declared_bytes(monkeypatch, name):
    # over a 4D grid 11, in tiles of one and of three indices of the box's
    # first axis; an fd chart frame spans the grid, and so does the round
    # trip, whose tiles of the conjugated structure count
    patch = Patch.box(2, -1.0, 1.0, 11)
    module, kernel_name, box, run = _guards_and_chart_solves(patch)[name]
    calls = []

    def recorded(kernel, *args):
        if kernel.__name__ == kernel_name:
            calls.append((kernel, *args))
        return report.slab_map(kernel, *args)

    monkeypatch.setattr(module, "slab_map", recorded)
    run()
    (call,) = calls
    assert call[1] == box
    extent = [r.stop - r.start if isinstance(r, slice) else r for r in box]
    assert 0.0 < _traced_slope(monkeypatch, call, math.prod(extent[1:])) <= call[2]


@pytest.mark.parametrize("name", ["superposition", "transition"])
def test_a_chart_solve_has_the_bits_of_one_tile_in_every_tiling(monkeypatch, name):
    # the frame's solves run node by node over the 5^4 interior, so tiles of
    # 125 nodes down to one give the report of one tile, every bit
    *_, run = _guards_and_chart_solves(PATCH)[name]
    whole = _outcome(run)
    assert "sup_norm" in whole
    for nodes in (125, 75, 2, 1):
        _tiled_by(monkeypatch, nodes)
        assert _outcome(run) == whole
