"""Verification of coordinate charts built from almost-holomorphic functions.

A chart of type m on a 2n-patch lists m complex functions w^1..w^m claimed
almost holomorphic plus n-m complement coordinates z^(m+1)..z^n completing a
coordinate system.  In the pointwise 1-form basis

    (dw^1..dw^m, dz^(m+1)..dz^n, conj dw^1.., conj dz^(m+1)..)

the matrix of the cotangent action must carry i*E_m in the leading block
with zeros in the three blocks below it (and the conjugate mirror with
-i*E_m in the conjugate columns); the remaining columns are unconstrained.
Chart discovery is out of scope: only verification of supplied charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .fields import ComplexField, MatrixField, Patch, complex_gradient, resolve_mode
from .report import ResidualReport, default_tolerance, interior_sup, \
    node_sup, report_from_pointwise, slab_map, sup_and_node
from .structures import AlmostComplexStructure, HypercomplexStructure, _det, \
    _entry_major, pointwise_solve
from .holomorphy import _cr_defect, _cr_residual
from .hypercomplex import (
    QuaternionFunction,
    j_hyperholo_residual,
    k_hyperholo_residual,
)

__all__ = [
    "SpencerChart",
    "ChartError",
    "DegenerateChartError",
    "PatternReport",
    "HyperPatternReport",
    "verify_chart",
    "independence_rank",
    "superposition_check",
    "transition_holomorphy_check",
    "hyper_spencer_pattern_check",
    "fit_polynomial_map",
]


class ChartError(ValueError):
    """Chart precondition failed (unverified chart or non-holomorphic input)."""


class DegenerateChartError(ValueError):
    """The real Jacobian R = [grad u_1 .. grad u_n, grad v_1 .. grad v_n] of
    the chart map, w_j = u_j + i v_j, is singular somewhere on the grid."""

    def __init__(self, node: tuple[int, ...], det: float):
        super().__init__(
            f"chart Jacobian is degenerate at node {node} "
            f"(normalized determinant {det:.2e})")
        self.node = node


@dataclass(frozen=True, eq=False)
class SpencerChart:
    """m holomorphic coordinates plus n-m complement coordinates."""

    m: int
    holo: tuple[ComplexField, ...]
    complement: tuple[ComplexField, ...]

    def __post_init__(self):
        if self.m != len(self.holo):
            raise ValueError("m must equal the number of holomorphic coordinates")
        patch = self.patch
        n = patch.dim_half
        if self.m > n:
            raise ValueError(f"chart type {self.m} exceeds n = {n}")
        if len(self.holo) + len(self.complement) != n:
            raise ValueError(
                f"need {n} coordinates total, got "
                f"{len(self.holo)} + {len(self.complement)}")
        for c in self.holo + self.complement:
            if c.patch != patch:
                raise ValueError("chart coordinates must share one patch")

    @property
    def patch(self) -> Patch:
        return (self.holo + self.complement)[0].patch

    @property
    def n(self) -> int:
        return self.patch.dim_half

    def functions(self) -> tuple[ComplexField, ...]:
        return self.holo + self.complement


# The chart basis B, whose columns are the coefficients of dw_1 .. dw_n and
# their conjugates, is B = R T with R the real Jacobian of the chart map
# (``DegenerateChartError``) and T = [[E, E], [iE, -iE]] constant.  Every
# check factors the real R and applies T^-1 in closed form, so no complex
# (d, d) matrix spans the grid or is factored.  R's determinant and solves
# are those of ``structures`` (``_det``, ``pointwise_solve``), tile by tile:
# closed forms on a 4D patch, where R is 4 x 4, and LU from 6D on.


def _basis_columns(chart: SpencerChart, mode: str) -> np.ndarray:
    """The real Jacobian R of the chart map per node, shape (*grid, d, d):
    column j is grad u_j and column n + j is grad v_j, for the chart's
    coordinates w_j = u_j + i v_j in order.  R is one derivative stack of
    the chart's real parts, one node for a linear chart in exact mode.
    Raises ``DegenerateChartError`` at the first node where
    ``_normalized_det`` is at most 1e-8."""
    fns = chart.functions()
    parts = [f.re for f in fns] + [f.im for f in fns]
    # a temporary field, so that its fd samples are gone before the guard
    frame = MatrixField(chart.patch, [parts]).derivatives(mode)[..., 0, :]
    neg_min, node = sup_and_node(-_normalized_det(frame))
    if -neg_min <= 1e-8:
        raise DegenerateChartError(node, -neg_min)
    return frame


def _normalized_det(frame: np.ndarray) -> np.ndarray:
    """|det B| over the product of B's column norms (Hadamard normalized),
    from the real frame R: 2^n |det R| / prod_j (|grad u_j|^2 + |grad v_j|^2),
    since |det T| = 2^n and columns j and n + j of B = R T both have the
    norm (|grad u_j|^2 + |grad v_j|^2)^(1/2)."""
    d = frame.shape[-1]
    n = d // 2

    def normalized(r):
        # one entry-major copy, which the norms and the determinant both read
        r = _entry_major(r)
        sq = (r * r).sum(axis=-2)  # squared column norms
        # floored as a product, so zero gradients give 0, not 0 / 0
        norms = np.maximum(np.prod(sq[:, :n] + sq[:, n:], axis=-1), 1e-300)
        return 2.0 ** n * np.abs(_det(r)) / norms

    # a tile holds the entry-major copy of R and, at once, its square or the
    # determinant's 12 minors and two products, beside the squared norms and
    # their product: 2 d (d + 1) floats a node
    return slab_map(normalized, frame.shape[:-2], frame.itemsize * 2 * d * (d + 1),
                    frame)


def _frame_tiles(frame: np.ndarray):
    """R as a ``slab_map`` input over a box: each tile one entry-major copy
    (``_entry_major``), which the solve reads in place, where a node-major
    copy would be copied again.  A frame broadcast on every grid axis (a
    linear chart in exact mode) stays the array, so it costs one node."""
    if not any(frame.strides[:-2]):
        return frame
    return lambda tile: _entry_major(frame[tile])


def _over_basis(frame: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B^-1 (x[..., :c] + i x[..., c:]) for the chart basis B = R T, the real
    frame R = ``frame`` (..., d, d) and real ``x`` (..., d, 2c): the
    coefficients over B of c complex covectors.  One real solve gives
    y = R^-1 x, and T^-1 = [[E, -iE], [E, iE]] / 2 applies in closed form:
    with (y11, y12) the first n rows of y's two halves and (y21, y22) the
    last n, the result is [P; Q] with P = [(y11 + y22) + i (y12 - y21)] / 2
    and Q = [(y11 - y22) + i (y12 + y21)] / 2."""
    y = pointwise_solve(frame, x)
    n, c = y.shape[-2] // 2, y.shape[-1] // 2
    y *= 0.5
    y11, y12 = y[..., :n, :c], y[..., :n, c:]
    y21, y22 = y[..., n:, :c], y[..., n:, c:]
    out = np.empty(y11.shape[:-2] + (2 * n, c), dtype=complex)
    np.add(y11, y22, out=out.real[..., :n, :])
    np.subtract(y12, y21, out=out.imag[..., :n, :])
    np.subtract(y11, y22, out=out.real[..., n:, :])
    np.add(y12, y21, out=out.imag[..., n:, :])
    return out


@dataclass
class PatternReport:
    """Block residuals of the constrained columns of the chart pattern."""

    m: int
    block_residuals: dict[str, float]
    holo_residuals: tuple[float, ...]
    passes: bool
    tolerance: float
    mode: str
    worst_node: tuple[int, ...] = ()


def _verified(acs: AlmostComplexStructure, chart: SpencerChart, mode: str,
              tolerance: float | None, orders=(slice(None),),
              ) -> tuple[list[PatternReport], np.ndarray]:
    """Pattern reports of a chart and the real Jacobian R of the chart map
    they were read from (``_basis_columns``).

    Each of ``orders`` gives the report of the basis B[:, order], whose
    representation is M = B^-1 j_cot B with rows and columns in that order.
    The first m columns of M must be i*e_j and the first m basis columns,
    grad u_j + i grad v_j, holomorphic.  j_cot is real, so
    M = [[P, conj Q], [Q, conj P]]: the conjugate columns (offset n) follow
    by conjugation and must be -i*e_j when the first m are i*e_j.  Every
    order keeps each half of the basis in place and pairs column n + j with
    column j, so M's first m columns, rows in order, lie in
    [P; Q] = ``_over_basis(R, j_cot R)``, one real solve per node for every
    order.  One pass over the grid reads them and the holomorphy residuals.
    """
    mode = resolve_mode(mode, acs, *chart.functions())
    if tolerance is None:
        tolerance = default_tolerance(acs.patch, mode, 1e-8, 30.0)
    frame = _basis_columns(chart, mode)
    patch = acs.patch
    m, n = chart.m, chart.n
    ieye = 1j * np.eye(m)
    orders = [np.arange(2 * n)[order] for order in orders]

    def pattern(jc, frame):
        # the holomorphy residuals first, so that einsum's complex copy of jc
        # is gone before the solve
        sups = [np.linalg.norm(_cr_defect(jc, frame[..., j] + 1j * frame[..., n + j],
                                          1.0), axis=-1)
                for order in orders for j in order[:m]]
        pq = _over_basis(frame, jc @ frame)
        for order in orders:
            first = pq[:, order[:, None], order[:m]]
            # a block is empty when m = n, and then reads 0
            sups += [node_sup(first[:, :m] - ieye), node_sup(first[:, m:n]),
                     node_sup(first[:, n:n + m]), node_sup(first[:, n + m:])]
        return np.stack(sups, axis=-1)

    # a tile holds copies of jc and R (``_frame_tiles``; 2 d^2 floats a node)
    # beside about 4 d^2 floats of the kernel's at once: einsum's complex
    # copy of jc, then jc R, its solve and [P; Q].  Tiles are sized for
    # 8 d^2 floats and the results, m + 4 floats an order, twice while they
    # are stacked.
    count = len(orders)
    per_node = slab_map(pattern, patch.interior(1),
                        8 * (8 * patch.dim ** 2 + 2 * count * (m + 4)),
                        acs.cot_values(), _frame_tiles(frame))
    shape = per_node.shape[:-1]  # the interior's
    holo = per_node[..., :count * m].reshape(shape + (count, m))
    sups = per_node[..., count * m:].reshape(shape + (count, 4))
    names = ("lead_identity", "zero_complement", "zero_conjugate", "zero_conj_complement")
    reports = []
    for k in range(count):
        holo_sups = tuple(interior_sup(holo[..., k, j], patch) for j in range(m))
        blocks = {name: interior_sup(sups[..., k, i], patch)
                  for i, name in enumerate(names)}
        # the four blocks tile M's first m columns
        _, node = sup_and_node(sups[..., k, :].max(axis=-1), 1, patch.resolution)
        worst = max(list(blocks.values()) + list(holo_sups))
        reports.append(PatternReport(
            m=m,
            block_residuals=blocks,
            holo_residuals=holo_sups,
            passes=bool(worst <= tolerance),
            tolerance=tolerance,
            mode=mode,
            worst_node=node,
        ))
    return reports, frame


def verify_chart(acs: AlmostComplexStructure, chart: SpencerChart,
                 mode: str = "auto", tolerance: float | None = None,
                 ) -> PatternReport:
    """Verify holomorphy of the w's and the constrained block pattern.

    Raises ``DegenerateChartError`` when the combined real Jacobian is
    singular at some node; tolerance failures are returned as a
    non-passing report carrying the block residuals.
    """
    return _verified(acs, chart, mode, tolerance)[0][0]


def independence_rank(chart: SpencerChart, mode: str = "auto") -> int:
    """Minimum over grid nodes of the rank of the complex m x 2n Jacobian."""
    mode = resolve_mode(mode, *chart.holo)
    if not chart.holo:  # a type-0 chart has no Jacobian rows
        return 0
    rows = np.stack([complex_gradient(w, mode) for w in chart.holo], axis=-2)
    scale = np.abs(rows).max()
    ranks = np.linalg.matrix_rank(rows, tol=1e-8 * max(scale, 1.0))
    return int(ranks.min())


def superposition_check(acs: AlmostComplexStructure, chart: SpencerChart,
                        h: ComplexField, mode: str = "auto",
                        tolerance: float | None = None) -> ResidualReport:
    """Check that dh lies in the span of dw^1 .. dw^m.

    This is the differential form of the statement that every almost
    holomorphic function on the chart factors through (w^1, .., w^m); the
    coefficients of dh on the complement and conjugate basis elements must
    vanish.  Requires a chart that verifies and a holomorphic h, both at
    ``tolerance`` (by default the chart tolerance), and errors otherwise.
    """
    mode = resolve_mode(mode, acs, *chart.functions(), h)
    (pattern,), frame = _verified(acs, chart, mode, tolerance)
    if not pattern.passes:
        raise ChartError("chart failed verification; superposition is undefined")
    return _superposition(acs, chart, h, pattern, frame)


def _superposition(acs: AlmostComplexStructure, chart: SpencerChart,
                   h: ComplexField, pattern: PatternReport, frame: np.ndarray,
                   ) -> ResidualReport:
    """``superposition_check`` on a chart that passed as ``pattern``, with
    the real Jacobian ``frame`` of the chart map that pattern was read from
    (see ``_verified``)."""
    tolerance = pattern.tolerance
    mode = resolve_mode(pattern.mode, acs, h)
    dh = complex_gradient(h, mode)
    hres = _cr_residual(acs, dh, mode, +1.0)
    if hres.sup_norm > tolerance:
        raise ChartError(
            f"h is not almost holomorphic (residual {hres.sup_norm:.2e} "
            f"> {tolerance:.1e})")
    n = chart.n
    m = chart.m
    patch = chart.patch

    def blocks(frame, dh):
        # the coefficients of dh over B = R T, and their largest modulus in
        # each block that must vanish; dh's real and imaginary parts are read
        # in place as the columns of x
        coeffs = _over_basis(frame, dh[..., None].view(float))[..., 0]
        return np.stack([node_sup(coeffs[:, m:n]), node_sup(coeffs[:, n:n + m]),
                         node_sup(coeffs[:, n + m:])], axis=-1)

    # a tile holds copies of R (``_frame_tiles``) and dh beside the solve's
    # minors and adjugate: under 4 d^2 + 8 d floats a node
    d = patch.dim
    sups = slab_map(blocks, patch.interior(1), 8 * (4 * d * d + 8 * d),
                    _frame_tiles(frame), dh)
    breakdown = {
        "complement": interior_sup(sups[..., 0], patch) if m < n else 0.0,
        "conj_holo": interior_sup(sups[..., 1], patch),
        "conj_complement": interior_sup(sups[..., 2], patch) if m < n else 0.0,
    }
    return report_from_pointwise(sups.max(axis=-1), patch, mode, breakdown)


def transition_holomorphy_check(chart_a: SpencerChart, chart_b: SpencerChart,
                                acs: AlmostComplexStructure,
                                mode: str = "auto") -> ResidualReport:
    """Cauchy-Riemann residual of the transition between two charts.

    Both charts are verified first, in the mode of the transition, and
    their real frames are reused (errors on failure).  By the chain rule the
    differential of each w_b^j expands over chart A's basis; the
    coefficients on the conjugate and complement elements are exactly the
    conjugate-derivative components of the transition map, so their sup is
    the classical CR residual of the transition evaluated on the grid.
    """
    if chart_a.patch != chart_b.patch:
        raise ChartError("charts live on disjoint patches; no overlap to check")
    if chart_a.m != chart_b.m:
        raise ChartError("charts declare different types")
    mode = resolve_mode(mode, acs, *chart_a.functions(), *chart_b.functions())
    frames = []
    for name, chart in (("first", chart_a), ("second", chart_b)):
        (pattern,), frame = _verified(acs, chart, mode, None)
        if not pattern.passes:
            raise ChartError(f"{name} chart failed verification; "
                             "no transition is attempted")
        frames.append(frame)
    m, n = chart_a.m, chart_a.n
    patch = chart_a.patch
    columns = np.r_[0:m, n:n + m]

    def tail(frame_a, frame_b):
        # chart B's first m basis columns are its dw_b^j = grad u_b^j + i
        # grad v_b^j: expand them over chart A's basis, one real solve
        coeffs = _over_basis(frame_a, frame_b[..., columns])
        return np.abs(coeffs[:, m:, :]).max(axis=-2)

    # a tile holds copies of both frames (chart A's by ``_frame_tiles``)
    # beside the solve's minors and adjugate: under 6 d^2 floats a node
    tails = slab_map(tail, patch.interior(1), 8 * 6 * patch.dim ** 2,
                     _frame_tiles(frames[0]), frames[1])
    breakdown = {f"w{j + 1}": interior_sup(tails[..., j], patch) for j in range(m)}
    return report_from_pointwise(tails.max(axis=-1), patch, mode, breakdown)


def fit_polynomial_map(inputs: np.ndarray, values: np.ndarray, degree: int,
                       ) -> tuple[np.ndarray, float]:
    """Least-squares polynomial fit (diagnostic only).

    ``inputs`` has shape (N, k); monomials up to total ``degree`` are used.
    Returns the coefficient vector and the max absolute fit residual.
    """
    inputs = np.asarray(inputs)
    n, k = inputs.shape
    cols = [np.ones(n, dtype=inputs.dtype)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(k), deg):
            col = np.ones(n, dtype=inputs.dtype)
            for idx in combo:
                col = col * inputs[:, idx]
            cols.append(col)
    design = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = np.abs(design @ coef - values).max()
    return coef, float(resid)


@dataclass
class HyperPatternReport:
    """Paired block patterns for a hyper chart plus optional transition data."""

    holo_pattern: PatternReport
    antiholo_pattern: PatternReport
    precondition_residuals: dict[str, float]
    transition: dict[str, float] = field(default_factory=dict)
    passes: bool = False


def hyper_spencer_pattern_check(h: HypercomplexStructure,
                                chart: list[ComplexField],
                                antichart: list[ComplexField],
                                transition: QuaternionFunction | None = None,
                                mode: str = "auto",
                                tolerance: float | None = None,
                                ) -> HyperPatternReport:
    """Paired pattern of the cotangent action for a hyper chart.

    ``chart`` lists m functions that must be J-almost-holomorphic and
    ``antichart`` m functions that must be J-almost-antiholomorphic (the two
    complex projections of m quaternionic coordinates).  The representation
    in the basis led by the chart carries i*E_m; led by the antichart it
    carries -i*E_m.  When a ``transition`` map is supplied and passes both
    J- and K-hyperholomorphy, a degree-1 fit confirms it is affine (the
    degree-2 fit is reported for contrast).
    """
    if len(chart) != len(antichart):
        raise ValueError("chart and antichart must have the same length")
    m = len(chart)
    inputs = (h.J, *chart, *antichart)
    if transition is not None:
        inputs += (h.K, *transition.components())
    mode = resolve_mode(mode, *inputs)
    # chart-led basis: complement by the conjugated antichart (J-holomorphic)
    lead = SpencerChart(m, tuple(chart),
                        tuple(f.conjugate() for f in antichart))
    # antichart-led basis: the same four column blocks of width m, with the
    # two in each half swapped; conjugating swaps the pattern sign to -i*E_m
    swapped = np.arange(4 * m).reshape(4, m)[[1, 0, 3, 2]].ravel()
    (holo_pattern, antiholo_pattern), _ = _verified(
        h.J, lead, mode, tolerance, (slice(None), swapped))
    mode, tolerance = holo_pattern.mode, holo_pattern.tolerance
    # the holomorphy residual of conj(f) is the antiholomorphy residual of f
    pre = {f"holo_{j}": r for j, r in enumerate(holo_pattern.holo_residuals, start=1)}
    pre.update({f"antiholo_{j}": r
                for j, r in enumerate(antiholo_pattern.holo_residuals, start=1)})

    transition_info: dict[str, float] = {}
    # each pattern's verdict covers its coordinates' holomorphy residuals
    passes = holo_pattern.passes and antiholo_pattern.passes
    if transition is not None:
        jres = j_hyperholo_residual(h, transition, mode)
        kres = k_hyperholo_residual(h, transition, mode)
        transition_info["j_residual"] = jres.sup_norm
        transition_info["k_residual"] = kres.sup_norm
        if max(jres.sup_norm, kres.sup_norm) <= tolerance:
            pts = np.stack([ax.ravel() for ax in h.patch.mesh], axis=1)
            fits = []
            for comp in transition.components():
                _, r1 = fit_polynomial_map(pts, comp.samples.ravel(), 1)
                fits.append(r1)
            _, r2 = fit_polynomial_map(pts, transition.components()[0].samples.ravel(), 2)
            transition_info["affine_fit_residual"] = float(max(fits))
            transition_info["degree2_fit_residual"] = float(r2)
            passes = passes and max(fits) <= max(tolerance, 1e-9)
        else:
            passes = False
    return HyperPatternReport(
        holo_pattern=holo_pattern,
        antiholo_pattern=antiholo_pattern,
        precondition_residuals=pre,
        transition=transition_info,
        passes=passes,
    )
