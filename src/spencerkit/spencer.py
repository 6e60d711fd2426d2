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

from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement

import numpy as np

from .fields import ComplexField, Patch, complex_gradient, resolve_mode
from .report import ResidualReport, default_tolerance, interior_sup, \
    report_from_pointwise
from .structures import AlmostComplexStructure, HypercomplexStructure
from .holomorphy import antiholo_residual, holo_residual
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
    """Combined real Jacobian is singular somewhere on the grid."""

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


def _basis_columns(chart: SpencerChart, mode: str) -> np.ndarray:
    """Complex basis matrix per node, columns = chart 1-form coefficients."""
    patch = chart.patch
    d = patch.dim
    funcs = chart.functions()
    cols = np.empty(patch.resolution + (d, d), dtype=complex)
    for j, fn in enumerate(funcs):
        g = complex_gradient(fn, mode)
        cols[..., :, j] = g
        cols[..., :, j + patch.dim_half] = g.conj()
    return cols


def _normalized_det(basis: np.ndarray) -> np.ndarray:
    """|det| scaled by the product of column norms (Hadamard normalized)."""
    det = np.abs(np.linalg.det(basis))
    norms = np.linalg.norm(basis, axis=-2)
    scale = np.prod(np.maximum(norms, 1e-300), axis=-1)
    return det / scale


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


def _pattern_blocks(acs: AlmostComplexStructure, basis: np.ndarray, m: int,
                    ) -> tuple[dict[str, float], tuple[int, ...]]:
    """Residuals of the constrained blocks in the chart representation.

    The representation is M = B^-1 j_cot B; the first m columns must be
    i*e_j and the conjugate columns (offset n) -i*e_j.  Returns the block
    sup norms plus the interior node where the constraint is worst.
    """
    patch = acs.patch
    n = patch.dim_half
    jc = acs.cot_values().astype(complex)
    M = np.linalg.solve(basis, np.einsum("...ij,...jk->...ik", jc, basis))
    eye = np.eye(m)
    blocks = {
        "lead_identity": max(
            interior_sup(M[..., 0:m, 0:m] - 1j * eye, patch),
            interior_sup(M[..., n:n + m, n:n + m] + 1j * eye, patch)),
        "zero_complement": max(
            interior_sup(M[..., m:n, 0:m], patch),
            interior_sup(M[..., n + m:2 * n, n:n + m], patch)) if m < n else 0.0,
        "zero_conjugate": max(
            interior_sup(M[..., n:n + m, 0:m], patch),
            interior_sup(M[..., 0:m, n:n + m], patch)),
        "zero_conj_complement": max(
            interior_sup(M[..., n + m:2 * n, 0:m], patch),
            interior_sup(M[..., m:n, n:n + m], patch)) if m < n else 0.0,
    }
    gap = M[..., :, 0:m].copy()
    gap[..., 0:m, :] -= 1j * eye
    per_node = np.abs(gap).max(axis=(-2, -1))[patch.interior()]
    node = np.unravel_index(int(np.argmax(per_node)), per_node.shape)
    worst = tuple(int(i) + 1 for i in node)
    return blocks, worst


def verify_chart(acs: AlmostComplexStructure, chart: SpencerChart,
                 mode: str = "auto", tolerance: float | None = None,
                 ) -> PatternReport:
    """Verify holomorphy of the w's and the constrained block pattern.

    Raises ``DegenerateChartError`` when the combined real Jacobian is
    singular at some node; tolerance failures are returned as a
    non-passing report carrying the block residuals.
    """
    if chart.patch != acs.patch:
        raise ValueError("chart and structure live on different patches")
    exact_ok = acs.is_exact and all(f.is_exact for f in chart.functions())
    mode = resolve_mode(mode, exact_ok)
    if tolerance is None:
        tolerance = default_tolerance(acs.patch, mode, 1e-8, 30.0)
    basis = _basis_columns(chart, mode)
    ndet = _normalized_det(basis)
    if ndet.min() <= 1e-8:
        node = np.unravel_index(int(np.argmin(ndet)), acs.patch.resolution)
        raise DegenerateChartError(tuple(int(i) for i in node), float(ndet.min()))
    holo_sups = tuple(holo_residual(acs, w, mode).sup_norm for w in chart.holo)
    blocks, worst_node = _pattern_blocks(acs, basis, chart.m)
    worst = max(list(blocks.values()) + list(holo_sups))
    return PatternReport(
        m=chart.m,
        block_residuals=blocks,
        holo_residuals=holo_sups,
        passes=bool(worst <= tolerance),
        tolerance=tolerance,
        mode=mode,
        worst_node=worst_node,
    )


def independence_rank(chart: SpencerChart, mode: str = "auto") -> int:
    """Minimum over grid nodes of the rank of the complex m x 2n Jacobian."""
    exact_ok = all(f.is_exact for f in chart.holo)
    mode = resolve_mode(mode, exact_ok)
    rows = np.stack([complex_gradient(w, mode) for w in chart.holo], axis=-2)
    scale = np.abs(rows).max()
    ranks = np.linalg.matrix_rank(rows, tol=1e-8 * max(scale, 1.0))
    return int(ranks.min())


def _chart_coefficients(chart: SpencerChart, h: ComplexField, mode: str,
                        ) -> np.ndarray:
    basis = _basis_columns(chart, mode)
    g = complex_gradient(h, mode)
    return np.linalg.solve(basis, g[..., None])[..., 0]


def superposition_check(acs: AlmostComplexStructure, chart: SpencerChart,
                        h: ComplexField, mode: str = "auto",
                        tolerance: float | None = None) -> ResidualReport:
    """Check that dh lies in the span of dw^1 .. dw^m.

    This is the differential form of the statement that every almost
    holomorphic function on the chart factors through (w^1, .., w^m); the
    coefficients of dh on the complement and conjugate basis elements must
    vanish.  Requires a verified chart and a holomorphic h (errors
    otherwise).
    """
    pattern = verify_chart(acs, chart, mode)
    if not pattern.passes:
        raise ChartError("chart failed verification; superposition is undefined")
    mode = pattern.mode
    if tolerance is None:
        tolerance = pattern.tolerance
    hres = holo_residual(acs, h, mode)
    if hres.sup_norm > tolerance:
        raise ChartError(
            f"h is not almost holomorphic (residual {hres.sup_norm:.2e} "
            f"> {tolerance:.1e})")
    coeffs = _chart_coefficients(chart, h, mode)
    n = chart.n
    m = chart.m
    patch = chart.patch
    pointwise = np.abs(coeffs[..., m:]).max(axis=-1)
    breakdown = {
        "complement": interior_sup(coeffs[..., m:n], patch) if m < n else 0.0,
        "conj_holo": interior_sup(coeffs[..., n:n + m], patch),
        "conj_complement": interior_sup(coeffs[..., n + m:], patch) if m < n else 0.0,
    }
    return report_from_pointwise(pointwise, patch, mode, breakdown)


def transition_holomorphy_check(chart_a: SpencerChart, chart_b: SpencerChart,
                                acs: AlmostComplexStructure,
                                sample_nodes: np.ndarray | None = None,
                                mode: str = "auto") -> ResidualReport:
    """Cauchy-Riemann residual of the transition between two charts.

    Both charts are verified first (errors on failure).  By the chain rule
    the differential of each w_b^j expands over chart A's basis; the
    coefficients on the conjugate and complement elements are exactly the
    conjugate-derivative components of the transition map, so their sup is
    the classical CR residual of the transition evaluated on the grid (or
    on ``sample_nodes``, flat indices into the grid).
    """
    if chart_a.patch != chart_b.patch:
        raise ChartError("charts live on disjoint patches; no overlap to check")
    if chart_a.m != chart_b.m:
        raise ChartError("charts declare different types")
    for name, chart in (("first", chart_a), ("second", chart_b)):
        if not verify_chart(acs, chart, mode).passes:
            raise ChartError(f"{name} chart failed verification; "
                             "no transition is attempted")
    mode = resolve_mode(mode, acs.is_exact
                        and all(f.is_exact for f in chart_a.functions())
                        and all(f.is_exact for f in chart_b.functions()))
    m = chart_a.m
    pointwise = None
    breakdown = {}
    for j, wb in enumerate(chart_b.holo, start=1):
        coeffs = _chart_coefficients(chart_a, wb, mode)
        tail = np.abs(coeffs[..., m:]).max(axis=-1)
        pointwise = tail if pointwise is None else np.maximum(pointwise, tail)
        breakdown[f"w{j}"] = interior_sup(tail, chart_a.patch)
    if sample_nodes is not None:
        flat = pointwise.ravel()[np.asarray(sample_nodes, dtype=int)]
        worst = int(np.asarray(sample_nodes)[int(np.argmax(flat))])
        return ResidualReport(
            sup_norm=float(flat.max()),
            l2_norm=float(np.sqrt(np.mean(flat**2))),
            worst_node=tuple(int(i) for i in
                             np.unravel_index(worst, chart_a.patch.resolution)),
            mode=mode,
            breakdown=breakdown,
        )
    return report_from_pointwise(pointwise, chart_a.patch, mode, breakdown)


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
    acs = h.J
    exact_ok = acs.is_exact and all(f.is_exact for f in chart + antichart)
    mode = resolve_mode(mode, exact_ok)
    if tolerance is None:
        tolerance = default_tolerance(h.patch, mode, 1e-8, 30.0)
    pre = {}
    for j, f in enumerate(chart, start=1):
        pre[f"holo_{j}"] = holo_residual(acs, f, mode).sup_norm
    for j, f in enumerate(antichart, start=1):
        pre[f"antiholo_{j}"] = antiholo_residual(acs, f, mode).sup_norm

    # chart-led basis: complement by the conjugated antichart (J-holomorphic)
    lead = SpencerChart(m, tuple(chart),
                        tuple(f.conjugate() for f in antichart))
    holo_pattern = verify_chart(acs, lead, mode, tolerance)
    # antichart-led basis: conjugating swaps the pattern sign to -i*E_m
    mirror = SpencerChart(m, tuple(f.conjugate() for f in antichart),
                          tuple(chart))
    mirror_pattern = verify_chart(acs, mirror, mode, tolerance)
    antiholo_pattern = replace(mirror_pattern, holo_residuals=tuple(
        pre[f"antiholo_{j}"] for j in range(1, m + 1)))

    transition_info: dict[str, float] = {}
    passes = (holo_pattern.passes and antiholo_pattern.passes
              and max(pre.values()) <= tolerance)
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
