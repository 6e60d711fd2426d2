"""Cauchy-Riemann type residuals for almost-complex structures.

A complex function f = u + iv is almost holomorphic when ``J*df = i df``,
equivalently the real pair system ``J*du = -dv`` and ``J*dv = du``.  The
pointwise residual is the complex covector ``j_cot (grad u + i grad v)
- i (grad u + i grad v)``; reports carry its Euclidean norm (sup over
interior nodes) plus the sup-infinity norms of the two real halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, complex_gradient, resolve_mode
from .report import ResidualReport, interior_sup, node_sup, report_from_pointwise, \
    slab_map
from .structures import AlmostComplexStructure, BlockDecomposition, pointwise_solve

__all__ = [
    "holo_residual",
    "antiholo_residual",
    "reduced_system_residual",
    "reduction_equivalence_check",
    "BlockIdentityReport",
    "ReducedSystem",
    "reduced_system",
]

_BOUND_SLACK = 1e-10  # absolute slack of the bound full <= kappa * reduced


def _cr_defect(jc: np.ndarray, grad: np.ndarray, sign: float) -> np.ndarray:
    """The covector ``j_cot grad - sign * i grad`` at each node, from the
    cotangent matrices ``jc`` (..., d, d) and the complex gradient ``grad``
    (..., d) of f: zero where ``J*df = sign * i df``.  Its real and imaginary
    parts are the real halves J*du + sign*dv and J*dv - sign*du."""
    return np.einsum("...qp,...p->...q", jc, grad) - sign * 1j * grad


def _cr_residual(acs: AlmostComplexStructure, grad: np.ndarray, mode: str,
                 sign: float) -> ResidualReport:
    """Residual of ``J*df = sign * i df`` from the complex gradient of f,
    ``grad`` of shape (*grid, d), taken in ``mode``."""
    patch = acs.patch
    d = patch.dim

    def residuals(jc, grad):
        resid = _cr_defect(jc, grad, sign)
        return np.stack([np.linalg.norm(resid, axis=-1),
                         node_sup(resid.real), node_sup(resid.imag)], axis=-1)

    # a tile holds the structure's tile and einsum's complex copy of it, 3 d^2
    # floats a node, beside a few d-vectors: the gradient, the defect, norms
    per_node = slab_map(residuals, patch.interior(1), 8 * (3 * d * d + 8 * d),
                        acs.cot_values(), grad)
    breakdown = {
        "du_system": interior_sup(per_node[..., 1], patch),
        "dv_system": interior_sup(per_node[..., 2], patch),
    }
    return report_from_pointwise(per_node[..., 0], patch, mode, breakdown)


def holo_residual(acs: AlmostComplexStructure, f: ComplexField,
                  mode: str = "auto") -> ResidualReport:
    """Residual of the almost-holomorphy system ``J*df = i df``."""
    mode = resolve_mode(mode, acs, f)
    return _cr_residual(acs, complex_gradient(f, mode), mode, +1.0)


def antiholo_residual(acs: AlmostComplexStructure, f: ComplexField,
                      mode: str = "auto") -> ResidualReport:
    """Residual of the almost-antiholomorphy system ``J*df = -i df``."""
    mode = resolve_mode(mode, acs, f)
    return _cr_residual(acs, complex_gradient(f, mode), mode, -1.0)


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """What both reduction checks need of f: the halves (h1, h2) of its
    gradient in the normalized frame, ``G^-1 grad f``, the solution w of
    ``(C - E) w = D - iE``, and the reduced rows ``h1 + w h2``."""

    h1: np.ndarray
    h2: np.ndarray
    w: np.ndarray
    rows: np.ndarray
    mode: str


def reduced_system(bd: BlockDecomposition, f: ComplexField, mode: str = "auto",
                   ) -> ReducedSystem:
    """The frame gradient of f and w = (C - E)^-1 (D - iE), from the frame's
    lower blocks as they stand, computed once for both reduction checks."""
    _, _, cm, d = bd.frame
    mode = resolve_mode(mode, cm, d, f)
    h = np.einsum("ij,...j->...i", np.linalg.inv(bd.G), complex_gradient(f, mode))
    w = pointwise_solve(cm.values, d.values - 1j * np.eye(bd.n))
    h1, h2 = h[..., :bd.n], h[..., bd.n:]
    return ReducedSystem(h1, h2, w, h1 + np.einsum("...ij,...j->...i", w, h2), mode)


def reduced_system_residual(bd: BlockDecomposition,
                            system: ReducedSystem) -> ResidualReport:
    """Residual of the reduced n-equation system in the normalized frame.

    The full 2n-equation system collapses to ``h1 + (C-E)^-1 (D-iE) h2 = 0``
    where (h1, h2) are the first/last n components of the frame gradient.
    The factored form of the reduced operator in moduli coordinates is
    ``P - iQ = (C-E)^-1 (D - iE)``, read from the decomposition's ``cminv``;
    the gap between the two is reported as a consistency entry.
    ``system`` is ``reduced_system(bd, f, mode)``.
    """
    rows = system.rows
    pointwise = np.linalg.norm(rows, axis=-1)
    factored = bd.cminv @ bd.frame[3].values - 1j * bd.cminv
    breakdown = {
        "factored_form_gap": float(np.abs(system.w - factored).max()),
    }
    for i in range(bd.n):
        breakdown[f"eq_{i + 1}"] = interior_sup(rows[..., i], bd.patch)
    return report_from_pointwise(pointwise, bd.patch, system.mode, breakdown)


@dataclass
class BlockIdentityReport:
    """Outcome of the reduction-equivalence verification."""

    identity_residual: float
    full_residual: float
    reduced_residual: float
    kappa: float
    bound_holds: bool
    mode: str


def reduction_equivalence_check(bd: BlockDecomposition,
                                system: ReducedSystem) -> BlockIdentityReport:
    """Verify the block identity behind the system reduction.

    Pointwise, ``[A - iE, B + E] = (A - iE)(C - E)^-1 [C - E, D - iE]``, with
    the blocks read from ``bd.frame``; consequently a vanishing reduced
    residual forces a vanishing full residual, with amplification factor
    ``kappa = |(A - iE)(C - E)^-1| + 1`` and slack 1e-10 (``_BOUND_SLACK``).
    ``system`` is ``reduced_system(bd, f, mode)``.
    """
    eye = np.eye(bd.n)
    a, bp, cm, d = (block.values for block in bd.frame)
    am, dm = a - 1j * eye, d - 1j * eye
    k = am @ bd.cminv
    lead_gap = np.abs(k @ cm - am).max()
    tail_gap = np.abs(k @ dm - bp).max()
    identity_residual = float(max(lead_gap, tail_gap))

    h1, h2 = system.h1, system.h2
    full_top = np.einsum("...ij,...j->...i", am, h1) \
        + np.einsum("...ij,...j->...i", bp.astype(complex), h2)
    full_bottom = np.einsum("...ij,...j->...i", cm.astype(complex), h1) \
        + np.einsum("...ij,...j->...i", dm, h2)
    full = np.maximum(np.linalg.norm(full_top, axis=-1),
                      np.linalg.norm(full_bottom, axis=-1))
    reduced = np.linalg.norm(system.rows, axis=-1)
    kappa = np.abs(k).sum(axis=-1).max(axis=-1) + 1.0
    sl = bd.patch.interior()
    bound_holds = bool(np.all(full[sl] <= kappa[sl] * reduced[sl] + _BOUND_SLACK))
    return BlockIdentityReport(
        identity_residual=identity_residual,
        full_residual=float(full[sl].max()),
        reduced_residual=float(reduced[sl].max()),
        kappa=float(kappa.max()),
        bound_holds=bound_holds,
        mode=system.mode,
    )
