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
from .report import ResidualReport, interior_sup, report_from_pointwise
from .structures import AlmostComplexStructure, BlockDecomposition, PQPair, pointwise_inverse

__all__ = [
    "holo_residual",
    "antiholo_residual",
    "reduced_system_residual",
    "reduction_equivalence_check",
    "BlockIdentityReport",
]

def _cr_residual(acs: AlmostComplexStructure, f: ComplexField, sign: float,
                 mode: str) -> ResidualReport:
    if f.patch != acs.patch:
        raise ValueError("function and structure live on different patches")
    mode = resolve_mode(mode, acs.is_exact and f.is_exact)
    grad = complex_gradient(f, mode)  # (*grid, d)
    jc = acs.cot_values()
    resid = np.einsum("...qp,...p->...q", jc, grad) - sign * 1j * grad
    pointwise = np.linalg.norm(resid, axis=-1)
    # real halves: J*du + sign*dv and J*dv - sign*du
    gu, gv = grad.real, grad.imag
    ju = np.einsum("...qp,...p->...q", jc, gu)
    jv = np.einsum("...qp,...p->...q", jc, gv)
    breakdown = {
        "du_system": interior_sup(ju + sign * gv, acs.patch),
        "dv_system": interior_sup(jv - sign * gu, acs.patch),
    }
    return report_from_pointwise(pointwise, acs.patch, mode, breakdown)


def holo_residual(acs: AlmostComplexStructure, f: ComplexField,
                  mode: str = "auto") -> ResidualReport:
    """Residual of the almost-holomorphy system ``J*df = i df``."""
    return _cr_residual(acs, f, +1.0, mode)


def antiholo_residual(acs: AlmostComplexStructure, f: ComplexField,
                      mode: str = "auto") -> ResidualReport:
    """Residual of the almost-antiholomorphy system ``J*df = -i df``."""
    return _cr_residual(acs, f, -1.0, mode)


def _frame_gradient(bd: BlockDecomposition, f: ComplexField, mode: str,
                    ) -> np.ndarray:
    """Gradient components in the normalized frame: G^-1 grad f."""
    grad = complex_gradient(f, mode)
    ginv = np.linalg.inv(bd.G)
    return np.einsum("ij,...j->...i", ginv, grad)


def reduced_system_residual(bd: BlockDecomposition, pq: PQPair,
                            f: ComplexField, mode: str = "auto",
                            ) -> ResidualReport:
    """Residual of the reduced n-equation system in the normalized frame.

    The full 2n-equation system collapses to ``h1 + (C-E)^-1 (D-iE) h2 = 0``
    where (h1, h2) are the first/last n components of the frame gradient.
    The factored form of the reduced operator in moduli coordinates is
    ``P - iQ``; the gap between the two is reported as a consistency entry.
    """
    n = bd.n
    mode = resolve_mode(mode, f.is_exact)
    h = _frame_gradient(bd, f, mode)
    h1, h2 = h[..., :n], h[..., n:]
    eye = np.eye(n)
    cm = bd.C.values - eye
    w = np.linalg.solve(cm, bd.D.values - 1j * eye)
    rows = h1 + np.einsum("...ij,...j->...i", w, h2)
    pointwise = np.linalg.norm(rows, axis=-1)
    factored = pq.P.values - 1j * pq.Q.values
    breakdown = {
        "factored_form_gap": float(np.abs(w - factored).max()),
    }
    for i in range(n):
        breakdown[f"eq_{i + 1}"] = interior_sup(rows[..., i], bd.patch)
    return report_from_pointwise(pointwise, bd.patch, mode, breakdown)


@dataclass
class BlockIdentityReport:
    """Outcome of the reduction-equivalence verification."""

    identity_residual: float
    full_residual: float
    reduced_residual: float
    kappa: float
    bound_holds: bool
    mode: str


def reduction_equivalence_check(acs: AlmostComplexStructure,
                                bd: BlockDecomposition, pq: PQPair,
                                f: ComplexField, mode: str = "auto",
                                tolerance: float = 1e-10) -> BlockIdentityReport:
    """Verify the block identity behind the system reduction.

    Pointwise, ``[A - iE, B + E] = (A - iE)(C - E)^-1 [C - E, D - iE]``;
    consequently a vanishing reduced residual forces a vanishing full
    residual, with amplification factor ``kappa = |(A - iE)(C - E)^-1| + 1``.
    """
    n = bd.n
    mode = resolve_mode(mode, f.is_exact)
    eye = np.eye(n)
    a = bd.A.values
    bp = bd.B.values + eye
    cm = bd.C.values - eye
    dm = bd.D.values - 1j * eye
    am = a - 1j * eye
    cminv = pointwise_inverse(cm.astype(complex), "C(x) - E")
    k = am @ cminv
    lead_gap = np.abs(k @ cm - am).max()
    tail_gap = np.abs(k @ dm - bp).max()
    identity_residual = float(max(lead_gap, tail_gap))

    h = _frame_gradient(bd, f, mode)
    h1, h2 = h[..., :n], h[..., n:]
    full_top = np.einsum("...ij,...j->...i", am, h1) \
        + np.einsum("...ij,...j->...i", bp.astype(complex), h2)
    full_bottom = np.einsum("...ij,...j->...i", cm.astype(complex), h1) \
        + np.einsum("...ij,...j->...i", dm, h2)
    full = np.maximum(np.linalg.norm(full_top, axis=-1),
                      np.linalg.norm(full_bottom, axis=-1))
    reduced = np.linalg.norm(
        h1 + np.einsum("...ij,...j->...i", np.linalg.solve(cm, bd.D.values)
                       - 1j * cminv, h2), axis=-1)
    kappa = np.abs(k).sum(axis=-1).max(axis=-1) + 1.0
    sl = bd.patch.interior()
    bound_holds = bool(np.all(full[sl] <= kappa[sl] * reduced[sl] + tolerance))
    return BlockIdentityReport(
        identity_residual=identity_residual,
        full_residual=float(full[sl].max()),
        reduced_residual=float(reduced[sl].max()),
        kappa=float(kappa.max()),
        bound_holds=bound_holds,
        mode=mode,
    )
