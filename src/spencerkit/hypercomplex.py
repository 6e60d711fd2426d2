"""Hyperholomorphy residuals and coupled potential structures.

Quaternion-valued functions F = u + iv + j*zeta + k*eta live on 4n-patches,
with the quaternion units satisfying ij = k.  Splitting F = f + phi*j with
f = u + iv and phi = zeta + i*eta, the J-hyperholomorphy condition
``dF o J = S o dF`` (S the right-multiplication matrix of i) is equivalent
to: f almost holomorphic and phi almost antiholomorphic with respect to J.

For K the matrix condition ``dG o K = T o dG`` (T the right multiplication
by j) translates to the real 1-form system

    K*du = -d(zeta)   K*d(zeta) = du
    K*dv = -d(eta)    K*d(eta)  = dv

equivalently: u + i*zeta and v + i*eta are almost holomorphic with respect
to K.  On the flat pair the K-system of an affine map q -> aq + b further
implies that zeta + i*eta is J-antiholomorphic and u + iv is J-holomorphic;
``k_translation_consistency`` checks those two consequences on flat-pair
fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, MatrixField, Patch, ScalarField, complex_gradient, \
    resolve_mode
from .report import ResidualReport, interior_sup, report_from_pointwise, ring_depth
from .structures import AlmostComplexStructure, HypercomplexStructure
from .holomorphy import antiholo_residual, holo_residual
from .elliptic import apply_pointwise, assemble_operator, d_oneform, potential_oneform

__all__ = [
    "QuaternionFunction",
    "quaternion_multiply",
    "left_multiplication_matrix",
    "j_hyperholo_residual",
    "k_hyperholo_residual",
    "matrix_condition_residual",
    "k_translation_consistency",
    "hyper_potential_residual",
    "EigenPreconditionError",
    "TranslationReport",
    "HyperPotentialReport",
]


@dataclass(frozen=True, eq=False)
class QuaternionFunction:
    """Four real fields: F = u + i*v + j*zeta + k*eta on a 4n patch."""

    u: ScalarField
    v: ScalarField
    zeta: ScalarField
    eta: ScalarField

    def __post_init__(self):
        patch = self.u.patch
        if patch.dim % 4 != 0:
            raise ValueError("quaternion functions need a 4n-dimensional patch")
        for f in (self.v, self.zeta, self.eta):
            if f.patch != patch:
                raise ValueError("all components must share the patch")

    @property
    def patch(self) -> Patch:
        return self.u.patch

    @property
    def f(self) -> ComplexField:
        """First complex projection u + iv."""
        return ComplexField(self.u, self.v)

    @property
    def phi(self) -> ComplexField:
        """Second complex projection zeta + i*eta."""
        return ComplexField(self.zeta, self.eta)

    @property
    def g(self) -> ComplexField:
        """First K-splitting pair u + i*zeta (K-holomorphic when the
        function is K-hyperholomorphic)."""
        return ComplexField(self.u, self.zeta)

    def components(self) -> tuple[ScalarField, ScalarField, ScalarField, ScalarField]:
        return (self.u, self.v, self.zeta, self.eta)

    @classmethod
    def from_exprs(cls, patch: Patch, u, v, zeta, eta) -> "QuaternionFunction":
        return cls(ScalarField.from_expr(patch, u), ScalarField.from_expr(patch, v),
                   ScalarField.from_expr(patch, zeta), ScalarField.from_expr(patch, eta))

    @classmethod
    def identity(cls, patch: Patch) -> "QuaternionFunction":
        return cls.from_exprs(patch, "x1", "x2", "x3", "x4")

    @classmethod
    def affine(cls, patch: Patch, a, b) -> "QuaternionFunction":
        """q -> a*q + b for constant quaternions a, b (components 1, i, j, k)."""
        la = left_multiplication_matrix(a)
        comps = []
        for row, shift in zip(la, b):
            terms = " + ".join(f"({float(row[k])!r})*x{k + 1}" for k in range(4))
            comps.append(f"{terms} + ({float(shift)!r})")
        return cls.from_exprs(patch, *comps)


def quaternion_multiply(a, b) -> tuple[float, float, float, float]:
    """Hamilton product of component 4-tuples (1, i, j, k), ij = k."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def left_multiplication_matrix(a) -> np.ndarray:
    """Matrix of q -> a*q on quaternion components."""
    cols = [quaternion_multiply(a, e) for e in
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    return np.array(cols, dtype=float).T


class EigenPreconditionError(ValueError):
    """Input function fails the hyperholomorphy precondition."""


def _merge_reports(parts: dict[str, ResidualReport], mode: str) -> ResidualReport:
    worst_name = max(parts, key=lambda k: parts[k].sup_norm)
    worst = parts[worst_name]
    breakdown = {name: rep.sup_norm for name, rep in parts.items()}
    return ResidualReport(
        sup_norm=worst.sup_norm,
        l2_norm=max(rep.l2_norm for rep in parts.values()),
        worst_node=worst.worst_node,
        mode=mode,
        breakdown=breakdown,
    )


def j_hyperholo_residual(h: HypercomplexStructure, F: QuaternionFunction,
                         mode: str = "auto") -> ResidualReport:
    """Residual of dF o J = S o dF through the complex splitting."""
    if F.patch != h.patch:
        raise ValueError("function and structure live on different patches")
    mode = resolve_mode(mode, h.J.is_exact and F.f.is_exact and F.phi.is_exact)
    parts = {
        "f_holomorphic": holo_residual(h.J, F.f, mode),
        "phi_antiholomorphic": antiholo_residual(h.J, F.phi, mode),
    }
    return _merge_reports(parts, mode)


def _oneform_residual(acs: AlmostComplexStructure, a: ScalarField,
                      b: ScalarField, sign: float, mode: str) -> ResidualReport:
    """Residual of K*da = sign * db as a pointwise covector norm."""
    grad_a = complex_gradient(ComplexField.from_real(a), mode).real
    grad_b = complex_gradient(ComplexField.from_real(b), mode).real
    jc = acs.cot_values()
    resid = np.einsum("...qp,...p->...q", jc, grad_a) - sign * grad_b
    return report_from_pointwise(np.linalg.norm(resid, axis=-1), acs.patch, mode)


def k_hyperholo_residual(h: HypercomplexStructure, G: QuaternionFunction,
                         mode: str = "auto") -> ResidualReport:
    """Residual of dG o K = T o dG as four translated 1-form systems."""
    if G.patch != h.patch:
        raise ValueError("function and structure live on different patches")
    mode = resolve_mode(mode, h.K.is_exact and
                        all(c.is_exact for c in G.components()))
    k = h.K
    parts = {
        "du": _oneform_residual(k, G.u, G.zeta, -1.0, mode),
        "dzeta": _oneform_residual(k, G.zeta, G.u, +1.0, mode),
        "dv": _oneform_residual(k, G.v, G.eta, -1.0, mode),
        "deta": _oneform_residual(k, G.eta, G.v, +1.0, mode),
    }
    return _merge_reports(parts, mode)


def matrix_condition_residual(acs: AlmostComplexStructure, F: QuaternionFunction,
                              rightmult: np.ndarray, mode: str = "auto") -> float:
    """Sup norm of j_cot @ D^T - D^T @ R, D the component Jacobian.

    This is the unsplit matrix form of the hyperholomorphy condition; it
    vanishes together with the splitting residual.
    """
    mode = resolve_mode(mode, acs.is_exact and
                        all(c.is_exact for c in F.components()))
    # D^T columns are the gradients of the four components
    dt = MatrixField(acs.patch, [F.components()]).derivatives(mode)[..., 0, :]
    return interior_sup(acs.cot_values() @ dt - dt @ rightmult, acs.patch)


@dataclass
class TranslationReport:
    antiholo_residual: float
    holo_residual: float
    threshold: float
    passes: bool
    mode: str


def k_translation_consistency(h: HypercomplexStructure, G: QuaternionFunction,
                              mode: str = "auto", tolerance: float = 1e-8,
                              kappa: float = 2.0) -> TranslationReport:
    """J-consequences of K-hyperholomorphy on flat-pair fixtures.

    Precondition: ``k_hyperholo_residual(G) <= tolerance``.  Then checks
    that zeta + i*eta is J-antiholomorphic and u + iv is J-holomorphic,
    within kappa * tolerance (kappa absorbs the change between the two
    splittings).  These consequences hold for the affine fixture family on
    the flat pair; they are not a theorem for arbitrary K-hyperholomorphic
    functions, which is why the check is fixture-scoped.
    """
    kres = k_hyperholo_residual(h, G, mode)
    if kres.sup_norm > tolerance:
        raise EigenPreconditionError(
            f"G is not K-hyperholomorphic (residual {kres.sup_norm:.2e} "
            f"> {tolerance:.1e}); nothing to check")
    anti = antiholo_residual(h.J, G.phi, mode)
    holo = holo_residual(h.J, G.f, mode)
    threshold = kappa * max(tolerance, kres.sup_norm, 1e-14)
    return TranslationReport(
        antiholo_residual=anti.sup_norm,
        holo_residual=holo.sup_norm,
        threshold=threshold,
        passes=bool(anti.sup_norm <= threshold and holo.sup_norm <= threshold),
        mode=anti.mode,
    )


@dataclass
class HyperPotentialReport:
    coupled: float
    j_closedness: float
    k_closedness: float
    laplacian_j_u: float
    laplacian_k_zeta: float
    mode: str


def hyper_potential_residual(h: HypercomplexStructure, u: ScalarField,
                             zeta: ScalarField, mode: str = "auto",
                             ) -> HyperPotentialReport:
    """Closedness of the coupled form J*du + K*d(zeta).

    Reports the coupled residual sup|d(J*du) + d(K*dzeta)|, the two separate
    closedness residuals, and the induced operator values: a closed J-part
    forces L_J u = 0 and a closed K-part forces L_K zeta = 0.
    """
    if u.patch != h.patch or zeta.patch != h.patch:
        raise ValueError("fields must live on the structure patch")
    mode = resolve_mode(mode, h.J.is_exact and h.K.is_exact
                        and u.is_exact and zeta.is_exact)
    rj = d_oneform(potential_oneform(h.J, u, mode), mode)
    rk = d_oneform(potential_oneform(h.K, zeta, mode), mode)
    patch, depth = h.patch, ring_depth(mode)
    coupled = interior_sup(rj.values() + rk.values(), patch, depth)
    j_sup = interior_sup(rj.values(), patch, depth)
    k_sup = interior_sup(rk.values(), patch, depth)
    lap_j = interior_sup(apply_pointwise(assemble_operator(h.J, mode), u, mode),
                         patch, depth)
    lap_k = interior_sup(apply_pointwise(assemble_operator(h.K, mode), zeta, mode),
                         patch, depth)
    return HyperPotentialReport(coupled, j_sup, k_sup, lap_j, lap_k, mode)
