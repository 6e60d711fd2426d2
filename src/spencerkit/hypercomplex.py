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

from .fields import ComplexField, MatrixField, Patch, ScalarField, resolve_mode
from .report import ResidualReport, interior_sup, merge_reports, \
    report_from_pointwise, ring_depth, slab_map
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


def j_hyperholo_residual(h: HypercomplexStructure, F: QuaternionFunction,
                         mode: str = "auto") -> ResidualReport:
    """Residual of dF o J = S o dF through the complex splitting."""
    mode = resolve_mode(mode, h.J, *F.components())
    parts = {
        "f_holomorphic": holo_residual(h.J, F.f, mode),
        "phi_antiholomorphic": antiholo_residual(h.J, F.phi, mode),
    }
    return merge_reports(parts, mode)


def k_hyperholo_residual(h: HypercomplexStructure, G: QuaternionFunction,
                         mode: str = "auto") -> ResidualReport:
    """Residual of dG o K = T o dG as four translated 1-form systems
    K*da = sign * db, one kernel over the interior's tiles of K and of G's
    Jacobian (``MatrixField.derivative_tiles``), so no Jacobian spans the
    grid; a constant K with an affine G runs on one node."""
    mode = resolve_mode(mode, h.K, *G.components())
    # the columns of the (*grid, d, 1, 4) Jacobian are du, dv, dzeta, deta
    jac = MatrixField(h.patch, [G.components()]).derivative_tiles(mode)
    systems = {"du": (0, 2, -1.0), "dzeta": (2, 0, +1.0),
               "dv": (1, 3, -1.0), "deta": (3, 1, +1.0)}  # (a, b, sign)

    def norms(jc, jac):
        return np.stack([np.linalg.norm(np.einsum("...qp,...p->...q", jc, jac[..., 0, a])
                                        - sign * jac[..., 0, b], axis=-1)
                         for a, b, sign in systems.values()], axis=-1)

    # a tile holds a node-major copy of K (d^2 floats a node) and the
    # Jacobian's tile (4 d), beside a system's product, difference and norm
    # (8 d at most)
    d = h.patch.dim
    per_node = slab_map(norms, h.patch.interior(1), 8 * (d * d + 12 * d),
                        h.K.j_cot.value_tiles(), jac)
    return merge_reports({name: report_from_pointwise(per_node[..., i], h.patch, mode)
                          for i, name in enumerate(systems)}, mode)


def matrix_condition_residual(acs: AlmostComplexStructure, F: QuaternionFunction,
                              rightmult: np.ndarray, mode: str = "auto") -> float:
    """Sup norm of j_cot @ D^T - D^T @ R, D the component Jacobian.

    This is the unsplit matrix form of the hyperholomorphy condition; it
    vanishes together with the splitting residual.
    """
    mode = resolve_mode(mode, acs, *F.components())
    # D^T columns are the gradients of the four components
    dt = MatrixField(acs.patch, [F.components()]).derivatives(mode)[..., 0, :]
    return interior_sup(acs.cot_values() @ dt - dt @ rightmult, acs.patch)


_KAPPA = 2.0  # translation-check threshold over the K-hyperholomorphy tolerance


@dataclass
class TranslationReport:
    antiholo_residual: float
    holo_residual: float
    threshold: float
    passes: bool
    mode: str


def k_translation_consistency(kres: ResidualReport, jres: ResidualReport,
                              tolerance: float = 1e-8) -> TranslationReport:
    """J-consequences of K-hyperholomorphy on flat-pair fixtures.

    ``kres`` and ``jres`` are ``k_hyperholo_residual`` and
    ``j_hyperholo_residual`` of one function G.  Precondition:
    ``kres.sup_norm <= tolerance``.  Then checks that zeta + i*eta is
    J-antiholomorphic and u + iv is J-holomorphic (the two parts of
    ``jres``), within 2 * tolerance (the factor 2, ``_KAPPA``, absorbs the
    change between the two splittings).  These consequences hold for the
    affine fixture family on the flat pair; they are not a theorem for
    arbitrary K-hyperholomorphic functions, which is why the check is
    fixture-scoped.
    """
    if kres.sup_norm > tolerance:
        raise EigenPreconditionError(
            f"G is not K-hyperholomorphic (residual {kres.sup_norm:.2e} "
            f"> {tolerance:.1e}); nothing to check")
    anti = jres.breakdown["phi_antiholomorphic"]
    holo = jres.breakdown["f_holomorphic"]
    threshold = _KAPPA * max(tolerance, kres.sup_norm, 1e-14)
    return TranslationReport(
        antiholo_residual=anti,
        holo_residual=holo,
        threshold=threshold,
        passes=bool(anti <= threshold and holo <= threshold),
        mode=jres.mode,
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
    mode = resolve_mode(mode, h.J, h.K, u, zeta)
    rj = d_oneform(potential_oneform(h.J, u, mode), mode)
    rk = d_oneform(potential_oneform(h.K, zeta, mode), mode)
    patch, depth = h.patch, ring_depth(mode)
    coupled = interior_sup(rj + rk, patch, depth)
    j_sup = interior_sup(rj, patch, depth)
    k_sup = interior_sup(rk, patch, depth)
    lap_j = interior_sup(apply_pointwise(assemble_operator(h.J, mode), u, mode),
                         patch, depth)
    lap_k = interior_sup(apply_pointwise(assemble_operator(h.K, mode), zeta, mode),
                         patch, depth)
    return HyperPotentialReport(coupled, j_sup, k_sup, lap_j, lap_k, mode)
