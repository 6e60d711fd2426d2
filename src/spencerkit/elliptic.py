"""The second-order operator attached to an almost-complex structure.

For the cotangent matrix C(x) of a structure, the operator is::

    L u = sum_sp A_sp d2u/dx^s dx^p  +  sum_p B_p du/dx^p
    A   = C^T C + E
    B_p = sum_sq C[q,s] * (d C[q,p]/dx^s - d C[s,p]/dx^q)

The orientation of the principal part is pinned down by the contraction
identity ``L u = sum_sq C[q,s] * R_sq`` with R = d(C grad u), which both
annihilates every function with closed potential form and forces
A = C^T C + E (the row/column alternative fails it for non-normal C).
Consequently ``xi^T A xi = |C xi|^2 + |xi|^2 >= |xi|^2``, so L is elliptic.

For the standard structure A = 2E and the operator is exactly twice the
Laplacian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .fields import (
    MatrixField,
    OneForm,
    Patch,
    ScalarField,
    d_oneform,
    gradient,
    matvec,
    resolve_mode,
)
from .report import ResidualReport, default_tolerance, interior_sup, \
    report_from_pointwise, ring_depth
from .structures import AlmostComplexStructure

__all__ = [
    "EllipticOperator",
    "DirichletProblem",
    "SolveStats",
    "ConvergenceError",
    "CertificateReport",
    "TheoremReport",
    "potential_oneform",
    "potential_closedness_residual",
    "assemble_operator",
    "ellipticity_certificate",
    "apply_operator",
    "apply_pointwise",
    "contraction_identity_residual",
    "theorem_check",
    "solve_dirichlet",
    "laplacian_stencil",
    "DIRECT_SOLVER_LIMIT",
]

DIRECT_SOLVER_LIMIT = 20_000


def potential_oneform(acs: AlmostComplexStructure, u: ScalarField,
                      mode: str = "auto") -> OneForm:
    """The 1-form with coefficients ``j_cot grad u``."""
    mode = resolve_mode(mode, acs.is_exact and u.is_exact)
    grad = gradient(u, mode)
    return OneForm(acs.patch, matvec(acs.j_cot, grad))


def potential_closedness_residual(acs: AlmostComplexStructure, u: ScalarField,
                                  mode: str = "auto") -> ResidualReport:
    """Sup norm of d(j_cot du); zero iff u has a closed potential form."""
    mode = resolve_mode(mode, acs.is_exact and u.is_exact)
    r = d_oneform(potential_oneform(acs, u, mode), mode)
    pointwise = np.abs(r.values()).max(axis=(-2, -1))
    depth = ring_depth(mode)
    breakdown = {f"R_{s + 1}{q + 1}": interior_sup(f.samples, acs.patch, depth)
                 for (s, q), f in r.upper.items()}
    return report_from_pointwise(pointwise, acs.patch, mode, breakdown, depth)


@dataclass(eq=False)
class EllipticOperator:
    """Coefficient fields plus the finite-difference stencil."""

    patch: Patch
    A: MatrixField
    B: tuple[ScalarField, ...]
    mode: str

    @cached_property
    def stencil(self) -> dict[tuple[int, ...], np.ndarray]:
        """Offset -> coefficient array (full grid; consumed on the interior).

        Diagonal second derivatives use the 3-point difference, mixed ones
        the 4-point cross difference, first-order terms central differences;
        in two dimensions this is the compact 9-point neighborhood.
        """
        d = self.patch.dim
        h = self.patch.spacing
        av = self.A.values
        coeffs: dict[tuple[int, ...], np.ndarray] = {}
        zero = tuple(0 for _ in range(d))
        center = np.zeros(self.patch.resolution)
        for s in range(d):
            ass = av[..., s, s]
            diag = ass / h[s] ** 2
            bs = self.B[s].samples / (2.0 * h[s])
            plus = tuple(1 if k == s else 0 for k in range(d))
            minus = tuple(-1 if k == s else 0 for k in range(d))
            coeffs[plus] = diag + bs
            coeffs[minus] = diag - bs
            center = center - 2.0 * diag
        for s in range(d):
            for p in range(s + 1, d):
                cross = (av[..., s, p] + av[..., p, s]) / (4.0 * h[s] * h[p])
                if not np.any(cross):
                    continue
                for sgn_s, sgn_p in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                    off = tuple(sgn_s if k == s else (sgn_p if k == p else 0)
                                for k in range(d))
                    coeffs[off] = coeffs.get(off, 0.0) + sgn_s * sgn_p * cross
        coeffs[zero] = center
        return coeffs

    def mesh_peclet(self) -> float:
        """max |B_p| h_p / lambda_min(A); above 1 the discrete maximum
        principle is not guaranteed."""
        lam_min = float(np.linalg.eigvalsh(self.A.values)[..., 0].min())
        worst = 0.0
        for p, b in enumerate(self.B):
            worst = max(worst, float(np.abs(b.samples).max()) * self.patch.spacing[p])
        return worst / lam_min


def assemble_operator(acs: AlmostComplexStructure, mode: str = "auto",
                      ) -> EllipticOperator:
    """Build the coefficient fields A and B of the operator.

    Both are sampled arrays.  In exact mode the derivatives of the structure
    are symbolic, so B carries no truncation error; for constant structures
    B vanishes identically.
    """
    if not acs.valid:
        raise ValueError("cannot assemble the operator of an invalid structure")
    mode = resolve_mode(mode, acs.is_exact)
    patch = acs.patch
    d = patch.dim
    # Sums of products term by term, not by matmul, whose fused multiply-add
    # leaves roundoff where terms cancel: a nonzero A_sp adds stencil offsets.
    c = acs.cot_values()
    a = sum(c[..., q, :, None] * c[..., q, None, :] for q in range(d))
    a[..., range(d), range(d)] += 1.0
    # B_p = sum_sq (C[q,s] - C[s,q]) dC[q,p]/dx^s, the formula above with s
    # and q swapped in its second term; one dC/dx^s is alive at a time
    b = np.zeros(patch.resolution + (d,))
    for s in range(d):
        dc = acs.j_cot.diff(s + 1, mode).values
        for q in range(d):
            b += (c[..., q, s] - c[..., s, q])[..., None] * dc[..., q, :]
    B = tuple(ScalarField.from_samples(patch, b[..., p]) for p in range(d))
    return EllipticOperator(patch, MatrixField.from_values(patch, a), B, mode)


@dataclass
class CertificateReport:
    """Random-sample ellipticity certificate."""

    min_quadratic_form: float
    identity_gap: float
    samples: int
    seed: int
    passes: bool
    worst_node: tuple[int, ...]


def ellipticity_certificate(op: EllipticOperator, sample_count: int = 10_000,
                            seed: int = 0, tolerance: float = 1e-10,
                            ) -> CertificateReport:
    """Sample xi^T A xi over random (node, unit xi) pairs.

    Checks the lower bound ``xi^T A xi >= 1 - tolerance`` and the pointwise
    identity ``xi^T A xi = |C xi|^2 + |xi|^2`` where C = A - E recovers the
    squared cotangent factor.
    """
    rng = np.random.default_rng(seed)
    patch = op.patch
    d = patch.dim
    av = op.A.values.reshape(-1, d, d)
    nodes = rng.integers(0, av.shape[0], size=sample_count)
    xi = rng.normal(size=(sample_count, d))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    a_sel = av[nodes]
    quad = np.einsum("ni,nij,nj->n", xi, a_sel, xi)
    # |C xi|^2 + |xi|^2 with C^T C = A - E
    ctc = a_sel - np.eye(d)
    ident = np.einsum("ni,nij,nj->n", xi, ctc, xi) + 1.0
    gap = float(np.abs(quad - ident).max())
    worst = int(nodes[np.argmin(quad)])
    return CertificateReport(
        min_quadratic_form=float(quad.min()),
        identity_gap=gap,
        samples=sample_count,
        seed=seed,
        passes=bool(quad.min() >= 1.0 - tolerance and gap <= tolerance),
        worst_node=tuple(int(i) for i in
                         np.unravel_index(worst, patch.resolution)),
    )


def apply_operator(op: EllipticOperator, u: ScalarField) -> ScalarField:
    """Stencil application at interior nodes; boundary entries are NaN."""
    if u.patch != op.patch:
        raise ValueError("field and operator live on different patches")
    us = u.samples
    res = op.patch.resolution
    inner = op.patch.interior()
    out = np.full(res, np.nan)
    acc = np.zeros(tuple(r - 2 for r in res))
    for off, coeff in op.stencil.items():
        shifted = tuple(slice(1 + o, r - 1 + o) for o, r in zip(off, res))
        cc = coeff[inner] if isinstance(coeff, np.ndarray) else coeff
        acc = acc + cc * us[shifted]
    out[inner] = acc
    return ScalarField.from_samples(op.patch, out)


def _second_derivatives(u: ScalarField, mode: str) -> np.ndarray:
    """Hessian samples (*grid, d, d); FD values are reliable on the interior."""
    patch = u.patch
    d = patch.dim
    out = np.empty(patch.resolution + (d, d))
    firsts = [u.diff(s, mode) for s in range(1, d + 1)]
    for s in range(d):
        for p in range(s, d):
            val = firsts[s].diff(p + 1, mode).samples
            out[..., s, p] = val
            out[..., p, s] = val
    return out


def apply_pointwise(op: EllipticOperator, u: ScalarField, mode: str = "auto",
                    ) -> np.ndarray:
    """L u from the coefficient fields (not the stencil); full-grid array."""
    mode = resolve_mode(mode, u.is_exact and op.mode == "exact")
    hess = _second_derivatives(u, mode)
    acc = np.einsum("...sp,...sp->...", op.A.values, hess)
    for p, b in enumerate(op.B):
        acc = acc + b.samples * u.diff(p + 1, mode).samples
    return acc


def contraction_identity_residual(acs: AlmostComplexStructure, u: ScalarField,
                                  mode: str = "auto") -> ResidualReport:
    """Gap between L u and the contraction ``sum_sq C[q,s] R_sq``.

    R is the exterior derivative of the potential form of u.  The identity
    holds for every structure and every C^2 function; in exact mode the
    residual is pure roundoff.
    """
    mode = resolve_mode(mode, acs.is_exact and u.is_exact)
    op = assemble_operator(acs, mode)
    lhs = apply_pointwise(op, u, mode)
    r = d_oneform(potential_oneform(acs, u, mode), mode)
    jc = acs.cot_values()
    rhs = np.einsum("...qs,...sq->...", jc, r.values())
    return report_from_pointwise(np.abs(lhs - rhs), acs.patch, mode,
                                 depth=ring_depth(mode))


@dataclass
class TheoremReport:
    """Closedness residual, |L u| and the contraction bound between them."""

    closedness: ResidualReport
    laplacian_sup: float
    bound: float
    passes: bool
    mode: str


def theorem_check(acs: AlmostComplexStructure, u: ScalarField,
                  mode: str = "auto") -> TheoremReport:
    """Check that closedness of the potential form controls L u.

    The contraction identity gives |L u| <= 2n(2n-1) * sup|C| * closedness
    (the antisymmetric double sum has 2n(2n-1) nonzero terms), up to mode
    tolerance.  In particular functions with closed potential form satisfy
    L u = 0.
    """
    mode = resolve_mode(mode, acs.is_exact and u.is_exact)
    closed = potential_closedness_residual(acs, u, mode)
    op = assemble_operator(acs, mode)
    lap_sup = interior_sup(apply_pointwise(op, u, mode), acs.patch, ring_depth(mode))
    d = acs.patch.dim
    jmax = float(np.abs(acs.cot_values()).max())
    scale = max(1.0, float(np.abs(u.samples).max()))
    slack = default_tolerance(acs.patch, mode, 1e-10, 50.0) * scale * max(1.0, jmax) ** 2
    bound = d * (d - 1) * jmax * closed.sup_norm + slack
    return TheoremReport(
        closedness=closed,
        laplacian_sup=lap_sup,
        bound=bound,
        passes=bool(lap_sup <= bound),
        mode=mode,
    )


@dataclass(eq=False)
class DirichletProblem:
    op: EllipticOperator
    boundary: ScalarField
    tolerance: float = 1e-8
    max_iterations: int = 2000
    method: str = "auto"  # auto | direct | iterative

    def __post_init__(self):
        if self.boundary.patch != self.op.patch:
            raise ValueError("boundary data lives on a different patch")


@dataclass
class SolveStats:
    method: str
    iterations: int
    residual: float
    converged: bool
    unknowns: int
    max_principle_guaranteed: bool


class ConvergenceError(RuntimeError):
    """Iterative solve ran out of iterations; carries the best iterate."""

    def __init__(self, stats: SolveStats, best: ScalarField):
        super().__init__(
            f"solver did not reach {stats.residual:.2e} within "
            f"{stats.iterations} iterations")
        self.stats = stats
        self.best = best


def _assemble_system(op: EllipticOperator, boundary: np.ndarray,
                     ) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    patch = op.patch
    res = patch.resolution
    size = patch.n_points
    idx = np.arange(size).reshape(res)
    inner = patch.interior()
    interior_ids = idx[inner].ravel()
    unknown_of = np.full(size, -1, dtype=np.int64)
    unknown_of[interior_ids] = np.arange(interior_ids.size)

    rows, cols, data = [], [], []
    rhs = np.zeros(interior_ids.size)
    row_ids = np.arange(interior_ids.size)
    bflat = boundary.ravel()
    for off, coeff in op.stencil.items():
        neigh = idx[tuple(slice(1 + o, r - 1 + o) for o, r in zip(off, res))].ravel()
        cvals = coeff[inner].ravel() if isinstance(coeff, np.ndarray) else \
            np.full(interior_ids.size, coeff)
        target = unknown_of[neigh]
        is_unknown = target >= 0
        rows.append(row_ids[is_unknown])
        cols.append(target[is_unknown])
        data.append(cvals[is_unknown])
        outside = ~is_unknown
        if outside.any():
            np.subtract.at(rhs, row_ids[outside],
                           cvals[outside] * bflat[neigh[outside]])
    matrix = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(interior_ids.size, interior_ids.size))
    return matrix, rhs, interior_ids


def solve_dirichlet(problem: DirichletProblem) -> tuple[ScalarField, SolveStats]:
    """Solve L u = 0 with Dirichlet data from the boundary trace.

    Sparse LU for systems up to ``DIRECT_SOLVER_LIMIT`` unknowns, otherwise
    restarted GMRES with diagonal preconditioning (deterministic: zero
    initial guess).  Warns when the mesh Peclet number exceeds 1, where the
    discrete maximum principle is no longer guaranteed.
    """
    op = problem.op
    bvals = problem.boundary.samples
    if not np.isfinite(bvals).all():
        raise ValueError("boundary data contains non-finite values")
    matrix, rhs, interior_ids = _assemble_system(op, bvals)
    n_unknowns = rhs.size
    peclet = op.mesh_peclet()
    monotone = peclet <= 1.0
    if not monotone:
        warnings.warn(
            f"mesh Peclet number {peclet:.2f} > 1: discrete maximum "
            f"principle is not guaranteed; refine the grid",
            RuntimeWarning, stacklevel=2)

    method = problem.method
    if method == "auto":
        method = "direct" if n_unknowns <= DIRECT_SOLVER_LIMIT else "iterative"
    iterations = 0
    if method == "direct":
        solution = spla.splu(matrix.tocsc()).solve(rhs)
        converged = True
    elif method == "iterative":
        diag = matrix.diagonal()
        precond = spla.LinearOperator(matrix.shape, lambda x: x / diag,
                                      dtype=matrix.dtype)
        counter = {"n": 0}

        def cb(_):
            counter["n"] += 1

        solution, info = spla.gmres(matrix, rhs, rtol=problem.tolerance / 10,
                                    atol=0.0, restart=50,
                                    maxiter=problem.max_iterations, M=precond,
                                    callback=cb, callback_type="pr_norm")
        iterations = counter["n"]
        converged = info == 0
    else:
        raise ValueError(f"unknown method {problem.method!r}")

    denom = float(np.linalg.norm(rhs)) or 1.0
    residual = float(np.linalg.norm(matrix @ solution - rhs)) / denom
    full = bvals.copy().ravel()
    full[interior_ids] = solution
    out_field = ScalarField.from_samples(op.patch, full.reshape(op.patch.resolution))
    stats = SolveStats(
        method=method,
        iterations=iterations,
        residual=residual,
        converged=bool(converged and residual <= problem.tolerance),
        unknowns=n_unknowns,
        max_principle_guaranteed=monotone,
    )
    if not stats.converged:
        raise ConvergenceError(stats, out_field)
    return out_field, stats


def laplacian_stencil(patch: Patch) -> dict[tuple[int, ...], np.ndarray]:
    """Standard discrete Laplacian stencil (for reduction checks)."""
    d = patch.dim
    h = patch.spacing
    res = patch.resolution
    coeffs: dict[tuple[int, ...], np.ndarray] = {}
    center = np.zeros(res)
    for s in range(d):
        diag = np.full(res, 1.0 / h[s] ** 2)
        coeffs[tuple(1 if k == s else 0 for k in range(d))] = diag
        coeffs[tuple(-1 if k == s else 0 for k in range(d))] = diag.copy()
        center = center - 2.0 * diag
    coeffs[tuple(0 for _ in range(d))] = center
    return coeffs
