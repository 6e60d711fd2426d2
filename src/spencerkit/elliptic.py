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

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .fields import (
    MatrixField,
    Patch,
    ScalarField,
    d_oneform,
    matvec,
    resolve_mode,
)
from .report import ResidualReport, default_tolerance, interior_sup, \
    report_from_pointwise, ring_depth, slab_map, sup_and_node
from .structures import AlmostComplexStructure

__all__ = [
    "EllipticOperator",
    "SolveStats",
    "ConvergenceError",
    "CertificateReport",
    "TheoremReport",
    "potential_oneform",
    "potential_closedness_residual",
    "assemble_operator",
    "ellipticity_certificate",
    "apply_pointwise",
    "contraction_identity_residual",
    "theorem_check",
    "solve_dirichlet",
    "laplacian_stencil",
    "DIRECT_SOLVER_LIMIT",
]

DIRECT_SOLVER_LIMIT = 20_000
_MAX_ITERATIONS = 2000  # GMRES iterations, rounded up to whole restarts
_CERTIFICATE_TOLERANCE = 1e-10


def __getattr__(name: str):
    """``sparse`` and ``spla``, scipy's sparse modules, imported on first use.

    Importing them costs more than most checks, and only the Dirichlet solve
    needs them.  The solver functions read the bare global names, so each one
    that is entered from outside calls this first.  ``setdefault`` leaves a
    name that is already bound as it is, e.g. ``spla`` replaced by a wrapper.
    """
    if name not in ("sparse", "spla"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse
    import scipy.sparse.linalg
    globals().setdefault("sparse", scipy.sparse)
    globals().setdefault("spla", scipy.sparse.linalg)
    return globals()[name]


def potential_oneform(acs: AlmostComplexStructure, u: ScalarField,
                      mode: str = "auto") -> MatrixField:
    """The 1-form (d x 1) with coefficients ``j_cot grad u``."""
    mode = resolve_mode(mode, acs, u)
    # matvec sums term by term, so the coefficients do not depend on how a
    # matrix product would order or fuse them
    coefficients = matvec(acs.j_cot, u.diff(mode))
    return MatrixField(acs.patch, [[c] for c in coefficients])


def potential_closedness_residual(acs: AlmostComplexStructure, u: ScalarField,
                                  mode: str = "auto") -> ResidualReport:
    """Sup norm of d(j_cot du); zero iff u has a closed potential form."""
    mode = resolve_mode(mode, acs, u)
    r = d_oneform(potential_oneform(acs, u, mode), mode)
    pointwise = np.abs(r).max(axis=(-2, -1))
    depth = ring_depth(mode)
    d = acs.patch.dim
    breakdown = {f"R_{s + 1}{q + 1}": interior_sup(r[..., s, q], acs.patch, depth)
                 for s in range(d) for q in range(s + 1, d)}
    return report_from_pointwise(pointwise, acs.patch, mode, breakdown, depth)


@dataclass(eq=False)
class EllipticOperator:
    """Coefficient fields plus the finite-difference stencil."""

    patch: Patch
    A: MatrixField
    B: tuple[ScalarField, ...]
    mode: str

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

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
        principle is not guaranteed.  lambda_min runs over tiles of A
        (``_lambda_min``), so a constant A costs one node."""
        d = self.patch.dim
        lam = slab_map(_lambda_min, self.patch.resolution, 8 * d * d, self.A.values)
        worst = 0.0
        for p, b in enumerate(self.B):
            worst = max(worst, float(np.abs(b.samples).max()) * self.patch.spacing[p])
        return worst / float(lam.min())


def _lambda_min(av: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each symmetric A of a node-major slab, read from
    its lower triangle: in 2D the closed form ``(a + c)/2 - hypot((a - c)/2,
    b)`` of ``[[a, b], [b, c]]``, with no LAPACK call per node; from 4D
    ``np.linalg.eigvalsh``'s."""
    if av.shape[-1] == 2:
        a, b, c = av[:, 0, 0], av[:, 1, 0], av[:, 1, 1]
        return (a + c) / 2 - np.hypot((a - c) / 2, b)
    return np.linalg.eigvalsh(av)[:, 0]


def _principal_part(c: np.ndarray) -> np.ndarray:
    """``A = C^T C + E`` at every node of the cotangent matrices ``c``.

    Sums of products term by term, not by matmul, whose fused multiply-add
    leaves roundoff where terms cancel: a nonzero A_sp adds stencil offsets.
    Accumulated in place from zeros, in the order of a plain sum from 0,
    so a sum of signed zeros still reads +0.  Each node's A depends on that
    node's C only, so A at a few nodes has the bits of A on the full grid.
    The sums run with the nodes on the last axis, so that each product
    spans all nodes rather than d entries of one.
    """
    d = c.shape[-1]
    a = np.zeros((d, d) + c.shape[:-2])
    for q in range(d):
        row = np.ascontiguousarray(np.moveaxis(c[..., q, :], -1, 0))  # C[q, :]
        a += row[:, None] * row[None, :]
    a[range(d), range(d)] += 1.0
    return np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1)))


def _drift(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """B at each node of a node-major slab of cotangent matrices ``c`` and
    their derivatives ``dc[n, s, q, p] = d_s C[q, p]``: the module's formula
    with s and q swapped in its second term, summed from zeros, s outer."""
    n, d = c.shape[:2]
    b = np.zeros((n, d))
    for s in range(d):
        for q in range(d):
            b += (c[:, q, s] - c[:, s, q])[:, None] * dc[:, s, q, :]
    return b


def assemble_operator(acs: AlmostComplexStructure, mode: str = "auto",
                      ) -> EllipticOperator:
    """Build the coefficient fields A and B of the operator.

    Both come from per-node kernels run over tiles (``report.slab_map``),
    and each tile builds its own stack of dC/dx^s, so no stack spans the
    grid; a constant structure's A is one node broadcast to the grid.  In
    exact mode the derivatives of the structure are symbolic, so B carries
    no truncation error; for constant structures B vanishes identically.
    """
    if not acs.valid:
        raise ValueError("cannot assemble the operator of an invalid structure")
    mode = resolve_mode(mode, acs)
    patch = acs.patch
    d = patch.dim
    c = acs.cot_values()
    # three d x d arrays per node: A's sum, one product and the result
    a = slab_map(_principal_part, patch.resolution, 3 * 8 * d * d, c)
    b = slab_map(_drift, patch.resolution, 8 * d ** 3, c,
                 lambda tile: acs.j_cot.derivatives(mode, tile))
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


def ellipticity_certificate(acs: AlmostComplexStructure, sample_count: int = 10_000,
                            seed: int = 0) -> CertificateReport:
    """Sample xi^T A xi over random (node, unit xi) pairs.

    A = C^T C + E is formed from the cotangent matrix C at the sampled nodes,
    or, on a grid of fewer nodes than samples, at every node and gathered,
    so that each node's A is formed once; either way it has the same bits,
    since A at a node reads only that node's C.  No operator is built.
    Both gathers take the flat node indices on a node-major view, and only
    the worst sample's index is unravelled; a constant structure is read at
    its one node, so no copy of it spans the grid.
    The certificate passes when the lower bound
    ``xi^T A xi >= 1 - 1e-10`` holds and the pointwise identity
    ``xi^T A xi = |C xi|^2 + |xi|^2``, evaluated from C itself, holds to
    1e-10 (``_CERTIFICATE_TOLERANCE``).  Raises ``ValueError`` on an
    invalid structure.
    """
    if not acs.valid:
        raise ValueError("cannot certify the ellipticity of an invalid structure")
    rng = np.random.default_rng(seed)
    resolution = acs.patch.resolution
    d = acs.patch.dim
    nodes = rng.integers(0, math.prod(resolution), size=sample_count)
    xi = rng.normal(size=(sample_count, d))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    c = acs.cot_values()
    # node-major C, or its one node when C is constant (stride 0 on every
    # grid axis), where "wrap" takes every index to that node
    flat = c.reshape(-1, d, d) if any(c.strides[:-2]) else c[(0,) * len(resolution)][None]
    c_sel = np.take(flat, nodes, axis=0, mode="wrap")
    if math.prod(resolution) < sample_count:
        a_sel = np.take(_principal_part(c).reshape(-1, d, d), nodes, axis=0)
    else:
        a_sel = _principal_part(c_sel)
    quad = np.einsum("ni,nij,nj->n", xi, a_sel, xi)
    c_xi = np.einsum("nij,nj->ni", c_sel, xi)
    ident = np.einsum("ni,ni->n", c_xi, c_xi) + np.einsum("ni,ni->n", xi, xi)
    gap = float(np.abs(quad - ident).max())
    neg_min, (k,) = sup_and_node(-quad)  # k: the sample where xi^T A xi is least
    tol = _CERTIFICATE_TOLERANCE
    return CertificateReport(
        min_quadratic_form=-neg_min,
        identity_gap=gap,
        samples=sample_count,
        seed=seed,
        passes=bool(-neg_min >= 1.0 - tol and gap <= tol),
        worst_node=tuple(int(i) for i in np.unravel_index(nodes[k], resolution)),
    )


def _stencil_sum(op: EllipticOperator, values: np.ndarray) -> np.ndarray:
    """The stencil applied to grid ``values``, on the interior nodes: the sum,
    offset by offset in stencil order, of coefficient times neighbour value."""
    res = op.patch.resolution
    inner = op.patch.interior()
    acc = np.zeros(tuple(r - 2 for r in res))
    for off, coeff in op.stencil.items():
        shifted = tuple(slice(1 + o, r - 1 + o) for o, r in zip(off, res))
        acc = acc + coeff[inner] * values[shifted]
    return acc


def apply_pointwise(op: EllipticOperator, u: ScalarField, mode: str = "auto",
                    ) -> np.ndarray:
    """L u from the coefficient fields (not the stencil); full-grid array.
    FD values are reliable on the interior."""
    mode = resolve_mode(mode, op, u)
    # exact: fields of the expressions, which differentiate exactly again;
    # fd: the one derivative stack, as a d x 1 field
    grad = MatrixField(u.patch, [[g] for g in u.diff(mode)]) if mode == "exact" else \
        MatrixField.from_values(u.patch, u.derivatives(mode)[..., 0])
    # Hessian: d/dx^s (du/dx^p) for s >= p, mirrored onto s < p
    # written into below: the exact stack of a linear gradient is a
    # read-only broadcast view
    hess = np.require(grad.derivatives(mode)[..., 0], requirements="W")
    i, j = np.triu_indices(u.patch.dim, 1)
    hess[..., i, j] = hess[..., j, i]
    acc = np.einsum("...sp,...sp->...", op.A.values, hess)
    for p, b in enumerate(op.B):
        acc = acc + b.samples * grad.values[..., p, 0]
    return acc


def contraction_identity_residual(acs: AlmostComplexStructure, u: ScalarField,
                                  mode: str = "auto") -> ResidualReport:
    """Gap between L u and the contraction ``sum_sq C[q,s] R_sq``.

    R is the exterior derivative of the potential form of u.  The identity
    holds for every structure and every C^2 function; in exact mode the
    residual is pure roundoff.
    """
    mode = resolve_mode(mode, acs, u)
    op = assemble_operator(acs, mode)
    lhs = apply_pointwise(op, u, mode)
    r = d_oneform(potential_oneform(acs, u, mode), mode)
    jc = acs.cot_values()
    rhs = np.einsum("...qs,...sq->...", jc, r)
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
    mode = resolve_mode(mode, acs, u)
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
            f"solver stopped at relative residual {stats.residual:.2e} "
            f"after {stats.iterations} iterations")
        self.stats = stats
        self.best = best


def _assemble_system(op: EllipticOperator, boundary: np.ndarray,
                     ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Matrix and right-hand side of the interior unknowns, in C order.

    The matrix holds the stencil entries between two interior nodes.  The
    right-hand side moves the boundary terms across: it is minus the stencil
    applied to the boundary data with its interior zeroed (``0.0 -`` keeps
    +0.0 in a row with no boundary neighbour).
    """
    __getattr__("sparse")
    inner = op.patch.interior()
    shape = tuple(r - 2 for r in op.patch.resolution)
    ids = np.arange(math.prod(shape)).reshape(shape)
    rows, cols, data = [], [], []
    for off, coeff in op.stencil.items():
        # the interior nodes whose neighbour at ``off`` is interior too
        src = tuple(slice(max(0, -o), m - max(0, o)) for o, m in zip(off, shape))
        rows.append(ids[src].ravel())
        cols.append(ids[tuple(slice(s.start + o, s.stop + o)
                              for s, o in zip(src, off))].ravel())
        data.append(coeff[inner][src].ravel())
    matrix = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ids.size, ids.size))
    outside = boundary.copy()
    outside[inner] = 0.0
    return matrix, (0.0 - _stencil_sum(op, outside)).ravel()


# Threshold pivoting for every LU: a diagonal pivot is kept while it is at
# least a tenth of its column's largest entry.  ``_lu_solver`` picks the
# fill-reducing column order.
_LU_OPTIONS = {"diag_pivot_thresh": 0.1, "options": {"SymmetricMode": True}}
_LEAF_NODES = 8  # nested dissection leaves a box of at most this many nodes in C order
_OMEGA = 0.8  # damped-Jacobi weight of the V-cycle smoother
_COARSEST = 400  # coarsen while a level has more unknowns than this
_COARSE_LU_LIMIT = 5_000  # above this the coarsest level is only smoothed


def _dissection_order(shape: tuple[int, ...]) -> np.ndarray:
    """Nested-dissection numbering of the grid ``shape``: the C-order index
    of the node at each place.

    A box of more than ``_LEAF_NODES`` nodes is cut across its longest axis
    (the first of equals) at its middle index by a separator one node thick,
    and numbered lo half, hi half, separator; a smaller box and a separator
    are numbered in C order.  How a box is numbered depends only on its
    extents, so the numbering of each distinct extent is built once per
    call, as offsets from the box's first node, and shifted into place for
    every box that has it.  Every value is a node index, so nothing
    overflows.
    """
    ids = np.arange(math.prod(shape)).reshape(shape)
    numbered: dict[tuple[int, ...], np.ndarray] = {}

    def c_order(ext):
        return ids[tuple(slice(e) for e in ext)].ravel()

    def offsets(ext):
        if ext not in numbered:
            if math.prod(ext) <= _LEAF_NODES:
                numbered[ext] = c_order(ext)
            else:
                k = ext.index(max(ext))
                half = ext[k] // 2
                step = math.prod(shape[k + 1:])  # between neighbours on axis k
                numbered[ext] = np.concatenate([
                    offsets(ext[:k] + (half,) + ext[k + 1:]),
                    offsets(ext[:k] + (ext[k] - half - 1,) + ext[k + 1:])
                    + (half + 1) * step,
                    c_order(ext[:k] + (1,) + ext[k + 1:]) + half * step])
        return numbered[ext]

    return offsets(tuple(shape))


def _lu_solver(matrix: sparse.csr_matrix, shape: tuple[int, ...], off_axis: bool):
    """The ``solve`` of a sparse LU of the stencil matrix of the interior grid
    ``shape``, whose unknowns are in C order.

    A stencil with an ``off_axis`` offset, one that couples diagonal
    neighbours, is factored in the nested-dissection order of
    ``_dissection_order`` (George, SIAM J. Numer. Anal. 10, 1973), which
    fills less than minimum degree there.  An axis-only stencil keeps
    SuperLU's minimum degree on the pattern of ``A^T + A``, which fills less
    on it.
    """
    __getattr__("spla")
    if not off_axis:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", **_LU_OPTIONS).solve
    order = _dissection_order(shape)
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    permuted = matrix[order]
    permuted.indices = place[permuted.indices].astype(permuted.indices.dtype)
    lu = spla.splu(permuted.tocsc(), permc_spec="NATURAL", **_LU_OPTIONS)

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[order] = lu.solve(b[order])
        return x

    return solve


def _interpolation(m: int) -> sparse.csr_matrix:
    """1-D linear interpolation from m coarse to 2m + 1 fine interior nodes;
    the boundary nodes around them carry no correction."""
    __getattr__("sparse")
    j = np.arange(m)
    rows = np.concatenate([2 * j, 2 * j + 1, 2 * j + 2])
    weights = np.repeat([0.5, 1.0, 0.5], m)
    return sparse.csr_matrix((weights, (rows, np.tile(j, 3))), shape=(2 * m + 1, m))


def _vcycle(matrix: sparse.csr_matrix, shape: tuple[int, ...]) -> spla.LinearOperator:
    """One geometric V-cycle on the interior unknowns, as a preconditioner.

    ``shape`` is the interior grid, C-ordered like the unknowns.  A level is
    halved while every axis has an odd number of interior nodes (``r - 1``
    even) and it has more than ``_COARSEST`` unknowns.  Prolongation is
    multilinear interpolation, restriction its transpose, and the coarse
    operators are the Galerkin products ``P^T A P``.  Damped Jacobi smooths
    twice before and twice after each coarse correction.  The coarsest level
    is factored when it has at most ``_COARSE_LU_LIMIT`` unknowns and only
    smoothed otherwise, so a grid that cannot be halved never factors the
    whole fine system.  A solve reaches this only above
    ``DIRECT_SOLVER_LIMIT`` unknowns, so the factored level is a Galerkin
    product, which couples diagonal neighbours: its LU is in
    nested-dissection order.
    """
    __getattr__("spla")
    ops, prolong = [matrix], []
    while ops[-1].shape[0] > _COARSEST and all(m % 2 and m > 1 for m in shape):
        shape = tuple(m // 2 for m in shape)
        p = reduce(sparse.kron, [_interpolation(m) for m in shape]).tocsr()
        prolong.append(p)
        ops.append((p.T @ ops[-1] @ p).tocsr())
    weights = [_OMEGA / a.diagonal() for a in ops]
    coarsest = ops[-1]
    exact = _lu_solver(coarsest, shape, off_axis=True) \
        if coarsest.shape[0] <= _COARSE_LU_LIMIT else None

    def cycle(level: int, b: np.ndarray) -> np.ndarray:
        if level == len(prolong) and exact is not None:
            return exact(b)
        a, w = ops[level], weights[level]
        x = w * b  # the first sweep, from a zero guess
        x += w * (b - a @ x)
        if level < len(prolong):
            p = prolong[level]
            x += p @ cycle(level + 1, p.T @ (b - a @ x))
        for _ in range(2):
            x += w * (b - a @ x)
        return x

    return spla.LinearOperator(matrix.shape, lambda b: cycle(0, b), dtype=float)


def solve_dirichlet(op: EllipticOperator, boundary: ScalarField,
                    tolerance: float = 1e-8) -> tuple[ScalarField, SolveStats]:
    """Solve L u = 0 with Dirichlet data from the boundary trace.

    Sparse LU for systems up to ``DIRECT_SOLVER_LIMIT`` unknowns, otherwise
    restarted GMRES preconditioned by one geometric multigrid V-cycle
    (deterministic: zero initial guess), capped at ``_MAX_ITERATIONS`` inner
    iterations, the count ``SolveStats.iterations`` reports.  The solve
    converges when its relative residual is at most ``tolerance``.  The
    direct LU is ordered by nested dissection when a stencil offset moves on
    more than one axis, and by minimum degree otherwise.  Warns when the
    mesh Peclet number exceeds 1, where the discrete maximum principle is no
    longer guaranteed.
    """
    if boundary.patch != op.patch:
        raise ValueError("boundary data lives on a different patch")
    bvals = boundary.samples
    if not np.isfinite(bvals).all():
        raise ValueError("boundary data contains non-finite values")
    matrix, rhs = _assemble_system(op, bvals)
    shape = tuple(r - 2 for r in op.patch.resolution)
    n_unknowns = rhs.size
    peclet = op.mesh_peclet()
    monotone = peclet <= 1.0
    if not monotone:
        warnings.warn(
            f"mesh Peclet number {peclet:.2f} > 1: discrete maximum "
            f"principle is not guaranteed; refine the grid",
            RuntimeWarning, stacklevel=2)

    iterations = 0
    if n_unknowns <= DIRECT_SOLVER_LIMIT:
        method = "direct"
        off_axis = any(sum(o != 0 for o in off) > 1 for off in op.stencil)
        solution = _lu_solver(matrix, shape, off_axis)(rhs)
        converged = True
    else:
        method = "iterative"
        precond = _vcycle(matrix, shape)
        counter = {"n": 0}

        def cb(_):
            counter["n"] += 1

        # scipy counts restart cycles in maxiter; the cap counts iterations
        restart = min(50, _MAX_ITERATIONS)
        solution, info = spla.gmres(matrix, rhs, rtol=tolerance / 10,
                                    atol=0.0, restart=restart,
                                    maxiter=math.ceil(_MAX_ITERATIONS / restart),
                                    M=precond, callback=cb, callback_type="pr_norm")
        iterations = counter["n"]
        converged = info == 0

    denom = float(np.linalg.norm(rhs)) or 1.0
    residual = float(np.linalg.norm(matrix @ solution - rhs)) / denom
    inner = op.patch.interior()
    full = bvals.copy()
    full[inner] = solution.reshape(full[inner].shape)
    out_field = ScalarField.from_samples(op.patch, full)
    stats = SolveStats(
        method=method,
        iterations=iterations,
        residual=residual,
        converged=bool(converged and residual <= tolerance),
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
