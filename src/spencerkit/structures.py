"""Algebra of almost-complex and quaternionic structures.

Representation conventions, fixed once for the whole package:

* ``j_tan`` acts on tangent-vector components, ``(JX)^k = sum_j T[k,j] X^j``.
* ``j_cot`` acts on 1-form coefficients, ``(J*w)_q = sum_p C[q,p] w_p``;
  it is the pointwise transpose of ``j_tan``.
* The sign convention is anchored by requiring that ``x1 + i*x2`` be
  almost holomorphic for the structure generated by the pair
  ``(P, Q) = (0, -E)``; its cotangent matrix is ``[[0, 1], [-1, 0]]``
  per coordinate pair.

The generation rule builds the cotangent matrix from an (n x n) pair
``(P, Q)`` with ``Q`` invertible::

    j_cot = [[-P Q^-1,  -P Q^-1 P - Q],
             [ Q^-1,     Q^-1 P      ]]

and satisfies ``j_cot^2 = -E`` identically, for every such pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Num, add, div, mul, neg, sub
from .fields import MatrixField, Patch, resolve_mode
from .report import interior_sup, node_sup, slab_map, sup_and_node

__all__ = [
    "InvalidStructureError",
    "SingularMatrixError",
    "AlmostComplexStructure",
    "PQPair",
    "BlockDecomposition",
    "HypercomplexStructure",
    "validate_acs",
    "reconstruct_from_pq",
    "normalize_at_origin",
    "extract_pq",
    "quaternionic_standard",
    "twistor_structure",
    "nijenhuis_residual",
    "make_hypercomplex",
    "ACS_TOLERANCE",
]

ACS_TOLERANCE = 1e-8
_SINGULAR_THRESHOLD = 1e-12  # relative |det| below which a matrix is singular


class InvalidStructureError(ValueError):
    """A structure identity fails: by default, J(x)^2 = -E."""

    def __init__(self, residual: float, node: tuple[int, ...], tolerance: float,
                 quantity: str = "J(x)^2 + E has sup norm"):
        super().__init__(
            f"{quantity} {residual:.3e} at node {node} "
            f"(tolerance {tolerance:.1e})")
        self.residual = residual
        self.node = node


class SingularMatrixError(ValueError):
    """Pointwise inversion hit a (near) singular node."""

    def __init__(self, message: str, node: tuple[int, ...]):
        super().__init__(f"{message} at node {node}")
        self.node = node


def _square_residual(values: np.ndarray) -> tuple[float, tuple[int, ...]]:
    d = values.shape[-1]
    eye = np.eye(d)
    return sup_and_node(slab_map(lambda v: node_sup(v @ v + eye),
                                 values.shape[:-2], values.itemsize * d * d, values))


def _det_scale(values: np.ndarray) -> np.ndarray:
    """Relative singularity scale max(1, max|entry|)^n per node."""
    n = values.shape[-1]
    return np.maximum(1.0, node_sup(values)) ** n


def _require_nonsingular(values: np.ndarray, message: str) -> None:
    """Raise ``SingularMatrixError`` at the first (near) singular node: one
    where |det| <= 1e-12 (``_SINGULAR_THRESHOLD``) times ``_det_scale``."""
    n = values.shape[-1]

    def singular(v):
        return np.abs(np.linalg.det(v)) <= _SINGULAR_THRESHOLD * _det_scale(v)

    bad, node = sup_and_node(slab_map(singular, values.shape[:-2],
                                      values.itemsize * n * n, values))
    if bad:
        raise SingularMatrixError(message, node)


def pointwise_inverse(values: np.ndarray, what: str = "matrix") -> np.ndarray:
    """LU-based inverse at every node, with a detectable singularity guard
    (``_require_nonsingular``, relative determinant threshold 1e-12)."""
    _require_nonsingular(values, f"{what} is singular")
    return np.linalg.inv(values)


@dataclass(eq=False)
class AlmostComplexStructure:
    """Validated structure with both tangent and cotangent representations."""

    patch: Patch
    j_tan: MatrixField
    j_cot: MatrixField
    acs_residual: float
    tolerance: float = ACS_TOLERANCE

    @property
    def dim(self) -> int:
        return self.patch.dim

    @property
    def n(self) -> int:
        return self.patch.dim_half

    @property
    def is_exact(self) -> bool:
        return self.j_cot.is_exact

    @property
    def valid(self) -> bool:
        return self.acs_residual <= self.tolerance

    def cot_values(self) -> np.ndarray:
        return self.j_cot.values

    def tan_values(self) -> np.ndarray:
        return self.j_tan.values


def validate_acs(m: MatrixField, rep: str = "cot", tolerance: float = ACS_TOLERANCE,
                 strict: bool = True) -> AlmostComplexStructure:
    """Check ``J(x)^2 = -E`` on the grid and build the structure.

    ``rep`` names the representation the input matrix uses ("cot" acts on
    1-form coefficients, "tan" on vector components).  With ``strict`` a
    residual above tolerance raises ``InvalidStructureError`` carrying the
    worst node; otherwise the returned structure is flagged invalid.
    """
    r, c = m.shape
    if r != c:
        raise ValueError(f"structure matrix must be square, got {m.shape}")
    if r % 2 != 0:
        raise ValueError(f"structure matrix must have even dimension, got {r}")
    if r != m.patch.dim:
        raise ValueError(f"matrix dimension {r} does not match patch dimension "
                         f"{m.patch.dim}")
    residual, node = _square_residual(m.values)
    if strict and residual > tolerance:
        raise InvalidStructureError(residual, node, tolerance)
    if rep == "cot":
        j_cot, j_tan = m, m.transpose()
    elif rep == "tan":
        j_tan, j_cot = m, m.transpose()
    else:
        raise ValueError(f"unknown representation {rep!r}")
    return AlmostComplexStructure(m.patch, j_tan, j_cot, residual, tolerance)


@dataclass(eq=False)
class PQPair:
    """Local moduli coordinates: n x n matrix fields with Q invertible."""

    patch: Patch
    P: MatrixField
    Q: MatrixField
    q_condition: float = 0.0

    def __post_init__(self):
        n = self.patch.dim_half
        if self.P.shape != (n, n) or self.Q.shape != (n, n):
            raise ValueError(f"P and Q must be {n} x {n} matrix fields")
        qv = self.Q.values
        qinv = pointwise_inverse(qv, "Q")
        norm = np.abs(qv).sum(axis=-1).max(axis=-1)
        inv_norm = np.abs(qinv).sum(axis=-1).max(axis=-1)
        cond, node = sup_and_node(norm * inv_norm)
        if cond >= 1e12:
            raise SingularMatrixError(f"Q condition estimate {cond:.2e} exceeds 1e12",
                                      node)
        self.q_condition = cond


# -- symbolic adjugate inversion (small matrices of expression entries) -----


def _sym_det(entries) -> "object":
    n = len(entries)
    if n == 1:
        return entries[0][0]
    if n == 2:
        return sub(mul(entries[0][0], entries[1][1]),
                   mul(entries[0][1], entries[1][0]))
    acc = Num(0.0)
    for j in range(n):
        minor = [[entries[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = mul(entries[0][j], _sym_det(minor))
        acc = add(acc, term) if j % 2 == 0 else sub(acc, term)
    return acc


def symbolic_inverse(m: MatrixField) -> MatrixField:
    """Adjugate inverse with expression entries; practical for n <= 4."""
    n = m.shape[0]
    if not m.is_square:
        raise ValueError("only square matrices can be inverted")
    if n > 4:
        raise ValueError("symbolic inversion is limited to n <= 4")
    if not m.is_exact:
        raise ValueError("symbolic inversion needs expression-backed entries")
    entries = m.exprs
    det = _sym_det(entries)

    def inverse_entry(i, j):
        minor = [[entries[r][c] for c in range(n) if c != i]
                 for r in range(n) if r != j]
        cof = _sym_det(minor) if n > 1 else Num(1.0)
        return div(neg(cof) if (i + j) % 2 == 1 else cof, det)

    return MatrixField.from_exprs(m.patch, [[inverse_entry(i, j) for j in range(n)]
                                            for i in range(n)])


def reconstruct_from_pq(pq: PQPair, symbolic: str = "auto") -> AlmostComplexStructure:
    """Generate the cotangent matrix of a structure from a (P, Q) pair.

    The result squares to -E identically; the reported residual is pure
    roundoff.  With ``symbolic`` "auto" the entries stay expression-backed
    whenever P and Q are expression-backed and n <= 3 (so the structure can
    be differentiated exactly downstream); "never" forces sampled entries,
    "always" errors if the symbolic path is unavailable.
    """
    n = pq.patch.dim_half
    want_sym = symbolic != "never" and pq.P.is_exact and pq.Q.is_exact and n <= 3
    if symbolic == "always" and not want_sym:
        raise ValueError("symbolic reconstruction unavailable for this pair")
    if want_sym:
        qinv = symbolic_inverse(pq.Q)
        tl = -(pq.P @ qinv)
        tr = -(pq.P @ qinv @ pq.P) - pq.Q
        bl = qinv
        br = qinv @ pq.P
        rows = [tl.exprs[i] + tr.exprs[i] for i in range(n)]
        rows += [bl.exprs[i] + br.exprs[i] for i in range(n)]
        j_cot = MatrixField.from_exprs(pq.patch, rows)
    else:
        pv, qv = pq.P.values, pq.Q.values
        qinv = pointwise_inverse(qv, "Q")
        pqinv = pv @ qinv
        j_cot = MatrixField.from_values(pq.patch, np.block(
            [[-pqinv, -(pqinv @ pv) - qv], [qinv, qinv @ pv]]))
    return validate_acs(j_cot, rep="cot", tolerance=1e-10)


@dataclass(eq=False)
class BlockDecomposition:
    """Constant change of frame G with G^-1 j_cot G = [[A, B+E], [C-E, D]]."""

    patch: Patch
    G: np.ndarray
    A: MatrixField
    B: MatrixField
    C: MatrixField
    D: MatrixField

    @property
    def n(self) -> int:
        return self.patch.dim_half

    def reassembled(self) -> np.ndarray:
        """[[A, B+E], [C-E, D]] stacked per node."""
        eye = np.eye(self.n)
        return np.block([[self.A.values, self.B.values + eye],
                         [self.C.values - eye, self.D.values]])

    def identity_residuals(self) -> dict[str, float]:
        """Sup norms of the four block identities implied by J^2 = -E."""
        n = self.n
        eye = np.eye(n)
        a, d = self.A.values, self.D.values
        bp = self.B.values + eye
        cm = self.C.values - eye

        def sup(x):
            return float(np.abs(x).max())

        return {
            "sq_top": sup(a @ a + bp @ cm + eye),
            "off_top": sup(a @ bp + bp @ d),
            "off_bottom": sup(cm @ a + d @ cm),
            "sq_bottom": sup(cm @ bp + d @ d + eye),
        }


def normalizing_frame(m0: np.ndarray, tolerance: float = 1e-8, *,
                      node: tuple[int, ...]) -> np.ndarray:
    """Constant G with G^-1 m0 G = [[0, E], [-E, 0]].

    Built from the eigenvectors of m0 for eigenvalue +i: writing an
    eigenvector as a + ib, the columns of G are (a_1..a_n, b_1..b_n).
    ``node`` is where m0 was taken, named if its eigenvalues are off +-i.
    """
    d = m0.shape[0]
    n = d // 2
    z, e = np.zeros((n, n)), np.eye(n)
    # [[0, E], [-E, 0]]: the cotangent matrix of the normalized structure
    if np.abs(m0 - np.block([[z, e], [-e, z]])).max() <= 1e-12:
        return np.eye(d)
    w, v = np.linalg.eig(m0)
    order = np.argsort(np.abs(w - 1j))
    picked = order[:n]
    gap = float(np.abs(w[picked] - 1j).max())
    if gap > tolerance:
        raise InvalidStructureError(gap, node, tolerance,
                                    "eigenvalues of J(x) lie off +-i by")
    cols = v[:, picked]
    cols = cols / np.abs(cols).max(axis=0)
    G = np.hstack([cols.real, cols.imag])
    if abs(np.linalg.det(G)) < 1e-10:
        raise ValueError("eigenvector frame is degenerate; structure may be "
                         "defective at the base point")
    return G


def conjugate_by_constant(m: MatrixField, left: np.ndarray,
                          right: np.ndarray) -> MatrixField:
    """left @ m(x) @ right with constant matrices, expression-aware."""
    if m.is_exact:
        lf = MatrixField.constant(m.patch, left)
        rf = MatrixField.constant(m.patch, right)
        return lf @ m @ rf
    return MatrixField.from_values(m.patch, left @ m.values @ right)


def normalize_at_origin(acs: AlmostComplexStructure,
                        base_point: tuple[int, ...] | None = None,
                        ) -> BlockDecomposition:
    """Decompose j_cot around a base node.

    Computes a constant frame G taking ``j_cot(base)`` to ``[[0, E], [-E, 0]]``
    (so A, B, C, D all vanish at the base node), then the four block fields on
    the whole patch.  Fails if ``C(x) - E`` becomes singular somewhere on the
    patch, which signals that the structure left the normalized neighborhood.
    """
    patch = acs.patch
    n = patch.dim_half
    if base_point is None:
        base_point = tuple(r // 2 for r in patch.resolution)
    for i, r in zip(base_point, patch.resolution):
        if not 0 <= i < r:
            raise ValueError(f"base point {base_point} is outside the grid")
    m0 = acs.cot_values()[tuple(base_point)]
    G = normalizing_frame(m0, node=tuple(base_point))
    Ginv = np.linalg.inv(G)
    jg = conjugate_by_constant(acs.j_cot, Ginv, G)
    eye = MatrixField.identity(patch, n)
    A = jg.block(slice(0, n), slice(0, n))
    B = jg.block(slice(0, n), slice(n, 2 * n)) - eye
    C = jg.block(slice(n, 2 * n), slice(0, n)) + eye
    D = jg.block(slice(n, 2 * n), slice(n, 2 * n))
    _require_nonsingular(C.values - np.eye(n),
                         "C(x) - E is singular (structure leaves the normalized "
                         "neighborhood; try a smaller patch)")
    return BlockDecomposition(patch, G, A, B, C, D)


def extract_pq(bd: BlockDecomposition) -> PQPair:
    """Moduli pair of a decomposition: P = (C-E)^-1 D, Q = (C-E)^-1."""
    n = bd.n
    cm = bd.C.values - np.eye(n)
    cminv = pointwise_inverse(cm, "C(x) - E")
    qv = cminv
    pv = cminv @ bd.D.values
    P = MatrixField.from_values(bd.patch, pv)
    Q = MatrixField.from_values(bd.patch, qv)
    return PQPair(bd.patch, P, Q)


def quaternionic_standard() -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 right-multiplication matrices of the quaternion units i and j."""
    s = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    t = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    return s, t


@dataclass(eq=False)
class HypercomplexStructure:
    """Anticommuting pair of almost-complex structures on a 4n patch."""

    patch: Patch
    J: AlmostComplexStructure
    K: AlmostComplexStructure
    anti_residual: float


def make_hypercomplex(J: AlmostComplexStructure, K: AlmostComplexStructure,
                      tolerance: float = ACS_TOLERANCE) -> HypercomplexStructure:
    if J.patch != K.patch:
        raise ValueError("J and K live on different patches")
    if J.patch.dim % 4 != 0:
        raise ValueError("hypercomplex structures need dimension 4n")
    jt, kt = J.tan_values(), K.tan_values()
    d = J.patch.dim
    anti, node = sup_and_node(slab_map(lambda j, k: node_sup(j @ k + k @ j),
                                       J.patch.resolution, 8 * d * d, jt, kt))
    if anti > tolerance:
        raise InvalidStructureError(anti, node, tolerance, "JK + KJ has sup norm")
    return HypercomplexStructure(J.patch, J, K, anti)


def twistor_structure(h: HypercomplexStructure, b: float, c: float, d: float,
                      ) -> AlmostComplexStructure:
    """Structure b*J + c*K + d*(JK) for a unit point (b, c, d).

    The composition is taken in the cotangent representation
    (``j_cot_J @ j_cot_K``), which pairs the flat structure with the
    right-multiplication matrix b*S + c*T + d*(S@T).
    """
    if abs(b * b + c * c + d * d - 1.0) > 1e-12:
        raise ValueError("(b, c, d) must lie on the unit sphere")
    jk = h.J.j_cot @ h.K.j_cot
    combo = h.J.j_cot.scaled(b) + h.K.j_cot.scaled(c) + jk.scaled(d)
    return validate_acs(combo, rep="cot", tolerance=1e-10)


def _nijenhuis_sup(C: np.ndarray, T: np.ndarray, DT: np.ndarray) -> np.ndarray:
    """max |N(e_i, e_j)^k| at each node of a node-major slab.

    ``T`` is the tangent matrix, ``C`` the cotangent one (T transposed) and
    ``DT[n, s, k, j]`` is d_s T[k, j].  On coordinate fields
    ``N(e_i, e_j)^k = M[k, i, j] - M[k, j, i]`` with
    ``M[k, i, j] = sum_s T[s, i] d_s T[k, j] + T[k, s] d_j T[s, i]``.  The
    first sum is one batched product ``C @ DT`` with (k, j) merged into one
    axis; the second is ``T @ DT`` batched over j.  M is antisymmetrized once.
    """
    n, d = T.shape[:2]
    m = (C @ DT.reshape(n, d, d * d)).reshape(n, d, d, d).transpose(0, 2, 1, 3)
    m = m + (T[:, None] @ DT).transpose(0, 2, 3, 1)
    return node_sup(m - m.transpose(0, 1, 3, 2))


def nijenhuis_residual(acs: AlmostComplexStructure, mode: str = "auto") -> float:
    """Sup norm of the Nijenhuis tensor on coordinate vector-field pairs.

    ``N(e_i, e_j)^k`` is evaluated from the tangent representation and its
    derivatives at every interior node; the residual vanishes (up to mode
    tolerance) exactly for integrable structures.  Each slab of nodes forms
    N from two batched matrix products, antisymmetrized once
    (``_nijenhuis_sup``).
    """
    mode = resolve_mode(mode, acs.is_exact)
    patch = acs.patch
    d = patch.dim
    per_node = slab_map(_nijenhuis_sup, patch.resolution, 8 * d ** 3,
                        acs.cot_values(), acs.tan_values(), acs.j_tan.derivatives(mode))
    return interior_sup(per_node, patch)
