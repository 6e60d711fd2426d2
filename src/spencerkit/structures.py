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

import math
from dataclasses import dataclass, field

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
    "reconstructs_exactly",
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
_EIGENVALUE_TOLERANCE = 1e-8  # largest distance of J(base)'s eigenvalues from +-i
_GENERATED_TOLERANCE = 1e-10  # J^2 + E of a structure generated from (P, Q)


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


def _square_sup(v: np.ndarray) -> np.ndarray:
    """max |J^2 + E| at each node of a node-major slab of matrices J."""
    square = v @ v
    square += np.eye(v.shape[-1])
    return node_sup(square, in_place=True)


def _square_residual(m: MatrixField) -> tuple[float, tuple[int, ...]]:
    """Sup of J^2 + E over the grid and its first worst node, tile by tile
    over J's ``value_tiles``."""
    # a tile holds J^2 and the sup of its entries beside the tile of a
    # tile-resident J, and before them that tile beside its raw values (d^2
    # floats a node at most, one for each entry): 2 d^2 + 2 floats a node
    d = m.shape[-1]
    return sup_and_node(slab_map(_square_sup, m.patch.resolution, 8 * (2 * d * d + 2),
                                 m.value_tiles()))


def _det_scale(values: np.ndarray) -> np.ndarray:
    """Relative singularity scale max(1, max|entry|)^n per node."""
    n = values.shape[-1]
    return np.maximum(1.0, node_sup(values)) ** n


def _cofactor(v: np.ndarray, i: int, j: int) -> np.ndarray:
    """Cofactor (i, j) of each 2 x 2 or 3 x 3 matrix of ``v``: at n = 2 the
    opposite entry times (-1)^(i + j); at n = 3 the minor of rows i + 1,
    i + 2 and columns j + 1, j + 2 (mod 3), whose cyclic order gives the
    sign."""
    if v.shape[-1] == 2:
        entry = v[..., 1 - i, 1 - j]
        return -entry if (i + j) % 2 else entry
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return v[..., i1, j1] * v[..., i2, j2] - v[..., i1, j2] * v[..., i2, j1]


def _expansion(v: np.ndarray, cofactors) -> np.ndarray:
    """The cofactor expansion along the first row, sum_j v[0, j] C[0, j],
    summed from j = 0; at n = 2 it has the bits of ``a d - b c``."""
    det = v[..., 0, 0] * cofactors[0]
    for j in range(1, len(cofactors)):
        det = det + v[..., 0, j] * cofactors[j]
    return det


# the column pairs of a 4 x 4 matrix, in the order of its 2 x 2 minors
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _entry_major(v: np.ndarray) -> np.ndarray:
    """The matrices of ``v`` (..., n, n) as a view of an entry-major
    (n, n, ...) array, so that each entry ``v[..., i, j]`` reads contiguous
    memory: ``v`` itself when it is such a view, else one copy."""
    em = np.ascontiguousarray(np.moveaxis(v, (-2, -1), (0, 1)))
    return np.moveaxis(em, (0, 1), (-2, -1))


def _minors(v: np.ndarray) -> tuple[list, list]:
    """The 2 x 2 minors of rows (0, 1), s, and of rows (2, 3), c, of each
    4 x 4 matrix of an entry-major ``v`` (``_entry_major``), one per column
    pair of ``_PAIRS``: the 12 products that the determinant and the
    adjugate share."""
    return tuple([v[..., r, k] * v[..., r + 1, l] - v[..., r, l] * v[..., r + 1, k]
                  for k, l in _PAIRS] for r in (0, 2))


def _laplace(s: list, c: list) -> np.ndarray:
    """The determinant from the minors (``_minors``), by Laplace's expansion
    along rows 0 and 1: s0 c5 - s1 c4 + s2 c3 + s3 c2 - s4 c1 + s5 c0."""
    return s[0] * c[5] - s[1] * c[4] + s[2] * c[3] + s[3] * c[2] - s[4] * c[1] \
        + s[5] * c[0]


def _adjugate4(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_adjugate`` of each 4 x 4 matrix of an entry-major ``v``, the
    adjugate an entry-major view, from the minors (``_minors``).  Cofactor
    (i, j) drops row i, so its 3 x 3 minor keeps the other row r of i's pair
    of rows and the two rows of the other pair; it expands along row r over
    that pair's 2 x 2 minors of the columns k0 < k1 < k2 other than j,
    v[r, k0] M(k1, k2) - v[r, k1] M(k0, k2) + v[r, k2] M(k0, k1), negated
    when i + j is odd."""
    s, c = _minors(v)
    det = _laplace(s, c)
    adj = np.empty((4, 4) + v.shape[:-2])
    term = np.empty(v.shape[:-2])
    for i in range(4):
        r, minor = (1 - i, c) if i < 2 else (5 - i, s)
        for j in range(4):
            k0, k1, k2 = (k for k in range(4) if k != j)
            cof = adj[j, i]
            np.multiply(v[..., r, k0], minor[_PAIRS.index((k1, k2))], out=cof)
            cof -= np.multiply(v[..., r, k1], minor[_PAIRS.index((k0, k2))], out=term)
            cof += np.multiply(v[..., r, k2], minor[_PAIRS.index((k0, k1))], out=term)
            if (i + j) % 2:
                np.negative(cof, out=cof)
    return np.moveaxis(adj, (0, 1), (-2, -1)), det


def _det(v: np.ndarray) -> np.ndarray:
    """Determinant of each n x n matrix of ``v`` (the last two axes): in
    closed form for n <= 4, and by LU (``np.linalg.det``) from n = 5.  The
    closed form is ``a`` at n = 1, the cofactor expansion along the first
    row (``_expansion``) at n = 2 and 3, and at n = 4 Laplace's expansion
    over the 2 x 2 minors (``_laplace``) of an entry-major copy of ``v``
    (``_entry_major``; none when ``v`` is entry-major).  At 4 x 4, over
    tiles of 8,192 nodes, it takes about 50 ns a node against about 230 for
    a batched LAPACK call, which factors one node at a time."""
    n = v.shape[-1]
    if n == 1:
        return v[..., 0, 0]
    if n == 4:
        return _laplace(*_minors(_entry_major(v)))
    if n > 4:
        return np.linalg.det(v)
    return _expansion(v, [_cofactor(v, 0, j) for j in range(n)])


def _singular(v: np.ndarray) -> np.ndarray:
    """The guard of ``pointwise_inverse`` on a node-major slab: whether
    |det| <= 1e-12 (``_SINGULAR_THRESHOLD``) times ``_det_scale``."""
    return np.abs(_det(v)) <= _SINGULAR_THRESHOLD * _det_scale(v)


def _adjugate(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjugate of each 2 x 2, 3 x 3 or 4 x 4 matrix of ``v``, and the
    determinant, with ``_det``'s bits: from the adjugate's first column at
    n = 2 and 3, and at n = 4 from the minors of an entry-major copy, whose
    cofactors it shares (``_adjugate4``)."""
    n = v.shape[-1]
    if n == 4:
        return _adjugate4(_entry_major(v))
    adj = np.empty(v.shape)
    for i in range(n):
        for j in range(n):
            adj[..., j, i] = _cofactor(v, i, j)
    return adj, _expansion(v, [adj[..., j, 0] for j in range(n)])


def _inverse(v: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a node-major slab: ``1/a`` for n = 1, the
    adjugate over the determinant for n = 2, 3 and 4 (``_adjugate``), and by
    LU (``np.linalg.inv``) from n = 5.  At 4 x 4, over tiles of 8,192
    nodes, the closed form takes about 170 ns a node against about 500 for
    a batched LAPACK call."""
    n = v.shape[-1]
    if n == 1:
        return 1.0 / v
    if n > 4:
        return np.linalg.inv(v)
    adj, det = _adjugate(v)
    adj /= det[..., None, None]
    return adj


def pointwise_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b at every node, for regular real n x n matrices ``a``
    and real or complex n x k right-hand sides ``b``.  For n <= 4 by
    Cramer's rule, x = adj(a) b / det(a) (``_adjugate``), the real and
    imaginary parts of a complex ``b`` apart; at n = 1 that is ``b / a``,
    with the bits of LAPACK's solve.  By LU from n = 5.  At 4 x 4, over
    tiles of 8,192 nodes, with k = 4, Cramer's rule takes about 170 ns a
    node against about 530 for a batched LAPACK solve.  It reads no inverse
    of ``a``, so it can check one."""
    n = a.shape[-1]
    if n == 1:
        return b / a
    if n > 4:
        return np.linalg.solve(a, b)
    adj, det = _adjugate(a)
    det = det[..., None, None]
    if not np.iscomplexobj(b):
        x = adj @ b
        x /= det
        return x
    x = np.empty(b.shape, complex)
    for part, rhs in ((x.real, b.real), (x.imag, b.imag)):
        np.divide(adj @ rhs, det, out=part)
    return x


def pointwise_inverse(values: np.ndarray, message: str) -> np.ndarray:
    """Inverse at every node: ``_inverse``, in closed form for n <= 4.

    Raises ``SingularMatrixError`` with ``message`` at the first (near)
    singular node: one where |det| <= 1e-12 (``_SINGULAR_THRESHOLD``) times
    ``_det_scale``, with det as ``_det`` gives it.  The guard and the
    inverse run tile by tile (``report.slab_map``), so a constant input
    costs one node and its inverse is a read-only broadcast view.  A tile
    holds n^2 + 3 values a node at most: the inverse, or the guard's
    |entries|, beside the determinant and two cofactor products; at n = 4
    also the entry-major copy and the 12 minors (``_adjugate4``), 3 n^2
    values in all.
    """
    n = values.shape[-1]
    held = 3 * n * n if n == 4 else n * n + 3
    grid, node_bytes = values.shape[:-2], values.itemsize * held
    bad, node = sup_and_node(slab_map(_singular, grid, node_bytes, values))
    if bad:
        raise SingularMatrixError(message, node)
    return slab_map(_inverse, grid, node_bytes, values)


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
    worst node; otherwise the returned structure is flagged invalid.  A
    tile-resident ``m`` (the hold rule of ``fields``) is sampled tile by
    tile and keeps no samples.
    """
    r, c = m.shape
    if r != c:
        raise ValueError(f"structure matrix must be square, got {m.shape}")
    if r % 2 != 0:
        raise ValueError(f"structure matrix must have even dimension, got {r}")
    if r != m.patch.dim:
        raise ValueError(f"matrix dimension {r} does not match patch dimension "
                         f"{m.patch.dim}")
    residual, node = _square_residual(m)
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
    """Local moduli coordinates: n x n matrix fields with Q invertible.

    ``qinv`` is Q^-1 at every node, inverted once, by the singularity guard
    (``pointwise_inverse``; a read-only broadcast view when Q is constant).
    ``q_condition`` is the largest condition estimate |Q| |Q^-1| over the
    grid, below 1e12 (``_q_condition``).
    """

    patch: Patch
    P: MatrixField
    Q: MatrixField
    q_condition: float = 0.0
    qinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.patch.dim_half
        if self.P.shape != (n, n) or self.Q.shape != (n, n):
            raise ValueError(f"P and Q must be {n} x {n} matrix fields")
        qv = self.Q.values
        self.qinv = qinv = pointwise_inverse(qv, "Q is singular")
        self.q_condition = _q_condition(_row_sum_norm(qv) * _row_sum_norm(qinv))


def _row_sum_norm(v: np.ndarray) -> np.ndarray:
    """The largest row sum of |entries| of each matrix of ``v``: Q's and
    Q^-1's factors of the condition estimate."""
    return np.abs(v).sum(axis=-1).max(axis=-1)


def _q_condition(cond: np.ndarray) -> float:
    """The largest of per-node condition estimates |Q| |Q^-1|.  Raises
    ``SingularMatrixError`` at its first node when it reaches 1e12, or when
    it is NaN, which marks a singular Q: a NaN counts as the largest
    estimate, so the first singular node is named before any other."""
    cond, node = sup_and_node(cond)
    if math.isnan(cond):
        raise SingularMatrixError("Q is singular", node)
    if cond >= 1e12:
        raise SingularMatrixError(f"Q condition estimate {cond:.2e} exceeds 1e12",
                                  node)
    return cond


def _generation_blocks(p, q, qinv) -> tuple:
    """The blocks of the generation rule [[-P Q^-1, -P Q^-1 P - Q],
    [Q^-1, Q^-1 P]], in C order, from P, Q and Q^-1 given either as matrix
    fields of expressions or as arrays of matrices; P Q^-1 is formed once."""
    pqinv = p @ qinv
    return -pqinv, -(pqinv @ p) - q, qinv, qinv @ p


def _generated(pv: np.ndarray, qv: np.ndarray, qinv: np.ndarray) -> np.ndarray:
    """The generation rule at each node, block by block into one array."""
    n = pv.shape[-1]
    cot = np.empty(pv.shape[:-2] + (2 * n, 2 * n))
    cot[..., :n, :n], cot[..., :n, n:], cot[..., n:, :n], cot[..., n:, n:] = \
        _generation_blocks(pv, qv, qinv)
    return cot


def reconstructs_exactly(P: MatrixField, Q: MatrixField) -> bool:
    """Whether ``reconstruct_from_pq`` keeps expression entries for the pair
    (P, Q): both are expression-backed and n <= 3.  Samples nothing."""
    return P.is_exact and Q.is_exact and P.shape[0] <= 3


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


def reconstruct_from_pq(pq: PQPair) -> AlmostComplexStructure:
    """Generate the cotangent matrix of a structure from a (P, Q) pair.

    The result squares to -E identically; the reported residual is pure
    roundoff.  The entries stay expression-backed when the pair
    ``reconstructs_exactly`` (so the structure can be differentiated exactly
    downstream); otherwise they are sampled, from the pair's ``qinv``, tile
    by tile (``report.slab_map``), so a pair of constants costs one node.
    """
    n = pq.patch.dim_half
    if reconstructs_exactly(pq.P, pq.Q):
        tl, tr, bl, br = _generation_blocks(pq.P, pq.Q, symbolic_inverse(pq.Q))
        rows = [tl.exprs[i] + tr.exprs[i] for i in range(n)]
        rows += [bl.exprs[i] + br.exprs[i] for i in range(n)]
        j_cot = MatrixField.from_exprs(pq.patch, rows)
    else:
        cot = slab_map(_generated, pq.patch.resolution, 8 * (2 * n) ** 2,
                       pq.P.values, pq.Q.values, pq.qinv)
        j_cot = MatrixField.from_values(pq.patch, cot)
    return validate_acs(j_cot, rep="cot", tolerance=_GENERATED_TOLERANCE)


# the names of the four block identities of J^2 = -E, in the order of
# ``_block_identities``
_IDENTITIES = ("sq_top", "off_top", "off_bottom", "sq_bottom")


def _block_identities(a, bp, cm, d) -> list[np.ndarray]:
    """max |entry| at each node of the four block identities that J^2 = -E
    implies for J = [[A, B+E], [C-E, D]], from node-major slabs of its
    blocks as they stand."""
    eye = np.eye(a.shape[-1])
    return [node_sup(a @ a + bp @ cm + eye, in_place=True),
            node_sup(a @ bp + bp @ d, in_place=True),
            node_sup(cm @ a + d @ cm, in_place=True),
            node_sup(cm @ bp + d @ d + eye, in_place=True)]


def _round_trip_nodes(conj: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The moduli round trip at each node of a node-major slab of the
    conjugated structure [[A, B+E], [C-E, D]] and of Q = (C-E)^-1: per node,
    the condition estimate |Q| |Q^-1|, NaN where Q is singular
    (``_singular``), and max |J^2 + E| of the structure J that the pair
    (P, Q) generates, with P = Q D (``_generated``); and beside them the gap
    max |J - conj| and the four block identities of ``conj``
    (``_block_identities``).

    Q is inverted (``_inverse``) at every node, a singular one too, whose
    NaN estimate the caller raises on before it reads any other value.  The
    blocks are copied contiguous for the matrix products, which run faster
    on them than on strided views, and dropped before J and J^2 are
    built."""
    n = q.shape[-1]
    top, bottom = slice(0, n), slice(n, 2 * n)
    a, bp, cm, d = (np.ascontiguousarray(conj[:, r, c])
                    for r in (top, bottom) for c in (top, bottom))
    p = q @ d
    identities = _block_identities(a, bp, cm, d)
    del a, bp, cm, d
    with np.errstate(all="ignore"):
        singular = _singular(q)
        qinv = _inverse(q)
        cond = _row_sum_norm(q) * _row_sum_norm(qinv)
        cond[singular] = np.nan
        cot = _generated(p, q, qinv)
        square = _square_sup(cot)
        cot -= conj
        return (np.stack([cond, square], axis=-1),
                np.stack([node_sup(cot, in_place=True), *identities], axis=-1))


@dataclass(eq=False)
class BlockDecomposition:
    """Constant change of frame G with G^-1 j_cot G = [[A, B+E], [C-E, D]].

    ``conjugated`` is G^-1 j_cot G, expression-backed when j_cot is.
    ``frame`` holds its four n x n blocks as they stand (A, B+E, C-E, D),
    each sampled the first time it is read.  ``cminv`` is (C - E)^-1 at
    every node, inverted once, by the guard of ``normalize_at_origin`` (a
    read-only broadcast view when C is constant).
    """

    patch: Patch
    G: np.ndarray
    conjugated: MatrixField
    frame: tuple[MatrixField, MatrixField, MatrixField, MatrixField]
    cminv: np.ndarray

    @property
    def n(self) -> int:
        return self.patch.dim_half

    # the blocks that vanish at the base node, derived from ``frame``, which
    # every computation reads instead
    A = property(lambda self: self.frame[0])
    B = property(lambda self: self.frame[1] - MatrixField.identity(self.patch, self.n))
    C = property(lambda self: self.frame[2] + MatrixField.identity(self.patch, self.n))
    D = property(lambda self: self.frame[3])

    def round_trip(self) -> tuple[float, dict[str, float], float]:
        """The round trip of ``acs extract-pq`` in one pass over tiles
        (``report.slab_map``) of the conjugated structure and of ``cminv``:
        the moduli pair Q = (C-E)^-1, P = Q D (``extract_pq``), the
        structure J that it generates (``reconstruct_from_pq``), J's gap to
        the conjugated structure, and the block identities
        (``identity_residuals``), with the bits of each.  Returns the gap,
        the identities by name and Q's condition estimate (``PQPair``).

        No frame block, P, Q^-1 or J spans the grid: an expression-backed
        structure is sampled tile by tile from its expressions
        (``MatrixField.tile``), and samples, or a constant's one node, are
        read as they are, so a constant structure costs one node.  The
        checks raise in the order of ``PQPair`` and ``reconstruct_from_pq``,
        each at its first worst node: ``SingularMatrixError`` where Q is
        singular, then where its condition estimate reaches 1e12
        (``_q_condition``), then ``InvalidStructureError`` where J^2 + E
        exceeds 1e-10 (``_GENERATED_TOLERANCE``).
        """
        patch, conjugated, d = self.patch, self.conjugated, 2 * self.n
        exprs = sum(conjugated.exprs, ()) if conjugated.is_exact else ()
        conj = conjugated.tile if any(e.max_var_index() for e in exprs) \
            else conjugated.values
        maxima = []  # of the gap and the identities, tile by tile

        def tile_round_trip(conj, q):
            per_node, sups = _round_trip_nodes(conj, q)
            maxima.append(sups.max(axis=0))
            return per_node

        # a tile holds its samples beside J, J^2 and the generation rule's
        # blocks, or beside the blocks' copies and the identities' products,
        # and Q^-1, P and their temporaries: about 4 (2n)^2 floats a node
        # (3.9 measured at 4D), declared twice over, since what sampling
        # holds grows with the expressions
        per_node = slab_map(tile_round_trip, patch.resolution, 8 * 8 * d * d,
                            conj, self.cminv)
        q_condition = _q_condition(per_node[..., 0])
        residual, node = sup_and_node(per_node[..., 1])
        if residual > _GENERATED_TOLERANCE:
            raise InvalidStructureError(residual, node, _GENERATED_TOLERANCE)
        gap, *identities = map(float, np.max(maxima, axis=0))
        return gap, dict(zip(_IDENTITIES, identities)), q_condition

    def identity_residuals(self) -> dict[str, float]:
        """Sup norms of the four block identities implied by J^2 = -E
        (``_block_identities``), per node over tiles (``report.slab_map``)
        of the frame blocks, so no intermediate spans the grid.  A max is
        exact, so the tiles do not move its bits."""
        per_node = slab_map(lambda *blocks: np.stack(_block_identities(*blocks), axis=-1),
                            self.patch.resolution, 8 * 4 * self.n ** 2,
                            *(block.values for block in self.frame))
        return dict(zip(_IDENTITIES, map(float, per_node.reshape(-1, 4).max(axis=0))))


def normalizing_frame(m0: np.ndarray, *, node: tuple[int, ...]) -> np.ndarray:
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
    if gap > _EIGENVALUE_TOLERANCE:
        raise InvalidStructureError(gap, node, _EIGENVALUE_TOLERANCE,
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

    Computes a constant frame G taking ``j_cot(base)``, read at the base
    node alone (``MatrixField.tile``), to ``[[0, E], [-E, 0]]``
    (so A, B, C, D all vanish at the base node), keeps G^-1 j_cot G as
    ``conjugated`` and its blocks as ``frame``, and inverts
    ``frame[2] = C(x) - E``, the one block it reads, for ``extract_pq``.
    Fails if that block is singular somewhere on the patch, which signals
    that the structure left the normalized neighborhood.
    """
    patch = acs.patch
    n = patch.dim_half
    if base_point is None:
        base_point = tuple(r // 2 for r in patch.resolution)
    for i, r in zip(base_point, patch.resolution):
        if not 0 <= i < r:
            raise ValueError(f"base point {base_point} is outside the grid")
    m0 = acs.j_cot.tile(tuple(slice(i, i + 1) for i in base_point))[(0,) * patch.dim]
    G = normalizing_frame(m0, node=tuple(base_point))
    jg = conjugate_by_constant(acs.j_cot, np.linalg.inv(G), G)
    top, bottom = slice(0, n), slice(n, 2 * n)
    frame = (jg.block(top, top), jg.block(top, bottom),
             jg.block(bottom, top), jg.block(bottom, bottom))
    cminv = pointwise_inverse(frame[2].values,
                              "C(x) - E is singular (structure leaves the "
                              "normalized neighborhood; try a smaller patch)")
    return BlockDecomposition(patch, G, jg, frame, cminv)


def extract_pq(bd: BlockDecomposition) -> PQPair:
    """Moduli pair of a decomposition: Q = (C-E)^-1 (the kept ``cminv``),
    P = Q D, with D the frame's lower right block ``frame[3]``."""
    P = MatrixField.from_values(bd.patch, bd.cminv @ bd.frame[3].values)
    Q = MatrixField.from_values(bd.patch, bd.cminv)
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
    axis, which leaves M in the layout [i, k, j]; the second is ``T @ DT``
    batched over j, added in place.  M is antisymmetrized once, and its
    absolute value is taken in place (``node_sup``).
    """
    n, d = T.shape[:2]
    m = (C @ DT.reshape(n, d, d * d)).reshape(n, d, d, d)  # m[n, i, k, j]
    m += (T[:, None] @ DT).transpose(0, 3, 2, 1)
    # N(e_i, e_j)^k at [n, i, k, j]
    return node_sup(m - m.transpose(0, 3, 2, 1), in_place=True)


def nijenhuis_residual(acs: AlmostComplexStructure, mode: str = "auto") -> float:
    """Sup norm of the Nijenhuis tensor on coordinate vector-field pairs.

    ``N(e_i, e_j)^k`` is evaluated from the tangent representation and its
    derivatives at every interior node; the residual vanishes (up to mode
    tolerance) exactly for integrable structures.  Each tile of nodes builds
    its own derivative stack and forms N from two batched matrix products,
    antisymmetrized once (``_nijenhuis_sup``), so no stack spans the grid.
    The tiles cover the interior, the nodes the sup reads
    (``MatrixField.value_and_derivative_tiles``).  A tile-resident
    structure is read from one window of its planes, which serves T, C as
    T's transpose, and in fd mode the halo of the stack, so the pass samples
    each node once.
    """
    mode = resolve_mode(mode, acs)
    patch = acs.patch
    d = patch.dim
    tan, stack = acs.j_tan.value_and_derivative_tiles(mode)
    cot = (lambda tile: np.swapaxes(tan(tile), -1, -2)) if callable(tan) else \
        acs.cot_values()
    # a tile holds C and T (d^2 floats a node each), its stack (d^3), the
    # kernel's two d^3 temporaries and a few floats of results: at most
    # 4 d^3 + 4 floats, since d >= 2.  Beside a tile of one leading-axis
    # plane or more, the window of a tile-resident T holds up to three
    # planes a tile plane, ring nodes included: 5 d^2 floats a node.
    window = 5 * d * d if callable(tan) else 0
    per_node = slab_map(_nijenhuis_sup, patch.interior(1), 8 * (4 * d ** 3 + 4 + window),
                        cot, tan, stack)
    return interior_sup(per_node, patch)
