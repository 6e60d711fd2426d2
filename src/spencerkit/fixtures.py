"""Reference structures used by the command-line tool and the test suite.

All constructors return validated structures with expression-backed entries,
so exact differentiation is available downstream.
"""

from __future__ import annotations

import numpy as np

from .expr import parse_expr
from .fields import ComplexField, MatrixField, Patch, ScalarField
from .structures import (
    AlmostComplexStructure,
    HypercomplexStructure,
    make_hypercomplex,
    quaternionic_standard,
    symbolic_inverse,
    validate_acs,
)

__all__ = [
    "standard_structure",
    "structure_from_cot",
    "pullback_structure",
    "type1_structure",
    "type1_chart_functions",
    "flat_hypercomplex",
    "conjugated_hypercomplex",
    "coordinate_function",
]


def standard_structure(patch: Patch) -> AlmostComplexStructure:
    """Integrable structure making every z^k = x^(2k-1) + i*x^(2k) holomorphic.

    Its cotangent matrix is block diagonal with [[0, 1], [-1, 0]] per
    coordinate pair.
    """
    d = patch.dim
    block = np.zeros((d, d))
    for k in range(0, d, 2):
        block[k, k + 1] = 1.0
        block[k + 1, k] = -1.0
    return validate_acs(MatrixField.constant(patch, block), rep="cot",
                        tolerance=1e-12)


def structure_from_cot(patch: Patch, rows,
                       tolerance: float = 1e-8) -> AlmostComplexStructure:
    """Validate a cotangent matrix given as expression strings."""
    return validate_acs(MatrixField.from_exprs(patch, rows), rep="cot",
                        tolerance=tolerance)


def pullback_structure(patch: Patch, phi) -> AlmostComplexStructure:
    """Integrable structure induced by a polynomial diffeomorphism.

    ``phi`` lists 2n expressions for the map components.  With Dphi the
    Jacobian field, the tangent matrix is Dphi^-1 @ S @ Dphi where S is the
    standard tangent matrix; such pullbacks serve as manufactured-solution
    oracles (u = h o phi is pluriharmonic whenever h is harmonic in the
    target coordinates).
    """
    d = patch.dim
    exprs = [parse_expr(p, d) if isinstance(p, str) else p for p in phi]
    if len(exprs) != d:
        raise ValueError(f"expected {d} map components, got {len(exprs)}")
    jac = MatrixField.from_exprs(patch, [[exprs[i].derivative(j)
                                          for j in range(1, d + 1)] for i in range(d)])
    std = standard_structure(patch)
    jac_inv = symbolic_inverse(jac)
    j_tan = jac_inv @ MatrixField.constant(patch, std.tan_values()[(0,) * d]) @ jac
    return validate_acs(j_tan, rep="tan", tolerance=1e-8)


def type1_structure(patch: Patch, f: ComplexField | None = None,
                    ) -> AlmostComplexStructure:
    """Four-dimensional structure with exactly one holomorphic coordinate.

    With z = x1 + i*x2 and w = x3 + i*x4, the cotangent action on the complex
    basis is J*dz = i dz, J*dw = i dw + f dz_bar (and conjugates); z is
    almost holomorphic, w is not whenever f != 0.  The closed real form is::

        j_cot = [[ 0, 1, fr,  fi],
                 [-1, 0, fi, -fr],
                 [ 0, 0,  0,   1],
                 [ 0, 0, -1,   0]]

    which squares to -E for every choice of f = fr + i*fi.  The default is
    f = conj(w): its Nijenhuis tensor has a constant nonzero component, so
    the structure admits exactly one holomorphic coordinate.  (Choosing
    f = w instead gives a vanishing Nijenhuis tensor, hence an integrable
    structure in disguise.)
    """
    if patch.dim != 4:
        raise ValueError("the type-1 fixture lives on a 4-dimensional patch")
    if f is None:
        f = ComplexField.from_exprs(patch, "x3", "-x4")
    fr, fi = f.re, f.im
    zero = ScalarField.const(patch, 0.0)
    one = ScalarField.const(patch, 1.0)
    rows = [
        [zero, one, fr, fi],
        [-one, zero, fi, -fr],
        [zero, zero, zero, one],
        [zero, zero, -one, zero],
    ]
    return validate_acs(MatrixField(patch, rows), rep="cot", tolerance=1e-12)


def coordinate_function(patch: Patch, pair: int) -> ComplexField:
    """The complex coordinate x(2k-1) + i*x(2k) for 1-based pair index k."""
    re = 2 * pair - 1
    im = 2 * pair
    if im > patch.dim:
        raise ValueError(f"pair {pair} does not exist on a {patch.dim}-dim patch")
    return ComplexField.from_exprs(patch, f"x{re}", f"x{im}")


def type1_chart_functions(patch: Patch) -> tuple[list[ComplexField], list[ComplexField]]:
    """Holomorphic and complement coordinates for the type-1 fixture (m = 1)."""
    return [coordinate_function(patch, 1)], [coordinate_function(patch, 2)]


def flat_hypercomplex(patch: Patch) -> HypercomplexStructure:
    """Constant pair (J, K) given per 4-block by the right-multiplication
    matrices of the quaternion units i and j (cotangent representation)."""
    d = patch.dim
    if d % 4 != 0:
        raise ValueError("flat hypercomplex pair needs dimension 4n")
    s, t = quaternionic_standard()
    sj = np.kron(np.eye(d // 4), s)
    tk = np.kron(np.eye(d // 4), t)
    J = validate_acs(MatrixField.constant(patch, sj), rep="cot", tolerance=1e-12)
    K = validate_acs(MatrixField.constant(patch, tk), rep="cot", tolerance=1e-12)
    return make_hypercomplex(J, K, tolerance=1e-12)


def conjugated_hypercomplex(patch: Patch, g: np.ndarray) -> HypercomplexStructure:
    """Non-flat fixture pair (G^-1 S G, G^-1 T G) for a constant frame G."""
    d = patch.dim
    g = np.asarray(g, dtype=float)
    if g.shape != (d, d):
        raise ValueError(f"frame must be {d} x {d}")
    ginv = np.linalg.inv(g)
    s, t = quaternionic_standard()
    sj = ginv @ np.kron(np.eye(d // 4), s) @ g
    tk = ginv @ np.kron(np.eye(d // 4), t) @ g
    J = validate_acs(MatrixField.constant(patch, sj), rep="cot", tolerance=1e-10)
    K = validate_acs(MatrixField.constant(patch, tk), rep="cot", tolerance=1e-10)
    return make_hypercomplex(J, K, tolerance=1e-10)
