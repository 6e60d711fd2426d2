import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import spencerkit
from spencerkit.expr import BinOp, Call, ConstSym, Expr, Neg, Num, Pow, Var
from spencerkit.fields import ComplexField, MatrixField, Patch
from spencerkit.fixtures import coordinate_function
from spencerkit.spencer import SpencerChart


@pytest.fixture
def patch2d():
    return Patch.box(1, 0.0, 1.0, 9)


@pytest.fixture
def patch2d_sym():
    return Patch.box(1, -1.0, 1.0, 9)


@pytest.fixture
def patch4d():
    return Patch.box(2, -1.0, 1.0, 7)


def to_sympy(e: Expr, symbols):
    """Translate a package AST into sympy (independent-oracle helper)."""
    if isinstance(e, Num):
        return sp.Float(e.value) if e.value != int(e.value) else sp.Integer(int(e.value))
    if isinstance(e, Var):
        return symbols[e.index - 1]
    if isinstance(e, ConstSym):
        return sp.pi if e.name == "pi" else sp.E
    if isinstance(e, Neg):
        return -to_sympy(e.arg, symbols)
    if isinstance(e, BinOp):
        a, b = to_sympy(e.left, symbols), to_sympy(e.right, symbols)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[e.op]
    if isinstance(e, Pow):
        return to_sympy(e.base, symbols) ** e.exponent
    if isinstance(e, Call):
        fn = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "sqrt": sp.sqrt}[e.func]
        return fn(to_sympy(e.arg, symbols))
    raise TypeError(f"unexpected node {type(e).__name__}")


def reference_evaluate(e: Expr, coords):
    """Plain recursive evaluation over the expanded tree.

    The oracle for the graph evaluator: the same numpy operation per node,
    with no sharing, no memo and no explicit stack.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return coords[e.index - 1]
    if isinstance(e, ConstSym):
        return math.pi if e.name == "pi" else math.e
    if isinstance(e, Neg):
        return -reference_evaluate(e.arg, coords)
    if isinstance(e, BinOp):
        a = reference_evaluate(e.left, coords)
        b = reference_evaluate(e.right, coords)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Pow):
        return reference_evaluate(e.base, coords) ** e.exponent
    if isinstance(e, Call):
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}[e.func]
        return fn(reference_evaluate(e.arg, coords))
    raise TypeError(f"unexpected node {type(e).__name__}")


def reference_partial(field: MatrixField, axis: int, mode: str) -> MatrixField:
    """The derivative of ``field`` (a scalar field is 1 x 1) along 1-based
    ``axis``, entry by entry.

    The oracle for ``MatrixField.diff`` and ``derivatives``: in fd mode
    ``np.gradient`` with ``edge_order=2`` along the grid axis, which
    differences each entry's samples on their own; in exact mode each
    entry's ``Expr.derivative(axis)``, sampled when read.  The result is a
    matrix field, so it can be differentiated again.
    """
    patch = field.patch
    if mode == "exact":
        return MatrixField.from_exprs(
            patch, [[e.derivative(axis) for e in row] for row in field.exprs])
    return MatrixField.from_values(patch, np.gradient(
        field.values, patch.spacing[axis - 1], axis=axis - 1, edge_order=2))


def random_poly_text(rng: np.random.Generator, dim: int, degree: int = 2,
                     scale: float = 1.0) -> str:
    """Random polynomial as expression text with coefficients in [-scale, scale]."""
    terms = [f"({rng.uniform(-scale, scale)!r})"]
    for _ in range(rng.integers(1, 4)):
        deg = int(rng.integers(1, degree + 1))
        factors = [f"x{int(rng.integers(1, dim + 1))}" for _ in range(deg)]
        coeff = rng.uniform(-scale, scale)
        terms.append(f"({coeff!r})*" + "*".join(factors))
    return " + ".join(terms)


def frame_values(bd) -> np.ndarray:
    """The four blocks of a decomposition's ``frame``, [[A, B+E], [C-E, D]],
    stacked per node: G^-1 j_cot G."""
    a, bp, cm, d = (block.values for block in bd.frame)
    return np.block([[a, bp], [cm, d]])


def curved_chart(patch) -> SpencerChart:
    """A type-1 chart whose real Jacobian differs from node to node."""
    w = coordinate_function(patch, 1) + ComplexField.from_exprs(
        patch, "0.2*x1^2*x3", "0.1*x2*x4^2")
    z = coordinate_function(patch, 2) + ComplexField.from_exprs(
        patch, "0.1*x3^3", "0.2*x1*x2")
    return SpencerChart(1, (w,), (z,))


def fresh_python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter, with text output captured, that imports the
    package this one imported."""
    # the child finds the package where this interpreter found it, also
    # when pytest's pythonpath setting, not PYTHONPATH, put src/ on the path
    package_root = str(Path(spencerkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)
