"""Grids, sampled/expression-backed fields and finite-difference calculus.

Conventions used throughout the package:

* Grids are vertex-centered and uniform per axis.  A patch of dimension
  ``d = 2*dim_half`` carries coordinates ``x1 .. xd``.
* Every field is stored as one ``MatrixField``: the r x c expressions of
  its entries, when all have one, and one (*grid, r, c) array of samples,
  taken lazily.  A ``ScalarField`` is the 1 x 1 case and a ``ComplexField``
  wraps the 1 x 2 field of its (re, im) parts, so sampling, ``diff`` and
  algebra exist once, in ``MatrixField``.
* Every field offers two differentiation modes.  ``exact`` differentiates
  the backing expression symbolically and evaluates the result on the grid;
  ``fd`` applies order-2 central differences (order-2 one-sided at the
  boundary).  ``auto`` picks ``exact`` whenever an expression is available.
* Arithmetic on two expression-backed fields stays expression-backed, so
  residuals of composite quantities can still be differentiated exactly.
* A 1-form is the d x 1 ``MatrixField`` of its coefficients, and its
  exterior derivative (``d_oneform``) is an antisymmetric (*grid, d, d)
  array.  Arrays of derivatives come from ``MatrixField.derivatives``.
* All values are ordinary 64-bit floats.  "Exact" tolerances in reports mean
  roundoff-level, not truncation-level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .expr import Expr, Num, add, as_expr, evaluate_all, mul, neg, parse_expr, sub

__all__ = [
    "DEFAULT_POINT_BUDGET",
    "Patch",
    "PatchError",
    "EvaluationError",
    "ModeError",
    "ScalarField",
    "ComplexField",
    "MatrixField",
    "gradient",
    "complex_gradient",
    "d_oneform",
    "line_integral",
    "matvec",
    "resolve_mode",
]

DEFAULT_POINT_BUDGET = 2_000_000


class PatchError(ValueError):
    pass


class EvaluationError(ValueError):
    """Non-finite value produced while sampling a field."""

    def __init__(self, message: str, node: tuple[int, ...]):
        super().__init__(f"{message} at node {node}")
        self.node = node


class ModeError(ValueError):
    """Exact mode requested for a field without expression backing."""


@dataclass(frozen=True, eq=True)
class Patch:
    """Rectangular box in R^(2n) with uniform vertex-centered sampling."""

    dim_half: int
    bounds: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    point_budget: int = field(default=DEFAULT_POINT_BUDGET, compare=False)

    def __post_init__(self):
        n = self.dim_half
        if n < 1:
            raise PatchError("dim_half must be a positive integer")
        d = 2 * n
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        resolution = tuple(int(r) for r in self.resolution)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "resolution", resolution)
        if len(bounds) != d or len(resolution) != d:
            raise PatchError(f"expected {d} bounds and resolutions, got "
                             f"{len(bounds)} and {len(resolution)}")
        for k, (lo, hi) in enumerate(bounds):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise PatchError(f"invalid bounds for axis {k + 1}: ({lo}, {hi})")
        for k, r in enumerate(resolution):
            if r < 5:
                raise PatchError(f"resolution must be at least 5 per axis (axis {k + 1})")
        if self.n_points > self.point_budget:
            raise PatchError(
                f"grid has {self.n_points} points, budget is {self.point_budget}")

    @property
    def dim(self) -> int:
        return 2 * self.dim_half

    @property
    def n_points(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (r - 1)
                     for (lo, hi), r in zip(self.bounds, self.resolution))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linspace(lo, hi, r)
                     for (lo, hi), r in zip(self.bounds, self.resolution))

    @cached_property
    def mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def open_mesh(self) -> tuple[np.ndarray, ...]:
        """Coordinates as broadcastable arrays: axis k has shape (1, .., r_k, .., 1)."""
        return tuple(np.meshgrid(*self.axes, indexing="ij", sparse=True))

    def interior(self, depth: int = 1) -> tuple[slice, ...]:
        """Index of the nodes ``depth`` or more rings inside the boundary."""
        return (slice(depth, -depth),) * self.dim

    def nearest_node(self, point) -> tuple[int, ...]:
        """Grid node closest to ``point``, clamped onto the patch."""
        return tuple(int(np.clip(np.rint((x - lo) / h), 0, r - 1))
                     for x, (lo, _), h, r in zip(point, self.bounds, self.spacing,
                                                 self.resolution))

    def contains(self, point, rtol: float = 1e-9) -> bool:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            return False
        for x, (lo, hi) in zip(point, self.bounds):
            pad = rtol * (hi - lo)
            if x < lo - pad or x > hi + pad:
                return False
        return True

    def refined(self, factor: int = 2) -> "Patch":
        """Patch with spacing divided by ``factor`` (same bounds)."""
        res = tuple(factor * (r - 1) + 1 for r in self.resolution)
        return Patch(self.dim_half, self.bounds, res, self.point_budget)

    @classmethod
    def box(cls, dim_half: int, lo: float, hi: float, resolution: int) -> "Patch":
        d = 2 * dim_half
        return cls(dim_half, ((lo, hi),) * d, (resolution,) * d)


def resolve_mode(mode: str, exact_available: bool) -> str:
    if mode == "auto":
        return "exact" if exact_available else "fd"
    if mode == "exact" and not exact_available:
        raise ModeError("exact mode requires expression-backed fields")
    if mode not in ("exact", "fd"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _first_non_finite(arr: np.ndarray) -> int | None:
    """Flat index of the first non-finite entry, or None."""
    finite = np.isfinite(arr)
    return None if finite.all() else int(np.argmin(finite))


def _evaluate(exprs, coords, node: tuple[int, ...]) -> list:
    """``evaluate_all`` with numpy warnings off and constant errors reported.

    Constant subexpressions evaluate on Python floats, which raise where
    arrays give inf or NaN (``1/0``, ``0^-1``, ``10^400``).  Such a value is
    the same at every point, so the error names the first expression that
    raises and ``node``, the first node evaluated.
    """
    with np.errstate(all="ignore"):
        try:
            return evaluate_all(exprs, coords)
        except ArithmeticError:
            for e in exprs:
                try:
                    e.evaluate(coords)
                except ArithmeticError as exc:
                    raise EvaluationError(
                        f"non-finite constant ({type(exc).__name__}) in field "
                        f"'{e}'", node) from None
            raise


def _field_expr(patch: Patch, expr) -> Expr:
    """``expr``, or the expression of its text, checked against ``patch``."""
    e = parse_expr(expr, patch.dim) if isinstance(expr, str) else as_expr(expr)
    if e.max_var_index() > patch.dim:
        raise ValueError(
            f"expression uses x{e.max_var_index()} but patch has "
            f"dimension {patch.dim}")
    return e


def _sample(patch: Patch, exprs) -> np.ndarray:
    """Samples of ``exprs`` stacked on a trailing axis: (*grid, len(exprs)).

    The expressions are evaluated together, so a node they share is computed
    once.  They are evaluated on the open mesh: a node that uses k of the d
    variables is computed on a k-dimensional array, and only each root is
    broadcast to the full grid.  A non-finite sample raises
    ``EvaluationError`` at the first such expression and node.
    """
    values = _evaluate(exprs, patch.open_mesh, (0,) * patch.dim)
    out = np.empty(patch.resolution + (len(exprs),))
    for k in range(len(exprs)):
        out[..., k] = values[k]
        values[k] = None  # drop each raw value once copied
    bad = _first_non_finite(np.moveaxis(out, -1, 0))  # expression by expression
    if bad is not None:
        k, flat = divmod(bad, patch.n_points)
        node = tuple(int(i) for i in np.unravel_index(flat, patch.resolution))
        raise EvaluationError(f"non-finite value in field '{exprs[k]}'", node)
    return out


def _rectangular(rows) -> tuple[tuple, ...]:
    rows = tuple(tuple(row) for row in rows)
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix field must be rectangular and non-empty")
    return rows


class MatrixField:
    """Field of r x c matrices: one (*grid, r, c) array of samples, taken
    lazily, and the r x c tuple ``exprs`` of the entries' expressions when
    every entry has one.  Algebra works on ``exprs`` if all operands have
    them, and on the arrays otherwise."""

    __slots__ = ("patch", "exprs", "_values")

    def __init__(self, patch: Patch, rows):
        """Matrix of the scalar fields in ``rows``, a nested sequence.  It
        keeps their expressions if all have one, and stacks their samples
        if some has none or all are sampled already."""
        rows = _rectangular(rows)
        entries = [e for row in rows for e in row]
        for e in entries:
            if not isinstance(e, ScalarField):
                raise TypeError("entries must be ScalarField")
            if e.patch is not patch and e.patch != patch:
                raise ValueError("all entries must share the patch")
        self.patch = patch
        self.exprs = self._values = None
        if all(e.is_exact for e in entries):
            self.exprs = tuple(tuple(e.expr for e in row) for row in rows)
        if self.exprs is None or all(e._values is not None for e in entries):
            self._values = np.stack([np.stack([e.samples for e in row], axis=-1)
                                     for row in rows], axis=-2)

    @classmethod
    def _of(cls, patch: Patch, exprs=None, values=None) -> "MatrixField":
        out = cls.__new__(cls)
        out.patch, out.exprs, out._values = patch, exprs, values
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_exprs(cls, patch: Patch, rows) -> "MatrixField":
        return cls._of(patch, tuple(tuple(_field_expr(patch, e) for e in row)
                                    for row in _rectangular(rows)))

    @classmethod
    def constant(cls, patch: Patch, matrix) -> "MatrixField":
        return cls.from_exprs(patch, np.asarray(matrix, dtype=float).tolist())

    @classmethod
    def identity(cls, patch: Patch, n: int) -> "MatrixField":
        return cls.constant(patch, np.eye(n))

    @classmethod
    def from_values(cls, patch: Patch, values: np.ndarray) -> "MatrixField":
        """Sample-backed matrix from an array of shape (*grid, r, c)."""
        values = np.asarray(values, dtype=float)
        if values.shape[:-2] != patch.resolution or 0 in values.shape[-2:]:
            raise ValueError(f"matrix samples {values.shape} on grid {patch.resolution}")
        return cls._of(patch, values=values)

    # -- evaluation --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.exprs is not None

    @property
    def shape(self) -> tuple[int, int]:
        exprs = self.exprs
        return (len(exprs), len(exprs[0])) if exprs else self._values.shape[-2:]

    @property
    def is_square(self) -> bool:
        return self.shape[0] == self.shape[1]

    def _sampled(self) -> np.ndarray:
        # ``values`` and ``ScalarField.samples`` both read the array here, so
        # perfbench's tracer, which wraps each of them, counts a sampling once
        if self._values is None:
            self._values = _sample(self.patch, sum(self.exprs, ())).reshape(
                self.patch.resolution + self.shape)
        return self._values

    @property
    def values(self) -> np.ndarray:
        """Samples of shape (*grid, rows, cols)."""
        return self._sampled()

    def _entry(self, i: int, j: int, values) -> "ScalarField":
        """Entry (i, j) with its expression, if any, and a view of ``values``,
        if given."""
        return ScalarField._of(
            self.patch, self.exprs and ((self.exprs[i][j],),),
            None if values is None else values[..., i:i + 1, j:j + 1])

    def __getitem__(self, key) -> "ScalarField":
        """Entry (i, j): its expression, if any, and a view of the samples."""
        # a cached array is read as is: perfbench's tracer reads the entries
        # after each operation and must not enter the traced ``values``
        values = self.values if self._values is None else self._values
        return self._entry(*key, values)

    @property
    def entries(self) -> tuple[tuple["ScalarField", ...], ...]:
        return tuple(tuple(self[i, j] for j in range(self.shape[1]))
                     for i in range(self.shape[0]))

    # -- algebra -----------------------------------------------------------

    def _apply(self, others, expr_op, array_op) -> "MatrixField":
        """``expr_op`` entry by entry on the expression matrices of ``self``
        and ``others`` when all have them, else ``array_op`` on the arrays.
        A number is the constant matrix of that value; any other operand
        that is not a matrix field gives ``NotImplemented``."""
        patch, shape = self.patch, self.shape
        operands = [self]
        for m in others:
            if not isinstance(m, MatrixField):
                if not isinstance(m, (int, float)):
                    return NotImplemented
                m = MatrixField.constant(patch, np.full(shape, m))
            if m.shape != shape:
                raise ValueError("matrix shapes differ")
            if m.patch is not patch and m.patch != patch:
                raise ValueError("fields live on different patches")
            operands.append(m)
        exprs = [m.exprs for m in operands]
        if None not in exprs:
            return type(self)._of(patch, tuple(tuple(map(expr_op, *rows))
                                               for rows in zip(*exprs)))
        with np.errstate(all="ignore"):
            return type(self)._of(patch, values=array_op(*(m.values for m in operands)))

    def transpose(self) -> "MatrixField":
        exprs = tuple(zip(*self.exprs)) if self.is_exact else None
        values = None if self._values is None else np.swapaxes(self._values, -1, -2)
        return MatrixField._of(self.patch, exprs, values)

    def block(self, rows: slice, cols: slice) -> "MatrixField":
        exprs = tuple(row[cols] for row in self.exprs[rows]) if self.is_exact else None
        values = None if self._values is None else self._values[..., rows, cols]
        return MatrixField._of(self.patch, exprs, values)

    def __matmul__(self, other: "MatrixField") -> "MatrixField":
        if self.shape[1] != other.shape[0]:
            raise ValueError("matrix shapes do not align")
        if not (self.is_exact and other.is_exact):
            return MatrixField._of(self.patch, values=self.values @ other.values)
        return MatrixField._of(self.patch, tuple(
            tuple(reduce(add, map(mul, row, col), Num(0.0)) for col in zip(*other.exprs))
            for row in self.exprs))

    def __add__(self, other):
        return self._apply((other,), add, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply((other,), sub, np.subtract)

    def __rsub__(self, other):
        return self._apply((other,), lambda a, b: sub(b, a), lambda a, b: b - a)

    def __neg__(self):
        return self._apply((), neg, np.negative)

    def scaled(self, factor: float) -> "MatrixField":
        k = float(factor)
        return self._apply((), lambda e: mul(e, Num(k)), lambda v: v * k)

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int, mode: str = "auto") -> "MatrixField":
        """Partial derivative along 1-based ``axis``."""
        if resolve_mode(mode, self.is_exact) == "exact":
            return self._apply((), lambda e: e.derivative(axis), None)
        h = self.patch.spacing[axis - 1]
        return type(self)._of(self.patch, values=np.gradient(
            self.values, h, axis=axis - 1, edge_order=2))

    def derivatives(self, mode: str = "auto") -> np.ndarray:
        """Samples of all d partial derivatives, shape (*grid, d, r, c);
        ``[..., s, :, :]`` is the derivative along axis s + 1."""
        d = self.patch.dim
        out = np.empty(self.patch.resolution + (d,) + self.shape)
        for s in range(d):
            out[..., s, :, :] = self.diff(s + 1, mode).values
        return out


class ScalarField(MatrixField):
    """Real function on a patch: the 1 x 1 matrix field of its expression,
    its samples, or both."""

    __slots__ = ()

    def __init__(self, patch: Patch, expr: Expr | str | None = None,
                 samples: np.ndarray | None = None):
        if expr is None and samples is None:
            raise ValueError("a field needs an expression or samples")
        exprs = None if expr is None else ((_field_expr(patch, expr),),)
        if samples is not None:
            samples = np.asarray(samples, dtype=float)
            if samples.shape != patch.resolution:
                raise ValueError(
                    f"sample shape {samples.shape} != resolution {patch.resolution}")
            samples = samples[..., None, None]
        self.patch, self.exprs, self._values = patch, exprs, samples

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_expr(cls, patch: Patch, text_or_expr) -> "ScalarField":
        return cls(patch, expr=text_or_expr)

    @classmethod
    def const(cls, patch: Patch, value: float) -> "ScalarField":
        return cls(patch, expr=Num(float(value)))

    @classmethod
    def from_samples(cls, patch: Patch, samples) -> "ScalarField":
        return cls(patch, samples=samples)

    # -- evaluation --------------------------------------------------------

    @property
    def expr(self) -> Expr | None:
        return self.exprs[0][0] if self.exprs else None

    @property
    def _samples(self) -> np.ndarray | None:
        """The samples taken so far, or None."""
        return None if self._values is None else self._values[..., 0, 0]

    @property
    def samples(self) -> np.ndarray:
        return self._sampled()[..., 0, 0]

    # perfbench's tracer wraps ``ScalarField.diff`` and ``.samples`` by name
    diff = MatrixField.diff

    def sampled(self) -> "ScalarField":
        """Sample-backed copy: the field's values at every grid node."""
        return ScalarField._of(self.patch, values=self.values)

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Values at arbitrary in-patch points (k, dim).

        Expression-backed fields evaluate exactly; sampled fields use
        multilinear interpolation.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_exact:
            vals = _evaluate([self.expr], tuple(points[:, k] for k in range(self.patch.dim)),
                             self.patch.nearest_node(points[0]))[0]
            vals = np.broadcast_to(np.asarray(vals, dtype=float), (points.shape[0],)).copy()
            bad = _first_non_finite(vals)
            if bad is not None:
                raise EvaluationError(
                    f"non-finite value at point {bad} of the point evaluation",
                    self.patch.nearest_node(points[bad]))
            return vals
        interp = RegularGridInterpolator(self.patch.axes, self.samples)
        return interp(points)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        return self._apply((other,), mul, np.multiply)

    __rmul__ = __mul__


class ComplexField:
    """Complex-valued field: ``parts`` is the 1 x 2 matrix field (re, im)."""

    __slots__ = ("parts",)

    def __init__(self, re: ScalarField, im: ScalarField):
        self.parts = MatrixField(re.patch, [[re, im]])

    @classmethod
    def _of(cls, parts: MatrixField) -> "ComplexField":
        out = cls.__new__(cls)
        out.parts = parts
        return out

    @classmethod
    def from_exprs(cls, patch: Patch, re_text, im_text) -> "ComplexField":
        return cls._of(MatrixField.from_exprs(patch, [[re_text, im_text]]))

    @classmethod
    def from_real(cls, field: ScalarField) -> "ComplexField":
        return cls(field, ScalarField.const(field.patch, 0.0))

    @classmethod
    def of(cls, patch: Patch, value) -> "ComplexField":
        """``value`` as a complex field on ``patch``: a complex field as it
        is, a real field with imaginary part 0, a number as constants."""
        if isinstance(value, ComplexField):
            return value
        if isinstance(value, ScalarField):
            return cls.from_real(value)
        if isinstance(value, (int, float, complex)):
            value = complex(value)
            return cls(ScalarField.const(patch, value.real),
                       ScalarField.const(patch, value.imag))
        raise TypeError(f"cannot use {type(value).__name__} as a complex field")

    @property
    def patch(self) -> Patch:
        return self.parts.patch

    @property
    def is_exact(self) -> bool:
        return self.parts.is_exact

    # unlike ``parts[0, j]``, these do not sample an expression-backed field
    @property
    def re(self) -> ScalarField:
        return self.parts._entry(0, 0, self.parts._values)

    @property
    def im(self) -> ScalarField:
        return self.parts._entry(0, 1, self.parts._values)

    @property
    def values(self) -> np.ndarray:
        v = self.parts.values
        return v[..., 0, 0] + 1j * v[..., 0, 1]

    def conjugate(self) -> "ComplexField":
        return ComplexField(self.re, -self.im)

    def diff(self, axis: int, mode: str = "auto") -> "ComplexField":
        return ComplexField._of(self.parts.diff(axis, mode))

    def __add__(self, other):
        return ComplexField._of(self.parts + ComplexField.of(self.patch, other).parts)

    __radd__ = __add__

    def __sub__(self, other):
        return ComplexField._of(self.parts - ComplexField.of(self.patch, other).parts)

    def __rsub__(self, other):
        return ComplexField.of(self.patch, other) - self

    def __mul__(self, other):
        other = ComplexField.of(self.patch, other)
        if not (self.is_exact and other.is_exact):
            self.parts.values, other.parts.values  # sample each factor once
        (a, b), (c, d) = (self.re, self.im), (other.re, other.im)
        return ComplexField(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexField._of(-self.parts)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def gradient(u: ScalarField, mode: str = "auto") -> tuple[ScalarField, ...]:
    """All partial derivatives of ``u`` (2n components)."""
    return tuple(u.diff(k, mode) for k in range(1, u.patch.dim + 1))


def complex_gradient(f: ComplexField, mode: str = "auto") -> np.ndarray:
    """Complex gradient stacked as an array of shape (*grid, d)."""
    g = f.parts.derivatives(mode)[..., 0, :]
    return g[..., 0] + 1j * g[..., 1]


def matvec(m: MatrixField, vec) -> tuple:
    """Pointwise matrix times vector of fields (real or complex entries)."""
    r, c = m.shape
    vec = tuple(vec)
    if len(vec) != c:
        raise ValueError("vector length does not match matrix columns")
    out = []
    for i in range(r):
        acc = None
        for j in range(c):
            term = m[i, j] * vec[j]
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def d_oneform(omega: MatrixField, mode: str = "auto") -> np.ndarray:
    """Exterior derivative of the 1-form ``omega``, a d x 1 matrix field:
    the antisymmetric array R of shape (*grid, d, d) with
    ``R[..., s, q] = d(omega_q)/dx^s - d(omega_s)/dx^q``."""
    if omega.shape != (omega.patch.dim, 1):
        raise ValueError(f"a 1-form is a d x 1 matrix field, not {omega.shape}")
    dw = omega.derivatives(mode)[..., 0]  # dw[..., s, q] = d(omega_q)/dx^s
    return dw - np.swapaxes(dw, -1, -2)


def line_integral(omega: MatrixField, polyline) -> float:
    """Composite trapezoid quadrature of the 1-form (d x 1) along a polyline.

    The polyline vertices are the quadrature nodes; refine the polyline to
    refine the quadrature.  A degenerate (zero-length) loop integrates to
    exactly zero.
    """
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != omega.patch.dim:
        raise ValueError(f"polyline must have shape (k, {omega.patch.dim})")
    for p in pts:
        if not omega.patch.contains(p):
            raise ValueError(f"polyline point {tuple(p)} is outside the patch")
    if len(pts) < 2:
        return 0.0
    vals = np.stack([c.eval_at(pts) for c, in omega.entries], axis=1)  # (k, d)
    deltas = pts[1:] - pts[:-1]
    avg = 0.5 * (vals[1:] + vals[:-1])
    return float(np.sum(avg * deltas))
