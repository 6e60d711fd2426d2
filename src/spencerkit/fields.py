"""Grids, sampled/expression-backed fields and finite-difference calculus.

Conventions used throughout the package:

* Grids are vertex-centered and uniform per axis.  A patch of dimension
  ``d = 2*dim_half`` carries coordinates ``x1 .. xd``.
* Every field offers two differentiation modes.  ``exact`` differentiates
  the backing expression symbolically and evaluates the result on the grid;
  ``fd`` applies order-2 central differences (order-2 one-sided at the
  boundary).  ``auto`` picks ``exact`` whenever an expression is available.
* Arithmetic on two expression-backed fields stays expression-backed, so
  residuals of composite quantities can still be differentiated exactly.
* All values are ordinary 64-bit floats.  "Exact" tolerances in reports mean
  roundoff-level, not truncation-level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .expr import Expr, Num, add, as_expr, div, evaluate_all, mul, neg, parse_expr, \
    powi, sub
from .report import interior_sup

__all__ = [
    "DEFAULT_POINT_BUDGET",
    "Patch",
    "PatchError",
    "EvaluationError",
    "ModeError",
    "ScalarField",
    "ComplexField",
    "MatrixField",
    "OneForm",
    "TwoForm",
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

    def node_point(self, node: tuple[int, ...]) -> tuple[float, ...]:
        return tuple(float(ax[i]) for ax, i in zip(self.axes, node))

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


def _sample_all(fields) -> None:
    """Sample every field in ``fields`` that has no samples yet.

    The expressions are evaluated together, so a node they share is computed
    once.  They are evaluated on the open mesh: a node that uses k of the d
    variables is computed on a k-dimensional array, and only each root is
    broadcast to the full grid.
    """
    pending = [f for f in fields if f._samples is None]
    if not pending:
        return
    patch = pending[0].patch
    values = _evaluate([f.expr for f in pending], patch.open_mesh, (0,) * patch.dim)
    for k, f in enumerate(pending):
        raw, values[k] = values[k], None  # drop each raw value once copied
        full = np.broadcast_to(np.asarray(raw, dtype=float), patch.resolution).copy()
        del raw
        bad = _first_non_finite(full)
        if bad is not None:
            node = tuple(int(i) for i in np.unravel_index(bad, full.shape))
            raise EvaluationError(f"non-finite value in field '{f.expr}'", node)
        f._samples = full


class ScalarField:
    """Real function on a patch, backed by an expression, samples, or both."""

    __slots__ = ("patch", "expr", "_samples")

    def __init__(self, patch: Patch, expr: Expr | None = None,
                 samples: np.ndarray | None = None):
        if expr is None and samples is None:
            raise ValueError("a field needs an expression or samples")
        if expr is not None and expr.max_var_index() > patch.dim:
            raise ValueError(
                f"expression uses x{expr.max_var_index()} but patch has "
                f"dimension {patch.dim}")
        if samples is not None:
            samples = np.asarray(samples, dtype=float)
            if samples.shape != patch.resolution:
                raise ValueError(
                    f"sample shape {samples.shape} != resolution {patch.resolution}")
        self.patch = patch
        self.expr = expr
        self._samples = samples

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_expr(cls, patch: Patch, text_or_expr) -> "ScalarField":
        e = parse_expr(text_or_expr, patch.dim) if isinstance(text_or_expr, str) \
            else as_expr(text_or_expr)
        return cls(patch, expr=e)

    @classmethod
    def const(cls, patch: Patch, value: float) -> "ScalarField":
        return cls(patch, expr=Num(float(value)))

    @classmethod
    def from_samples(cls, patch: Patch, samples) -> "ScalarField":
        return cls(patch, samples=samples)

    # -- evaluation --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.expr is not None

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            _sample_all((self,))
        return self._samples

    def sampled(self) -> "ScalarField":
        """Sample-backed copy: the field's values at every grid node."""
        return ScalarField(self.patch, samples=self.samples)

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

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int, mode: str = "auto") -> "ScalarField":
        """Partial derivative along 1-based ``axis``."""
        mode = resolve_mode(mode, self.is_exact)
        if mode == "exact":
            return ScalarField(self.patch, expr=self.expr.derivative(axis))
        h = self.patch.spacing[axis - 1]
        return ScalarField(
            self.patch,
            samples=np.gradient(self.samples, h, axis=axis - 1, edge_order=2))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "ScalarField":
        if isinstance(other, ScalarField):
            if other.patch is not self.patch and other.patch != self.patch:
                raise ValueError("fields live on different patches")
            return other
        if isinstance(other, (int, float)):
            return ScalarField.const(self.patch, float(other))
        return NotImplemented

    def _combine(self, other, expr_op, sample_op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact and other.is_exact:
            return ScalarField(self.patch, expr=expr_op(self.expr, other.expr))
        with np.errstate(all="ignore"):
            return ScalarField(self.patch, samples=sample_op(self.samples, other.samples))

    def __add__(self, other):
        return self._combine(other, add, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub, np.subtract)

    def __rsub__(self, other):
        out = self._combine(other, lambda a, b: sub(b, a), lambda a, b: b - a)
        return out

    def __mul__(self, other):
        return self._combine(other, mul, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, div, np.divide)

    def __neg__(self):
        if self.is_exact:
            return ScalarField(self.patch, expr=neg(self.expr))
        return ScalarField(self.patch, samples=-self.samples)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer powers are supported")
        if self.is_exact:
            return ScalarField(self.patch, expr=powi(self.expr, exponent))
        return ScalarField(self.patch, samples=self.samples**exponent)


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Complex-valued field stored as a (re, im) pair of real fields."""

    re: ScalarField
    im: ScalarField

    def __post_init__(self):
        if self.re.patch != self.im.patch:
            raise ValueError("real and imaginary parts live on different patches")

    @property
    def patch(self) -> Patch:
        return self.re.patch

    @property
    def is_exact(self) -> bool:
        return self.re.is_exact and self.im.is_exact

    @property
    def values(self) -> np.ndarray:
        return self.re.samples + 1j * self.im.samples

    @classmethod
    def from_exprs(cls, patch: Patch, re_text, im_text) -> "ComplexField":
        return cls(ScalarField.from_expr(patch, re_text),
                   ScalarField.from_expr(patch, im_text))

    @classmethod
    def from_real(cls, field: ScalarField) -> "ComplexField":
        return cls(field, ScalarField.const(field.patch, 0.0))

    def conjugate(self) -> "ComplexField":
        return ComplexField(self.re, -self.im)

    def diff(self, axis: int, mode: str = "auto") -> "ComplexField":
        return ComplexField(self.re.diff(axis, mode), self.im.diff(axis, mode))

    def __add__(self, other):
        other = _as_complex(self.patch, other)
        return ComplexField(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_complex(self.patch, other)
        return ComplexField(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_complex(self.patch, other) - self

    def __mul__(self, other):
        other = _as_complex(self.patch, other)
        return ComplexField(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexField(-self.re, -self.im)


def _as_complex(patch: Patch, value) -> ComplexField:
    if isinstance(value, ComplexField):
        return value
    if isinstance(value, ScalarField):
        return ComplexField.from_real(value)
    if isinstance(value, complex):
        return ComplexField(ScalarField.const(patch, value.real),
                            ScalarField.const(patch, value.imag))
    if isinstance(value, (int, float)):
        return ComplexField.from_real(ScalarField.const(patch, float(value)))
    raise TypeError(f"cannot use {type(value).__name__} as a complex field")


class MatrixField:
    """Rectangular array of scalar fields sharing one patch."""

    __slots__ = ("patch", "entries", "shape", "_values")

    def __init__(self, patch: Patch, entries):
        rows = tuple(tuple(e for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix field cannot be empty")
        ncols = len(rows[0])
        for row in rows:
            if len(row) != ncols:
                raise ValueError("matrix field must be rectangular")
            for e in row:
                if not isinstance(e, ScalarField):
                    raise TypeError("entries must be ScalarField")
                if e.patch != patch:
                    raise ValueError("all entries must share the patch")
        self.patch = patch
        self.entries = rows
        self.shape = (len(rows), ncols)
        self._values = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_exprs(cls, patch: Patch, rows) -> "MatrixField":
        return cls(patch, [[ScalarField.from_expr(patch, e) for e in row]
                           for row in rows])

    @classmethod
    def constant(cls, patch: Patch, matrix) -> "MatrixField":
        matrix = np.asarray(matrix, dtype=float)
        return cls(patch, [[ScalarField.const(patch, matrix[i, j])
                            for j in range(matrix.shape[1])]
                           for i in range(matrix.shape[0])])

    @classmethod
    def identity(cls, patch: Patch, n: int) -> "MatrixField":
        return cls.constant(patch, np.eye(n))

    @classmethod
    def from_values(cls, patch: Patch, values: np.ndarray) -> "MatrixField":
        """Sample-backed matrix from an array of shape (*grid, r, c)."""
        values = np.asarray(values, dtype=float)
        r, c = values.shape[-2:]
        out = cls(patch, [[ScalarField.from_samples(patch, values[..., i, j])
                           for j in range(c)] for i in range(r)])
        out._values = values
        return out

    # -- evaluation --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for row in self.entries for e in row)

    @property
    def is_square(self) -> bool:
        return self.shape[0] == self.shape[1]

    @property
    def values(self) -> np.ndarray:
        """Stacked samples of shape (*grid, rows, cols)."""
        if self._values is None:
            _sample_all([e for row in self.entries for e in row])
            r, c = self.shape
            out = np.empty(self.patch.resolution + (r, c))
            for i in range(r):
                for j in range(c):
                    out[..., i, j] = self.entries[i][j].samples
            self._values = out
        return self._values

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "MatrixField":
        r, c = self.shape
        return MatrixField(self.patch,
                           [[self.entries[i][j] for i in range(r)] for j in range(c)])

    def __matmul__(self, other: "MatrixField") -> "MatrixField":
        if self.shape[1] != other.shape[0]:
            raise ValueError("matrix shapes do not align")
        if self.is_exact and other.is_exact:
            r, k, c = self.shape[0], self.shape[1], other.shape[1]
            rows = []
            for i in range(r):
                row = []
                for j in range(c):
                    acc = Num(0.0)
                    for t in range(k):
                        acc = add(acc, mul(self.entries[i][t].expr,
                                           other.entries[t][j].expr))
                    row.append(ScalarField(self.patch, expr=acc))
                rows.append(row)
            return MatrixField(self.patch, rows)
        vals = np.einsum("...ik,...kj->...ij", self.values, other.values)
        return MatrixField.from_values(self.patch, vals)

    def _zip(self, other, op) -> "MatrixField":
        if self.shape != other.shape:
            raise ValueError("matrix shapes differ")
        return MatrixField(self.patch,
                           [[op(a, b) for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.entries, other.entries)])

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return self.map(lambda e: -e)

    def scaled(self, factor: float) -> "MatrixField":
        return self.map(lambda e: e * factor)

    def map(self, fn) -> "MatrixField":
        return MatrixField(self.patch, [[fn(e) for e in row] for row in self.entries])

    def diff(self, axis: int, mode: str = "auto") -> "MatrixField":
        return self.map(lambda e: e.diff(axis, mode))

    def block(self, rows: slice, cols: slice) -> "MatrixField":
        return MatrixField(self.patch, [row[cols] for row in self.entries[rows]])


class OneForm:
    """Covector field: coefficients of dx^1 .. dx^d."""

    __slots__ = ("patch", "components")

    def __init__(self, patch: Patch, components):
        comps = tuple(components)
        if len(comps) != patch.dim:
            raise ValueError(f"expected {patch.dim} components, got {len(comps)}")
        for c in comps:
            if c.patch != patch:
                raise ValueError("components must share the patch")
        self.patch = patch
        self.components = comps

    @property
    def is_exact(self) -> bool:
        return all(c.is_exact for c in self.components)

    def values(self) -> np.ndarray:
        return np.stack([c.samples for c in self.components], axis=-1)


class TwoForm:
    """Antisymmetric coefficient field R_sq; the upper triangle is stored."""

    __slots__ = ("patch", "upper")

    def __init__(self, patch: Patch, upper: dict[tuple[int, int], ScalarField]):
        for (s, q) in upper:
            if not 0 <= s < q < patch.dim:
                raise ValueError("upper-triangle keys must satisfy s < q")
        self.patch = patch
        self.upper = dict(upper)

    def component(self, s: int, q: int) -> ScalarField:
        """R_sq with 0-based indices; antisymmetry supplied by sign."""
        if s == q:
            return ScalarField.const(self.patch, 0.0)
        if s < q:
            return self.upper[(s, q)]
        return -self.upper[(q, s)]

    def values(self) -> np.ndarray:
        """Full antisymmetric array of shape (*grid, d, d)."""
        d = self.patch.dim
        out = np.zeros(self.patch.resolution + (d, d))
        for (s, q), f in self.upper.items():
            out[..., s, q] = f.samples
            out[..., q, s] = -f.samples
        return out

    def sup_interior(self) -> float:
        return max([0.0] + [interior_sup(f.samples, self.patch)
                            for f in self.upper.values()])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def gradient(u: ScalarField, mode: str = "auto") -> tuple[ScalarField, ...]:
    """All partial derivatives of ``u`` (2n components)."""
    return tuple(u.diff(k, mode) for k in range(1, u.patch.dim + 1))


def complex_gradient(f: ComplexField, mode: str = "auto") -> np.ndarray:
    """Complex gradient stacked as an array of shape (*grid, d)."""
    d = f.patch.dim
    out = np.empty(f.patch.resolution + (d,), dtype=complex)
    for k in range(1, d + 1):
        out[..., k - 1] = (f.re.diff(k, mode).samples
                           + 1j * f.im.diff(k, mode).samples)
    return out


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
            term = m.entries[i][j] * vec[j]
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def d_oneform(omega: OneForm, mode: str = "auto") -> TwoForm:
    """Exterior derivative: R_sq = d(omega_q)/dx^s - d(omega_s)/dx^q."""
    mode = resolve_mode(mode, omega.is_exact)
    d = omega.patch.dim
    upper = {}
    for s in range(d):
        for q in range(s + 1, d):
            upper[(s, q)] = (omega.components[q].diff(s + 1, mode)
                             - omega.components[s].diff(q + 1, mode))
    return TwoForm(omega.patch, upper)


def line_integral(omega: OneForm, polyline) -> float:
    """Composite trapezoid quadrature of the 1-form along a polyline.

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
    vals = np.stack([c.eval_at(pts) for c in omega.components], axis=1)  # (k, d)
    deltas = pts[1:] - pts[:-1]
    avg = 0.5 * (vals[1:] + vals[:-1])
    return float(np.sum(avg * deltas))
