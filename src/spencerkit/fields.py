"""Grids, sampled/expression-backed fields and finite-difference calculus.

Conventions used throughout the package:

* Grids are vertex-centered and uniform per axis.  A patch of dimension
  ``d = 2*dim_half`` carries coordinates ``x1 .. xd``.
* Every field is stored as one ``MatrixField``: the r x c expressions of
  its entries, when all have one, and one (*grid, r, c) array of samples,
  taken once a reader asks for them, or stacked when the matrix is built
  from entries one of which has no expression.  A ``ScalarField`` is the
  1 x 1 case and a ``ComplexField`` wraps the 1 x 2 field of its (re, im)
  parts, so sampling, ``diff`` and algebra exist once, in ``MatrixField``.
* The hold rule: a ``report.slab_map`` kernel reads a field through
  ``value_tiles``.  A field whose samples fit in one tile (8 n_points r c
  bytes at most ``report.SLAB_BYTES``), a constant one, or one that holds
  its samples already is sampled once and kept.  A larger expression field
  is tile-resident: each pass samples it on the tiles it reads
  (``MatrixField.tile``), with the bits of the whole-grid sample, and
  nothing keeps the samples.  Its fd derivatives are differenced from the
  samples of the tile and a halo, served in a pass by one window of
  leading-axis planes (``_Planes``), so each node is sampled once a pass.
  A non-finite sample raises the error that sampling the whole grid
  raises, whatever tile meets it first.
* The broadcast rule: entries that all use no variable (a constant field)
  are sampled at one node, and the (*grid, r, c) samples are that node
  broadcast to the grid, a read-only view with stride 0 on every grid axis
  (``np.broadcast_to``).  Every reader works on it unchanged, and
  ``report.slab_map`` runs a kernel whose inputs are all constant on one
  node.  An exact derivative whose expressions all use no variable (of a
  constant or a linear field, say) is such a view too; an fd derivative
  is a new array.  A stack of sampled entries goes through ``slab_map``.
  Only ``_sample`` and ``report.slab_map`` make broadcast views.
* Every field offers two differentiation modes.  ``exact`` differentiates
  the backing expression symbolically and evaluates the result on the grid;
  ``fd`` applies order-2 central differences (order-2 one-sided at the
  boundary).  ``auto`` picks ``exact`` when every input a check reads is
  expression-backed, and inputs on different patches are a ``ValueError``
  (``resolve_mode``).
* Arithmetic on two expression-backed fields stays expression-backed, so
  residuals of composite quantities can still be differentiated exactly.
* A 1-form is the d x 1 ``MatrixField`` of its coefficients, and its
  exterior derivative (``d_oneform``) is an antisymmetric (*grid, d, d)
  array.  Arrays of derivatives come from ``MatrixField.derivatives``, and
  fields of them, which differentiate again, from ``MatrixField.diff``.
* All values are ordinary 64-bit floats.  "Exact" tolerances in reports mean
  roundoff-level, not truncation-level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import report
from .expr import (Expr, Num, add, as_expr, derivatives, evaluate_all, mul, neg,
                   parse_expr, sub)
from .report import slab_map, sup_and_node, tiles

__all__ = [
    "DEFAULT_POINT_BUDGET",
    "Patch",
    "PatchError",
    "EvaluationError",
    "ModeError",
    "ScalarField",
    "ComplexField",
    "MatrixField",
    "complex_gradient",
    "d_oneform",
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
        if self.n_points > DEFAULT_POINT_BUDGET:
            raise PatchError(
                f"grid has {self.n_points} points, budget is {DEFAULT_POINT_BUDGET}")

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
        return tuple(slice(depth, r - depth) for r in self.resolution)

    def refined(self, factor: int = 2) -> "Patch":
        """Patch with spacing divided by ``factor`` (same bounds)."""
        res = tuple(factor * (r - 1) + 1 for r in self.resolution)
        return Patch(self.dim_half, self.bounds, res)

    @classmethod
    def box(cls, dim_half: int, lo: float, hi: float, resolution: int) -> "Patch":
        d = 2 * dim_half
        return cls(dim_half, ((lo, hi),) * d, (resolution,) * d)


def resolve_mode(mode: str, *inputs) -> str:
    """The mode of a check that reads ``inputs``: fields, structures or
    operators, each with a ``patch`` and ``is_exact``.  ``auto`` gives
    ``exact`` when every input is expression-backed and ``fd`` otherwise.
    Raises ``ValueError`` unless every input has the first one's patch."""
    for x in inputs:
        if x.patch is not inputs[0].patch and x.patch != inputs[0].patch:
            raise ValueError("inputs live on different patches")
    exact_available = all(x.is_exact for x in inputs)
    if mode == "auto":
        return "exact" if exact_available else "fd"
    if mode == "exact" and not exact_available:
        raise ModeError("exact mode requires expression-backed fields")
    if mode not in ("exact", "fd"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


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


# ``_sample`` writes an output larger than this through a root-major buffer
# of about this size, or of one leading-axis row of all roots if that is
# more; an fd derivative stack is built through buffers of about this size
SAMPLE_BUFFER_BYTES = 1 << 20


def _sample(patch: Patch, exprs, tile: tuple[slice, ...] | None = None) -> np.ndarray:
    """Samples of ``exprs`` stacked on a trailing axis: (*grid, len(exprs)),
    or (*tile, len(exprs)) on the nodes of ``tile``, one ``slice(start,
    stop)`` per grid axis.

    The expressions are evaluated together, so a node they share is computed
    once.  They are evaluated on the open mesh (its part on the tile): a
    node that uses k of the d variables is computed on a k-dimensional
    array, and only each root is broadcast to the full output.  An output
    larger than ``SAMPLE_BUFFER_BYTES`` is written slab by slab of
    leading-axis rows: each root fills its part of one root-major buffer of
    about that size (or one row), and one transposing copy moves the buffer
    into the output, which is so passed over once, not once per root.  A
    non-finite sample raises ``EvaluationError`` at the first such
    expression and grid node.

    Expressions that all use no variable are evaluated once and broadcast
    to the output shape: a read-only view with stride 0 on every grid axis
    (the broadcast rule of the module docstring).
    """
    coords, corner, shape = patch.open_mesh, (0,) * patch.dim, patch.resolution
    if tile is not None:
        coords = tuple(m[(slice(None),) * k + (t,)]
                       for k, (m, t) in enumerate(zip(coords, tile)))
        corner = tuple(t.start for t in tile)
        shape = tuple(t.stop - t.start for t in tile)
    values = _evaluate(exprs, coords, corner)
    if not any(map(Expr.max_var_index, exprs)):
        # numbers only: the first node, broadcast (the module's broadcast
        # rule); a non-finite number is named below, as on every node
        first = np.array(values, dtype=float)
        if np.isfinite(first).all():
            return np.broadcast_to(first, shape + first.shape)
    rows, *rest = shape
    out = np.empty(shape + (len(exprs),))
    if out.nbytes <= SAMPLE_BUFFER_BYTES:
        # root by root: a buffer would be as large as this output
        for k in range(len(values)):
            out[..., k] = values[k]
            values[k] = None  # drop each raw value once copied
        finite = np.isfinite(out).all()
    else:
        step = max(1, SAMPLE_BUFFER_BYTES // out[0].nbytes)
        buf = np.empty((len(exprs), step, *rest))
        finite = True
        for lo in range(0, rows, step):
            slab = buf[:, :min(rows - lo, step)]
            for k, v in enumerate(values):
                # a root constant along the leading axis broadcasts as it is
                slab[k] = v if np.ndim(v) == 0 or len(v) == 1 else v[lo:lo + step]
            finite = finite and np.isfinite(slab).all()
            out[lo:lo + step] = np.moveaxis(slab, 0, -1)
        values = v = None  # drop the raw values once the last slab is written
    if not finite:
        # expression by expression, then node by node
        _, (k, *node) = sup_and_node(~np.isfinite(np.moveaxis(out, -1, 0)))
        raise EvaluationError(f"non-finite value in field '{exprs[k]}'",
                              tuple(i + c for i, c in zip(node, corner)))
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
        keeps their expressions if all have one, sampled when first read,
        and else stacks their samples through ``report.slab_map``: one node
        when every entry is (the broadcast rule)."""
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
        else:
            stacked = slab_map(lambda *x: np.stack(x, axis=-1), patch.resolution,
                               8 * len(entries), *(e.samples for e in entries))
            self._values = stacked.reshape(patch.resolution + (len(rows), len(rows[0])))

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
        """Samples of shape (*grid, rows, cols).  For a constant field they
        are one node's matrix broadcast to the grid: a read-only view with
        stride 0 on every grid axis (``np.array(values)`` is a full copy)."""
        return self._sampled()

    def _resident(self) -> bool:
        """Whether the field is tile-resident (the hold rule of the module
        docstring): it has expressions, holds no samples, uses a variable,
        and its samples would not fit in one tile."""
        exprs = self.exprs
        return (self._values is None and exprs is not None
                and 8 * self.patch.n_points * len(exprs) * len(exprs[0]) > report.SLAB_BYTES
                and any(e.max_var_index() for row in exprs for e in row))

    def tile(self, tile: tuple[slice, ...]) -> np.ndarray:
        """Samples on the nodes of ``tile``, one ``slice(start, stop)`` per
        grid axis: shape (*tile, r, c), with the bits of that block of
        ``values``.  Held samples are read; otherwise the expressions are
        sampled on the tile alone, and nothing keeps the samples.  A
        non-finite sample raises the ``EvaluationError`` that sampling the
        whole grid raises, so the tile cannot change the entry or node it
        names."""
        if self._values is not None:
            return self._values[tile]
        exprs = sum(self.exprs, ())
        try:
            out = _sample(self.patch, exprs, tile)
        except EvaluationError:
            _sample(self.patch, exprs)
            raise
        return out.reshape(out.shape[:-1] + self.shape)

    def value_tiles(self):
        """``values`` as the input of a ``report.slab_map`` kernel: ``tile``
        for a tile-resident field, else the samples, taken once and kept
        (the hold rule of the module docstring)."""
        return self.tile if self._resident() else self.values

    def at_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """The samples at the C-order flat grid indices ``nodes``, shape
        (len(nodes), r, c), with the bits of those nodes of ``values``.  A
        tile-resident field is evaluated at those nodes alone, since every
        operation of an evaluation is elementwise, and a non-finite value
        raises the whole grid's ``EvaluationError``.  Otherwise the samples,
        taken once and kept, are gathered; a constant's one node serves
        every index."""
        patch = self.patch
        if not self._resident():
            values = self.values
            g = patch.dim
            flat = values.reshape((-1,) + self.shape) if any(values.strides[:g]) \
                else values[(0,) * g][None]
            return np.take(flat, nodes, axis=0, mode="wrap")
        exprs = sum(self.exprs, ())
        coords = tuple(axis[i] for axis, i in
                       zip(patch.axes, np.unravel_index(nodes, patch.resolution)))
        out = np.empty((len(nodes), len(exprs)))
        # a raising constant names the first node, as on the whole grid
        for k, v in enumerate(_evaluate(exprs, coords, (0,) * patch.dim)):
            out[:, k] = v
        if not np.isfinite(out).all():
            _sample(patch, exprs)  # raises the whole grid's error
        return out.reshape((len(nodes),) + self.shape)

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

    def diff(self, mode: str = "auto") -> tuple["MatrixField", ...]:
        """The d partial derivatives as d fields of this one's type and
        shape, ``[s]`` along axis s + 1: fields, not an array, since an exact
        one keeps its expressions and so differentiates exactly again (a
        Hessian, d of a potential form, a nested bracket).  Exact mode takes
        the one walk along every axis of ``derivatives``; in fd mode the
        fields are views of one ``derivatives`` stack."""
        patch, c = self.patch, self.shape[1]
        if resolve_mode(mode, self) == "exact":
            layers = derivatives(sum(self.exprs, ()), range(1, patch.dim + 1))
            return tuple(type(self)._of(patch, tuple(tuple(layer[i:i + c])
                                                     for i in range(0, len(layer), c)))
                         for layer in layers)
        stack = self.derivatives("fd")
        return tuple(type(self)._of(patch, values=stack[..., s, :, :])
                     for s in range(patch.dim))

    def derivatives(self, mode: str = "auto",
                    tile: tuple[slice, ...] | None = None) -> np.ndarray:
        """Samples of all d partial derivatives, shape (*grid, d, r, c);
        ``[..., s, :, :]`` is the derivative along axis s + 1.

        Given ``tile``, one ``slice(start, stop)`` per grid axis (a tile of
        ``report.slab_map``), only the tile's nodes are built, shape
        (*tile, d, r, c), with the bits of that block of the whole stack.
        In exact mode one walk builds the derivatives along every axis and
        one evaluation samples them all on the tile's part of the open mesh,
        so a node they share is computed once.  A non-finite derivative
        raises the ``EvaluationError`` that sampling the whole grid axis by
        axis meets first, so the tile cannot change the axis, entry or node
        it names.  In fd mode each axis is differenced (``_fd_axis``) from
        the tile's samples and a halo of one node on each side the tile cuts,
        or of three nodes at a grid edge.

        In exact mode, when every derivative expression uses no variable
        (the field is constant or linear), the stack is sampled at one node
        and is a read-only view broadcast to the full shape (the broadcast
        rule of the module docstring); take ``np.array`` of it to write into
        it.  In fd mode the stack is a new array, also for a constant.
        """
        patch, d = self.patch, self.patch.dim
        if resolve_mode(mode, self) == "exact":
            layers = derivatives(sum(self.exprs, ()), range(1, d + 1))
            try:
                out = _sample(patch, sum(layers, []), tile)
            except EvaluationError:
                # the error the axis-by-axis sampling of the whole grid meets
                # first: a raising constant on a later axis, or a non-finite
                # value in this tile, would otherwise name another
                for layer in layers:
                    _sample(patch, layer)
                raise
            return out.reshape(out.shape[:-1] + (d,) + self.shape)
        tile = tile or patch.interior(0)  # the whole grid
        if self._resident():
            return _Planes(self).stack(tile)
        return _fd_stack(self.values, tile, patch.spacing)

    def derivative_tiles(self, mode: str):
        """``derivatives(mode)`` as the input of a ``report.slab_map`` kernel
        over ``patch.interior(1)``: a callable that builds each tile's block,
        or, in exact mode when every derivative uses no variable, the
        one-node broadcast stack (the broadcast rule).  The fd tiles of a
        tile-resident field are differenced from one window of planes that
        follows the pass (``_Planes``), so each node is sampled once a pass.

        An exact tile is sampled on the box of the nodes that clamp onto it:
        from 0 on an axis where it starts at 1, up to r on one where it stops
        at r - 1.  Those boxes partition the grid, so each node is evaluated
        once, the boundary ring too, and a non-finite derivative anywhere
        raises the error that sampling the whole grid raises."""
        patch = self.patch
        if resolve_mode(mode, self) == "fd":
            if self._resident():
                return _Planes(self).stack
            return lambda tile: self.derivatives(mode, tile)
        layers = derivatives(sum(self.exprs, ()), range(1, patch.dim + 1))
        if not any(e.max_var_index() for layer in layers for e in layer):
            return self.derivatives(mode)

        def clamped(tile):
            box = tuple(slice(0 if t.start == 1 else t.start,
                              r if t.stop == r - 1 else t.stop)
                        for t, r in zip(tile, patch.resolution))
            return self.derivatives(mode, box)[tuple(
                slice(t.start - b.start, t.stop - b.start) for t, b in zip(tile, box))]

        return clamped

    def value_and_derivative_tiles(self, mode: str) -> tuple:
        """``value_tiles()`` and ``derivative_tiles(mode)``, two inputs of
        one ``report.slab_map`` kernel over ``patch.interior(1)``.  A
        tile-resident field's values are read from one window of planes
        (``_Planes``), which a kernel may read more than once a tile, and
        which in fd mode serves the halo of each tile's stack too, so a
        pass samples each node once."""
        if not self._resident():
            return self.value_tiles(), self.derivative_tiles(mode)
        planes = _Planes(self)
        fd = resolve_mode(mode, self) == "fd"
        return planes.tile, planes.stack if fd else self.derivative_tiles(mode)


class _Planes:
    """The samples of a tile-resident field on a window of leading-axis
    planes, indexed in grid coordinates as its whole-grid samples are.

    The tiles of a ``report.slab_map`` pass run in C order, so the planes
    that a tile and its halo read only move forward.  For each tile the
    window lets go of the planes before the tile's halo, and samples those
    it lacks (``MatrixField.tile``), so a pass samples each node once.  A
    tile before the last one read starts another pass, and the window
    starts again."""

    def __init__(self, field: MatrixField):
        self.field = field
        self.shape = field.patch.resolution + field.shape
        self.corner = None  # of the last tile read
        self.chunks = []  # (first plane, samples of consecutive planes)

    def _hold(self, tile: tuple[slice, ...], lo: int, hi: int) -> None:
        """Hold planes lo to hi - 1, which ``tile`` reads, and no plane
        before its halo."""
        corner = tuple(t.start for t in tile)
        first = max(0, min(tile[0].start - 1, self.shape[0] - 3))
        if self.corner is not None and corner < self.corner:
            self.chunks = []  # another pass
        self.corner = corner
        # a chunk that holds planes before ``first`` keeps a copy of the rest
        chunks = self.chunks = [(a, v) if a >= first else (first, v[first - a:].copy())
                                for a, v in self.chunks if a + len(v) > first]
        start = chunks[0][0] if chunks else lo
        stop = chunks[-1][0] + len(chunks[-1][1]) if chunks else lo
        if hi < start or stop < lo:
            chunks.clear()
            start = stop = lo
        rest = tuple(slice(0, r) for r in self.shape[1:-2])
        if lo < start:
            chunks.insert(0, (lo, self.field.tile((slice(lo, start),) + rest)))
        if stop < hi:
            chunks.append((stop, self.field.tile((slice(stop, hi),) + rest)))

    def __getitem__(self, index: tuple[slice, ...]) -> np.ndarray:
        """The held samples at ``index``, one slice per grid axis."""
        lo, hi = index[0].start, index[0].stop
        parts = [v[max(lo - a, 0):hi - a] for a, v in self.chunks
                 if a < hi and lo < a + len(v)]
        planes = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return planes[(slice(None),) + tuple(index[1:])]

    def tile(self, tile: tuple[slice, ...]) -> np.ndarray:
        """The samples on the nodes of ``tile``."""
        self._hold(tile, tile[0].start, tile[0].stop)
        return self[tile]

    def stack(self, tile: tuple[slice, ...]) -> np.ndarray:
        """The fd derivative stack on the nodes of ``tile``
        (``MatrixField.derivatives``), from the planes of the tile and its
        halo: one plane beyond each side, three at a grid edge."""
        r, lo, hi = self.shape[0], tile[0].start, tile[0].stop
        self._hold(tile, max(0, min(lo - 1, r - 3)), min(r, max(hi + 1, 3)))
        return _fd_stack(self, tile, self.field.patch.spacing)


def _fd_stack(values, tile: tuple[slice, ...], spacing: tuple[float, ...]) -> np.ndarray:
    """The fd derivative stack (*tile, d, r, c) on the nodes of ``tile`` of
    the samples ``values``, (*grid, r, c): an array, or a window of planes
    (``_Planes``) that holds the tile and its halo.

    Part by part of about ``SAMPLE_BUFFER_BYTES``, each axis is differenced
    (``_fd_axis``) into one buffer laid out as the samples and copied into
    the stack, which is faster than differencing into the strided stack
    itself."""
    d, shape = len(tile), values.shape[-2:]
    out = np.empty(tuple(t.stop - t.start for t in tile) + (d,) + shape)
    for part in tiles(out.shape[:-3], max(1, SAMPLE_BUFFER_BYTES // (8 * math.prod(shape)))):
        at = tuple(slice(t.start + p.start, t.start + p.stop)
                   for t, p in zip(tile, part))
        buf = np.empty_like(values[at])  # in the layout of the samples
        for s in range(d):
            _fd_axis(values, at, s, spacing[s], buf)
            out[part][..., s, :, :] = buf
    return out


def _fd_axis(f: np.ndarray, tile: tuple[slice, ...], axis: int, h: float,
             out: np.ndarray) -> None:
    """Order-2 differences of the samples ``f`` (grid axes leading) along
    0-based ``axis`` with spacing ``h``, at the nodes of ``tile``, written
    into ``out`` (the tile's axes leading).

    These are the formulas of ``np.gradient(f, h, axis=axis,
    edge_order=2)``, op for op, so the bits are the same: central
    differences inside and one-sided ones at the grid's two edges.  Only the
    tile's nodes and their neighbours along ``axis`` are read, and nothing
    larger than one grid face is allocated.
    """
    lo, hi = tile[axis].start, tile[axis].stop
    last = f.shape[axis] - 1

    def f_at(a, b):  # f on the tile, with nodes a:b along ``axis``
        return f[tile[:axis] + (slice(a, b),) + tile[axis + 1:]]

    def out_at(a, b):  # out at the grid's nodes a:b along ``axis``
        return out[(slice(None),) * axis + (slice(a - lo, b - lo),)]

    a, b = max(lo, 1), min(hi, last)
    if a < b:
        inner = out_at(a, b)
        np.subtract(f_at(a + 1, b + 1), f_at(a - 1, b - 1), out=inner)
        np.divide(inner, 2.0 * h, out=inner)
    # the one-sided formulas at the grid's edges: c0 f0 + c1 f1 + c2 f2 over
    # the three nodes from ``near`` on, summed left to right
    for node, near, coefficients in ((0, 0, (-1.5, 2.0, -0.5)),
                                     (last, last - 2, (0.5, -2.0, 1.5))):
        if lo <= node < hi:
            c0, c1, c2 = (c / h for c in coefficients)
            edge = c0 * f_at(near, near + 1)
            edge += c1 * f_at(near + 1, near + 2)
            edge += c2 * f_at(near + 2, near + 3)
            out_at(node, node + 1)[...] = edge


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

    # ``elliptic`` reads it, and perfbench's tracer wraps it and ``.samples`` by name
    diff = MatrixField.diff

    def sampled(self) -> "ScalarField":
        """Sample-backed copy: the field's values at every grid node."""
        return ScalarField._of(self.patch, values=self.values)

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
