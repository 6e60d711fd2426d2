"""Residual reporting shared by the analysis modules, and report serialisation."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

__all__ = ["ResidualReport", "report_from_pointwise", "merge_reports",
           "sup_and_node", "interior_sup", "ring_depth", "default_tolerance",
           "jsonable", "slab_map", "tiles", "node_sup", "SLAB_BYTES"]

# Pointwise kernels run over tiles of nodes sized so that what a tile holds,
# as its call declares it a node, stays under this many bytes; only the
# kernel's array inputs and its small per-node result span the grid.
SLAB_BYTES = 8 << 20


def ring_depth(mode: str) -> int:
    """Interior depth for quantities that compose two derivatives.

    Quantities built from one finite-difference derivative are order-2 on
    the 1-deep interior; composing two derivatives needs the 2-deep interior
    (the one-sided boundary stencil carries a different truncation constant,
    and differencing across that jump costs an order at the first ring).
    """
    return 1 if mode == "exact" else 2


def default_tolerance(patch, mode: str, floor: float, coefficient: float) -> float:
    """Tolerance of a check given none: ``floor`` outside fd mode, else
    ``max(floor, coefficient * h^2)`` with h the largest spacing.  The caller
    picks the roundoff floor and the order-2 truncation coefficient."""
    if mode != "fd":
        return floor
    h = max(patch.spacing)
    return max(floor, coefficient * h * h)


def interior_sup(values: np.ndarray, patch, depth: int = 1) -> float:
    """Sup of ``|values|`` over interior nodes; grid axes lead ``values``,
    which span the grid or the interior alone (``slab_map`` over
    ``patch.interior(depth)``)."""
    return float(np.abs(_interior(values, patch.resolution, depth)).max())


def _interior(values: np.ndarray, grid: tuple[int, ...], depth: int) -> np.ndarray:
    """The nodes ``depth`` or more rings inside ``grid`` of per-node
    ``values``, grid axes leading: a view of ``values`` when they span the
    grid, ``values`` itself when they span that box alone."""
    shape = values.shape[:len(grid)]
    if shape == tuple(r - 2 * depth for r in grid):
        return values
    if shape != tuple(grid):
        raise ValueError(f"per-node values of shape {shape} on grid {tuple(grid)}")
    return values[tuple(slice(depth, r - depth) for r in grid)]


def sup_and_node(values: np.ndarray, depth: int = 0, grid: tuple[int, ...] | None = None,
                 ) -> tuple[float, tuple[int, ...]]:
    """Largest of per-node ``values`` over the nodes ``depth`` or more rings
    inside the grid, and the first such node, in C order, where it is reached.

    Every axis of ``values`` is a grid axis.  They span the grid, or, given
    ``grid``, the grid's shape, they may span the box of nodes ``depth`` or
    more rings inside alone (``slab_map`` over ``Patch.interior(depth)``);
    the node is named in grid coordinates either way.  A NaN counts as the
    largest value, and a boolean array gives its first True node.  A minimum
    and its node are those of ``-values``, since negation is exact.
    """
    inner = _interior(values, grid or values.shape, depth)
    if not any(inner.strides):
        # one node broadcast (slab_map): search that node, since np.argmax
        # would copy the view to the full grid
        inner = inner[(slice(0, 1),) * inner.ndim]
    flat = int(np.argmax(inner))
    node = np.unravel_index(flat, inner.shape)
    return float(inner.flat[flat]), tuple(int(i) + depth for i in node)


def slab_map(kernel, grid: tuple[int | slice, ...], node_bytes: int,
             *inputs) -> np.ndarray:
    """Per-node results of a pointwise ``kernel`` over the grid, or over a
    box of it, tile by tile.

    ``grid`` is the grid's shape, or a box of the grid: one
    ``slice(start, stop)`` per axis, such as ``Patch.interior(depth)``.  A
    kernel runs over the nodes its report reads, so a check whose report
    reads the interior alone (``interior_sup``, ``report_from_pointwise``)
    passes that interior, and the boundary ring costs nothing.

    A tile is a block of the box whose nodes are consecutive in C order: it
    fixes one index on each axis before its cut axis, takes a range of
    indices on the cut axis and spans every later axis of the box.  It holds
    at most ``SLAB_BYTES // node_bytes`` nodes (at least one), where
    ``node_bytes`` is the size per node of what a tile holds at once: the
    kernel's intermediates and the tiles of its inputs that are built or
    copied for it (``tiles``).

    Each of ``inputs`` is an array with the grid axes leading, or a callable
    that takes a tile, one ``slice(start, stop)`` per grid axis in grid
    coordinates, and returns the input's values on the tile's nodes, the
    tile's axes leading; a callable builds what the kernel reads of, say, a
    derivative stack one tile at a time.  Either is read node-major, as
    (n, ...) with the nodes in C order.  Over the whole grid an array is
    viewed so, and the view must not need a copy; over a box, each tile of
    an array is copied node-major, as is each tile of a callable that needs
    it.  ``kernel`` is called on each tile's node-major inputs and returns
    the tile's per-node results, shape (n,) or (n, k), which fill one array
    of the box's shape, or that shape + (k,); a lone tile's result is that
    array itself when it owns its memory (is not a view).  The reductions
    then run on that array.

    An array may be broadcast (``np.broadcast_to``): stride 0 along some
    grid axes, as the samples of a constant field are along all of them.
    When every input is an array with stride 0 along every grid axis, the
    kernel runs on one node and its result is broadcast to the box, a
    read-only view of its full shape, so constant inputs cost one node.
    Otherwise each broadcast input is read tile by tile, each tile copied
    node-major.
    """
    box = tuple(r if isinstance(r, slice) else slice(0, r) for r in grid)
    origin = tuple(b.start for b in box)
    shape = tuple(b.stop - b.start for b in box)
    g = len(box)
    if all(not callable(x) and not any(x.strides[:g]) for x in inputs):
        node = kernel(*(x[(0,) * g][None] for x in inputs))
        return np.broadcast_to(node[0], shape + node.shape[1:])
    n = math.prod(shape)
    # an array broadcast on no axis is viewed whole when the box is its grid;
    # else it is read, and copied, tile by tile
    views = [x if callable(x) else _node_major(x, n, g)
             if not any(origin) and x.shape[:g] == shape and all(x.strides[:g])
             else x.__getitem__ for x in inputs]
    out, start = None, 0
    for tile in tiles(shape, max(1, SLAB_BYTES // node_bytes)):
        size = math.prod(t.stop - t.start for t in tile)
        at = tuple(slice(o + t.start, o + t.stop) for o, t in zip(origin, tile))
        part = kernel(*(_tile(v(at), size, g) if callable(v)
                        else v[start:start + size] for v in views))
        if out is None:  # a lone tile's own array is the grid's, not copied
            out = part if size == n and part.base is None else \
                np.empty((n,) + part.shape[1:], part.dtype)
        if out is not part:
            out[start:start + size] = part
        start += size
    return out.reshape(shape + out.shape[1:])


def tiles(grid: tuple[int, ...], step: int):
    """The tiles of ``grid`` in C order, each one ``slice(start, stop)`` per
    axis, of at most ``step`` nodes (``step`` >= 1).

    The cut axis is the first one whose single index, with every later axis,
    holds at most ``step`` nodes; a tile takes as many of its indices as fit.
    """
    cut = next(k for k in range(len(grid)) if math.prod(grid[k + 1:]) <= step)
    width = step // math.prod(grid[cut + 1:])
    rest = tuple(slice(0, r) for r in grid[cut + 1:])
    for lead in itertools.product(*map(range, grid[:cut])):
        lead = tuple(slice(i, i + 1) for i in lead)
        for lo in range(0, grid[cut], width):
            yield lead + (slice(lo, min(lo + width, grid[cut])),) + rest


def _node_major(a: np.ndarray, n: int, grid_axes: int) -> np.ndarray:
    """The whole-grid array ``a`` viewed as (n, ...) with its ``grid_axes``
    leading axes merged; raises if that needs a copy, which would span the
    whole grid."""
    view = a.reshape((n,) + a.shape[grid_axes:])
    if view.size and not np.may_share_memory(view, a):
        raise ValueError("slab_map needs arrays whose grid axes merge without a copy")
    return view


def _tile(a: np.ndarray, n: int, grid_axes: int) -> np.ndarray:
    """A tile's values ``a`` as (n, ...) with its ``grid_axes`` leading axes
    merged: a view when they merge without one, else a node-major copy."""
    return a.reshape((n,) + a.shape[grid_axes:])


def node_sup(slab: np.ndarray, in_place: bool = False) -> np.ndarray:
    """max |entry| of each node of a node-major slab (n, ...); 0 for a node
    with no entries.  With ``in_place`` the absolute values overwrite
    ``slab``, a temporary of the caller's, so no copy of it is made.

    numpy reduces a trailing axis of fewer than 8 entries node by node, at
    about 50 ns a node on a 2-vCPU host, so there the entries are folded in
    column by column.  From 8 entries on, ``initial`` halves the time of
    numpy's reduction.
    """
    a = np.abs(slab, out=slab if in_place else None)
    a = a.reshape(len(slab), math.prod(slab.shape[1:]))
    if a.shape[1] >= 8:
        return a.max(axis=1, initial=0.0)
    out = np.zeros(len(a))
    for column in a.T:
        np.maximum(out, column, out=out)
    return out


def jsonable(value):
    """JSON-ready form of a report value.

    Report dataclasses become dicts of their fields, tuples become lists
    and numpy scalars plain numbers, at any depth.
    """
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass
class ResidualReport:
    """Pointwise residual summary over the interior of a patch.

    ``sup_norm`` is the maximum over interior nodes of the pointwise
    Euclidean norm of the residual vector; ``l2_norm`` is the RMS of the
    same pointwise values.  ``breakdown`` carries per-equation sup norms.
    """

    sup_norm: float
    l2_norm: float
    worst_node: tuple[int, ...]
    mode: str
    breakdown: dict[str, float] = field(default_factory=dict)


def report_from_pointwise(pointwise: np.ndarray, patch, mode: str,
                          breakdown: dict[str, float] | None = None,
                          depth: int = 1) -> ResidualReport:
    """Build a report from per-node residual magnitudes on the full grid, or
    on its interior alone (``slab_map`` over ``patch.interior(depth)``).

    Only interior nodes (to the given ring depth) enter the norms, so the
    worst node is always an interior node, named in grid coordinates.
    """
    pointwise = np.asarray(pointwise, dtype=float)
    sup, worst = sup_and_node(pointwise, depth, patch.resolution)
    inner = _interior(pointwise, patch.resolution, depth)
    return ResidualReport(
        sup_norm=sup,
        l2_norm=float(np.sqrt(np.mean(inner**2))),
        worst_node=worst,
        mode=mode,
        breakdown=breakdown or {},
    )


def merge_reports(parts: dict[str, ResidualReport], mode: str) -> ResidualReport:
    """One report of several: the sup norm and worst node of the worst part,
    the largest l2 norm, and each part's sup norm as the breakdown."""
    worst = parts[max(parts, key=lambda k: parts[k].sup_norm)]
    return ResidualReport(
        sup_norm=worst.sup_norm,
        l2_norm=max(rep.l2_norm for rep in parts.values()),
        worst_node=worst.worst_node,
        mode=mode,
        breakdown={name: rep.sup_norm for name, rep in parts.items()},
    )
