"""Residual reporting shared by the analysis modules, and report serialisation."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

__all__ = ["ResidualReport", "report_from_pointwise", "interior_sup",
           "ring_depth", "default_tolerance", "jsonable"]


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
    """Sup of ``|values|`` over interior nodes; grid axes lead ``values``."""
    return float(np.abs(values[patch.interior(depth)]).max())


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
    """Build a report from per-node residual magnitudes on the full grid.

    Only interior nodes (to the given ring depth) enter the norms, so the
    worst node is always an interior node.
    """
    pointwise = np.asarray(pointwise, dtype=float).reshape(patch.resolution)
    inner = pointwise[patch.interior(depth)]
    flat = int(np.argmax(inner))
    node_inner = np.unravel_index(flat, inner.shape)
    worst = tuple(int(i) + depth for i in node_inner)
    return ResidualReport(
        sup_norm=float(inner.max()),
        l2_norm=float(np.sqrt(np.mean(inner**2))),
        worst_node=worst,
        mode=mode,
        breakdown=breakdown or {},
    )
