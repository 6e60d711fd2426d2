"""CSV serialization of sampled grid fields.

Format: a header naming the axes, resolution and bounds, then the samples
in row-major order with one line per trailing-axis row::

    axes,x1,x2
    resolution,17,17
    bounds,0.0,1.0,0.0,1.0
    data
    0.0,0.0625,...
"""

from __future__ import annotations

from pathlib import Path as FsPath

import numpy as np

from .fields import Patch, ScalarField

__all__ = ["write_field_csv", "read_field_csv"]


def write_field_csv(field: ScalarField, path) -> None:
    patch = field.patch
    d = patch.dim
    lines = [
        "axes," + ",".join(f"x{k}" for k in range(1, d + 1)),
        "resolution," + ",".join(str(r) for r in patch.resolution),
        "bounds," + ",".join(f"{b!r}" for pair in patch.bounds for b in pair),
        "data",
    ]
    # tolist gives Python floats, whose repr is the shortest round trip
    rows = field.samples.astype(float, copy=False).reshape(-1, patch.resolution[-1])
    lines += [",".join(map(repr, row)) for row in rows.tolist()]
    FsPath(path).write_text("\n".join(lines) + "\n")


def read_field_csv(path) -> ScalarField:
    """Field of a grid dump; a malformed dump raises ``ValueError`` naming
    ``path``."""
    text = FsPath(path).read_text().strip().splitlines()
    if len(text) < 4 or not text[0].startswith("axes,"):
        raise ValueError(f"{path} is not a grid dump")
    try:
        return _parse_dump(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_dump(text: list[str]) -> ScalarField:
    d = len(text[0].split(",")) - 1
    res, bounds = (line.split(",") for line in text[1:3])
    if d % 2 or [res[0], len(res), bounds[0], len(bounds), text[3]] \
            != ["resolution", d + 1, "bounds", 2 * d + 1, "data"]:
        raise ValueError(f"expected an even number of axes, then {d} resolutions, "
                         f"{2 * d} bounds and a data section")
    bvals = [float(v) for v in bounds[1:]]
    patch = Patch(d // 2, tuple(zip(bvals[::2], bvals[1::2])),
                  tuple(int(v) for v in res[1:]))
    values = [float(v) for line in text[4:] for v in line.split(",") if v]
    if len(values) != patch.n_points:
        raise ValueError(f"expected {patch.n_points} values, got {len(values)}")
    return ScalarField.from_samples(patch, np.asarray(values).reshape(patch.resolution))
