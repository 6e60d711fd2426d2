"""JSON scene files: the declarative input format of the command-line tool.

A scene fixes the patch, the structure under study and named auxiliary
objects (scalar/complex fields, charts, vector fields, quaternion
functions).  The schema is versioned and strict: unknown keys are rejected
so that fixture files stay reproducible.

Schema (version 1)::

    {
      "schema": 1,
      "name": "optional label",
      "dim_half": n,
      "patch": {"bounds": [[lo, hi], ...] | [lo, hi],
                "resolution": [r1, ...] | r},
      "structure": <structure spec>,
      "fields": {"u": "x1^2 - x2^2", "f": {"re": "x1", "im": "x2"}},
      "charts": {"c": {"m": 1, "holo": [{"re": ..., "im": ...}],
                        "complement": [...]}},
      "vector_fields": {"X": [{"re": ..., "im": ...}, ...]},
      "quaternion_functions": {"F": {"u": ..., "v": ..., "zeta": ...,
                                      "eta": ...}},
      "mode": "auto" | "exact" | "fd",
      "tolerances": {"acs": 1e-8, "check": 1e-8}
    }

Structure specs: {"kind": "standard"}, {"kind": "matrix", "entries": [[...]],
"rep": "cot"}, {"kind": "pq", "p": [[...]], "q": [[...]]},
{"kind": "pullback", "map": [...]}, {"kind": "type1", "f": {re, im}},
{"kind": "hypercomplex", "pair": "standard" | "conjugated", "frame": [[...]]}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path as FsPath

import numpy as np

from .fields import ComplexField, EvaluationError, MatrixField, Patch, ScalarField
from .structures import AlmostComplexStructure, HypercomplexStructure, PQPair, \
    reconstruct_from_pq, validate_acs
from .brackets import VectorFieldC
from .hypercomplex import QuaternionFunction
from .spencer import SpencerChart
from . import fixtures

__all__ = ["Scene", "SceneError", "load_scene", "parse_scene"]

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema", "name", "dim_half", "patch", "structure", "fields",
             "charts", "vector_fields", "quaternion_functions", "mode",
             "tolerances"}
_PATCH_KEYS = {"bounds", "resolution"}
_TOL_KEYS = {"acs", "check", "solver"}


class SceneError(ValueError):
    """Scene file is malformed; the message names the offending location."""


def _require(cond: bool, message: str):
    if not cond:
        raise SceneError(message)


def _check_keys(obj: dict, allowed: set[str], where: str):
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown keys in {where}: {sorted(unknown)}")


def _tolerance(key: str, value) -> float:
    """A scene tolerance takes the ``--tol`` rule: finite and not below 0
    (``json`` reads the ``NaN`` and ``Infinity`` literals)."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    _require(math.isfinite(tol) and tol >= 0,
             f"tolerances.{key} must be a finite number, 0 or more; got {value!r}")
    return tol


@dataclass
class Scene:
    """Parsed scene; structure and named objects are built lazily."""

    name: str
    dim_half: int
    patch: Patch
    structure_spec: dict
    field_specs: dict = field(default_factory=dict)
    chart_specs: dict = field(default_factory=dict)
    vector_field_specs: dict = field(default_factory=dict)
    quaternion_specs: dict = field(default_factory=dict)
    mode: str = "auto"
    tolerances: dict = field(default_factory=dict)

    def tolerance(self, which: str, default: float) -> float:
        return float(self.tolerances.get(which, default))

    def _real(self, text, where: str) -> ScalarField:
        """Field ``text``, sampled here with its first derivatives (but for
        fd mode) so that a non-finite value is named by its scene key."""
        f = ScalarField.from_expr(self.patch, text)
        try:
            f.samples
            if self.mode != "fd":
                f.derivatives("exact")
        except EvaluationError as exc:
            raise SceneError(f"{where}: {exc}") from None
        return f

    def _complex(self, spec, where: str) -> ComplexField:
        if isinstance(spec, str):
            return ComplexField.from_real(self._real(spec, where))
        _check_keys(spec, {"re", "im"}, where)
        _require("re" in spec and "im" in spec, f"{where} needs 're' and 'im'")
        return ComplexField(self._real(spec["re"], f"{where}.re"),
                            self._real(spec["im"], f"{where}.im"))

    # -- builders ----------------------------------------------------------

    def structure(self) -> AlmostComplexStructure:
        spec = self.structure_spec
        kind = spec["kind"]
        acs_tol = self.tolerance("acs", 1e-8)
        if kind == "standard":
            return fixtures.standard_structure(self.patch)
        if kind == "matrix":
            rep = spec.get("rep", "cot")
            m = MatrixField.from_exprs(self.patch, spec["entries"])
            return validate_acs(m, rep=rep, tolerance=acs_tol)
        if kind == "pq":
            return reconstruct_from_pq(self.pq_pair())
        if kind == "pullback":
            return fixtures.pullback_structure(self.patch, spec["map"])
        if kind == "type1":
            f = None
            if "f" in spec:
                f = self._complex(spec["f"], "structure.f")
            return fixtures.type1_structure(self.patch, f)
        raise SceneError(f"structure kind {kind!r} is not an almost-complex "
                         "structure (use hyper commands for hypercomplex scenes)")

    def pq_pair(self) -> PQPair:
        spec = self.structure_spec
        _require(spec["kind"] == "pq", "scene structure is not a (P, Q) pair")
        p = MatrixField.from_exprs(self.patch, spec["p"])
        q = MatrixField.from_exprs(self.patch, spec["q"])
        return PQPair(self.patch, p, q)

    def hypercomplex(self) -> HypercomplexStructure:
        spec = self.structure_spec
        _require(spec["kind"] == "hypercomplex",
                 "scene structure is not hypercomplex")
        pair = spec.get("pair", "standard")
        if pair == "standard":
            return fixtures.flat_hypercomplex(self.patch)
        if pair == "conjugated":
            _require("frame" in spec, "conjugated pair needs a 'frame' matrix")
            return fixtures.conjugated_hypercomplex(
                self.patch, np.asarray(spec["frame"], dtype=float))
        raise SceneError(f"unknown hypercomplex pair {pair!r}")

    def scalar_field(self, name: str) -> ScalarField:
        spec = self._named(self.field_specs, name, "field")
        _require(isinstance(spec, str),
                 f"field {name!r} is complex; this check needs a real field")
        return self._real(spec, f"fields.{name}")

    def complex_field(self, name: str) -> ComplexField:
        spec = self._named(self.field_specs, name, "field")
        return self._complex(spec, f"fields.{name}")

    def chart(self, name: str) -> SpencerChart:
        spec = self._named(self.chart_specs, name, "chart")
        _check_keys(spec, {"m", "holo", "complement"}, f"charts.{name}")
        holo = tuple(self._complex(s, f"charts.{name}.holo[{k}]")
                     for k, s in enumerate(spec.get("holo", [])))
        comp = tuple(self._complex(s, f"charts.{name}.complement[{k}]")
                     for k, s in enumerate(spec.get("complement", [])))
        return SpencerChart(int(spec["m"]), holo, comp)

    def vector_field(self, name: str) -> VectorFieldC:
        spec = self._named(self.vector_field_specs, name, "vector field")
        comps = tuple(self._complex(s, f"vector_fields.{name}[{k}]")
                      for k, s in enumerate(spec))
        return VectorFieldC(self.patch, comps)

    def quaternion_function(self, name: str) -> QuaternionFunction:
        spec = self._named(self.quaternion_specs, name, "quaternion function")
        _check_keys(spec, {"u", "v", "zeta", "eta"},
                    f"quaternion_functions.{name}")
        _require(len(spec) == 4,
                 f"quaternion_functions.{name} needs u, v, zeta and eta")
        return QuaternionFunction(*(
            self._real(spec[c], f"quaternion_functions.{name}.{c}")
            for c in ("u", "v", "zeta", "eta")))

    def _named(self, table: dict, name: str, what: str):
        if name not in table:
            raise SceneError(
                f"scene has no {what} named {name!r} "
                f"(available: {sorted(table) or 'none'})")
        return table[name]

    def with_patch(self, patch: Patch) -> "Scene":
        return replace(self, patch=patch)

    def refined(self, factor: int) -> "Scene":
        return self.with_patch(self.patch.refined(factor))


def _parse_patch(spec: dict, dim_half: int, grid_override: int | None) -> Patch:
    _check_keys(spec, _PATCH_KEYS, "patch")
    d = 2 * dim_half
    bounds = spec.get("bounds", [0.0, 1.0])
    if bounds and isinstance(bounds[0], (int, float)):
        _require(len(bounds) == 2, "patch.bounds shorthand must be [lo, hi]")
        bounds = [list(bounds)] * d
    _require(len(bounds) == d, f"patch.bounds must list {d} axis ranges")
    resolution = spec.get("resolution", 17)
    if grid_override is not None:
        resolution = grid_override
    if isinstance(resolution, int):
        resolution = [resolution] * d
    _require(len(resolution) == d, f"patch.resolution must list {d} entries")
    try:
        return Patch(dim_half, tuple(tuple(b) for b in bounds), tuple(resolution))
    except ValueError as exc:
        raise SceneError(f"invalid patch: {exc}") from exc


_STRUCTURE_KEYS = {
    "standard": {"kind"},
    "matrix": {"kind", "entries", "rep"},
    "pq": {"kind", "p", "q"},
    "pullback": {"kind", "map"},
    "type1": {"kind", "f"},
    "hypercomplex": {"kind", "pair", "frame"},
}


def parse_scene(data: dict, grid_override: int | None = None,
                mode_override: str | None = None) -> Scene:
    _check_keys(data, _TOP_KEYS, "scene")
    _require(data.get("schema") == SCHEMA_VERSION,
             f"scene schema must be {SCHEMA_VERSION}")
    _require("dim_half" in data, "scene needs dim_half")
    _require("patch" in data, "scene needs a patch")
    _require("structure" in data, "scene needs a structure")
    dim_half = int(data["dim_half"])
    patch = _parse_patch(data["patch"], dim_half, grid_override)
    structure = data["structure"]
    _require(isinstance(structure, dict) and "kind" in structure,
             "structure needs a 'kind'")
    kind = structure["kind"]
    _require(kind in _STRUCTURE_KEYS, f"unknown structure kind {kind!r}")
    _check_keys(structure, _STRUCTURE_KEYS[kind], "structure")
    tolerances = data.get("tolerances", {})
    _check_keys(tolerances, _TOL_KEYS, "tolerances")
    tolerances = {key: _tolerance(key, value) for key, value in tolerances.items()}
    mode = mode_override or data.get("mode", "auto")
    _require(mode in ("auto", "exact", "fd"), f"unknown mode {mode!r}")
    return Scene(
        name=str(data.get("name", "")),
        dim_half=dim_half,
        patch=patch,
        structure_spec=structure,
        field_specs=data.get("fields", {}),
        chart_specs=data.get("charts", {}),
        vector_field_specs=data.get("vector_fields", {}),
        quaternion_specs=data.get("quaternion_functions", {}),
        mode=mode,
        tolerances=tolerances,
    )


def load_scene(path: str | FsPath, grid_override: int | None = None,
               mode_override: str | None = None) -> Scene:
    path = FsPath(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise SceneError(f"scene file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene {path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    scene = parse_scene(data, grid_override, mode_override)
    if not scene.name:
        scene.name = path.stem
    return scene
