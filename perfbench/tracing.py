"""Per-layer spans for the traced run, recorded from outside the program.

The tracer replaces each layer's public entry points with wrappers, at every
place the name is bound: the defining module, every ``spencerkit`` module
that imported it by name, and the class for methods and properties.  A call
opens a span only when it enters a layer from another layer (or from the
benchmark); calls inside the same layer run straight through, so a
recursive expression walk costs one span, not one per node.

A span is ``[layer, start, end, parent, op]``.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its span time minus
the time its child spans cover; the part of an operation's wall time that no
span covers is reported as ``trace.untraced_s``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from dataclasses import fields as dataclass_fields

import numpy as np

from spencerkit import brackets, cli, elliptic, expr, fields, fixtures, \
    gridio, holomorphy, hypercomplex, scene, spencer, structures

LAYERS = ("cli", "scene", "expr", "fields", "fixtures", "structures",
          "elliptic.coeff", "elliptic.stencil", "elliptic.system",
          "elliptic.factor", "elliptic.iterate", "holomorphy", "brackets",
          "hypercomplex", "spencer", "gridio", "kernel.einsum", "kernel.linalg")

# Layers whose entry points are every public function the module defines.
MODULE_LAYERS = {"fixtures": fixtures, "structures": structures,
                 "holomorphy": holomorphy, "brackets": brackets,
                 "hypercomplex": hypercomplex, "spencer": spencer,
                 "gridio": gridio}

LINALG = ("inv", "det", "solve", "eig", "eigh", "eigvals", "eigvalsh")
MB = 1 << 20


class _View:
    """Attribute view of an object with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def expr_sizes(roots) -> tuple[int, int]:
    """(tree nodes, structurally distinct nodes) over expression trees.

    Tree nodes count every node of the fully expanded trees; distinct nodes
    count each structurally different subtree once.  Both are computed on
    the shared in-memory graph, so the walk is linear in its size.
    """
    canon: dict[tuple, int] = {}
    memo: dict[int, tuple[int, int]] = {}  # the roots keep every node alive

    def visit(node) -> tuple[int, int]:
        if id(node) in memo:
            return memo[id(node)]
        key = [type(node).__name__]
        size = 1
        for f in dataclass_fields(node):
            value = getattr(node, f.name)
            if isinstance(value, expr.Expr):
                child_id, child_size = visit(value)
                key.append(("e", child_id))
                size += child_size
            else:
                key.append(value)
        ident = canon.setdefault(tuple(key), len(canon))
        memo[id(node)] = (ident, size)
        return ident, size

    tree = sum(visit(r)[1] for r in roots)
    return tree, len(canon)


class Tracer:
    """Installs the wrappers, records spans and counts, removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.operators: list = []
        self.factors: list = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, layer: str, fn, hook=None):
        """Wrapper opening a span on layer entry.

        ``hook(fn, args, kwargs)`` replaces the plain call on every call,
        nested or not, so counts include calls made inside the layer.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs) if hook is None \
                    else hook(fn, args, kwargs)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs) if hook is None \
                    else hook(fn, args, kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        functools.update_wrapper(traced, fn)
        return traced

    def _set(self, owner, name: str, value):
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def patch_function(self, module, name: str, layer: str, hook=None):
        """Replace ``module.name`` at every spencerkit binding of it."""
        original = getattr(module, name)
        traced = self.wrap(layer, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "spencerkit" and not mod_name.startswith("spencerkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced)

    def patch_member(self, cls: type, name: str, layer: str, hook=None):
        """Replace a method, property or cached property defined on ``cls``."""
        member = cls.__dict__[name]
        if isinstance(member, property):
            new = property(self.wrap(layer, member.fget, hook), member.fset,
                           member.fdel, member.__doc__)
        elif isinstance(member, functools.cached_property):
            new = functools.cached_property(self.wrap(layer, member.func, hook))
            new.__set_name__(cls, name)
        else:
            new = self.wrap(layer, member, hook)
        self._set(cls, name, new)

    # -- counting hooks ------------------------------------------------------

    def _materialize_hook(self, cache: str):
        """Counts arrays a field property builds because ``cache`` was empty."""
        def hook(fn, args, kwargs):
            fresh = getattr(args[0], cache) is None
            out = fn(*args, **kwargs)
            if fresh:
                self.counts["fields.samples_materialized"] += 1
                self.counts["fields.sample_bytes"] += out.nbytes
            return out
        return hook

    def _kernel_hook(self, key: str):
        def hook(fn, args, kwargs):
            out = fn(*args, **kwargs)
            self.counts[key] += sum(_nbytes(a) for a in args) + _nbytes(out)
            return out
        return hook

    def _assemble_hook(self, fn, args, kwargs):
        op = fn(*args, **kwargs)
        self.operators.append(op)
        return op

    def _count_solve(self, stats):
        self.counts["elliptic.iterations"] += stats.iterations
        self.counts["elliptic.unknowns"] += stats.unknowns

    def _solve_hook(self, fn, args, kwargs):
        try:
            out = fn(*args, **kwargs)
        except elliptic.ConvergenceError as exc:
            self._count_solve(exc.stats)
            raise
        self._count_solve(out[1])
        return out

    def _splu_hook(self, fn, args, kwargs):
        lu = fn(*args, **kwargs)
        self.counts["elliptic.matrix_nnz"] += args[0].nnz
        self.factors.append((args[0].nnz, lu))
        # the triangular solves belong to the factorization layer too
        return _View(lu, solve=self.wrap("elliptic.factor", lu.solve))

    def _gmres_hook(self, fn, args, kwargs):
        self.counts["elliptic.matrix_nnz"] += args[0].nnz
        return fn(*args, **kwargs)

    def _csv_hook(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["gridio.bytes_written"] += os.path.getsize(args[1])
        return out

    # -- install / remove ----------------------------------------------------

    def install(self):
        self.patch_function(cli, "main", "cli")
        self.patch_function(cli, "emit", "cli")
        self.patch_function(scene, "load_scene", "scene")
        for name in ("structure", "pq_pair", "hypercomplex", "scalar_field",
                     "complex_field", "chart", "vector_field",
                     "quaternion_function", "with_patch", "refined"):
            self.patch_member(scene.Scene, name, "scene")
        self.patch_function(expr, "parse_expr", "expr")
        for cls in (expr.Expr, *expr.Expr.__subclasses__()):
            for name in ("evaluate", "derivative", "max_var_index", "__str__"):
                if name in cls.__dict__:
                    self.patch_member(cls, name, "expr")
        self.patch_member(fields.ScalarField, "samples", "fields",
                          self._materialize_hook("_samples"))
        self.patch_member(fields.ScalarField, "diff", "fields")
        self.patch_member(fields.MatrixField, "values", "fields",
                          self._materialize_hook("_values"))
        self.patch_member(fields.MatrixField, "__matmul__", "fields")
        self.patch_function(fields, "d_oneform", "fields")
        self.patch_function(fields, "matvec", "fields")
        for layer, module in MODULE_LAYERS.items():
            for name, value in list(vars(module).items()):
                if callable(value) and not isinstance(value, type) \
                        and not name.startswith("_") \
                        and getattr(value, "__module__", None) == module.__name__:
                    hook = self._csv_hook if name == "write_field_csv" else None
                    self.patch_function(module, name, layer, hook)
        self.patch_function(elliptic, "assemble_operator", "elliptic.coeff",
                            self._assemble_hook)
        self.patch_member(elliptic.EllipticOperator, "stencil", "elliptic.stencil")
        self.patch_function(elliptic, "solve_dirichlet", "elliptic.system",
                            self._solve_hook)
        spla = elliptic.spla
        self._set(elliptic, "spla", _View(
            spla,
            splu=self.wrap("elliptic.factor", spla.splu, self._splu_hook),
            gmres=self.wrap("elliptic.iterate", spla.gmres, self._gmres_hook)))
        self._set(np, "einsum", self.wrap("kernel.einsum", np.einsum,
                                          self._kernel_hook("kernel.einsum.bytes")))
        for name in LINALG:
            self._set(np.linalg, name, self.wrap(
                "kernel.linalg", getattr(np.linalg, name),
                self._kernel_hook("kernel.linalg.bytes")))

    def remove(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- per-operation bookkeeping -------------------------------------------

    def count_after_op(self):
        """Counts that need a walk over what the operation just built: the
        expression trees of its operators and the fill of its LU factors.
        They run after the operation's clock stopped."""
        roots = []
        for op in self.operators:
            roots += [e.expr for row in op.A.entries for e in row
                      if e.expr is not None]
            roots += [b.expr for b in op.B if b.expr is not None]
        if roots:
            tree, distinct = expr_sizes(roots)
            self.counts["expr.tree_nodes"] += tree
            self.counts["expr.distinct_nodes"] += distinct
        for a_nnz, lu in self.factors:
            self.counts["elliptic.lu_a_nnz"] += a_nnz
            self.counts["elliptic.lu_nnz"] += lu.L.nnz + lu.U.nnz
        self.operators.clear()
        self.factors.clear()


def self_times(spans: list[list], first: int = 0):
    """Per-layer self time and span count, and per-operation self-time sum
    and root-span coverage, over ``spans[first:]``."""
    child = [0.0] * (len(spans) - first)
    for span in spans[first:]:
        if span[3] >= first:
            child[span[3] - first] += span[2] - span[1]
    self_s, calls, self_by_op, covered = Counter(), Counter(), Counter(), Counter()
    for k, (layer, start, end, parent, op) in enumerate(spans[first:]):
        own = end - start - child[k]
        self_s[layer] += own
        calls[layer] += 1
        self_by_op[op] += own
        if parent < first:
            covered[op] += end - start
    return self_s, calls, self_by_op, covered
