"""Source hygiene of the package.

No module imports a name it never uses.  ``__init__.py`` only re-exports,
so it is exempt.  A name counts as used when the module reads it anywhere,
lists it in ``__all__``, or names it in a quoted annotation.

Only ``report.py`` searches for a worst node or builds a ``ResidualReport``:
every other module goes through ``report.sup_and_node`` and the report
builders, so one rule names the worst node.

No module imports scipy when it loads: importing it costs more than most
checks, so only the functions that use it import it.

No module-level function takes a parameter it never reads: a caller would
build an argument for nothing.  Methods are exempt, since they may keep a
signature their class shares.

No module-level function has a defaulted parameter that no call in the
package or the tests sets: its default is then the only value, a constant
dressed as an option.  The ``mode`` that every check takes is exempt.

No ``spencerctl`` command declares a flag that it never reads: a user would
type a value that changes nothing.  A command reads ``args.<dest>`` in its
``fn`` or in a ``cli`` function that its ``fn`` passes ``args`` to.

Every ``resolve_mode`` call passes the inputs its check reads, never a flag
computed from them (a boolean expression, a comparison, a constant, ``all``
or ``any``, or a read of ``.is_exact``): the one rule in ``resolve_mode``
then checks that they share a patch and picks the mode from all of them.

Only ``elliptic._lu_solver`` calls ``splu``: every sparse LU, direct or on
the coarsest V-cycle level, gets the ordering that helper picks from the
matrix, and perfbench's tracer sees every factorization there.

Only the calls that ``LINALG_ALLOWLIST`` names, each with its reason, call
``det``, ``inv`` or ``solve`` of ``np.linalg`` (or of any ``linalg``
module).  ``structures`` takes the determinant, the inverse and the solve
of n x n matrices in closed form for n <= 4, so the list holds its n >= 5
branches and the one constant frame G of a normalization or a fixture.
``spencer`` factors its real chart frame through ``structures``.  An
allowlist entry whose call is gone is stale.

Only ``cli._tolerance`` picks where a verdict's tolerance comes from: no
other code in ``cli.py`` reads ``args.tol`` or a scene's ``tolerances``, or
calls ``tolerance("check", ...)`` or ``default_tolerance``.  So every
command takes ``--tol``, else ``tolerances.check``, else the default in the
mode its check ran.

Only ``fields._sample`` and ``report.slab_map`` make broadcast views
(``np.broadcast_to``, or ``broadcast_arrays`` and ``as_strided``, which also
give stride 0): a constant field's samples are one node broadcast to the
grid (``fields._sample``), ``report.slab_map`` broadcasts a kernel's result
on one node, and every other stack of samples (``MatrixField.__init__``)
goes through ``slab_map``, so one rule decides which arrays are broadcast
views.

``SLAB_MAP_CALLS`` lists every ``report.slab_map`` call of the package with
the box its kernel runs over: the whole grid, or the interior to a depth
when the call's report reads the interior alone.  A call that is not
listed, or an entry whose call is gone, fails, so the list is the set of
kernels whose tile bytes are declared.

A ``BlockDecomposition`` keeps the blocks of ``G^-1 j_cot G`` as they stand,
``frame = (A, B+E, C-E, D)``, and every computation reads them so.  No module
but ``structures.py`` reads ``.A``, ``.B``, ``.C`` or ``.D`` of a decomposition
(a parameter annotated ``BlockDecomposition`` or a name bound to
``normalize_at_origin(...)``).  Neither ``structures.py`` nor ``holomorphy.py``,
the modules that read frames, adds E to or subtracts E from a block read as it
stands (a name, attribute, subscript or call, not a product or sum of blocks),
except in the derived ``B`` and ``C`` of ``structures.py``.

No module calls ``.diff`` on a structure's ``j_cot`` or ``j_tan`` (an
attribute of that name, or a name assigned one): a structure is
differentiated only through ``MatrixField.derivatives``, whose stack every
check builds tile by tile in one way.

Every public function, class and method of the package is reached by a
command or an acceptance criterion, or ``REACH_ALLOWLIST`` names why it
stays.  The scan starts from the ``cmd_*`` functions, ``main`` and
``build_parser``, the names ``test_acceptance.py`` reads (an import is not a
read), every module-level statement but ``__all__``, and the allowlist.  It
follows each name and attribute read in the code it has reached; a method is
reached once its name is read as an attribute, and dunder methods with their
class.  An annotation is not a read.  An allowlist entry that is gone or is
reached without the list is stale.  The unused-import scan covers the tests
too, so a dead import in the criteria reaches nothing.
"""

import argparse
import ast
import functools
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spencerkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@functools.cache
def _tree(path: Path) -> ast.Module:
    """The module at ``path``, parsed once for every scan that reads it."""
    return ast.parse(path.read_text())


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # ``__all__`` entries and quoted annotations
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(_tree(path)) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom numpy import array, zeros\n__all__ = ['zeros']\n" \
             "def f(x: 'array') -> None:\n    pass\n"
    assert _unused_imports(ast.parse(source)) == ["os (line 1)"]


NODE_SEARCHES = {"argmax", "argmin", "argwhere", "nanargmax", "nanargmin",
                 "ResidualReport"}


def _node_searches(tree: ast.Module) -> list[str]:
    """Calls of a numpy node search or of the ``ResidualReport`` constructor,
    in source order."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in NODE_SEARCHES:
                hits.append((node.lineno, node.col_offset,
                             f"{name} (line {node.lineno})"))
    return [hit for *_, hit in sorted(hits)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "report.py"],
                         ids=lambda p: p.name)
def test_only_report_searches_for_a_node(path):
    assert _node_searches(_tree(path)) == []


def test_the_check_sees_a_node_search():
    source = "import numpy as np\nfrom numpy import argwhere\n" \
             "def f(x, rep):\n    k = int(np.argmax(x))\n" \
             "    return argwhere(x), x.argmin(), rep.ResidualReport(1.0)\n" \
             "y = np.max(np.arange(3))\n"
    assert _node_searches(ast.parse(source)) == [
        "argmax (line 4)", "argwhere (line 5)", "argmin (line 5)",
        "ResidualReport (line 5)"]


def _import_time_scipy(tree: ast.Module) -> list[str]:
    """``import scipy…`` and ``from scipy…`` that run when the module loads:
    anywhere but inside a function."""
    hits, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        hits += [(node.lineno, f"{name} (line {node.lineno})") for name in names
                 if name.split(".")[0] == "scipy"]
        todo.extend(ast.iter_child_nodes(node))
    return [hit for _, hit in sorted(hits)]


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"],
                         ids=lambda p: p.name)
def test_scipy_loads_at_first_use(path):
    assert _import_time_scipy(_tree(path)) == []


def test_the_check_sees_an_import_time_scipy():
    source = "import numpy as np, scipy.sparse as sparse\n" \
             "try:\n    from scipy.linalg import lu\nexcept ImportError:\n    pass\n" \
             "class C:\n    import scipy\n" \
             "def f():\n    from scipy.interpolate import interpn\n    return interpn\n"
    assert _import_time_scipy(ast.parse(source)) == [
        "scipy.sparse (line 1)", "scipy.linalg (line 3)", "scipy (line 7)"]


def _unused_parameters(tree: ast.Module) -> list[str]:
    """Parameters of module-level functions that the function body never
    reads, nested functions included."""
    hits = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        hits += [f"{node.name}: {name} (line {node.lineno})" for name in params
                 if name not in read]
    return hits


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unused_parameters(_tree(path)) == []


def test_the_check_sees_an_unused_parameter():
    source = "def f(a, b=1, *args, c, **kw):\n    def g():\n        return a\n" \
             "    return g() + len(args)\n" \
             "class C:\n    def m(self, unused):\n        pass\n" \
             "async def h(x, y=lambda y: y):\n    return x\n"
    assert _unused_parameters(ast.parse(source)) == [
        "f: b (line 1)", "f: c (line 1)", "f: kw (line 1)", "h: y (line 8)"]


def _unset_defaults(trees: dict[str, ast.Module], callers) -> list[str]:
    """Defaulted parameters of the module-level functions of ``trees``
    (module name to parsed module) that no call in ``callers`` sets, by
    keyword or by position.  A call is matched by the function's name, bare
    or as an attribute; ``*args`` sets every positional parameter and
    ``**kwargs`` every parameter.  ``mode``, which every check takes, is
    exempt."""
    defaulted = {}
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            params = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            params += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            defaulted.setdefault(node.name, []).append(
                (f"{module}.{node.name}", node.lineno, [a.arg for a in positional],
                 {p for p in params if p != "mode"}))
    for tree in callers:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in defaulted:
                continue
            for _, _, positional, unset in defaulted[name]:
                if any(isinstance(a, ast.Starred) for a in call.args):
                    unset -= set(positional)
                unset -= set(positional[:len(call.args)])
                unset -= {k.arg for k in call.keywords}
                if any(k.arg is None for k in call.keywords):
                    unset.clear()
    return sorted(f"{qual}({param}=) (line {line})" for funcs in defaulted.values()
                  for qual, line, _, unset in funcs for param in unset)


def test_every_default_is_overridden_somewhere():
    trees = {p.stem: _tree(p) for p in MODULES}
    assert _unset_defaults(trees, [_tree(p) for p in MODULES + TESTS]) == []


def test_the_check_sees_a_default_no_call_sets():
    core = "def f(a, b=1, c=2, *, d=3, mode='auto'):\n    pass\n" \
           "def g(x, y=0):\n    pass\n" \
           "def h(x=0, y=0):\n    pass\n" \
           "def k(x=0):\n    pass\n" \
           "class C:\n    def m(self, z=0):\n        pass\n"
    util = "def f(b=1):\n    pass\n"
    callers = "f(0, 1)\nobj.f(0, d=4)\ng(*xs)\nh(**options)\nC().m()\n"
    trees = {"core": ast.parse(core), "util": ast.parse(util)}
    assert _unset_defaults(trees, [ast.parse(callers)]) == [
        "core.f(c=) (line 1)", "core.k(x=) (line 7)"]


def _args_reads(tree: ast.Module) -> dict[str, set[str]]:
    """The ``args.<dest>`` each module-level function reads, itself or
    through the module-level functions it passes ``args`` to."""
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}

    def is_args(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "args"

    direct, callees = {}, {}
    for name, func in funcs.items():
        nodes = list(ast.walk(func))
        direct[name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                        and isinstance(n.ctx, ast.Load) and is_args(n.value)}
        callees[name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                         and isinstance(n.func, ast.Name) and n.func.id in funcs
                         and any(map(is_args, n.args + [k.value for k in n.keywords]))}
    reads = {}
    for name in funcs:
        seen, todo = set(), [name]
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo.extend(callees[callee])
        reads[name] = set().union(*(direct[f] for f in seen))
    return reads


def _unread_flags(parser: argparse.ArgumentParser, tree: ast.Module) -> list[str]:
    """Arguments a subcommand of ``parser`` declares and its ``fn``, a
    function of ``tree``, never reads."""
    reads = _args_reads(tree)
    hits, todo = [], [(parser, "")]
    while todo:
        p, path = todo.pop()
        fn = p.get_default("fn")
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                todo += [(sub, f"{path} {name}".strip())
                         for name, sub in action.choices.items()]
            elif fn is not None and not isinstance(action, argparse._HelpAction) \
                    and action.dest not in reads[fn.__name__]:
                hits.append(f"{path}: {(action.option_strings or [action.dest])[0]}")
    return sorted(hits)


def test_every_flag_is_read():
    from spencerkit import cli

    assert _unread_flags(cli.build_parser(), _tree(PACKAGE / "cli.py")) == []


def test_the_check_sees_an_unread_flag():
    source = "def _load(args):\n    return args.scene\n" \
             "def run(args):\n    args.out = None\n    return _load(args), args.deep\n" \
             "def other(args):\n    return args.scene\n"
    namespace = {}
    exec(source, namespace)
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    for name, flags in (("run", ["--deep", "--out"]), ("other", ["--seed"])):
        p = sub.add_parser(name)
        p.add_argument("scene")
        for flag in flags:
            p.add_argument(flag)
        p.set_defaults(fn=namespace[name])
    assert _unread_flags(parser, ast.parse(source)) == ["other: --seed", "run: --out"]


_FLAGS = (ast.BoolOp, ast.Compare, ast.UnaryOp, ast.Constant)


def _mode_flags(tree: ast.Module) -> list[str]:
    """``resolve_mode`` calls that pass a computed flag in place of an input."""
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and "resolve_mode" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None))):
            continue
        inputs = node.args[1:] + [k.value for k in node.keywords if k.arg != "mode"]
        for arg in inputs:
            arg = arg.value if isinstance(arg, ast.Starred) else arg
            if isinstance(arg, _FLAGS) or any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("all", "any")
                    or isinstance(n, ast.Attribute) and n.attr == "is_exact"
                    for n in ast.walk(arg)):
                hits.append(node.lineno)
                break
    return [f"resolve_mode (line {line})" for line in sorted(hits)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modes_resolve_from_inputs(path):
    assert _mode_flags(_tree(path)) == []


def test_the_check_sees_a_mode_flag():
    source = "from . import fields\nfrom .fields import resolve_mode\n" \
             "def f(acs, u, x, op, mode):\n" \
             "    a = resolve_mode(mode, acs.is_exact and u.is_exact)\n" \
             "    b = resolve_mode(mode, all(c.is_exact for c in x))\n" \
             "    c = resolve_mode(mode, acs, u.is_exact)\n" \
             "    d = resolve_mode(mode, not acs)\n" \
             "    e = resolve_mode(mode, op.mode == 'exact')\n" \
             "    g = fields.resolve_mode(mode, True)\n" \
             "    h = resolve_mode(mode, *[any(x)])\n" \
             "    return resolve_mode(mode, acs, *x, u.parts), a, b, c, d, e, g, h\n"
    assert _mode_flags(ast.parse(source)) == [
        f"resolve_mode (line {k})" for k in range(4, 11)]


# the one function that factors a sparse matrix, and so picks its ordering
LU_HELPER = ("elliptic.py", "_lu_solver")


def _splu_calls(tree: ast.Module, module: str) -> list[str]:
    """``splu`` calls, as ``module:function (line)``, the function being the
    top-level one they sit in ("<module>" at module level)."""
    owner = {}
    for top in tree.body:
        for node in ast.walk(top):
            owner[node] = top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and "splu" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    return [f"{module}:{owner[node]} (line {node.lineno})"
            for node in sorted(calls, key=lambda n: n.lineno)]


def test_every_lu_goes_through_the_helper():
    calls = [c for path in MODULES for c in _splu_calls(_tree(path), path.name)]
    assert calls and all(c.startswith(":".join(LU_HELPER) + " ") for c in calls), calls


def test_the_check_sees_a_stray_splu():
    source = "import scipy.sparse.linalg as spla\nfrom scipy.sparse.linalg import splu\n" \
             "def _lu_solver(m):\n    return spla.splu(m)\n" \
             "class Solver:\n    def factor(self, m):\n        return splu(m)\n" \
             "lu = spla.splu(None)\n"
    assert _splu_calls(ast.parse(source), "elliptic.py") == [
        "elliptic.py:_lu_solver (line 4)", "elliptic.py:Solver (line 7)",
        "elliptic.py:<module> (line 8)"]


# the LAPACK determinants, inverses and solves that stay, by module, the
# top-level definition that makes them and the function called
LINALG_FACTORINGS = {"det", "inv", "solve"}
LINALG_ALLOWLIST = {
    ("structures.py", "_det", "det"): "n >= 5; n <= 4 is a Laplace expansion",
    ("structures.py", "_inverse", "inv"): "n >= 5; n <= 4 is the adjugate",
    ("structures.py", "pointwise_solve", "solve"): "n >= 5; n <= 4 is Cramer's rule",
    ("structures.py", "normalizing_frame", "det"): "the constant frame G, one matrix",
    ("structures.py", "normalize_at_origin", "inv"): "G^-1 of the constant frame",
    ("holomorphy.py", "reduced_system", "inv"): "G^-1 of the constant frame",
    ("fixtures.py", "conjugated_hypercomplex", "inv"): "G^-1 of the fixture's frame",
}


def _linalg_calls(tree: ast.Module, module: str) -> list[tuple[str, str, str]]:
    """``det``, ``inv`` and ``solve`` calls of ``np.linalg`` (or of any
    ``linalg`` module), as (module, top-level definition, function) in
    source order; a call at module level is owned by "<module>"."""
    modules, functions = {"linalg"}, {}  # local names of linalg and its functions
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            functions.update({a.asname or a.name: a.name for a in node.names
                              if a.name in LINALG_FACTORINGS})
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules.update(a.asname or a.name for a in node.names
                           if a.name.endswith("linalg"))

    def called(func) -> str | None:
        if isinstance(func, ast.Name):
            return functions.get(func.id)
        if isinstance(func, ast.Attribute) and func.attr in LINALG_FACTORINGS:
            owner = func.value
            if getattr(owner, "attr", None) == "linalg" or getattr(owner, "id", None) in modules:
                return func.attr
        return None

    hits = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        hits += [(node.lineno, node.col_offset, (module, owner, name))
                 for node in ast.walk(top)
                 if isinstance(node, ast.Call) and (name := called(node.func))]
    return [hit for *_, hit in sorted(hits)]


def test_no_lapack_factoring_below_5x5():
    calls = [c for path in MODULES for c in _linalg_calls(_tree(path), path.name)]
    assert [c for c in calls if c not in LINALG_ALLOWLIST] == []
    assert [entry for entry in LINALG_ALLOWLIST if entry not in calls] == []  # stale


def test_the_check_sees_a_stray_linalg_call():
    source = "import numpy as np\nimport numpy.linalg as la\n" \
             "from numpy.linalg import det as lu_det, norm\n" \
             "from scipy import linalg\n" \
             "def _inverse(v):\n    if v.shape[-1] > 3:\n        return np.linalg.inv(v)\n" \
             "    return la.solve(v, v), lu_det(v), norm(v), np.linalg.eigvalsh(v)\n" \
             "class Frame:\n    def solve(self, b):\n        return linalg.solve(self.m, b)\n" \
             "g = np.linalg.det(np.eye(2))\n"
    assert _linalg_calls(ast.parse(source), "structures.py") == [
        ("structures.py", "_inverse", "inv"), ("structures.py", "_inverse", "solve"),
        ("structures.py", "_inverse", "det"), ("structures.py", "Frame", "solve"),
        ("structures.py", "<module>", "det")]


# the one function of cli.py that picks a verdict's tolerance
TOLERANCE_HELPER = "_tolerance"


def _tolerance_source(node) -> str | None:
    """The tolerance source that ``node`` reads, if any."""
    if isinstance(node, ast.Attribute):
        if node.attr in ("tolerances", "default_tolerance"):
            return node.attr
        if node.attr == "tol" and getattr(node.value, "id", None) == "args":
            return "args.tol"
    if isinstance(node, ast.Name) and node.id == "default_tolerance":
        return node.id
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "tolerance" \
            and node.args and getattr(node.args[0], "value", None) == "check":
        return 'tolerance("check")'
    return None


def _tolerance_sources(tree: ast.Module) -> list[str]:
    """Reads of a tolerance's source outside the helper, as ``owner: read
    (line)``, the owner being the top-level definition they sit in
    ("<module>" at module level)."""
    hits = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        if owner != TOLERANCE_HELPER:
            hits += [(node.lineno, node.col_offset, f"{owner}: {read} (line {node.lineno})")
                     for node in ast.walk(top) if (read := _tolerance_source(node))]
    return [hit for *_, hit in sorted(hits)]


def test_one_helper_picks_every_tolerance():
    assert _tolerance_sources(_tree(PACKAGE / "cli.py")) == []


def test_the_check_sees_a_stray_tolerance_source():
    source = "from .report import default_tolerance\n" \
             "def _tolerance(args, scene, mode):\n" \
             "    if args.tol is not None or 'check' in scene.tolerances:\n" \
             "        return scene.tolerance('check', 1e-8)\n" \
             "    return default_tolerance(scene.patch, mode, 1e-8, 30.0)\n" \
             "def cmd(args, scene):\n" \
             "    tol = args.tol or scene.tolerances.get('check')\n" \
             "    return tol, scene.tolerance('check', 1e-8), scene.tolerance('acs', 1)\n" \
             "class C:\n    pick = staticmethod(default_tolerance)\n" \
             "floor = report.default_tolerance(None, 'fd', 1e-8, 30.0)\n"
    assert _tolerance_sources(ast.parse(source)) == [
        "cmd: args.tol (line 7)", "cmd: tolerances (line 7)",
        'cmd: tolerance("check") (line 8)', "C: default_tolerance (line 10)",
        "<module>: default_tolerance (line 11)"]


# the functions that own the broadcast rule, by module, and the numpy calls
# that make a view with stride 0
BROADCAST_OWNERS = {("fields.py", "_sample"), ("report.py", "slab_map")}
BROADCASTS = {"broadcast_to", "broadcast_arrays", "as_strided"}


def _broadcasts(tree: ast.Module) -> list[str]:
    """Calls that make a broadcast view, as a function or a method, in
    source order, each named with the innermost function or class that
    holds it (``Class.method``, or "<module>" at module level)."""
    hits = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in BROADCASTS:
                    hits.append((child.lineno, child.col_offset,
                                 f"{owner}: {name} (line {child.lineno})"))
            visit(child, owner)

    visit(tree, "<module>")
    return [hit for *_, hit in sorted(hits)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fields_and_report_broadcast(path):
    # fields._sample broadcasts a constant's one node and report.slab_map a
    # kernel's result on one node; every other stack of samples goes
    # through slab_map
    hits = _broadcasts(_tree(path))
    assert [h for h in hits if (path.name, h.split(":")[0]) not in BROADCAST_OWNERS] == []
    if path.name in {module for module, _ in BROADCAST_OWNERS}:
        assert hits  # the owner still makes its view


def test_the_check_sees_a_stray_broadcast():
    source = "import numpy as np\nfrom numpy import broadcast_to\n" \
             "def f(x, shape):\n    y = np.broadcast_to(x, shape)\n" \
             "    return broadcast_to(y, shape), np.broadcast_arrays(x, y)\n" \
             "z = np.lib.stride_tricks.broadcast_to(1.0, (2,))\n" \
             "class M:\n    def __init__(self, x):\n" \
             "        self.v = (lambda: np.broadcast_to(x, (3,)))()\n" \
             "        def inner():\n            return as_strided(x)\n"
    assert _broadcasts(ast.parse(source)) == [
        "f: broadcast_to (line 4)", "f: broadcast_to (line 5)",
        "f: broadcast_arrays (line 5)", "<module>: broadcast_to (line 6)",
        "M.__init__: broadcast_to (line 9)", "M.__init__.inner: as_strided (line 11)"]


# every report.slab_map call of the package, by module and the innermost
# function or class that makes it, with the box its kernel runs over: the
# whole grid, or the interior to a depth, the nodes its report reads.  A
# call is listed once per time it appears.
SLAB_MAP_CALLS = sorted([
    ("elliptic.py", "EllipticOperator.mesh_peclet", "grid"),
    ("elliptic.py", "assemble_operator", "grid"),
    ("elliptic.py", "assemble_operator", "grid"),
    ("fields.py", "MatrixField.__init__", "grid"),
    ("holomorphy.py", "_cr_residual", "interior(1)"),
    ("hypercomplex.py", "k_hyperholo_residual", "interior(1)"),
    ("spencer.py", "_normalized_det", "grid"),
    ("spencer.py", "_superposition", "interior(1)"),
    ("spencer.py", "_verified", "interior(1)"),
    ("spencer.py", "transition_holomorphy_check", "interior(1)"),
    ("structures.py", "BlockDecomposition.identity_residuals", "grid"),
    ("structures.py", "BlockDecomposition.round_trip", "grid"),
    ("structures.py", "_square_residual", "grid"),
    ("structures.py", "make_hypercomplex", "grid"),
    ("structures.py", "nijenhuis_residual", "interior(1)"),
    ("structures.py", "pointwise_inverse", "grid"),
    ("structures.py", "pointwise_inverse", "grid"),
    ("structures.py", "reconstruct_from_pq", "grid"),
])


def _box(node) -> str:
    """The box a ``slab_map`` call passes: "interior(k)" for a call of
    ``.interior(k)``, "grid" for a grid's shape (a ``.resolution``, a slice
    of a ``.shape`` or a name ``grid``), and any other expression, a box
    that forks on mode among them, as its source."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "interior":
        return f"interior({', '.join(map(ast.unparse, node.args))})"
    if getattr(node, "attr", None) == "resolution" or getattr(node, "id", None) == "grid" \
            or getattr(getattr(node, "value", None), "attr", None) == "shape":
        return "grid"
    return ast.unparse(node)


def _slab_map_calls(tree: ast.Module, module: str) -> list[tuple[str, str, str]]:
    """``slab_map`` calls, as (module, innermost function or class, box)."""
    hits = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner is None else f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call) and \
                    getattr(child.func, "attr", getattr(child.func, "id", None)) == "slab_map":
                hits.append((module, owner or "<module>", _box(child.args[1])))
            visit(child, owner)

    visit(tree, None)
    return hits


def test_every_slab_map_call_is_listed_with_its_box():
    calls = [c for path in MODULES for c in _slab_map_calls(_tree(path), path.name)]
    assert sorted(calls) == SLAB_MAP_CALLS


def test_the_check_sees_a_new_slab_map_call():
    source = "from . import report\nfrom .report import slab_map\n" \
             "def f(patch, values):\n" \
             "    a = slab_map(abs, patch.resolution, 8, values)\n" \
             "    b = report.slab_map(abs, patch.interior(2), 8, values)\n" \
             "    return a, b, slab_map(abs, values.shape[:-2], 8, values)\n" \
             "class M:\n    def g(self, grid, box):\n" \
             "        return slab_map(abs, grid, 8, self.v), slab_map(abs, box, 8, self.v)\n"
    assert _slab_map_calls(ast.parse(source), "m.py") == [
        ("m.py", "f", "grid"), ("m.py", "f", "interior(2)"), ("m.py", "f", "grid"),
        ("m.py", "M.g", "grid"), ("m.py", "M.g", "box")]


# the blocks a decomposition derives from its frame, the modules that read
# frames, and the derived blocks that shift a frame block by E
DERIVED_BLOCKS = {"A", "B", "C", "D"}
FRAME_READERS = ("structures.py", "holomorphy.py")
SHIFTED_BLOCKS = ("BlockDecomposition", {"B", "C"})


def _is_decomposition(annotation) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return "BlockDecomposition" in annotation.value
    return "BlockDecomposition" in (getattr(annotation, "id", None),
                                    getattr(annotation, "attr", None))


def _block_reads(tree: ast.Module) -> list[str]:
    """Reads of ``.A``, ``.B``, ``.C`` or ``.D`` on a decomposition: a
    parameter annotated ``BlockDecomposition`` or a name assigned from a
    ``normalize_at_origin`` call, in the function that binds it."""
    hits = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                 if a.annotation is not None and _is_decomposition(a.annotation)}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and "normalize_at_origin" in (getattr(node.value.func, "id", None),
                                                  getattr(node.value.func, "attr", None)):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        hits |= {(node.lineno, node.col_offset, f"{node.attr} (line {node.lineno})")
                 for node in ast.walk(func) if isinstance(node, ast.Attribute)
                 and node.attr in DERIVED_BLOCKS and isinstance(node.ctx, ast.Load)
                 and getattr(node.value, "id", None) in names}
    return [hit for *_, hit in sorted(hits)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "structures.py"],
                         ids=lambda p: p.name)
def test_only_structures_reads_derived_blocks(path):
    assert _block_reads(_tree(path)) == []


def test_the_check_sees_a_derived_block_read():
    source = "from .structures import BlockDecomposition, normalize_at_origin\n" \
             "def f(bd: BlockDecomposition, op, other: 'BlockDecomposition'):\n" \
             "    x = bd.frame[2].values, op.A, op.B\n" \
             "    return bd.C.values - 1, other.D, [b.A for b in op.parts]\n" \
             "def g(acs, bd):\n    d = structures.normalize_at_origin(acs)\n" \
             "    def h():\n        return d.A\n" \
             "    return h, bd.B\n"
    assert _block_reads(ast.parse(source)) == ["C (line 4)", "D (line 4)", "A (line 8)"]


def _is_identity(node, eyes: set[str]) -> bool:
    """Whether ``node`` is E: an ``eye(...)`` or ``identity(...)`` call, or a
    name assigned one."""
    if isinstance(node, ast.Name):
        return node.id in eyes
    return isinstance(node, ast.Call) and bool({"eye", "identity"} & {
        getattr(node.func, "id", None), getattr(node.func, "attr", None)})


def _frame_shifts(tree: ast.Module) -> list[str]:
    """Sums and differences of E with a block read as it stands (a name,
    attribute, subscript or call), outside the derived blocks that
    ``SHIFTED_BLOCKS`` names."""
    eyes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = zip(target.elts, node.value.elts) if isinstance(
                    target, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                    else [(target, node.value)]
                eyes |= {t.id for t, v in pairs
                         if isinstance(t, ast.Name) and _is_identity(v, set())}
    owner, derived = SHIFTED_BLOCKS
    exempt = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == owner:
            for item in cls.body:
                names = {t.id for t in getattr(item, "targets", [])
                         if isinstance(t, ast.Name)} | {getattr(item, "name", None)}
                if names & derived:
                    exempt |= set(ast.walk(item))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) \
                and node not in exempt:
            for e, block in ((node.left, node.right), (node.right, node.left)):
                if _is_identity(e, eyes) and not isinstance(block, ast.BinOp):
                    hits.append((node.lineno, node.col_offset,
                                 f"{type(node.op).__name__} E (line {node.lineno})"))
                    break
    return [hit for *_, hit in sorted(hits)]


@pytest.mark.parametrize("name", FRAME_READERS)
def test_only_derived_blocks_shift_the_frame(name):
    assert _frame_shifts(_tree(PACKAGE / name)) == []


def test_the_check_sees_a_frame_shift():
    source = "class BlockDecomposition:\n" \
             "    B = property(lambda self: self.frame[1] - MatrixField.identity(p, 1))\n" \
             "    @property\n    def C(self):\n        return self.frame[2] + np.eye(1)\n" \
             "    def gap(self, cot):\n        n, eye = self.n, np.eye(self.n)\n" \
             "        def k(a, b, c, d):\n" \
             "            return cot - (b + eye), a @ a + b @ c + eye, c - np.eye(n)\n" \
             "        return k\n" \
             "    A = property(lambda self: eye + self.frame[0])\n" \
             "def normalize(jg, n):\n    e = MatrixField.identity(jg.patch, n)\n" \
             "    return jg.block(0, 1) - e, 1j * e - jg.values, jg.values - 2\n"
    assert _frame_shifts(ast.parse(source)) == [
        "Add E (line 9)", "Sub E (line 9)", "Add E (line 11)", "Sub E (line 14)"]


# the matrix fields of a structure, which only ``derivatives`` differentiates
STRUCTURE_MATRICES = {"j_cot", "j_tan"}


def _structure_diffs(tree: ast.Module) -> list[str]:
    """``.diff`` calls on an attribute ``j_cot`` or ``j_tan``, or on a name
    assigned one anywhere in the module, in source order."""

    def is_matrix(node):
        return isinstance(node, ast.Attribute) and node.attr in STRUCTURE_MATRICES

    names = {t.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and is_matrix(node.value)
             for t in node.targets if isinstance(t, ast.Name)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "diff" and (
                    is_matrix(node.func.value) or getattr(node.func.value, "id", None) in names):
            hits.append((node.lineno, node.col_offset,
                         f"{ast.unparse(node.func)} (line {node.lineno})"))
    return [hit for *_, hit in sorted(hits)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_structures_differentiate_only_through_derivatives(path):
    assert _structure_diffs(_tree(path)) == []


def test_the_check_sees_a_structure_diff():
    source = "def f(acs, h, u, mode):\n    dc = acs.j_cot.diff(mode)[0].values\n" \
             "    jt = h.J.j_tan\n" \
             "    return jt.diff(mode), u.diff(mode), acs.j_cot.derivatives(), acs.diff()\n" \
             "g = [s.j_tan.diff(mode)[k] for k in range(4)]\n"
    assert _structure_diffs(ast.parse(source)) == [
        "acs.j_cot.diff (line 2)", "jt.diff (line 4)", "s.j_tan.diff (line 5)"]


# where the reach scan starts besides every ``cmd_*`` function: the entry
# point and the parser it builds
REACH_ROOTS = {"main", "build_parser"}
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
# public names that no command or criterion reaches, and why each stays
REACH_ALLOWLIST = {
    "spencer.transition_holomorphy_check":
        "the transition between two Spencer charts is holomorphic "
        "(TestTransition.test_affine_transition)",
    "spencer.independence_rank":
        "the holomorphic coordinates of a Spencer chart are independent "
        "(TestIndependenceRank.test_full_rank_coordinates)",
    "spencer.hyper_spencer_pattern_check":
        "the cotangent action on a chart of quaternionic coordinates has the "
        "paired pattern i E_m, -i E_m (TestHyperPattern.test_flat_identity_chart)",
    "brackets.leibniz_defect_check":
        "the twisted bracket [X, Y]_J fails to be a derivation by exactly its "
        "first-order terms (TestLeibniz.test_coordinate_product)",
    "hypercomplex.matrix_condition_residual":
        "reference for the split residual that `hyper check` reports: the "
        "unsplit form of the hyperholomorphy condition "
        "(TestMatrixCondition.test_equivalence_on_fixtures)",
    "fields.ScalarField.sampled":
        "builds the sample-backed inputs of the fd path in the unit tests",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(nodes, methods_of: str | None = None):
    """The names and attributes ``nodes`` read, as ``("name", name)`` and
    ``("attr", name)``.  Annotations are not reads.  ``methods_of`` names the
    class whose body ``nodes`` are: there a bare name may also read one of
    its methods, ``("method", "<class>.<name>")``."""
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id
            if methods_of:
                yield "method", f"{methods_of}.{node.id}"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield "attr", node.attr
        # the annotations of an argument or an assignment, and return types
        skip = {getattr(node, "annotation", None), getattr(node, "returns", None)}
        todo += [child for child in ast.iter_child_nodes(node) if child not in skip]


def _unreached(trees: dict[str, ast.Module], acceptance: ast.Module,
               allowlist: dict[str, str]) -> list[str]:
    """Public functions, classes and methods of ``trees`` (module name to
    parsed module) that nothing reaches, and allowlist entries that are
    stale."""
    defs, by_name, methods = {}, {}, {}
    roots, entries = [], set()
    for module, tree in sorted(trees.items()):
        for top in tree.body:
            if not isinstance(top, _DEFS):
                if not (isinstance(top, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__" for t in top.targets)):
                    roots.append(([top], None))
                continue
            qual = f"{module}.{top.name}"
            defs[qual] = top
            by_name.setdefault(top.name, []).append(qual)
            if top.name.startswith("cmd_") or top.name in REACH_ROOTS:
                entries.add(qual)
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, _DEFS[:2]):
                        defs.setdefault(f"{qual}.{item.name}", item)
                        methods.setdefault(item.name, []).append(f"{qual}.{item.name}")
    roots.append(([acceptance], None))

    def code(qual: str):
        """The code that runs once ``qual`` is reached, and the class whose
        body it is."""
        node = defs[qual]
        if not isinstance(node, ast.ClassDef):
            return node.decorator_list + node.args.defaults \
                + [d for d in node.args.kw_defaults if d] + node.body, None
        inner = [item for item in node.body if not isinstance(item, _DEFS[:2])
                 or item.name.startswith("__") and item.name.endswith("__")]
        return node.decorator_list + node.bases + node.keywords + inner, qual

    def reach(start: set[str]) -> set[str]:
        reached = start | entries
        todo = [*roots, *map(code, reached)]
        while todo:
            nodes, cls = todo.pop()
            for kind, name in _reads(nodes, cls):
                hits = {"name": by_name.get(name, []),
                        "attr": by_name.get(name, []) + methods.get(name, []),
                        "method": [name] if name in defs else []}[kind]
                for qual in hits:
                    if qual not in reached:
                        reached.add(qual)
                        todo.append(code(qual))
        return reached

    unaided = reach(set())
    stale = [f"allowlisted, {'reached' if qual in unaided else 'not defined'}: {qual}"
             for qual in sorted(allowlist) if qual in unaided or qual not in defs]
    reached = reach({qual for qual in allowlist if qual in defs})
    unreached = [f"{qual} (line {node.lineno})" for qual, node in defs.items()
                 if qual not in reached and not qual.rsplit(".", 1)[1].startswith("_")]
    return sorted(unreached) + stale


def test_every_public_name_is_reached():
    trees = {p.stem: _tree(p) for p in PACKAGE.glob("*.py")}
    assert all(REACH_ALLOWLIST.values())
    assert _unreached(trees, _tree(ACCEPTANCE), REACH_ALLOWLIST) == []


def test_the_check_sees_an_unreached_name():
    sources = {
        "cli": "from .core import solve\n__all__ = ['unused']\n"
               "def cmd_run(args):\n    return solve(args).total()\n"
               "def build_parser():\n    return _helper()\n"
               "def _helper():\n    return TABLE\n"
               "def unused():\n    pass\n",
        "core": "TABLE = {'fit': fit}\n"
                "def fit(x: 'Model'):\n    pass\n"
                "class Model:\n    def __init__(self):\n        self.n = normalise()\n"
                "    def total(self):\n        pass\n"
                "    def spare(self):\n        pass\n"
                "    def kept(self):\n        pass\n"
                "    alias = kept\n"
                "def normalise():\n    pass\n"
                "def solve(args) -> Report:\n    r: Report = Model()\n    return r\n"
                "class Report:\n    pass\n"
                "def imported():\n    pass\n"
                "def checked():\n    pass\n"
                "def reference():\n    return _sum()\n"
                "def _sum():\n    return total_of()\n"
                "def total_of():\n    pass\n",
    }
    acceptance = "from pkg.core import checked, imported\n" \
                 "def test_criterion():\n    assert checked() is None\n"
    allowlist = {"core.reference": "a reference", "core.checked": "reached now",
                 "core.gone": "deleted"}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    assert _unreached(trees, ast.parse(acceptance), allowlist) == [
        "cli.unused (line 9)", "core.Model.spare (line 9)", "core.Report (line 19)",
        "core.imported (line 21)", "allowlisted, reached: core.checked",
        "allowlisted, not defined: core.gone"]
