"""Expression language for coefficient functions.

Arithmetic over real literals, the constants ``pi`` and ``e``, coordinate
variables ``x1 .. xd``, unary minus, binary ``+ - * / ^`` and the functions
``sin``, ``cos``, ``exp``, ``sqrt``.  Precedence, tightest first:
``^``, unary ``-``, ``* /``, ``+ -``.  Exponents are integer literals only,
which keeps differentiation closed over the node set (the derivative of any
expression is again an expression).

ASTs are immutable, so one node object may be shared by many parents: the
smart constructors and derivatives reuse subexpressions instead of copying
them, and an expression is a graph whose expanded tree can be far larger.
Every operation works on that graph:

* each node records ``max_var_index()`` when it is built, and caches
  ``str()`` and ``derivative(axis)`` (one entry per axis) on first use.
  These live in the instance dictionary, outside the dataclass fields, so
  structural ``==``, ``hash`` and ``repr`` are unaffected;
* ``evaluate``, ``evaluate_all`` and ``substitute`` compute each distinct
  node once per call, children first, and drop a node's value after its
  last parent used it;
* every walk keeps an explicit stack, so deep expressions (a sum of
  thousands of terms) need no recursion.  Only the parser recurses, and it
  bounds parenthesis and unary-minus nesting by ``MAX_NESTING``.

``parse_expr`` and ``str()`` round-trip: parsing the printed form of an AST
reproduces the AST.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "ConstSym",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "ExprSyntaxError",
    "ExprNameError",
    "parse_expr",
    "evaluate_all",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "powi",
    "call",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}

# precedence levels used by the printer
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprNameError(ValueError):
    """Identifier that is not a variable, function or known constant."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


def _walk(roots, skip=None, uses=None) -> list["Expr"]:
    """Distinct node objects under ``roots``, each once, children first.

    Nodes for which ``skip(node)`` holds are neither listed nor entered.
    With ``uses``, each listed node's parent edges within the walk are
    counted into it, keyed by ``id``.  The walk keeps its own stack, so
    graph depth is not bounded by recursion.
    """
    order = []
    seen = set()
    done = set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            # Either the node's own second visit, pushed below its children
            # and so reached once they are finished, or a visit from another
            # parent, which in an acyclic graph comes after that and is a
            # no-op.
            if key not in done:
                done.add(key)
                order.append(node)
            continue
        if skip is not None and skip(node):
            continue
        seen.add(key)
        stack.append(node)
        kids = node._kids()
        if kids:
            if uses is not None:
                for kid in kids:
                    uses[id(kid)] = uses.get(id(kid), 0) + 1
            # reversed, so that children are finished left to right
            stack.extend(reversed(kids))
    return order


def _fold(roots, rule: str, arg) -> list:
    """``node.<rule>(child_values, arg)`` over the graph under ``roots``.

    Each distinct node is computed once, and its value is dropped as soon
    as its last parent has read it, so a large intermediate array lives no
    longer than it is needed.  Returns the roots' values.
    """
    uses: dict[int, int] = {}
    for root in roots:  # the caller's use: roots are never dropped
        uses[id(root)] = 1
    values = {}
    for node in _walk(roots, uses=uses):
        kids = node._kids()
        values[id(node)] = getattr(node, rule)([values[id(k)] for k in kids], arg)
        for kid in kids:
            key = id(kid)
            left = uses[key] - 1
            uses[key] = left
            if not left:
                del values[key]
    return [values[id(root)] for root in roots]


def evaluate_all(exprs, coords) -> list:
    """Values of several expressions on the same coordinates.

    A node shared between the expressions is evaluated once.
    """
    return _fold(tuple(exprs), "_apply", coords)


class Expr:
    """Base class for expression nodes.

    Subclasses are frozen dataclasses: ``==``, ``hash`` and ``repr`` are
    structural.  The caches below live in the instance ``__dict__``, outside
    the dataclass fields, so they never take part in those.
    """

    _prec = _PREC_ATOM
    _mvi = 0  # max_var_index(), set by __post_init__ of Var and of inner nodes
    _str: str | None = None  # cached str()
    _dcache: dict | None = None  # cached derivative(axis), keyed by axis

    def _kids(self) -> tuple["Expr", ...]:
        return ()

    def evaluate(self, coords):
        """Evaluate on coordinate arrays.

        ``coords`` is a sequence indexed by variable number minus one; the
        entries may be scalars or broadcastable numpy arrays.  A node shared
        by several parents is evaluated once.
        """
        return _fold((self,), "_apply", coords)[0]

    def derivative(self, axis: int) -> "Expr":
        """Exact partial derivative with respect to ``x<axis>`` (1-based)."""
        if axis < 1:
            raise ValueError("axis is 1-based")
        cache = self._dcache
        if cache is None or axis not in cache:
            def done(node):
                return node._dcache is not None and axis in node._dcache

            for node in _walk((self,), done):
                d = node._derive([kid._dcache[axis] for kid in node._kids()], axis)
                node.__dict__.setdefault("_dcache", {})[axis] = d
        return self._dcache[axis]

    def max_var_index(self) -> int:
        """Largest variable index used, 0 for a constant expression."""
        return self._mvi

    def substitute(self, mapping: dict[int, "Expr"]) -> "Expr":
        """Replace variables by expressions (for composing with maps)."""
        return _fold((self,), "_rebuild", mapping)[0]

    def __str__(self) -> str:
        # Only the node asked is cached: keeping the text of every subnode
        # would cost memory quadratic in the depth of the graph.
        if self._str is None:
            self.__dict__["_str"] = _fold((self,), "_format", None)[0]
        return self._str

    # per-node rules, given the results for the children in _kids() order

    def _apply(self, args, coords):
        raise NotImplementedError

    def _derive(self, dargs, axis) -> "Expr":
        raise NotImplementedError

    def _rebuild(self, args, mapping) -> "Expr":
        return self

    def _format(self, texts, _) -> str:
        raise NotImplementedError


def _wrap(child: Expr, text: str, min_prec: int) -> str:
    return f"({text})" if child._prec < min_prec else text


@dataclass(frozen=True)
class Num(Expr):
    value: float

    _prec = _PREC_ATOM

    def _apply(self, args, coords):
        return self.value

    def _derive(self, dargs, axis):
        return Num(0.0)

    def _format(self, texts, _):
        if self.value < 0:
            # negative literals only arise from constant folding
            return f"({self.value!r})"
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based; prints as x<index>

    _prec = _PREC_ATOM

    def __post_init__(self):
        self.__dict__["_mvi"] = self.index

    def _apply(self, args, coords):
        return coords[self.index - 1]

    def _derive(self, dargs, axis):
        return Num(1.0 if axis == self.index else 0.0)

    def _rebuild(self, args, mapping):
        return mapping.get(self.index, self)

    def _format(self, texts, _):
        return f"x{self.index}"


@dataclass(frozen=True)
class ConstSym(Expr):
    name: str  # "pi" or "e"

    _prec = _PREC_ATOM

    def _apply(self, args, coords):
        return CONSTANTS[self.name]

    def _derive(self, dargs, axis):
        return Num(0.0)

    def _format(self, texts, _):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    _prec = _PREC_NEG

    def __post_init__(self):
        self.__dict__["_mvi"] = self.arg._mvi

    def _kids(self):
        return (self.arg,)

    def _apply(self, args, coords):
        return -args[0]

    def _derive(self, dargs, axis):
        return neg(dargs[0])

    def _rebuild(self, args, mapping):
        return neg(args[0])

    def _format(self, texts, _):
        return f"-{_wrap(self.arg, texts[0], _PREC_NEG)}"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of "+-*/"
    left: Expr
    right: Expr

    def __post_init__(self):
        self.__dict__["_prec"] = _PREC_ADD if self.op in "+-" else _PREC_MUL
        self.__dict__["_mvi"] = max(self.left._mvi, self.right._mvi)

    def _kids(self):
        return (self.left, self.right)

    def _apply(self, args, coords):
        a, b = args
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def _derive(self, dargs, axis):
        da, db = dargs
        if self.op == "+":
            return add(da, db)
        if self.op == "-":
            return sub(da, db)
        if self.op == "*":
            return add(mul(da, self.right), mul(self.left, db))
        return div(sub(mul(da, self.right), mul(self.left, db)), powi(self.right, 2))

    def _rebuild(self, args, mapping):
        return {"+": add, "-": sub, "*": mul, "/": div}[self.op](*args)

    def _format(self, texts, _):
        prec = self._prec
        left = _wrap(self.left, texts[0], prec)
        # binary ops parse left associative; parenthesize same-level right
        # operands so printing and reparsing reproduce the tree exactly
        right = _wrap(self.right, texts[1], prec + 1)
        return f"{left} {self.op} {right}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    _prec = _PREC_POW

    def __post_init__(self):
        self.__dict__["_mvi"] = self.base._mvi

    def _kids(self):
        return (self.base,)

    def _apply(self, args, coords):
        return args[0] ** self.exponent

    def _derive(self, dargs, axis):
        if self._mvi == 0:  # a constant: the power rule would give 0 * 0^-1 for 0^0
            return Num(0.0)
        return mul(mul(Num(float(self.exponent)), powi(self.base, self.exponent - 1)),
                   dargs[0])

    def _rebuild(self, args, mapping):
        return powi(args[0], self.exponent)

    def _format(self, texts, _):
        return f"{_wrap(self.base, texts[0], _PREC_ATOM)}^{self.exponent}"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    _prec = _PREC_ATOM

    def __post_init__(self):
        self.__dict__["_mvi"] = self.arg._mvi

    def _kids(self):
        return (self.arg,)

    def _apply(self, args, coords):
        x = args[0]
        if self.func == "sin":
            return np.sin(x)
        if self.func == "cos":
            return np.cos(x)
        if self.func == "exp":
            return np.exp(x)
        return np.sqrt(x)

    def _derive(self, dargs, axis):
        dx = dargs[0]
        if self.func == "sin":
            return mul(Call("cos", self.arg), dx)
        if self.func == "cos":
            return neg(mul(Call("sin", self.arg), dx))
        if self.func == "exp":
            return mul(self, dx)
        return div(dx, mul(Num(2.0), self))

    def _rebuild(self, args, mapping):
        return Call(self.func, args[0])

    def _format(self, texts, _):
        return f"{self.func}({texts[0]})"


# ---------------------------------------------------------------------------
# smart constructors with light constant folding
# ---------------------------------------------------------------------------


def _is_num(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a, -1.0):
        return neg(b)
    if _is_num(b, -1.0):
        return neg(a)
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_num(b) and b.value != 0.0:
        if _is_num(a):
            return Num(a.value / b.value)
        if b.value == 1.0:
            return a
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return Num(0.0)
    return BinOp("/", a, b)


def neg(a: Expr) -> Expr:
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Num(1.0)
    if exponent == 1:
        return base
    if _is_num(base):
        # float64 arithmetic, as on arrays: 0^-1 folds to inf and 10^400
        # overflows to inf, where Python floats raise
        with np.errstate(all="ignore"):
            return Num(float(np.float64(base.value) ** exponent))
    return Pow(base, exponent)


def call(func: str, arg: Expr) -> Expr:
    if func not in FUNCTIONS:
        raise ValueError(f"unsupported function {func!r}")
    return Call(func, arg)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"cannot convert {type(value).__name__} to Expr")


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_VAR_RE = re.compile(r"x(\d+)$")

# The parser recurses once per open parenthesis and per unary minus; past
# this depth it reports a syntax error instead of exhausting the stack.
# Printed forms of the structures built here nest fewer than ten deep.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.depth = 0  # open parentheses and pending unary minuses

    def nest(self, offset: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", offset)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.take()

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                e = BinOp(text, e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.factor()
                e = BinOp(text, e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.take()
            self.nest(offset)
            arg = self.factor()
            self.depth -= 1
            return Neg(arg)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.take()
            exponent = self._integer()
            kind2, text2, offset2 = self.peek()
            if kind2 == "op" and text2 == "^":
                raise ExprSyntaxError("chained ^ is not supported; parenthesize", offset2)
            return Pow(base, exponent)
        return base

    def _integer(self) -> int:
        sign = 1
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.take()
            sign = -1
            kind, text, offset = self.peek()
        if kind != "number" or any(c in text for c in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", offset)
        self.take()
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, offset = self.take()
        if kind == "number":
            return Num(float(text))
        if kind == "op" and text == "(":
            self.nest(offset)
            e = self.sum()
            self.expect_op(")")
            self.depth -= 1
            return e
        if kind == "name":
            if text in CONSTANTS:
                return ConstSym(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                self.nest(offset)
                arg = self.sum()
                self.expect_op(")")
                self.depth -= 1
                return Call(text, arg)
            m = _VAR_RE.match(text)
            if m:
                index = int(m.group(1))
                if index < 1 or index > self.dim:
                    raise ValueError(
                        f"variable index out of range: {text} (dimension {self.dim})"
                    )
                return Var(index)
            raise ExprNameError(text, offset)
        raise ExprSyntaxError(f"unexpected token {text!r}", offset)


def parse_expr(text: str, dim: int) -> Expr:
    """Parse expression ``text`` over the variables ``x1 .. x<dim>``.

    Raises ``ExprSyntaxError`` (with byte offset) on malformed input or
    nesting deeper than ``MAX_NESTING``, ``ExprNameError`` for unknown
    identifiers and ``ValueError`` when a variable index exceeds ``dim``.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return _Parser(_tokenize(text), dim).parse()
