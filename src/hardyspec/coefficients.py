"""Recursive-descent parser and evaluator for scalar coefficient expressions.

Grammar (standard precedence, '^' binds tighter than '*', unary minus allowed):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' signed-number)?
    base   := number | ident | '(' expr ')' | func '(' expr (',' expr)* ')'

Identifiers name coordinates (x1, x2, x3 with aliases x, y; r and z for
axisymmetric problems) or the boundary distance d; `environment` binds them.
Exponents are numeric literals, so d^-1.5 parses as a power with a fixed
real exponent.
"""

import re

import numpy as np

from .errors import NotAxisymmetric, ParseError, UnknownVariable

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_FUNCTIONS = {"min", "max", "abs", "pos", "neg"}
_ARITY = {"abs": (1, 1), "pos": (1, 1), "neg": (1, 1), "min": (2, None), "max": (2, None)}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos,
                             expected=("number", "identifier", "operator"))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        raise ParseError(f"expected {op!r}, found {value or 'end of input'!r}",
                         pos, expected=(op,))

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos,
                             expected=("end of input",))
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if value == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = ("mul" if value == "*" else "div", node, rhs)
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return ("neg", self.factor())
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return ("pow", node, self.signed_number())
        return node

    def signed_number(self):
        sign = 1.0
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1.0 if value == "-" else 1.0
            kind, value, pos = self.peek()
        if kind != "num":
            raise ParseError(f"expected a numeric exponent, found {value or 'end of input'!r}",
                             pos, expected=("number",))
        self.advance()
        return sign * float(value)

    def base(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return ("num", float(value))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in _FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos,
                                     expected=tuple(sorted(_FUNCTIONS)))
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, _ = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                lo, hi = _ARITY[value]
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise ParseError(f"{value} takes {lo}{'+' if hi is None else ''} "
                                     f"argument(s), got {len(args)}", pos)
                return ("call", value, tuple(args))
            return ("var", value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a number, identifier or '(', found "
                         f"{value or 'end of input'!r}", pos,
                         expected=("number", "identifier", "("))


CARTESIAN_NAMES = frozenset({"x", "y", "x1", "x2", "x3"})


def environment(pts, d):
    """The names a coefficient may use at points with coordinates on the
    last axis of pts and boundary distance d: x/x1, y/x2, x3, r, z and d.

    Two coordinates are the (r, z) cross-section of an axisymmetric
    problem, so r = x and z = y; three are Cartesian, with the cylindrical
    r = hypot(x, y) and z = x3.
    """
    x = pts[..., 0]
    env = {"d": d, "x": x, "x1": x}
    if pts.shape[-1] >= 2:
        y = pts[..., 1]
        env.update(y=y, x2=y, r=x, z=y)
    if pts.shape[-1] == 3:
        env.update(x3=pts[..., 2], r=np.hypot(x, y), z=pts[..., 2])
    return env


def require_axisymmetric(*coefficients):
    """Refuse coefficients that name Cartesian coordinates on a torus.

    Point samples of a torus are 3D, while its pencils live on the (r, z)
    cross-section where x would mean r; only d, r and z mean the same in
    both.
    """
    named = set().union(*(c.variables() for c in coefficients))
    bad = sorted(named & CARTESIAN_NAMES)
    if bad:
        raise NotAxisymmetric(f"a torus accepts only d, r and z in coefficients; "
                              f"got {', '.join(bad)}")


def _eval(node, env):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise UnknownVariable(f"unknown variable {node[1]!r}; available: "
                                  f"{sorted(env)}") from None
    if op == "add":
        return _eval(node[1], env) + _eval(node[2], env)
    if op == "sub":
        return _eval(node[1], env) - _eval(node[2], env)
    if op == "mul":
        return _eval(node[1], env) * _eval(node[2], env)
    if op == "div":
        return _eval(node[1], env) / _eval(node[2], env)
    if op == "neg":
        return -_eval(node[1], env)
    if op == "pow":
        return np.power(_eval(node[1], env), node[2])
    if op == "call":
        args = [_eval(a, env) for a in node[2]]
        name = node[1]
        if name == "abs":
            return np.abs(args[0])
        if name == "pos":
            return np.maximum(args[0], 0.0)
        if name == "neg":
            return np.maximum(-args[0], 0.0)
        if name == "min":
            out = args[0]
            for a in args[1:]:
                out = np.minimum(out, a)
            return out
        if name == "max":
            out = args[0]
            for a in args[1:]:
                out = np.maximum(out, a)
            return out
    raise AssertionError(f"bad node {node!r}")


def _variables(node, acc):
    op = node[0]
    if op == "var":
        acc.add(node[1])
    elif op in ("add", "sub", "mul", "div"):
        _variables(node[1], acc)
        _variables(node[2], acc)
    elif op in ("neg",):
        _variables(node[1], acc)
    elif op == "pow":
        _variables(node[1], acc)
    elif op == "call":
        for a in node[2]:
            _variables(a, acc)
    return acc


class Coefficient:
    """A parsed scalar coefficient; evaluates vectorized over point arrays."""

    def __init__(self, ast, text=None):
        self.ast = ast
        self.text = text if text is not None else un_parse(ast)

    def __repr__(self):
        return f"Coefficient({self.text!r})"

    def __call__(self, **env):
        return self.evaluate(env)

    def evaluate(self, env):
        """Evaluate on an environment of coordinate arrays (broadcasting)."""
        return np.asarray(_eval(self.ast, env), dtype=float)

    def variables(self):
        return _variables(self.ast, set())

    def is_zero(self):
        return self.ast == ("num", 0.0)

    # small algebra for composing reduced problems
    def __add__(self, other):
        other = as_coefficient(other)
        return Coefficient(("add", self.ast, other.ast))

    def __mul__(self, other):
        other = as_coefficient(other)
        return Coefficient(("mul", self.ast, other.ast))

    def __neg__(self):
        return Coefficient(("neg", self.ast))

    def positive_part(self):
        return Coefficient(("call", "pos", (self.ast,)))

    def negative_part(self):
        return Coefficient(("call", "neg", (self.ast,)))


def un_parse(node):
    op = node[0]
    if op == "num":
        return repr(node[1])
    if op == "var":
        return node[1]
    if op == "add":
        return f"({un_parse(node[1])} + {un_parse(node[2])})"
    if op == "sub":
        return f"({un_parse(node[1])} - {un_parse(node[2])})"
    if op == "mul":
        return f"({un_parse(node[1])} * {un_parse(node[2])})"
    if op == "div":
        return f"({un_parse(node[1])} / {un_parse(node[2])})"
    if op == "neg":
        return f"(-{un_parse(node[1])})"
    if op == "pow":
        return f"{un_parse(node[1])}^{node[2]!r}"
    if op == "call":
        return f"{node[1]}({', '.join(un_parse(a) for a in node[2])})"
    raise AssertionError(node)


def parse_coefficient(text):
    """Parse an expression string into a Coefficient."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0, expected=("expression",))
    ast = _Parser(text).parse()
    return Coefficient(ast, text)


def constant(value):
    return Coefficient(("num", float(value)))


def as_coefficient(obj):
    if isinstance(obj, Coefficient):
        return obj
    if isinstance(obj, str):
        return parse_coefficient(obj)
    return constant(obj)
