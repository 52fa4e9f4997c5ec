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

The expression tree is private to this module.  Its leaves are
("num", value) and ("var", name); every other node is (kind, *children),
and each kind is one entry of `_OPS`, which evaluation, variable listing,
printing and the parser's function lookup all read.  A new function is one
table entry.  Other modules build coefficients with `parse_coefficient`,
`constant`, `power_of_d` and the small algebra on `Coefficient`, and ask
`d_power` whether one is exactly d^beta.
"""

import functools
import operator
import re

import numpy as np

from .errors import DivisionByZero, NotAxisymmetric, ParseError, UnknownVariable

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _fold(binary):
    """The n-ary form of a binary function, as a left fold."""
    return lambda *args: functools.reduce(binary, args)


def _divide(numerator, divisor):
    """numerator / divisor; a 0-d zero divisor raises (numpy would give inf)."""
    if np.ndim(divisor) == 0 and divisor == 0:
        raise ZeroDivisionError
    return numerator / divisor


def _power(base, exponent):
    """base^exponent; a constant zero base with a negative exponent divides
    by zero, as `/` does (np.power would only warn and give inf)."""
    if exponent < 0 and np.ndim(base) == 0 and base == 0:
        raise ZeroDivisionError
    return np.power(base, exponent)


# Every node kind but the leaves: the operation on its evaluated children,
# its printed form (opening, separator between children, closing) and its
# arity (fewest, most children; None for no limit).  Binary operators are
# keyed by their token, and a power's exponent child is a "num" leaf.  A
# function is an entry whose printed form opens with its name.
_OPS = {
    "+": (operator.add, ("(", " + ", ")"), (2, 2)),
    "-": (operator.sub, ("(", " - ", ")"), (2, 2)),
    "*": (operator.mul, ("(", " * ", ")"), (2, 2)),
    "/": (_divide, ("(", " / ", ")"), (2, 2)),
    "^": (_power, ("", "^", ""), (2, 2)),
    "minus": (operator.neg, ("(-", "", ")"), (1, 1)),
    "abs": (np.abs, ("abs(", ", ", ")"), (1, 1)),
    "pos": (lambda a: np.maximum(a, 0.0), ("pos(", ", ", ")"), (1, 1)),
    "neg": (lambda a: np.maximum(-a, 0.0), ("neg(", ", ", ")"), (1, 1)),
    "min": (_fold(np.minimum), ("min(", ", ", ")"), (2, None)),
    "max": (_fold(np.maximum), ("max(", ", ", ")"), (2, None)),
}


def _function(name):
    """The table entry of a function name, or None."""
    entry = _OPS.get(name)
    return entry if entry is not None and entry[1][0] == name + "(" else None


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

    def chain(self, operand, ops):
        """operand (op operand)* for the one-character tokens in ops,
        grouped to the left."""
        node = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.advance()
            node = (value, node, operand())

    def expr(self):
        return self.chain(self.term, "+-")

    def term(self):
        return self.chain(self.factor, "*/")

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return ("minus", self.factor())
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return ("^", node, ("num", self.signed_number()))
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
                entry = _function(value)
                if entry is None:
                    raise ParseError(f"unknown function {value!r}", pos,
                                     expected=tuple(sorted(filter(_function, _OPS))))
                self.advance()
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                lo, hi = entry[2]
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise ParseError(f"{value} takes {lo}{'+' if hi is None else ''} "
                                     f"argument(s), got {len(args)}", pos)
                return (value, *args)
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
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise UnknownVariable(f"unknown variable {node[1]!r}; available: "
                                  f"{sorted(env)}") from None
    return _OPS[kind][0](*[_eval(child, env) for child in node[1:]])


def _variables(node, acc):
    if node[0] == "var":
        acc.add(node[1])
    elif node[0] != "num":
        for child in node[1:]:
            _variables(child, acc)
    return acc


def _un_parse(node):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return node[1]
    opening, separator, closing = _OPS[kind][1]
    return opening + separator.join(map(_un_parse, node[1:])) + closing


class Coefficient:
    """A parsed scalar coefficient; evaluates vectorized over point arrays."""

    def __init__(self, ast, text=None):
        self.ast = ast
        self.text = text if text is not None else _un_parse(ast)

    def __repr__(self):
        return f"Coefficient({self.text!r})"

    def evaluate(self, env):
        """Evaluate on an environment of coordinate arrays (broadcasting)."""
        try:
            value = _eval(self.ast, env)
        except ZeroDivisionError:
            raise DivisionByZero(f"coefficient {self.text!r} divides by a "
                                 "constant zero") from None
        return np.asarray(value, dtype=float)

    def variables(self):
        return _variables(self.ast, set())

    def is_zero(self):
        return self.ast == ("num", 0.0)

    def d_power(self):
        """beta when the coefficient is exactly d^beta, counting 1 as
        beta = 0 and d as beta = 1; None otherwise."""
        if self.ast == ("num", 1.0):
            return 0.0
        if self.ast == ("var", "d"):
            return 1.0
        if self.ast[0] == "^" and self.ast[1] == ("var", "d"):
            return self.ast[2][1]
        return None

    # small algebra for composing reduced problems
    def __add__(self, other):
        return Coefficient(("+", self.ast, as_coefficient(other).ast))

    def __mul__(self, other):
        return Coefficient(("*", self.ast, as_coefficient(other).ast))

    def __neg__(self):
        return Coefficient(("minus", self.ast))

    def positive_part(self):
        return Coefficient(("pos", self.ast))

    def negative_part(self):
        return Coefficient(("neg", self.ast))


def parse_coefficient(text):
    """Parse an expression string into a Coefficient."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0, expected=("expression",))
    ast = _Parser(text).parse()
    return Coefficient(ast, text)


def constant(value):
    return Coefficient(("num", float(value)))


def power_of_d(exponent):
    """d^exponent; the constant 1 at exponent 0."""
    if exponent == 0:
        return constant(1.0)
    return Coefficient(("^", ("var", "d"), ("num", float(exponent))))


def as_coefficient(obj):
    if isinstance(obj, Coefficient):
        return obj
    if isinstance(obj, str):
        return parse_coefficient(obj)
    return constant(obj)
