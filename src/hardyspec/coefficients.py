"""Recursive-descent parser and evaluator for scalar coefficient expressions.

Grammar (standard precedence, '^' binds tighter than '*', unary minus allowed):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' signed-number)?
    base   := number | ident | '(' expr ')' | func '(' expr (',' expr)* ')'

Identifiers name section coordinates (x1, x2 with aliases x, y; r and z
for axisymmetric problems) or the boundary distance d; `environment` binds
them.
Exponents are numeric literals, so d^-1.5 parses as a power with a fixed
real exponent.

The expression tree is private to this module.  Its leaves are
("num", value) and ("var", name); every other node is (kind, *children),
and each kind is one entry of `_OPS`, which evaluation, variable listing,
printing and the parser's function lookup all read.  A new function is one
table entry.  Other modules build coefficients with `parse_coefficient`,
`constant`, `power_of_d` and the small algebra on `Coefficient`, and read
how one depends on d from `terms`, its normal form as a sum of c d^p g.
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
    """The names a coefficient may use at points of a domain's section,
    with coordinates on the last axis of pts and boundary distance d:
    x/x1, y/x2, r, z and d.  Two coordinates may be the (r, z) section of
    an axisymmetric problem, so r = x and z = y.
    """
    x = pts[..., 0]
    env = {"d": d, "x": x, "x1": x}
    if pts.shape[-1] == 2:
        y = pts[..., 1]
        env.update(y=y, x2=y, r=x, z=y)
    return env


def check_names(section, *coefficients):
    """Refuse a Cartesian name on a torus's (r, z) section (the one with a
    measure weight), where x would mean r, then any name `environment` does
    not bind on the section."""
    named = set().union(*(c.variables() for c in coefficients))
    cartesian = sorted(named & CARTESIAN_NAMES)
    if cartesian and section.measure_weight is not None:
        raise NotAxisymmetric(f"a torus accepts only d, r and z in coefficients; "
                              f"got {', '.join(cartesian)}")
    bound = environment(np.zeros(section.dim), 0.0).keys()
    unknown = sorted(named - bound)
    if unknown:
        raise UnknownVariable(f"unknown variable {unknown[0]!r}; available: "
                              f"{sorted(bound)}")


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


def _times(g, h):
    """The product of two d-free trees, None standing for 1."""
    return h if g is None else g if h is None else ("*", g, h)


def _terms(node):
    """node as a list of (c, p, g), the sum of c d^p g with g a d-free tree
    or None for 1; None when d lies under abs, pos, neg, min or max, under
    a power of a sum or of c <= 0, or in a divisor other than c d^p."""
    kind = node[0]
    names = _variables(node, set())
    if not names:
        return [(float(_eval(node, {})), 0.0, None)]
    if "d" not in names:
        return [(1.0, 0.0, node)]
    if kind == "var":
        return [(1.0, 1.0, None)]
    if kind == "minus":
        inner = _terms(node[1])
        return None if inner is None else [(-c, p, g) for c, p, g in inner]
    if kind not in ("+", "-", "*", "/", "^"):
        return None
    left, right = _terms(node[1]), _terms(node[2])
    if left is None or right is None:
        return None
    if kind == "+":
        return left + right
    if kind == "-":
        return left + [(-c, p, g) for c, p, g in right]
    if kind == "*":
        return [(c * c2, p + p2, _times(g, g2))
                for c, p, g in left for c2, p2, g2 in right]
    if len(right) != 1 or right[0][2] is not None:
        return None
    if kind == "/":
        c2, p2, _ = right[0]
        return [(c / c2, p - p2, g) for c, p, g in left]
    e = right[0][0]                 # a literal exponent
    if len(left) != 1 or left[0][0] <= 0:
        return None
    c, p, g = left[0]
    return [(float(np.power(c, e)), p * e, g and ("^", g, ("num", e)))]


class Coefficient:
    """A parsed scalar coefficient; evaluates vectorized over point arrays."""

    def __init__(self, ast, text=None):
        self.ast = ast
        self.text = text if text is not None else _un_parse(ast)

    def __repr__(self):
        return f"Coefficient({self.text!r})"

    def _guarded(self, walk, *args):
        """walk(self.ast, *args); a constant zero divisor raises DivisionByZero."""
        try:
            return walk(self.ast, *args)
        except ZeroDivisionError:
            raise DivisionByZero(f"coefficient {self.text!r} divides by a "
                                 "constant zero") from None

    def evaluate(self, env):
        """Evaluate on an environment of coordinate arrays (broadcasting)."""
        return np.asarray(self._guarded(_eval, env), dtype=float)

    def variables(self):
        return _variables(self.ast, set())

    def terms(self):
        """The normal form: a list of (c, p, g) whose sum of c d^p g is the
        coefficient at d > 0, g a d-free Coefficient or None for 1; None when
        there is none (see `_terms`)."""
        terms = self._guarded(_terms)
        return terms and [(c, p, g and Coefficient(g)) for c, p, g in terms]

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
