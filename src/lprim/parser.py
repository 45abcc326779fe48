"""Recursive-descent parser for the function DSL.

Grammar (whitespace-insensitive)::

    expr      := term (('+' | '-') term)*
    term      := unary (('*' | '/') unary)*
    unary     := '-' unary | power
    power     := atom ('^' unary)?          # right-associative
    atom      := NUMBER | 'x' | 'pi' | 'e'
               | IDENT '(' args ')' | '(' expr ')'

Built-in calls: exp, log, sin, cos, atan, erf, sqrt, abs, sgn,
indicator(a, b), piecewise(cond -> expr, ..., [else -> expr]),
sing(expr, p1, p2, ...) which declares singular points.

Conditions are comparisons: expr (< | <= | > | >= | =) expr.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace

from .errors import ParseError
from .expr import (
    Add,
    Call,
    Cmp,
    Const,
    Div,
    FunctionExpr,
    Indicator,
    Mul,
    Neg,
    Piecewise,
    Pow,
    Sub,
    Var,
    _children,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|->|[-+*/^(),<>=]))"
)

_UNARY_NAMES = {"exp", "log", "sin", "cos", "atan", "erf", "sqrt", "abs", "sgn"}
_CONSTS = {"pi": math.pi, "e": math.e}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.declared_sing = []

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.take()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            pos = self.peek()[2]
            self.take()
            expo = self.unary()
            c = _const_fold(expo)
            if c is None:
                raise ParseError("exponent must be a constant expression", pos)
            return Pow(base, c)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Const(float(val))
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if val == "x":
                return Var()
            if val in _CONSTS:
                return Const(_CONSTS[val])
            if self.peek()[1] != "(":
                raise ParseError(f"unknown identifier {val!r}", pos)
            self.expect("(")
            if val in _UNARY_NAMES:
                node = Call(val, self.expr())
                self.expect(")")
                return node
            if val == "indicator":
                a = self.const_arg(pos)
                self.expect(",")
                b = self.const_arg(pos)
                self.expect(")")
                return Indicator(a, b)
            if val == "piecewise":
                return self.piecewise()
            if val == "sing":
                node = self.expr()
                while self.peek()[1] == ",":
                    self.take()
                    self.declared_sing.append(self.const_arg(pos))
                self.expect(")")
                return node
            raise ParseError(f"unknown identifier {val!r}", pos)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)

    def const_arg(self, pos):
        node = self.expr()
        c = _const_fold(node)
        if c is None:
            raise ParseError("expected a constant argument", pos)
        return c

    def condition(self):
        lhs = self.expr()
        kind, val, pos = self.take()
        if val not in Cmp.OPS:
            raise ParseError(f"expected a comparison operator, found {val!r}", pos)
        rhs = self.expr()
        return Cmp(lhs, val, rhs)

    def piecewise(self):
        branches = []
        otherwise = None
        while True:
            if self.peek()[1] == "else":
                self.take()
                self.expect("->")
                otherwise = self.expr()
            else:
                cond = self.condition()
                self.expect("->")
                branches.append((cond, self.expr()))
            if self.peek()[1] == ",":
                self.take()
                continue
            self.expect(")")
            break
        return Piecewise(branches, otherwise)


def _const_fold(node):
    """The value of a constant subtree (one without x, indicators or
    branches), or None; None as well where it is not finite."""
    if isinstance(node, (Var, Indicator, Piecewise)) or any(
            _const_fold(c) is None for c in _children(node)):
        return None
    v = FunctionExpr(node)(0.0)
    return v if math.isfinite(v) else None


def parse_expr(text):
    """Parse DSL text into a FunctionExpr with inferred metadata."""
    p = _Parser(text)
    node = p.parse()
    f = FunctionExpr.from_node(node)
    if p.declared_sing:
        sing = tuple(sorted(set(f.singularities) | set(p.declared_sing)))
        kinks = tuple(k for k in f.kinks if k not in sing)
        f = replace(f, singularities=sing, kinks=kinks)
    return f
