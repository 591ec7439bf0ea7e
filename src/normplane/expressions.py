"""Tiny arithmetic-expression front end for curve definitions.

Grammar (no implicit multiplication, '^' is right associative and binds a
full unary expression on the left):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-' unary | primary
    primary := number | 't' | 'pi' | 'e' | func '(' expr ')' | '(' expr ')'

Tokens: operators, numbers (digits and points, with an exponent only where
a digit follows the 'e'; a literal must be a finite float) and names.
Functions: sin cos tan asin acos atan sinh cosh exp log sqrt abs sign.
A value outside a partial function's domain raises at evaluation.
Trees are plain tuples so equality and round-tripping are structural.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ExpressionDomainError, InputError, ParseError

FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs, "sign": np.sign,
}
CONSTANTS = {"pi": np.pi, "e": np.e}
OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
# how strongly the left-associative operators bind: expr joins by '+'/'-', term by '*'/'/'
_PRECEDENCE = {"+": 0, "-": 0, "*": 1, "/": 1}
# operator | number | name | any other character | end
_TOKEN = re.compile(r"\s*(?:([-+*/^()])|([\d.]+(?:[eE][-+]?\d+)?)|([^\W\d]\w*)|(.)|\Z)")


def _tokens(text):
    """(kind, value, offset) tokens, last first, so `pop()` takes the next:
    an operator's kind is its character; numbers, names and the end are
    "num", "name" and "eof"."""
    toks = []
    for m in _TOKEN.finditer(text):
        if m.lastindex is None:
            toks.append(("eof", None, m.end()))
            return toks[::-1]
        op, number, name, other = m.groups()
        at = m.start(m.lastindex)
        if op:
            toks.append((op, op, at))
        elif name:
            toks.append(("name", name, at))
        elif other:
            raise ParseError(f"unexpected character {other!r} at offset {at}", at, ("token",))
        else:
            try:
                value = float(number)
            except ValueError:
                raise ParseError(f"bad number at offset {at}", at, ("number",))
            if not np.isfinite(value):
                raise ParseError(f"number too large at offset {at}", at, ("number",))
            toks.append(("num", value, at))


def _expect(toks, kind):
    tok = toks.pop()
    if tok[0] != kind:
        raise ParseError(f"expected {kind!r} at offset {tok[2]}, found {tok[0]!r}", tok[2], (kind,))


def parse_expression(text):
    """Parse to a tuple tree; raises ParseError with offset and expectations."""
    toks = _tokens(text)
    try:
        tree = _parse_expr(toks)
    except RecursionError:
        raise InputError("expression is too deep to parse") from None
    tok = toks[-1]
    if tok[0] != "eof":
        raise ParseError(f"trailing input at offset {tok[2]}", tok[2], ("eof",))
    return tree


def _parse_expr(toks, level=0):
    """expr (level 0) or term (level 1): operands joined left to right by
    the operators that bind at least as strongly as `level`."""
    node = _parse_factor(toks)
    while _PRECEDENCE.get(toks[-1][0], -1) >= level:
        op = toks.pop()[0]
        node = ("bin", op, node, _parse_expr(toks, _PRECEDENCE[op] + 1))
    return node


def _parse_factor(toks):
    base = _parse_unary(toks)
    if toks[-1][0] == "^":
        toks.pop()
        return ("bin", "^", base, _parse_factor(toks))
    return base


def _parse_unary(toks):
    if toks[-1][0] == "-":
        toks.pop()
        return ("neg", _parse_unary(toks))
    return _parse_primary(toks)


def _parse_primary(toks):
    kind, value, at = toks.pop()
    if kind == "num":
        return ("num", value)
    if kind == "name":
        if value == "t":
            return ("var",)
        if value in CONSTANTS:
            return ("const", value)
        if value not in FUNCTIONS:
            raise ParseError(f"unknown name {value!r} at offset {at}", at,
                             ("t", "pi", "e") + tuple(FUNCTIONS))
        _expect(toks, "(")
    elif kind != "(":
        raise ParseError(f"expected a value at offset {at}, found {kind!r}", at,
                         ("number", "t", "(", "function"))
    node = _parse_expr(toks)    # a function's argument or a parenthesized expr
    _expect(toks, ")")
    return node if kind == "(" else ("call", value, node)


def evaluate(tree, t):
    """Evaluate at t of any shape, on the flat array: numpy's power loop
    takes a 0-d exponent 2, 0.5 or -1 as a square, sqrt or reciprocal, whose
    last bit may differ from its pow. Domain errors raise."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            return _eval(tree, t.ravel()).reshape(t.shape)[()]
        except FloatingPointError as exc:
            raise ExpressionDomainError(f"expression domain error: {exc}") from exc
        except RecursionError:
            raise InputError("expression is too deep to evaluate") from None


def _eval(tree, t):
    kind = tree[0]
    if kind == "var":
        return t
    if kind in ("num", "const"):
        return np.full_like(t, tree[1] if kind == "num" else CONSTANTS[tree[1]])
    if kind == "neg":
        return -_eval(tree[1], t)
    if kind == "call":
        return FUNCTIONS[tree[1]](_eval(tree[2], t))
    return OPERATORS[tree[1]](_eval(tree[2], t), _eval(tree[3], t))


def compile_expression(text):
    """Parse once, return a vectorized evaluator of t."""
    tree = parse_expression(text)
    return lambda t: evaluate(tree, t)
