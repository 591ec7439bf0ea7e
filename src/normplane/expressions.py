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
Text parses to a post-order program of plain-tuple steps, run on one value
stack: ("num", v) (`pi`, `e` folded), ("var",), ("neg",), ("call", f), ("bin", op).
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
# parser calls nested at once, counted in unary; a caller keeps ~390 of the default 1000 frames
MAX_DEPTH = 600
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
    """Parse to a post-order program; raises ParseError with offset and expectations."""
    toks, program = _tokens(text), []
    _parse_expr(toks, program, 1)
    tok = toks[-1]
    if tok[0] != "eof":
        raise ParseError(f"trailing input at offset {tok[2]}", tok[2], ("eof",))
    return program


def _parse_expr(toks, out, depth, level=0):
    """expr (level 0) or term (level 1): operands joined left to right by
    the operators that bind at least as strongly as `level`."""
    _parse_factor(toks, out, depth + 1)
    while _PRECEDENCE.get(toks[-1][0], -1) >= level:
        op = toks.pop()[0]
        _parse_expr(toks, out, depth + 1, _PRECEDENCE[op] + 1)
        out.append(("bin", op))


def _parse_factor(toks, out, depth):
    _parse_unary(toks, out, depth + 1)
    if toks[-1][0] == "^":
        toks.pop()
        _parse_factor(toks, out, depth + 1)
        out.append(("bin", "^"))


def _parse_unary(toks, out, depth):
    if depth > MAX_DEPTH:
        raise InputError("expression is too deep to parse")
    if toks[-1][0] != "-":
        return _parse_primary(toks, out, depth + 1)
    toks.pop()
    _parse_unary(toks, out, depth + 1)
    out.append(("neg",))


def _parse_primary(toks, out, depth):
    kind, value, at = toks.pop()
    if kind == "num":
        return out.append(("num", value))
    if kind == "name":
        if value == "t":
            return out.append(("var",))
        if value in CONSTANTS:
            return out.append(("num", CONSTANTS[value]))
        if value not in FUNCTIONS:
            raise ParseError(f"unknown name {value!r} at offset {at}", at,
                             ("t", "pi", "e") + tuple(FUNCTIONS))
        _expect(toks, "(")
    elif kind != "(":
        raise ParseError(f"expected a value at offset {at}, found {kind!r}", at,
                         ("number", "t", "(", "function"))
    _parse_expr(toks, out, depth + 1)    # a function's argument or a parenthesized expr
    _expect(toks, ")")
    if kind == "name":
        out.append(("call", value))


def evaluate(program, t):
    """Run a program at t of any shape, on the flat array: numpy's power loop
    takes a 0-d exponent 2, 0.5 or -1 as a square, sqrt or reciprocal, whose
    last bit may differ from its pow. Domain errors raise."""
    t = np.asarray(t, dtype=float)
    flat, stack = t.ravel(), []
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            for step in program:
                if step[0] == "num":
                    stack.append(np.full_like(flat, step[1]))
                elif step[0] == "var":
                    stack.append(flat)
                elif step[0] == "neg":
                    stack[-1] = -stack[-1]
                elif step[0] == "call":
                    stack[-1] = FUNCTIONS[step[1]](stack[-1])
                else:   # reads the left operand, then pops the right one, freed at once
                    stack[-1] = OPERATORS[step[1]](stack[-2], stack.pop())
        except FloatingPointError as exc:
            raise ExpressionDomainError(f"expression domain error: {exc}") from exc
    return stack.pop().reshape(t.shape)[()]


def compile_expression(text):
    """Parse once, return a vectorized evaluator of t."""
    program = parse_expression(text)
    return lambda t: evaluate(program, t)
