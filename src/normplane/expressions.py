"""Tiny arithmetic-expression front end for curve definitions.

Grammar (no implicit multiplication, '^' is right associative and binds a
full unary expression on the left):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-' unary | primary
    primary := number | 't' | 'pi' | 'e' | func '(' expr ')' | '(' expr ')'

Functions: sin cos tan asin acos atan sinh cosh exp log sqrt abs sign.
A value outside a partial function's domain raises at evaluation.
Trees are plain tuples so equality and round-tripping are structural.
"""

from __future__ import annotations

import numpy as np

from .errors import ExpressionDomainError, ParseError

FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "abs": np.abs, "sign": np.sign,
}
CONSTANTS = {"pi": np.pi, "e": np.e}


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit() or ch == ".":
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                try:
                    val = float(text[i:j])
                except ValueError:
                    raise ParseError(f"bad number at offset {i}", i, ("number",))
                self.tokens.append(("num", val, i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r} at offset {i}", i,
                             ("token",))
        self.tokens.append(("eof", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} at offset {tok[2]}, found {tok[0]!r}",
                tok[2], (kind,))
        return self.advance()


def parse_expression(text):
    """Parse to a tuple tree; raises ParseError with offset and expectations."""
    lx = _Lexer(text)
    tree = _parse_expr(lx)
    tok = lx.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input at offset {tok[2]}", tok[2], ("eof",))
    return tree


def _parse_expr(lx):
    node = _parse_term(lx)
    while lx.peek()[0] in ("+", "-"):
        op = lx.advance()[0]
        node = ("bin", op, node, _parse_term(lx))
    return node


def _parse_term(lx):
    node = _parse_factor(lx)
    while lx.peek()[0] in ("*", "/"):
        op = lx.advance()[0]
        node = ("bin", op, node, _parse_factor(lx))
    return node


def _parse_factor(lx):
    base = _parse_unary(lx)
    if lx.peek()[0] == "^":
        lx.advance()
        return ("bin", "^", base, _parse_factor(lx))
    return base


def _parse_unary(lx):
    if lx.peek()[0] == "-":
        lx.advance()
        return ("neg", _parse_unary(lx))
    return _parse_primary(lx)


def _parse_primary(lx):
    tok = lx.peek()
    if tok[0] == "num":
        lx.advance()
        return ("num", tok[1])
    if tok[0] == "name":
        lx.advance()
        name = tok[1]
        if name == "t":
            return ("var",)
        if name in CONSTANTS:
            return ("const", name)
        if name in FUNCTIONS:
            lx.expect("(")
            arg = _parse_expr(lx)
            lx.expect(")")
            return ("call", name, arg)
        raise ParseError(f"unknown name {name!r} at offset {tok[2]}", tok[2],
                         ("t", "pi", "e") + tuple(FUNCTIONS))
    if tok[0] == "(":
        lx.advance()
        node = _parse_expr(lx)
        lx.expect(")")
        return node
    raise ParseError(
        f"expected a value at offset {tok[2]}, found {tok[0]!r}", tok[2],
        ("number", "t", "(", "function"))


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


def _eval(tree, t):
    kind = tree[0]
    if kind == "num":
        return np.full_like(t, tree[1])
    if kind == "var":
        return t
    if kind == "const":
        return np.full_like(t, CONSTANTS[tree[1]])
    if kind == "neg":
        return -_eval(tree[1], t)
    if kind == "call":
        return FUNCTIONS[tree[1]](_eval(tree[2], t))
    _, op, a, b = tree
    va, vb = _eval(a, t), _eval(b, t)
    if op == "+":
        return va + vb
    if op == "-":
        return va - vb
    if op == "*":
        return va * vb
    if op == "/":
        return va / vb
    return np.power(va, vb)


def compile_expression(text):
    """Parse once, return a vectorized evaluator of t."""
    tree = parse_expression(text)
    return lambda t: evaluate(tree, t)
