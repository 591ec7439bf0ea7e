import numpy as np
import pytest

from normplane.errors import ExpressionDomainError, InputError, ParseError
from normplane.expressions import compile_expression, evaluate, parse_expression
from oracles import postorder, to_text, tree_evaluate, tree_parse_expression


def test_basic_values():
    assert evaluate(parse_expression("cos(t)^3"), 0.0) == pytest.approx(1.0)
    assert evaluate(parse_expression("1+2*3"), 0.0) == pytest.approx(7.0)
    assert evaluate(parse_expression("2^3^2"), 0.0) == pytest.approx(512.0)  # right assoc
    assert evaluate(parse_expression("(1+2)*3"), 0.0) == pytest.approx(9.0)
    assert evaluate(parse_expression("pi"), 0.0) == pytest.approx(np.pi)
    assert evaluate(parse_expression("e"), 0.0) == pytest.approx(np.e)
    assert evaluate(parse_expression("1.5e-2"), 0.0) == pytest.approx(0.015)


def test_signed_power_composite():
    tree = parse_expression("abs(cos(t))^1.5*sign(cos(t))")
    assert evaluate(tree, np.pi) == pytest.approx(-1.0)
    assert evaluate(tree, 0.0) == pytest.approx(1.0)


def test_unary_minus_binds_before_power():
    # factor := unary ('^' factor)?  so -2^2 parses as (-2)^2
    assert evaluate(parse_expression("-2^2"), 0.0) == pytest.approx(4.0)
    assert evaluate(parse_expression("-(2^2)"), 0.0) == pytest.approx(-4.0)


def test_vectorized_evaluation():
    f = compile_expression("sin(t)*t")
    ts = np.linspace(0.0, 2.0, 17)
    assert np.allclose(f(ts), np.sin(ts) * ts)


def test_parse_error_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse_expression("1/(1+t")
    assert err.value.offset == 6
    assert ")" in err.value.expected


def test_parse_error_cases():
    with pytest.raises(ParseError):
        parse_expression("2t")          # no implicit multiplication
    with pytest.raises(ParseError):
        parse_expression("sin 3")       # function needs parentheses
    with pytest.raises(ParseError):
        parse_expression("bogus(t)")
    with pytest.raises(ParseError):
        parse_expression("1+")
    with pytest.raises(ParseError):
        parse_expression("")


@pytest.mark.parametrize("text, message, offset", [
    ("1..2", "bad number at offset 0", 0),
    ("t$", "unexpected character '$' at offset 1", 1),
    ("_a1", "unknown name '_a1' at offset 0", 0),
    ("1e", "trailing input at offset 1", 1),       # an exponent needs a digit
    ("1e+", "trailing input at offset 1", 1),
    ("1.2.3", "bad number at offset 0", 0),
    ("1+  ", "expected a value at offset 4, found 'eof'", 4),
    ("cos(t) + 1e999", "number too large at offset 9", 9),
])
def test_the_lexer_refuses_with_the_offset(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert str(err.value) == message and err.value.offset == offset


@pytest.mark.parametrize("text, tree", [
    (".5", ("num", 0.5)),
    ("5.", ("num", 5.0)),
    ("1E+3", ("num", 1000.0)),
    ("\u0663", ("num", 3.0)),                   # Arabic-Indic three, a decimal digit
    ("\tt\n*\u2003pi", ("bin", "*", ("var",), ("const", "pi"))),
])
def test_the_lexer_reads_numbers_and_spaces(text, tree):
    assert parse_expression(text) == postorder(tree)


@pytest.mark.parametrize("text", ["\u00b2", "\u00bd"])
def test_numeric_characters_that_are_not_decimal_digits_are_refused(text):
    # superscript two and one half are numeric but not decimal digits: no number holds them
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert err.value.offset == 0


def test_guarded_functions_raise_at_eval():
    with pytest.raises(ExpressionDomainError):
        evaluate(parse_expression("log(t)"), -1.0)
    with pytest.raises(ExpressionDomainError):
        evaluate(parse_expression("sqrt(t)"), -4.0)
    with pytest.raises(ExpressionDomainError):
        evaluate(parse_expression("1/t"), 0.0)


def _random_tree(rng, depth):
    kinds = ["num", "var", "const"] if depth == 0 else \
        ["num", "var", "const", "neg", "call", "bin", "bin", "bin"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "num":
        return ("num", float(np.round(rng.uniform(0.0, 10.0), 3)))
    if kind == "var":
        return ("var",)
    if kind == "const":
        return ("const", ["pi", "e"][rng.integers(2)])
    if kind == "neg":
        return ("neg", _random_tree(rng, depth - 1))
    if kind == "call":
        fn = ["sin", "cos", "tan", "exp", "abs", "sign", "sinh", "cosh",
              "atan"][rng.integers(9)]
        return ("call", fn, _random_tree(rng, depth - 1))
    op = "+-*/^"[rng.integers(5)]
    return ("bin", op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_parse_pretty_print_fixed_point():
    rng = np.random.default_rng(42)
    for _ in range(100):
        tree = _random_tree(rng, int(rng.integers(1, 7)))
        assert tree_parse_expression(to_text(tree)) == tree
        assert parse_expression(to_text(tree)) == postorder(tree)


def _outcome(parse, evaluate, text, t):
    """(type, dtype, shape, bits) of the value, or (error class, message)."""
    try:
        value = evaluate(parse(text), t)
    except (ExpressionDomainError, InputError) as exc:
        return type(exc), str(exc)
    return type(value), value.dtype, np.shape(value), np.asarray(value).tobytes()


_INPUTS = [0.5, np.array(0.5), np.array([0.5]), np.linspace(-3.0, 3.0, 101),
           np.arange(-1.0, 1.4, 0.2).reshape(3, 4), np.array([]),
           np.array([np.nan, np.inf, -0.0])]


def test_programs_match_the_recursive_tree_evaluator_bit_for_bit():
    # the post-order program makes the numpy calls the recursion made, in
    # its order, so values, shapes, types and domain errors all agree
    rng = np.random.default_rng(7)
    for _ in range(5000):
        text = to_text(_random_tree(rng, int(rng.integers(1, 8))))
        for t in _INPUTS:
            assert _outcome(parse_expression, evaluate, text, t) == \
                _outcome(tree_parse_expression, tree_evaluate, text, t), (text, t)


def _from_deeper_frames(frames, f):
    return f() if frames == 0 else _from_deeper_frames(frames - 1, f)


def _parses(text):
    try:
        parse_expression(text)
    except InputError as exc:
        assert str(exc) == "expression is too deep to parse"
        return False
    return True


@pytest.mark.parametrize("nest, last", [
    (lambda n: "(" * n + "t" + ")" * n, 149),
    (lambda n: "-" * n + "t", 597),
    (lambda n: "^".join(["t"] * (n + 1)), 597),
], ids=["parentheses", "minus-signs", "powers"])
def test_depth_verdicts_do_not_depend_on_the_callers_stack(nest, last):
    # MAX_DEPTH counts the parser's own nested calls, so 300 more caller
    # frames change no verdict
    verdicts = [_parses(nest(last)), _parses(nest(last + 1))]
    assert verdicts == [True, False]
    assert _from_deeper_frames(300, lambda: [_parses(nest(last)), _parses(nest(last + 1))]) \
        == verdicts


def test_a_long_sum_evaluates_at_any_caller_depth():
    # the value stack holds two operands of a left-associative sum, however long
    t = np.linspace(0.0, 1.0, 5)
    program = parse_expression("+".join(f"cos({k}*t)" for k in range(1, 10001)))
    expected = np.cos(1.0 * t)
    for k in range(2, 10001):
        expected = expected + np.cos(float(k) * t)
    for value in (evaluate(program, t), _from_deeper_frames(300, lambda: evaluate(program, t))):
        assert value.tobytes() == expected.tobytes()
