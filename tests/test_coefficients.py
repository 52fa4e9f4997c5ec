import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import hardyspec
from hardyspec import Coefficient, parse_coefficient
from hardyspec.coefficients import constant, power_of_d
from hardyspec.errors import DivisionByZero, ParseError


def test_power_literal():
    c = parse_coefficient("d^-1.5")
    assert c.d_power() == -1.5
    assert_allclose(c.evaluate({"d": np.array([4.0])}), [4.0**-1.5])


def test_sum_of_products():
    c = parse_coefficient("-0.125*d^-2 + 5")
    d = np.array([0.5, 1.0, 2.0])
    assert_allclose(c.evaluate({"d": d}), -0.125 / d**2 + 5)


def test_double_caret_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_coefficient("d^^2")
    assert err.value.position == 2


def test_power_binds_tighter_than_product():
    c = parse_coefficient("2*d^2")
    assert_allclose(c.evaluate({"d": np.array([3.0])}), [18.0])


def test_standard_precedence():
    c = parse_coefficient("1 + 2*3 - 4/2")
    assert c.evaluate({}) == pytest.approx(5.0)


def test_unary_minus():
    c = parse_coefficient("-d + 1")
    assert_allclose(c.evaluate({"d": np.array([0.25])}), [0.75])
    c2 = parse_coefficient("2^-1")
    assert c2.evaluate({}) == pytest.approx(0.5)


def test_parentheses():
    c = parse_coefficient("(1 + d)^2")
    assert_allclose(c.evaluate({"d": np.array([1.0])}), [4.0])


def test_functions():
    env = {"d": np.array([-0.5, 0.0, 2.0])}
    assert_allclose(parse_coefficient("abs(d)").evaluate(env), [0.5, 0.0, 2.0])
    assert_allclose(parse_coefficient("pos(d)").evaluate(env), [0.0, 0.0, 2.0])
    assert_allclose(parse_coefficient("neg(d)").evaluate(env), [0.5, 0.0, 0.0])
    assert_allclose(parse_coefficient("min(d, 1)").evaluate(env), [-0.5, 0.0, 1.0])
    assert_allclose(parse_coefficient("max(d, 0.1)").evaluate(env), [0.1, 0.1, 2.0])


def test_pos_minus_neg_recovers_value():
    q = parse_coefficient("-0.3*d^-2 + x")
    env = {"d": np.linspace(0.1, 1, 17), "x": np.linspace(-1, 2, 17)}
    q_val = q.evaluate(env)
    split = q.positive_part().evaluate(env) - q.negative_part().evaluate(env)
    assert_allclose(split, q_val, rtol=0, atol=0)


def test_constant_zero_divisor_raises():
    # abs, min, max, pos and neg return numpy scalars, which numpy divides
    # by zero with only a warning; a constant zero divisor raises for all
    env = {"d": np.array([0.25, 0.5])}
    for text in ("1/0", "1/abs(0)", "1/max(0, 0)", "1/min(0, 0, 1)", "1/pos(0)",
                 "1/neg(0)", "1/pos(-2)", "d/(1 - abs(-1))", "1/(-0)"):
        with pytest.raises(DivisionByZero, match="divides by a constant zero"):
            parse_coefficient(text).evaluate(env)
    assert_allclose(parse_coefficient("1/abs(-4)").evaluate(env), 0.25)
    assert_allclose(parse_coefficient("1/max(0, 2)").evaluate(env), 0.5)
    assert_allclose(parse_coefficient("1/pos(d)").evaluate(env), [4.0, 2.0])


def test_unknown_function():
    with pytest.raises(ParseError):
        parse_coefficient("sin(d)")


def test_arity_check():
    with pytest.raises(ParseError):
        parse_coefficient("abs(d, 1)")
    with pytest.raises(ParseError):
        parse_coefficient("min(d)")


def test_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse_coefficient("1 + 2 )")
    assert err.value.position == 6


def test_empty_input():
    with pytest.raises(ParseError):
        parse_coefficient("")
    with pytest.raises(ParseError):
        parse_coefficient("   ")


def test_expected_tokens_reported():
    with pytest.raises(ParseError) as err:
        parse_coefficient("1 + ")
    assert "number" in err.value.expected


def test_unknown_variable_at_eval():
    c = parse_coefficient("y + 1")
    with pytest.raises(NameError):
        c.evaluate({"d": np.array([1.0])})


def test_variables_listing():
    c = parse_coefficient("d^2 * x1 + min(r, z)")
    assert c.variables() == {"d", "x1", "r", "z"}


def test_algebra_composition():
    a = parse_coefficient("d")
    b = constant(2.0)
    c = a * b + constant(1.0)
    assert_allclose(c.evaluate({"d": np.array([3.0])}), [7.0])
    assert_allclose((-a).evaluate({"d": np.array([3.0])}), [-3.0])


def test_scientific_notation():
    c = parse_coefficient("1e-3*d + 2.5E2")
    assert_allclose(c.evaluate({"d": np.array([1000.0])}), [251.0])


LEAVES = ("d", "x", "2.5", "d^-1.5", "2^-1", "-d^2", "(1 + d)^2", "1/(d + 2)",
          "abs(x - 1)", "min(d, x, 0.3)", "max(x, -d)", "pos(x)*neg(x - 1)")


def _compose(children):
    pairs = st.tuples(children, children)
    return st.one_of(pairs.map(lambda ab: ab[0] + ab[1]),
                     pairs.map(lambda ab: ab[0] * ab[1]),
                     children.map(lambda c: -c),
                     children.map(Coefficient.positive_part),
                     children.map(Coefficient.negative_part))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.recursive(
    st.one_of(st.sampled_from(LEAVES).map(parse_coefficient),
              st.floats(-100, 100).map(constant),
              st.sampled_from((-2.5, -1, 0, 0.5, 1, 2)).map(power_of_d)),
    _compose, max_leaves=8))
def test_printed_text_reparses_bitwise(c):
    again = parse_coefficient(c.text)
    env = {"d": np.linspace(0.05, 1, 9), "x": np.linspace(-1, 2, 9)}
    assert again.evaluate(env).tobytes() == c.evaluate(env).tobytes()
    assert again.variables() == c.variables()


def test_d_power():
    assert parse_coefficient("1").d_power() == 0.0
    assert parse_coefficient("d").d_power() == 1.0
    assert parse_coefficient("d^0.5").d_power() == 0.5
    assert power_of_d(-2).d_power() == -2.0
    for text in ("2*d^0.5", "d^0.5 + 0", "x^2", "(d)^-1 * 1"):
        assert parse_coefficient(text).d_power() is None


def test_only_coefficients_reads_the_expression_tree():
    """The expression tree is private to coefficients.py: no other module
    reads `.ast` or hands Coefficient a tree of its own."""
    package = pathlib.Path(hardyspec.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "coefficients.py":
            text = path.read_text()
            assert not re.search(r"\.ast\b", text), path.name
            assert not re.search(r"Coefficient\(\s*\(", text), path.name
