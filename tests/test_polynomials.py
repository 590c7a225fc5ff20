"""Sparse polynomial ring: arithmetic, order, reduction, text syntax."""

import random
from fractions import Fraction

import pytest

from poissonkit import (GaussRational, Polynomial, PolynomialSyntaxError,
                        VariableTable, format_polynomial, parse_polynomial,
                        reduce_mod)
from poissonkit.polynomials import MAX_NESTING, FloatPolynomials
from poissonkit.randomized import random_polynomial, random_scalar

T = VariableTable(("x1", "x2", "x3"), ("a",))


def p(text, table=T):
    return parse_polynomial(text, table)


def test_table_basics():
    assert T.names == ("x1", "x2", "x3", "a")
    assert T.n_coordinates == 3
    assert T.is_coordinate("x2")
    assert not T.is_coordinate("a")
    dropped = T.drop_coordinate("x2")
    assert dropped.coordinates == ("x1", "x3")
    assert dropped.parameters == ("a",)
    with pytest.raises(Exception):
        T.drop_coordinate("a")


def test_constructors():
    one = Polynomial.one(T)
    x1 = Polynomial.variable(T, "x1")
    mono = Polynomial.monomial(T, {"x1": 2, "a": 1}, GaussRational(3))
    assert one + x1 == p("1 + x1")
    assert mono == p("3*a*x1^2")
    assert Polynomial.zero(T).is_zero()
    assert Polynomial.constant(T, Fraction(1, 2)).is_constant()


def test_ring_identities():
    f = p("x1 + x2")
    assert f * f == p("x1^2 + 2*x1*x2 + x2^2")
    g = p("x1 - x2")
    assert f * g == p("x1^2 - x2^2")
    assert (f + g) * p("1/2") == p("x1")
    assert f - f == Polynomial.zero(T)
    assert p("(1+i)*x3") * p("(1-i)*x3") == p("2*x3^2")


def test_power():
    f = p("1 + x1")
    assert f ** 3 == p("1 + 3*x1 + 3*x1^2 + x1^3")
    assert f ** 0 == Polynomial.one(T)


def test_partial_derivative():
    f = p("x1^3*x2 + a*x2^2 + 7")
    assert f.partial_derivative("x1") == p("3*x1^2*x2")
    assert f.partial_derivative("x2") == p("x1^3 + 2*a*x2")
    assert f.partial_derivative("x3").is_zero()


def test_degrees_and_content():
    f = p("a*x1^2*x2 + x3")
    assert f.coordinate_degree() == 3
    assert not f.is_constant()
    assert p("a*x1 + x2").homogeneous_degree() == 1
    assert p("x1 + x2^2").homogeneous_degree() is None


def test_evaluate_exact_and_float():
    f = p("x1^2 + a*x2")
    values = {"x1": GaussRational(2), "x2": GaussRational(3),
              "x3": GaussRational(0), "a": GaussRational(Fraction(1, 3))}
    assert f.evaluate(values) == GaussRational(5)
    approx = f.evaluate_float({"x1": 2.0, "x2": 3.0, "x3": 0.0, "a": 1 / 3})
    assert abs(approx - 5.0) < 1e-12


def test_evaluate_float_names_first_unassigned_variable():
    with pytest.raises(KeyError, match="'x2'"):
        p("x3 + a*x2").evaluate_float({"a": 1.0})
    # a variable absent from the polynomial need not be assigned
    assert p("x1 + 2").evaluate_float({"x1": 1.0}) == 3


def _compiled_matches_exact(rng, zeros):
    polys = [random_polynomial(rng, T, max_terms=6, max_degree=4, bound=5)
             for _ in range(5)]
    point = {name: random_scalar(rng, 3) for name in T.names}
    for name in zeros:
        point[name] = GaussRational(0)
    values = FloatPolynomials(T, polys).evaluate(point)
    assert len(values) == len(polys)
    for f, value in zip(polys, values):
        exact = complex(f.evaluate(point))
        assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))
        assert f.evaluate_float(point) == pytest.approx(exact, rel=1e-12,
                                                        abs=1e-12)


def test_compiled_evaluation_matches_exact():
    rng = random.Random(1312)
    for _ in range(40):
        _compiled_matches_exact(rng, ())


def test_compiled_evaluation_at_zero_coordinates():
    # 0^0 = 1: a zero coordinate kills only the monomials that contain it
    rng = random.Random(3596)
    for _ in range(40):
        _compiled_matches_exact(rng, rng.sample(T.names, rng.randint(1, 4)))
    f = p("3 + x1^2*x2 + a")
    assert f.evaluate_float({"x1": 0.0, "x2": 5.0, "a": 0.0}) == 3


def test_compiled_form_layout():
    compiled = FloatPolynomials(T, [p("x1^2 + 2*x2"), p("x2 - i*a"), p("0")])
    # monomials in canonical order of first appearance, one row each
    assert compiled.exponents.tolist() == [[2, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 0, 1]]
    assert compiled.coefficients.tolist() == [[1, 2, 0], [0, 1, -1j],
                                              [0, 0, 0]]
    assert compiled([1.0, 2.0, 0.0, 3.0]).tolist() == [5, 2 - 3j, 0]
    with pytest.raises(ValueError):
        FloatPolynomials(T, [p("x1"), p("y", VariableTable(("y",)))])
    assert FloatPolynomials(T, []).evaluate({}).tolist() == []


def test_substitute_is_a_ring_map():
    f = p("x1*x2 + x3")
    image = f.substitute({"x1": p("x1 + 1")})
    assert image == p("x1*x2 + x2 + x3")


def test_graded_lex_leading_monomial():
    # total degree first, then lexicographic position by position
    f = p("x1^2 + x1*x2^2")
    assert f.leading_monomial() == (1, 2, 0, 0)
    g = p("x1 + x2")
    assert g.leading_monomial() == (1, 0, 0, 0)


def test_reduce_mod_exact_division():
    f = p("x1^2 + x1*x2")
    quotient, remainder = reduce_mod(f, p("x1"))
    assert remainder.is_zero()
    assert quotient == p("x1 + x2")


def test_reduce_mod_remainder():
    quotient, remainder = reduce_mod(p("x1^2 + x2"), p("x1"))
    assert quotient == p("x1")
    assert remainder == p("x2")
    q2, r2 = reduce_mod(p("x1^2*x2 + x1 + 5"), p("x1 - x2"))
    assert q2 * p("x1 - x2") + r2 == p("x1^2*x2 + x1 + 5")
    # remainder contains no monomial divisible by the leading monomial of g
    assert all(exps[0] == 0 for exps in r2.terms)


def test_format_parse_round_trip():
    samples = [
        "0",
        "1",
        "-x1",
        "x1^2*x2 - 2*x3",
        "1/2*a*x1 + 5/3",
        "i*x2^4 - 3*i",
        "x1*x2*x3 + x1*x2 + x1 + 1",
    ]
    for text in samples:
        f = p(text)
        assert parse_polynomial(format_polynomial(f), T) == f
        # formatting is stable under a second pass
        assert format_polynomial(parse_polynomial(format_polynomial(f), T)) \
            == format_polynomial(f)


def test_parser_rejects_bad_input():
    for bad in ("x9", "x1 +* x2", "x1^", "(x1", "x1^-2"):
        with pytest.raises(PolynomialSyntaxError):
            p(bad)


def test_parser_bounds_nesting_depth():
    deepest = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert p(deepest) == p("x1")
    for depth in (MAX_NESTING + 1, 3000):
        text = "(" * depth + "x1" + ")" * depth
        with pytest.raises(PolynomialSyntaxError,
                           match=f"position {MAX_NESTING}"):
            p(text)
    # depth counts open parentheses, not parenthesized groups in a row
    assert p(" + ".join(["(x1)"] * (2 * MAX_NESTING))) == p(f"{2 * MAX_NESTING}*x1")


def test_parser_grammar():
    assert p("-(x1 - x2)^2") == p("-x1^2 + 2*x1*x2 - x2^2")
    assert p("2^3*x1") == p("8*x1")
    assert p("x1 - (-x2)") == p("x1 + x2")
    with pytest.raises(PolynomialSyntaxError):
        p("x1 - -x2")
