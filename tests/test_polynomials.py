"""Sparse polynomial ring: arithmetic, order, reduction, text syntax."""

import random
import re
import sys
from fractions import Fraction

import pytest

from poissonkit import (GaussRational, Polynomial, PolynomialSyntaxError,
                        VariableTable, format_polynomial, parse_polynomial,
                        parse_scalar, reduce_mod)
from poissonkit import documents, polynomials
from poissonkit.polynomials import (MAX_DEGREE, MAX_EXPONENT, MAX_NESTING,
                                    MAX_TERMS, MAX_TEXT_TERMS, _term_bound)
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
    # a double is read exactly: 1/3 as a double is not 1/3
    third = GaussRational(1 / 3)
    assert third != GaussRational(Fraction(1, 3))
    assert f.evaluate(dict(values, a=third)) == 4 + 3 * third
    # a float itself is no scalar
    with pytest.raises(TypeError, match="float"):
        f.evaluate(dict(values, a=1 / 3))


def _term_by_term(f, values):
    """The sum over the terms of coefficient times each value to its
    exponent, in GaussRational arithmetic."""
    total = GaussRational(0)
    for exps, coeff in f.terms.items():
        for name, e in zip(T.names, exps):
            for _ in range(e):
                coeff = coeff * values[name]
        total = total + coeff
    return total


def test_evaluate_matches_a_term_by_term_sum():
    rng = random.Random(2718)
    for _ in range(200):
        f = random_polynomial(rng, T, max_terms=8, max_degree=6, bound=5)
        values = {name: GaussRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
            for name in T.names}
        if rng.random() < 0.25:
            values[rng.choice(T.names)] = GaussRational(0)
        value = f.evaluate(values)
        assert value == _term_by_term(f, values)
        # the triple is in normal form: the validating constructor agrees
        assert value._t == GaussRational(value.re, value.im)._t
    assert p("0").evaluate({}) == GaussRational(0)


def test_compiled_evaluation_at_zero_coordinates():
    # 0^0 = 1: a zero coordinate kills only the monomials that contain it
    rng = random.Random(3596)
    for _ in range(40):
        f = random_polynomial(rng, T, max_terms=8, max_degree=6, bound=5)
        values = {name: GaussRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
            for name in T.names}
        for name in rng.sample(T.names, rng.randint(1, 4)):
            values[name] = GaussRational(0)
        assert f.evaluate(values) == _term_by_term(f, values)
    assert p("3 + x1^2*x2 + a").evaluate({"x1": 0, "x2": 5, "a": 0}) == \
        GaussRational(3)


def test_evaluate_names_first_unassigned_variable():
    with pytest.raises(KeyError) as caught:
        p("x3 + a*x2 + x1").evaluate({"x1": 1})
    assert caught.value.args == ("unassigned variable: 'a'",)
    # a variable absent from the polynomial need not be assigned
    assert p("x1 + 2").evaluate({"x1": Fraction(1, 2)}) == \
        GaussRational(Fraction(5, 2))


def test_evaluate_float_names_first_unassigned_variable():
    # a point in float syntax, as `jet --point` takes it, is read exactly
    # and evaluated like any other
    def point(text):
        return documents.parse_assignments(text, T, float_syntax=True)

    with pytest.raises(KeyError, match="'x2'"):
        p("x3 + a*x2").evaluate(point("a=1.0"))
    # a variable absent from the polynomial need not be assigned
    assert p("x1 + 2").evaluate(point("0.5")) == GaussRational(Fraction(5, 2))
    assert p("x1 + 2").evaluate(point("0.1")) == 2 + GaussRational(0.1)


def _restricted(f, keep):
    """The terms of f whose variables all lie in `keep`."""
    return Polynomial(T, {exps: c for exps, c in f.terms.items()
                          if all(name in keep for name, e in zip(T.names, exps)
                                 if e)})


def test_batch_evaluation_matches_a_term_by_term_sum():
    # shared and disjoint variables, zero polynomials, zero coordinates
    # (0^0 = 1), the parameter, and one polynomial given twice
    rng = random.Random(1414)
    disjoint = zeros = 0
    for _ in range(150):
        fs = [_restricted(random_polynomial(rng, T, max_terms=6, max_degree=5,
                                            bound=5),
                          rng.sample(T.names, rng.randint(0, len(T.names))))
              for _ in range(rng.randint(1, 5))]
        fs.insert(rng.randrange(len(fs) + 1), rng.choice(fs))
        fs.insert(rng.randrange(len(fs) + 1), Polynomial.zero(T))
        values = {name: GaussRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
            for name in T.names}
        for name in rng.sample(T.names, rng.randint(0, 2)):
            values[name] = GaussRational(0)
        got = polynomials._values(T, [f._raw for f in fs], values)
        assert got == [_term_by_term(f, values) for f in fs]
        assert all(z._t == GaussRational(z.re, z.im)._t for z in got)
        used = [f.variables_present() for f in fs if not f.is_zero()]
        disjoint += any(not a & b for a in used for b in used if a and b)
        zeros += any(not v for v in values.values())
    assert disjoint and zeros
    assert polynomials._values(T, [], {}) == []


def _outcome(function):
    try:
        return function()
    except (KeyError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def test_batch_evaluation_names_the_variable_one_at_a_time_would():
    rng = random.Random(1732)
    named = set()
    for _ in range(300):
        fs = [random_polynomial(rng, T, max_terms=4, max_degree=3)
              for _ in range(rng.randint(1, 5))]
        # each point leaves out a different subset of the variables
        values = {name: GaussRational(rng.randint(-3, 3))
                  for name in T.names if rng.random() < 0.7}
        batch = _outcome(lambda: polynomials._values(
            T, [f._raw for f in fs], values))
        assert batch == _outcome(lambda: [f.evaluate(values) for f in fs])
        if batch[0] == "KeyError":
            named.add(batch[1])
    assert len(named) == len(T.names)
    # a float is no scalar, in a batch as alone
    with pytest.raises(TypeError, match="float"):
        polynomials._values(T, [p("x1")._raw, p("a")._raw],
                            {"x1": 1, "a": 0.5})


def test_substitute_is_a_ring_map():
    def substitute(f, images):
        return polynomials._wrapped(T, polynomials._substituted(
            f._raw, T, images))

    f = p("x1*x2 + x3")
    image = substitute(f, {"x1": p("x1 + 1")})
    assert image == p("x1*x2 + x2 + x3")


def test_graded_lex_leading_monomial():
    # total degree first, then lexicographic position by position: the
    # leading monomial is the largest packed key
    f = p("x1^2 + x1*x2^2")
    assert T._unpack(max(f._raw)) == (1, 2, 0, 0)
    g = p("x1 + x2")
    assert T._unpack(max(g._raw)) == (1, 0, 0, 0)


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


# A superscript two and an Arabic-Indic three pass str.isdigit, and the
# three even int(), but an integer literal is ASCII digits only.
@pytest.mark.parametrize("text, at", [("x1^\u00b2", 3), ("\u00b2*x1", 0),
                                      ("x1^\u0663", 3), ("\u0663*x1", 0)])
def test_integer_literals_are_ascii_digits(text, at):
    char = text[at]
    with pytest.raises(PolynomialSyntaxError, match=re.escape(
            f"unexpected character {char!r} at position {at}") + "$"):
        p(text)
    with pytest.raises(PolynomialSyntaxError):
        parse_scalar(char)


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


def test_parser_bounds_exponents():
    assert p(f"x1^{MAX_EXPONENT}") == p("x1") ** MAX_EXPONENT
    assert p(f"(x1 + x2)^00{MAX_EXPONENT}") == p("x1 + x2") ** MAX_EXPONENT
    for text, at in ((f"x1^{MAX_EXPONENT + 1}", 3), ("2 + (x1 - x3)^40", 14),
                     ("x1^" + "9" * 5000, 3), ("x1^0000021", 3)):
        with pytest.raises(PolynomialSyntaxError,
                           match=f"exponent larger than {MAX_EXPONENT}: "
                                 f".* at position {at}$"):
            p(text)


def test_parser_bounds_total_degree_before_expanding():
    top = p(f"x1^{MAX_EXPONENT}*a^{MAX_DEGREE - MAX_EXPONENT}")
    assert max(map(sum, top.terms)) == MAX_DEGREE
    assert p(f"(x1 - x2)^{MAX_DEGREE // 5}*(x1 - x2)^5").terms  # in bound
    # the outer power would expand 231 terms to degree 400: refused first
    outer = "((x1+x2+x3)^20)^20"
    chain = f"x1^{MAX_EXPONENT}*x2*a^{MAX_DEGREE - MAX_EXPONENT}"
    last = f"3 + x1^{MAX_EXPONENT}*x2^{MAX_DEGREE - MAX_EXPONENT + 1}"
    for text, at, degree in ((outer, outer.rindex("^") + 1, 400),
                             (chain, chain.rindex("*"), MAX_DEGREE + 1),
                             (last, last.index("*"), MAX_DEGREE + 1),
                             ("(x1*x2^2*a^3)^5", 14, 30)):
        with pytest.raises(PolynomialSyntaxError,
                           match=f"degree {degree} larger than {MAX_DEGREE}: "
                                 f".* at position {at}$"):
            p(text)


def test_term_bound_holds_and_is_tight_on_dense_powers():
    rng = random.Random("term-bound")
    for _ in range(300):
        f = random_polynomial(rng, T, max_terms=4, max_degree=3)
        g = random_polynomial(rng, T, max_terms=4, max_degree=3)
        e = rng.randint(0, 4)
        assert len((f ** e * g).terms) <= _term_bound(f, g, e)
        zero = f * 0
        assert len((zero ** e * g).terms) <= _term_bound(zero, g, e)
    W = VariableTable(tuple(f"x{k}" for k in range(1, 9)))
    linear = p("+".join(W.coordinates), W)
    assert _term_bound(linear, Polynomial.one(W), 10) == 19448
    assert _term_bound(linear ** 4, linear ** 4, 1) == 6435 == len(
        (linear ** 8).terms)


def test_parser_bounds_term_count_before_expanding():
    W = VariableTable(tuple(f"x{k}" for k in range(1, 9)))
    linear = "(" + "+".join(W.coordinates) + ")"
    assert len(p(f"{linear}^3*{linear}^4", W).terms) == 3432  # in bound
    power, product = f"{linear}^10", f"{linear}^4*{linear}^5"
    for text, at, terms in ((power, power.rindex("^") + 1, 19448),
                            (product, product.index("*"), 11440),
                            (f"2 + {power}", power.rindex("^") + 5, 19448)):
        with pytest.raises(PolynomialSyntaxError,
                           match=f"up to {terms} terms, more than "
                                 f"{MAX_TERMS}: .* at position {at}$"):
            p(text, W)


def test_parser_bounds_the_terms_of_a_whole_text():
    W = VariableTable(tuple(f"x{k}" for k in range(1, 6)))
    copy = "(x1+x2+x3+x4+x5)^8*(x1+x2+x3+x4+x5)^8"
    assert len(p(copy, W).terms) == 4845  # charged 495 + 495 + 4,845
    text = " + ".join([copy] * 3)
    at = len(copy) + 3 + copy.index("*")  # the second copy's product
    with pytest.raises(PolynomialSyntaxError,
                       match=f"up to 11670 terms in all, more than "
                             f"{MAX_TEXT_TERMS}: '\\*' at position {at}$"):
        p(text, W)
    # constant factors are charged too, so they cannot repeat a large
    # product without end
    big = "(x1+x2+x3+x4+x5)^4"
    with pytest.raises(PolynomialSyntaxError, match="terms in all"):
        p(big + "*2" * (MAX_TEXT_TERMS // 70 + 1), W)  # 70 terms each
    # products of monomials are not charged: a long canonical sum reads back
    rng = random.Random("long-sum")
    terms = {tuple(rng.randint(0, 5) for _ in range(W.width)):
             random_scalar(rng) for _ in range(3000)}
    long_sum = Polynomial(W, terms)
    text = format_polynomial(long_sum)
    assert text.count("*") > MAX_TEXT_TERMS
    assert p(text, W) == long_sum


def test_parser_rejects_integer_literals_int_cannot_read():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads integer literals of any length")
    digits = "7" * (limit + 1)
    for text, at in ((f"x1*{digits}", 3), (f"1/{digits}*x1", 2),
                     (f"x2 + {digits}/3", 5)):
        with pytest.raises(PolynomialSyntaxError,
                           match=f"integer literal of {limit + 1} digits is "
                                 f"too long at position {at}$"):
            p(text)
    assert p(f"x1*{'7' * limit}").terms


def test_parser_grammar():
    assert p("-(x1 - x2)^2") == p("-x1^2 + 2*x1*x2 - x2^2")
    assert p("2^3*x1") == p("8*x1")
    assert p("x1 - (-x2)") == p("x1 + x2")
    with pytest.raises(PolynomialSyntaxError):
        p("x1 - -x2")
