"""Results the kernel builds itself skip validation but stay canonical.

Arithmetic, partial derivatives, sums and wedges go through one trusted
constructor per class, which still drops zero coefficients; the public
constructors keep every check for callers and for documents.
"""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from poissonkit import (DifferentialForm, GaussRational, Multivector,
                        Polynomial, VariableTable, exterior_derivative,
                        multivectors, parse_polynomial, polynomials, scalars,
                        schouten)
from poissonkit.cli import main
from poissonkit.randomized import random_element, random_polynomial

T = VariableTable(("x", "y", "z"), ("a",))
T4 = VariableTable(("x1", "x2", "x3", "x4"))


def p(text, table=T):
    return parse_polynomial(text, table)


def stores_no_zero(value):
    """True when no stored coefficient is zero, all the way down."""
    if isinstance(value, Polynomial):
        return all(not c.is_zero() for c in value.terms.values())
    return all(c.terms and stores_no_zero(c) for c in value.terms.values())


def test_cancelling_sums_and_products_store_nothing():
    x, y = p("x"), p("y")
    for zero in (x * y + (-x) * y, x * y - y * x, p("(1/2+i)*x") - p("(1/2+i)*x"),
                 (x + y) * (x - y) - x * x + y * y):
        assert zero.is_zero() and zero.terms == {}
    # (x + y)(x - y): the cross terms cancel inside one product
    difference = (x + y) * (x - y)
    assert difference.terms.keys() == p("x^2 - y^2").terms.keys()
    assert stores_no_zero(difference)
    assert p("x^2 - 2*a*x").partial_derivative("y").terms == {}


def test_cancelling_wedges_store_nothing():
    a = Multivector(T, 1, {(0,): p("x"), (1,): p("y")})
    square = a.wedge(a)  # x y xi0^xi1 + y x xi1^xi0 = 0
    assert square.is_zero() and square.terms == {}
    b = Multivector(T, 1, {(0,): p("y"), (1,): p("-x")})
    c = Multivector(T, 1, {(0,): p("x"), (1,): p("y")})
    # a^b - c^b cancels term by term
    assert (a.wedge(b) + (-c.wedge(b))).terms == {}
    assert (a + (-a)).terms == {}
    assert exterior_derivative(exterior_derivative(p("x^2*y*a"))).terms == {}


@pytest.mark.parametrize("seed", range(0, 600, 10))
def test_trusted_results_equal_validated_ones(seed):
    rng = random.Random(seed)
    f, g = (random_polynomial(rng, T, max_terms=4, bound=5) for _ in range(2))
    for h in (f + g, f - g, -f, f * g, f * (g - f), f.partial_derivative("x"),
              f * g - g * f, f - f):
        assert stores_no_zero(h)
        assert Polynomial(h.table, h.terms) == h
    degrees = [rng.randint(0, 3) for _ in range(2)]
    u, v = (random_element(rng, T4, d, max_components=3) for d in degrees)
    w = random_element(rng, T4, degrees[0], max_components=3)
    for e in (u + w, u.wedge(v), u.wedge(u), schouten(u, v), u + (-u)):
        assert stores_no_zero(e)
        assert Multivector(e.table, e.degree, e.terms) == e


def test_public_polynomial_constructor_still_validates():
    one = p("1")
    with pytest.raises(ValueError):
        Polynomial(T, {(1, 0): one.constant_value()})  # wrong width
    with pytest.raises(ValueError):
        Polynomial(T, {(1, -1, 0, 0): 1})  # negative exponent
    with pytest.raises(TypeError):
        Polynomial(T, {(0, 0, 0, 0): "1"})  # not a scalar
    assert Polynomial(T, {(1, 0, 0, 0): 0}).terms == {}


def test_public_element_constructors_still_validate():
    one = Polynomial.one(T4)
    for cls in (Multivector, DifferentialForm):
        with pytest.raises(ValueError):
            cls(T4, 2, {(1, 0): one})  # not increasing
        with pytest.raises(ValueError):
            cls(T4, 2, {(0,): one})  # wrong arity
        with pytest.raises(ValueError):
            cls(T4, 1, {(4,): one})  # out of range
        with pytest.raises(ValueError):
            cls(T4, 1, {(0,): p("x")})  # coefficient on another table
        with pytest.raises(TypeError):
            cls(T4, 1, {(0,): 1})  # not a Polynomial


def _document(indices, exponents, degree=2):
    return {"kind": "multivector", "coordinates": ["x1", "x2", "x3"],
            "parameters": [], "degree": degree,
            "terms": [{"coeff": "1", "exponents": exponents,
                       "indices": indices}]}


@pytest.mark.parametrize("doc", [
    _document([1, 0], {"x1": 1}),
    _document([0, 0], {"x1": 1}),
    _document([0, 3], {"x1": 1}),
    _document([0], {"x1": 1}),
    _document([0, 1], {"x1": -1}),
])
def test_parse_exits_two_on_bad_tuples(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["parse", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_values_copy_deepcopy_and_pickle():
    f = p("(1/2+i)*x^2*a - 3/4*y")
    values = [GaussRational(Fraction(1, 2), -3), T, f,
              Multivector(T, 2, {(0, 1): f, (1, 2): p("z")}),
              DifferentialForm(T, 1, {(2,): f})]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            with pytest.raises(AttributeError):
                twin.table = T4


def test_writing_into_terms_leaves_the_value_unchanged():
    text = "(1/2+i)*x^2*a - 3/4*y"
    f, twin = p(text), p(text)
    before = hash(f)
    terms = f.terms
    terms[(0, 0, 0, 0)] = GaussRational(5)
    terms[(0, 1, 0, 0)] = GaussRational(0)
    del terms[(2, 0, 0, 1)]
    assert f == twin and hash(f) == before and f.terms == twin.terms
    assert stores_no_zero(f) and str(f) == str(twin)
    for cls in (Multivector, DifferentialForm):
        element = cls(T, 1, {(0,): f, (2,): p("z")})
        same = cls(T, 1, {(0,): twin, (2,): p("z")})
        before = hash(element)
        with pytest.raises(TypeError):
            element.terms[(1,)] = p("y")
        with pytest.raises(TypeError):
            del element.terms[(0,)]
        assert element == same and hash(element) == before
        assert dict(element.terms) == dict(same.terms)


def test_unpickling_goes_through_the_validating_constructors():
    # values the trusted constructors build without checks
    one = Polynomial.one(T)
    # a packed key whose last field has reached its guard bit
    bad_field = polynomials._from_raw(T, {polynomials.FIELD_LIMIT: (1, 0, 1)})
    bad_arity = multivectors._built(Multivector, T, 1, {
        0b11 << T._mask_shift | key: t for key, t in one._raw.items()})
    twice = object.__new__(VariableTable)
    for name, value in (("coordinates", ("x", "x")), ("parameters", ()),
                        ("_slots", {"x": 1})):
        object.__setattr__(twice, name, value)
    for forged in (bad_field, bad_arity, twice):
        data = pickle.dumps(forged)
        with pytest.raises(ValueError):
            pickle.loads(data)
    # an unreduced triple comes back in lowest terms
    assert pickle.loads(pickle.dumps(scalars._make(2, 4, 2)))._t == (1, 2, 1)
