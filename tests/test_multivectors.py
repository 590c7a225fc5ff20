"""Super-polynomial layer: wedge, contraction, d, bracket, curl."""

import copy
import pickle
from fractions import Fraction

import pytest

from poissonkit import (BV_SIGN, DifferentialForm, GaussRational, Multivector,
                        Polynomial, VariableTable, VolumeCurl, bv_laplacian,
                        contract, curl, exterior_derivative,
                        parse_polynomial, schouten, volume_isomorphism,
                        volume_isomorphism_inverse, wedge)

T2 = VariableTable(("x1", "x2"), ("l12",))
T3 = VariableTable(("x1", "x2", "x3"))
T4 = VariableTable(("x1", "x2", "x3", "x4"))


def p(text, table):
    return parse_polynomial(text, table)


def mv(table, entries, degree=None):
    """entries: {indices: poly_text}"""
    parsed = {ix: p(text, table) for ix, text in entries.items()}
    if degree is None:
        degree = len(next(iter(parsed)))
    return Multivector(table, degree, parsed)


def vector(table, components):
    return mv(table, {(k,): text for k, text in components.items()}, degree=1)


def test_construction_validates():
    with pytest.raises(ValueError):
        Multivector(T3, 2, {(1, 0): Polynomial.one(T3)})  # not increasing
    with pytest.raises(ValueError):
        Multivector(T3, 2, {(0,): Polynomial.one(T3)})  # wrong arity
    with pytest.raises(ValueError):
        Multivector(T3, 1, {(5,): Polynomial.one(T3)})  # out of range
    zero = Multivector.zero(T3, 2)
    assert zero.is_zero() and zero.degree == 2


def test_wedge_basics():
    xi1 = Multivector.basis(T3, (0,))
    xi2 = Multivector.basis(T3, (1,))
    assert wedge(xi1, xi2) == Multivector.basis(T3, (0, 1))
    assert wedge(xi2, xi1) == -Multivector.basis(T3, (0, 1))
    assert wedge(xi1, xi1).is_zero()
    f = Multivector.from_polynomial(p("x1 + 2", T3))
    assert wedge(f, xi1) == mv(T3, {(0,): "x1 + 2"})


def test_wedge_koszul_sign():
    a = mv(T4, {(0, 1): "1"})
    b = mv(T4, {(2, 3): "1"})
    assert wedge(a, b) == wedge(b, a)  # even degrees commute
    v = mv(T4, {(0,): "1"})
    w = mv(T4, {(1, 2, 3): "1"})
    assert wedge(v, w) == -wedge(w, v)
    # interleaved indices pick up the inversion count: (1,3,0,2) has 3
    c = mv(T4, {(1, 3): "1"})
    d = mv(T4, {(0, 2): "1"})
    assert wedge(c, d) == mv(T4, {(0, 1, 2, 3): "-1"})


def test_contract_pairing():
    dx1 = DifferentialForm.basis(T3, (0,))
    xi1 = Multivector.basis(T3, (0,))
    xi2 = Multivector.basis(T3, (1,))
    assert contract(dx1, xi1) == Multivector.from_polynomial(p("1", T3))
    assert contract(dx1, xi2).is_zero()
    # on a 2-vector, contraction removes the matching slot
    a = mv(T3, {(0, 1): "x3"})
    assert contract(dx1, a) == mv(T3, {(1,): "x3"})
    dx2 = DifferentialForm.basis(T3, (1,))
    assert contract(dx2, a) == mv(T3, {(0,): "-x3"})


def test_contract_is_linear_in_the_form():
    eta = exterior_derivative(p("x1*x2", T3))
    a = mv(T3, {(0, 1): "x1", (1, 2): "x3"})
    split = contract(DifferentialForm.basis(T3, (0,), p("x2", T3)), a) \
        + contract(DifferentialForm.basis(T3, (1,), p("x1", T3)), a)
    assert contract(eta, a) == split


def test_exterior_derivative():
    f = p("x1*x2", T3)
    df = exterior_derivative(f)
    assert df == DifferentialForm(T3, 1, {(0,): p("x2", T3), (1,): p("x1", T3)})
    omega = DifferentialForm(T3, 1, {(0,): p("x2", T3)})
    domega = exterior_derivative(omega)
    assert domega == DifferentialForm(T3, 2, {(0, 1): p("-1", T3)})
    assert exterior_derivative(domega).is_zero()


def _slot_contract(element, k):
    """Remove generator k, moving it to the front first (Koszul sign)."""
    terms = {}
    for indices, coeff in element.terms.items():
        if k in indices:
            pos = indices.index(k)
            terms[indices[:pos] + indices[pos + 1:]] = (
                coeff if pos % 2 == 0 else -coeff)
    return type(element)(element.table, max(element.degree - 1, 0), terms)


def test_odd_partial_moves_to_front():
    a = mv(T3, {(0, 1): "x3"})
    assert _slot_contract(a, 0) == mv(T3, {(1,): "x3"})
    assert _slot_contract(a, 1) == mv(T3, {(0,): "-x3"})
    assert _slot_contract(a, 2).is_zero()


def test_bracket_anchors():
    xi1 = Multivector.basis(T2, (0,))
    x1 = Multivector.from_polynomial(p("x1", T2))
    assert schouten(xi1, x1) == Multivector.from_polynomial(p("1", T2))
    assert schouten(x1, xi1) == Multivector.from_polynomial(p("-1", T2))


def test_bracket_of_vector_fields_is_lie_bracket():
    v = vector(T3, {0: "x2"})       # x2 d/dx1
    w = vector(T3, {1: "x3"})       # x3 d/dx2
    # [v, w] = v(x3) d/dx2 - w(x2) d/dx1 = -x3 d/dx1
    assert schouten(v, w) == vector(T3, {0: "-x3"})
    h = Multivector.from_polynomial(p("x1^2", T3))
    assert schouten(v, h) == Multivector.from_polynomial(p("2*x1*x2", T3))


def test_bracket_with_bivector_gives_hamiltonian_field():
    biv = mv(T2, {(0, 1): "l12*x1*x2"})
    f = Multivector.from_polynomial(p("x1", T2))
    # [Pi, f] = -contract(df, Pi)
    expected = contract(exterior_derivative(p("x1", T2)), biv)
    assert schouten(biv, f) == -expected
    assert expected == vector(T2, {1: "l12*x1*x2"})


def test_volume_isomorphism_and_inverse():
    a = mv(T2, {(0,): "x2"})
    omega = volume_isomorphism(a)
    assert omega == DifferentialForm(T2, 1, {(1,): p("x2", T2)})
    b = Multivector.basis(T2, (1,))
    assert volume_isomorphism(b) == DifferentialForm(T2, 1, {(0,): p("-1", T2)})
    for element in (a, b, mv(T2, {(0, 1): "x1*x2"}),
                    Multivector.from_polynomial(p("x1", T2))):
        assert volume_isomorphism_inverse(volume_isomorphism(element)) == element


def test_curl_divergence_of_vector_field():
    v = vector(T3, {0: "x1^2", 1: "x1*x2"})
    # divergence 2*x1 + x1
    assert curl(v) == Multivector.from_polynomial(p("3*x1", T3))


def test_curl_of_diagonal_bivector():
    biv = mv(T2, {(0, 1): "l12*x1*x2"})
    assert curl(biv) == mv(T2, {(0,): "l12*x1", (1,): "-l12*x2"}, degree=1)


def test_bv_laplacian_squares_to_zero_and_matches_curl():
    a = mv(T4, {(0, 1): "x1*x3^2", (2, 3): "x2"})
    assert bv_laplacian(bv_laplacian(a)).is_zero()
    assert curl(a) == bv_laplacian(a) * (-1) ** (a.degree + 1)


def test_bv_relation_generates_bracket():
    a = mv(T4, {(0,): "x1*x2"}, degree=1)
    b = mv(T4, {(1, 2): "x3^2 + x4"})
    defect = bv_laplacian(wedge(a, b)) - wedge(bv_laplacian(a), b) \
        - wedge(a, bv_laplacian(b)) * (-1) ** a.degree
    assert defect == schouten(a, b) * (BV_SIGN * (-1) ** a.degree)


def test_volume_curl_pair():
    a = mv(T2, {(0, 1): "l12*x1*x2"})
    u = p("1 + x1^2", T2)
    pair = curl(a, u)
    assert isinstance(pair, VolumeCurl)
    assert pair.main == curl(a)
    assert pair.correction == -contract(exterior_derivative(u), a)
    assert pair.denominator == u
    # constant unit collapses to the plain curl
    assert curl(a, p("7", T2)) == curl(a)
    with pytest.raises(ZeroDivisionError):
        curl(a, Polynomial.zero(T2))


def test_volume_curl_copies_and_pickles_through_its_constructor():
    pair = curl(mv(T2, {(0, 1): "l12*x1*x2"}), p("1 + x1", T2))
    for twin in (copy.copy(pair), copy.deepcopy(pair),
                 pickle.loads(pickle.dumps(pair))):
        assert type(twin) is VolumeCurl
        assert (twin.main, twin.correction, twin.denominator) == (
            pair.main, pair.correction, pair.denominator)
        with pytest.raises(AttributeError):
            twin.main = pair.correction
    forged = object.__new__(VolumeCurl)
    for name, value in (("main", pair.main), ("correction", pair.correction),
                        ("denominator", Polynomial.zero(T2))):
        object.__setattr__(forged, name, value)
    with pytest.raises(ZeroDivisionError):
        pickle.loads(pickle.dumps(forged))
    with pytest.raises(ValueError):
        VolumeCurl(pair.main, pair.correction, p("1 + x1", T3))
    with pytest.raises(TypeError):
        VolumeCurl(pair.main, pair.correction, 2)


def test_scalar_factors_scale_like_constant_polynomials():
    a = mv(T2, {(0, 1): "(1/2+i)*l12*x1*x2 - 3*x2"})
    form = DifferentialForm(T3, 1, {(0,): p("x1 - 2/3*x3", T3),
                                    (2,): p("i*x2", T3)})
    for element in (a, form, Multivector.zero(T2, 2)):
        for factor in (3, -1, 0, Fraction(-2, 7), GaussRational(1, -5),
                       GaussRational(0, 1)):
            constant = Polynomial.constant(element.table, factor)
            scaled = element * factor
            assert type(scaled) is type(element)
            assert scaled == element * constant == factor * element
            assert scaled.degree == element.degree
            assert all(c for c in scaled.terms.values())
    assert (a * 0).terms == {}


def test_volume_curl_evaluate():
    a = mv(T2, {(0, 1): "x1*x2"})
    pair = curl(a, p("1 + x1", T2))
    values = {"x1": GaussRational(1), "x2": GaussRational(2),
              "l12": GaussRational(0)}
    u = pair.denominator.evaluate(values)
    assert u == GaussRational(2)
    # main (1, -2) plus correction (0, -2) divided by u = 2
    for ix, expected in {(0,): 1, (1,): -3}.items():
        zero = Polynomial.zero(T2)
        main = pair.main.terms.get(ix, zero).evaluate(values)
        correction = pair.correction.terms.get(ix, zero).evaluate(values)
        assert main + correction / u == GaussRational(expected)


def test_schouten_rejects_mismatched_tables():
    other = Multivector.basis(VariableTable(("y1",)), (0,))
    with pytest.raises(Exception):
        schouten(Multivector.basis(T2, (0,)), other)


def _dense_bivector(records):
    """`records` distinct terms on 13 coordinates whose monomials hold
    every coordinate: [Pi, Pi] costs about 2 * records^2 term products."""
    table = VariableTable(tuple(f"x{k}" for k in range(1, 14)))
    pairs = [(i, j) for i in range(13) for j in range(i + 1, 13)]
    terms = {}
    for r in range(records):
        exps = [1] * 13
        exps[r % 13] += 1 + r // 169
        exps[r // 13 % 13] += 1
        terms.setdefault(pairs[r % 78], {})[tuple(exps)] = GaussRational(1)
    return Multivector(table, 2, {ix: Polynomial(table, t)
                                  for ix, t in terms.items()})


def test_schouten_refuses_past_the_bound_before_any_product(monkeypatch):
    from poissonkit import multivectors, polynomials

    calls = []
    original = polynomials._mul_into

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(polynomials, "_mul_into", counting)
    pi = _dense_bivector(708)
    limit = multivectors.MAX_BRACKET_PRODUCTS
    with pytest.raises(ValueError, match=f"^the Schouten bracket takes "
                                         f"1002528 term products, more "
                                         f"than {limit}$"):
        schouten(pi, pi)
    # an equal copy takes the one-sum path too
    copy_of_pi = _dense_bivector(708)
    with pytest.raises(ValueError, match="^the Schouten bracket takes "
                                         "1002528 term products"):
        schouten(pi, copy_of_pi)
    assert calls == []
    # a bracket inside the bound runs its products as before
    small = _dense_bivector(20)
    assert schouten(small, small) == schouten(small, _dense_bivector(20))
    assert calls
