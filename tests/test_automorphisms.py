"""Elementary automorphisms and multivector pushforward."""

from fractions import Fraction

import pytest

from poissonkit import (DiagonalScaling, GaussRational, Multivector,
                        Translation, TriangularShear, VariableTable,
                        parse_polynomial, pushforward, schouten, wedge)

T = VariableTable(("x1", "x2", "x3"), ("t",))


def p(text):
    return parse_polynomial(text, T)


def biv(entries):
    return Multivector(T, 2, {ix: p(text) for ix, text in entries.items()})


def test_translation_inverse():
    phi = Translation(T, "x1", p("t"))
    assert phi.forward_images()["x1"] == p("x1 + t")
    inverse = Translation(T, "x1", -p("t"))
    composed = inverse.forward_images()["x1"]
    assert composed == p("x1 - t")
    f = p("x1^2*x2")
    assert pushforward(inverse, pushforward(phi, biv({(0, 1): "x1"}))) \
        == biv({(0, 1): "x1"})
    assert pushforward(phi, Multivector.from_polynomial(f)) \
        == Multivector.from_polynomial(p("(x1 - t)^2*x2"))


def test_translation_requires_constant_amount():
    with pytest.raises(ValueError):
        Translation(T, "x1", p("x2"))


def test_translation_moves_diagonal_coefficient():
    pi = biv({(0, 1): "x1*x2"})
    phi = Translation(T, "x1", p("t"))
    assert pushforward(phi, pi) == biv({(0, 1): "(x1 - t)*x2"})


def test_scaling_pushforward():
    phi = DiagonalScaling(T, {"x1": GaussRational(3),
                              "x2": GaussRational(Fraction(1, 2))})
    # xi_k transforms with d(phi_k), so x1*x2*xi1^xi2 is invariant
    pi = biv({(0, 1): "x1*x2"})
    assert pushforward(phi, pi) == pi
    v = Multivector(T, 1, {(0,): p("1")})
    assert pushforward(phi, v) == Multivector(T, 1, {(0,): p("3")})
    with pytest.raises(ValueError):
        DiagonalScaling(T, {"x1": GaussRational(0)})


def test_shear_uses_strictly_later_coordinates():
    phi = TriangularShear(T, "x1", p("x2^2"))
    f = Multivector.from_polynomial(p("x1"))
    assert pushforward(phi, f) == Multivector.from_polynomial(p("x1 - x2^2"))
    with pytest.raises(ValueError):
        TriangularShear(T, "x2", p("x1"))  # earlier coordinate not allowed
    with pytest.raises(ValueError):
        TriangularShear(T, "x1", p("x1"))  # self-reference not allowed


def test_shear_odd_generator_transport():
    phi = TriangularShear(T, "x1", p("x2^2"))
    xi2 = Multivector.basis(T, (1,))
    # d(phi) sends xi2 to xi2 + 2*x2*xi1 before inverting the base map
    moved = pushforward(phi, xi2)
    assert moved == Multivector(T, 1, {(0,): p("2*x2"), (1,): p("1")})
    xi1 = Multivector.basis(T, (0,))
    assert pushforward(phi, xi1) == xi1


def test_pushforward_sequence_order():
    first = Translation(T, "x1", p("1"))
    second = DiagonalScaling(T, {"x1": GaussRational(2)})
    f = Multivector.from_polynomial(p("x1"))
    both = pushforward([first, second], f)
    # apply first, then second: x1 -> x1 - 1 -> x1/2 - 1
    assert both == Multivector.from_polynomial(p("1/2*x1 - 1"))


def test_pushforward_respects_wedge_and_bracket():
    phi = TriangularShear(T, "x2", p("x3^2 + t"))
    a = biv({(0, 1): "x1 + x3"})
    b = Multivector(T, 1, {(2,): p("x1*x2")})
    assert pushforward(phi, wedge(a, b)) == wedge(
        pushforward(phi, a), pushforward(phi, b))
    assert pushforward(phi, schouten(a, b)) == schouten(
        pushforward(phi, a), pushforward(phi, b))


OTHER = VariableTable(("x1", "x2", "x3"), ("s",))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Translation(T, "t", p("1")), KeyError, "not a coordinate: 't'"),
    (lambda: Translation(T, "x1", parse_polynomial("s", OTHER)), ValueError,
     "^amount on a different variable table$"),
    (lambda: TriangularShear(T, "y", p("x2")), KeyError,
     "not a coordinate: 'y'"),
    (lambda: TriangularShear(T, "x1", parse_polynomial("x2", OTHER)),
     ValueError, "^shear on a different variable table$"),
    (lambda: DiagonalScaling(T, {"t": GaussRational(2)}), KeyError,
     "not a coordinate: 't'"),
], ids=["translation-parameter", "translation-other-table", "shear-unknown",
        "shear-other-table", "scaling-parameter"])
def test_automorphism_data_is_checked(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_pushforward_refuses_a_multivector_on_another_table():
    phi = Translation(T, "x1", p("t"))
    with pytest.raises(ValueError, match="^automorphism and multivector on "
                                         "different tables$"):
        pushforward(phi, Multivector.basis(OTHER, (0, 1)))
