"""Field arithmetic and text round-trips for Gaussian rationals."""

from fractions import Fraction

import pytest

from poissonkit import GaussRational, format_scalar, parse_scalar


def g(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def test_construction_and_equality():
    assert GaussRational(3) == g(3)
    assert GaussRational(Fraction(1, 2)) == g(Fraction(1, 2))
    assert g(1, 2) != g(1)
    assert GaussRational(0).is_zero()
    assert GaussRational(1) == GaussRational.one() == 1


def test_ring_operations():
    assert g(1, 2) + g(3, -1) == g(4, 1)
    assert g(1, 2) - g(3, -1) == g(-2, 3)
    # (1+2i)(3-i) = 5+5i
    assert g(1, 2) * g(3, -1) == g(5, 5)
    assert -g(2, -3) == g(-2, 3)


def test_division_and_inverse():
    # 1/(1+i) = (1-i)/2
    assert GaussRational(1) / g(1, 1) == g(Fraction(1, 2), Fraction(-1, 2))
    q = g(7, -3) / g(2, 5)
    assert q * g(2, 5) == g(7, -3)
    with pytest.raises(ZeroDivisionError):
        g(1) / g(0)


def test_powers():
    assert g(2, 1) ** 2 == g(3, 4)
    assert g(2, 1) ** 0 == g(1)
    assert g(1, 1) ** 4 == g(-4)
    assert g(2) ** -1 == g(Fraction(1, 2))


def test_format_is_canonical():
    assert format_scalar(g(3)) == "3"
    assert format_scalar(g(-3, 0)) == "-3"
    assert format_scalar(g(0)) == "0"
    assert format_scalar(g(0, 1)) == "i"
    assert format_scalar(g(0, -1)) == "-i"
    assert format_scalar(g(Fraction(5, 3), Fraction(1, 2))) == "5/3+1/2*i"
    assert format_scalar(g(1, -2)) == "1-2*i"


def test_parse_inverts_format():
    samples = [g(0), g(1), g(-1), g(0, 1), g(0, -1),
               g(Fraction(2, 7)), g(Fraction(-2, 7), Fraction(3, 5)),
               g(4, -9), g(0, Fraction(1, 3))]
    for value in samples:
        assert parse_scalar(format_scalar(value)) == value


def test_parse_rejects_garbage():
    for bad in ("", "1+", "2//3", "one", "(1"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_zero_and_unit_triples_are_unique():
    assert GaussRational(0)._t == (0, 0, 1)
    z = GaussRational(Fraction(1, 3), 2)
    assert (z - z)._t == (0, 0, 1)
    assert GaussRational(Fraction(2, 4), Fraction(-3, 6))._t == (1, -1, 2)
    with pytest.raises(AttributeError):
        GaussRational(1).re = Fraction(2)
