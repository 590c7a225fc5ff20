"""GaussRational against a reference model of two Fraction parts.

Hypothesis draws values with large numerators, non-unit denominators and
imaginary parts; every result must match the model and be stored as the
normalized integer triple.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poissonkit import GaussRational, format_scalar, parse_scalar  # noqa: E402

# Numerators from small to well past a machine word, denominators mostly
# not 1, so both the d = 1 fast path and the gcd path run.
parts = st.builds(Fraction,
                  st.integers(-10 ** 6, 10 ** 6) | st.integers(-10 ** 30, 10 ** 30),
                  st.integers(1, 12) | st.integers(1, 10 ** 9))
pairs = st.tuples(parts, parts | st.just(Fraction(0)))
plain = st.integers(-50, 50) | st.builds(Fraction, st.integers(-50, 50),
                                          st.integers(1, 9))


def model_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def model_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def model_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def model_pow(x, k):
    acc = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        acc = model_mul(acc, x)
    return acc if k >= 0 else model_div((Fraction(1), Fraction(0)), acc)


def parts_of(z):
    return (z.re, z.im)


def canonical(z):
    a, b, d = z._t
    return d > 0 and gcd(a, b, d) == 1 and all(type(v) is int for v in z._t)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_field_operations_match_the_fraction_model(x, y):
    z, w = GaussRational(*x), GaussRational(*y)
    assert parts_of(z) == x and parts_of(w) == y
    for result, expected in ((z + w, model_add(x, y)), (z - w, model_sub(x, y)),
                             (z * w, model_mul(x, y)), (-z, (-x[0], -x[1]))):
        assert parts_of(result) == expected
        assert canonical(result)
    if any(y):
        q = z / w
        assert parts_of(q) == model_div(x, y) and canonical(q)
        assert q * w == z
    else:
        with pytest.raises(ZeroDivisionError):
            z / w


@settings(max_examples=200, deadline=None)
@given(pairs, st.integers(-5, 7))
def test_powers_match_the_fraction_model(x, k):
    z = GaussRational(*x)
    if k < 0 and not any(x):
        with pytest.raises(ZeroDivisionError):
            z ** k
        return
    assert parts_of(z ** k) == model_pow(x, k)
    assert canonical(z ** k)


@settings(max_examples=200, deadline=None)
@given(pairs, plain)
def test_mixed_operands_on_either_side(x, c):
    z, y = GaussRational(*x), (Fraction(c), Fraction(0))
    assert parts_of(z + c) == parts_of(c + z) == model_add(x, y)
    assert parts_of(z - c) == model_sub(x, y)
    assert parts_of(c - z) == model_sub(y, x)
    assert parts_of(z * c) == parts_of(c * z) == model_mul(x, y)
    if c:
        assert parts_of(z / c) == model_div(x, y)
    if any(x):
        assert parts_of(c / z) == model_div(y, x)
    assert (z == c) == (x == y)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_equality_and_hash_follow_the_value(x, y):
    z, w = GaussRational(*x), GaussRational(*y)
    assert (z == w) == (x == y)
    # the same value reached through arithmetic is equal and hashes equal
    twin = (z + w) - w
    assert twin == z and hash(twin) == hash(z)
    if any(y):
        again = (z * w) / w
        assert again == z and hash(again) == hash(z)
    assert len({z, twin, GaussRational(*x)}) == 1


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_text_float_and_repr_forms(x):
    z = GaussRational(*x)
    assert parse_scalar(format_scalar(z)) == z
    assert complex(z) == complex(float(x[0]), float(x[1]))
    assert repr(z) == f"GaussRational({x[0]!r}, {x[1]!r})"
    assert bool(z) == any(x) == (not z.is_zero())
    assert (z.im == 0) == (not x[1])
    assert (z == 1) == (x == (1, 0))
