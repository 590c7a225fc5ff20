"""The fused wedge kernel against the pairwise algorithm it replaced.

`wedge` multiplies the terms of two flat dicts straight into one flat
dict, whose keys carry the merged generator mask; `_reference_wedge` is
the plain pairwise algorithm, one Polynomial product and one sum per
pair of terms, kept here as the reference the kernel must match exactly.
"""

import random

import pytest

from poissonkit import (DifferentialForm, Multivector, VariableTable,
                        parse_polynomial, schouten)
from poissonkit.polynomials import _mask_sign
from poissonkit.randomized import random_element

T = VariableTable(("x1", "x2", "x3", "x4"), ("a",))
T7 = VariableTable(tuple(f"x{k}" for k in range(1, 8)))


def _reference_wedge(a, b):
    """Pairwise exterior product with the Koszul sign counted directly."""
    n = a.table.n_coordinates
    degree = a.degree + b.degree
    if degree > n:
        return type(a).zero(a.table, n)
    terms = {}
    for ix1, c1 in a.terms.items():
        for ix2, c2 in b.terms.items():
            if set(ix1) & set(ix2):
                continue
            inversions = sum(s > t for s in ix1 for t in ix2)
            product = c1 * c2 if inversions % 2 == 0 else -(c1 * c2)
            merged = tuple(sorted(ix1 + ix2))
            terms[merged] = (terms[merged] + product if merged in terms
                             else product)
    return type(a)(a.table, degree, terms)


def _as(cls, element):
    return cls(element.table, element.degree, element.terms)


def _assert_same(fused, reference):
    assert type(fused) is type(reference)
    assert fused.degree == reference.degree
    assert fused.terms == reference.terms
    for coeff in fused.terms.values():
        assert coeff.table == fused.table
        assert all(not c.is_zero() for c in coeff.terms.values())


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("cls", [Multivector, DifferentialForm])
def test_fused_wedge_matches_pairwise_reference(seed, cls):
    rng = random.Random(f"fused-wedge:{seed}")
    da, db = rng.randint(0, 4), rng.randint(0, 4)
    a = _as(cls, random_element(rng, T, da, max_components=4))
    b = _as(cls, random_element(rng, T, db, max_components=4))
    # a + a2 shares index tuples with a, so merged sums collect several
    # products and some of them cancel
    a2 = _as(cls, random_element(rng, T, da, max_components=4))
    for left, right in ((a, b), (b, a), (a, a), (a + a2, b), (a, a - a2)):
        _assert_same(left.wedge(right), _reference_wedge(left, right))


def test_fused_wedge_cancellation_zero_and_overflow():
    p = lambda text: parse_polynomial(text, T)  # noqa: E731
    f, g = p("(1/2+i)*x1^2*a - 3/4*x2"), p("-2/3*i*x3 + x4*a")
    for cls in (Multivector, DifferentialForm):
        odd = cls(T, 1, {(0,): f, (1,): g, (3,): f * g})
        # an odd element squares to zero: every merged sum cancels
        square = odd.wedge(odd)
        _assert_same(square, _reference_wedge(odd, odd))
        assert square.terms == {} and square.degree == 2
        # f g xi0^xi1 + g f xi1^xi0: one merged sum cancels term by term
        u, v = cls(T, 1, {(0,): f, (1,): g}), cls(T, 1, {(0,): g, (1,): f})
        assert u.wedge(v) == _reference_wedge(u, v)
        assert u.wedge(v).terms == {(0, 1): f * f - g * g}
        # degrees past the number of coordinates give the top-degree zero
        top = cls(T, 3, {(0, 1, 2): f})
        overflow = top.wedge(cls(T, 2, {(1, 3): g}))
        _assert_same(overflow, _reference_wedge(top, cls(T, 2, {(1, 3): g})))
        assert overflow.is_zero() and overflow.degree == 4
        # the zero element and degree-0 scalars
        zero = cls.zero(T, 2)
        _assert_same(zero.wedge(top), _reference_wedge(zero, top))
        scalar = cls.from_polynomial(f)
        _assert_same(scalar.wedge(top), _reference_wedge(scalar, top))


@pytest.mark.parametrize("degree", range(5))
def test_self_bracket_equals_bracket_with_an_equal_copy(degree):
    rng = random.Random(f"self-bracket:{degree}")
    nonzero = 0
    for _ in range(8):
        a = random_element(rng, T7, degree, max_components=10)
        # equal but separately built: the general two-sum path runs
        copy = Multivector(T7, a.degree, {
            ix: parse_polynomial(str(c), T7) for ix, c in a.terms.items()})
        assert copy == a and copy is not a
        same = schouten(a, a)
        assert same == schouten(a, copy)
        assert same.degree == schouten(a, copy).degree == max(2 * degree - 1, 0)
        if degree % 2:
            assert same.is_zero()
        nonzero += not same.is_zero()
    if degree in (2, 4):
        assert nonzero  # the even-degree path is not vacuous


def test_mask_sign_cache_is_bounded():
    # bit k of a mask is xi_k; the merged mask is the OR of disjoint ones
    assert _mask_sign.cache_info().maxsize is not None
    assert _mask_sign(0b101, 0b010) == -1  # (0, 2) then (1,)
    assert _mask_sign(0b100, 0b011) == 1  # (2,) then (0, 1)
    assert _mask_sign(0b101, 0b100) == 0  # (0, 2) then (2,)
