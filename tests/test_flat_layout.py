"""Flat multivector storage against the {indices: Polynomial} form.

An element stores one dict from (mask << table._mask_shift) | monomial
key to (a, b, d) triples.  The reference model is the index-tuple form:
signs by sorting the concatenated tuples, coefficients as Polynomials.
Every table here has 0 to 13 coordinates and 0 to 4 parameters.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poissonkit import (DifferentialForm, GaussRational, Multivector,  # noqa: E402
                        Polynomial, VariableTable)
from poissonkit.polynomials import (FIELD_LIMIT, _mask_sign,  # noqa: E402
                                    _mul_into, _normalized)

derandomized = settings(derandomize=True, deadline=None, max_examples=150)

tables = st.builds(
    lambda nc, npar: VariableTable([f"x{k}" for k in range(1, nc + 1)],
                                   [f"p{k}" for k in range(1, npar + 1)]),
    st.integers(0, 13), st.integers(0, 4))

scalars = st.builds(
    lambda a, d, b: GaussRational(a, 0) / d + GaussRational(0, b),
    st.integers(-9, 9), st.integers(1, 6), st.integers(-3, 3) | st.just(0))

classes = st.sampled_from((Multivector, DifferentialForm))


def mask(indices) -> int:
    return sum(1 << k for k in indices)


@st.composite
def polynomial(draw, table):
    """At most four terms of total degree at most 6."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = [0] * table.width
        if table.width:
            for slot in draw(st.lists(st.integers(0, table.width - 1),
                                      max_size=6)):
                exps[slot] += 1
        terms[tuple(exps)] = draw(scalars)
    return Polynomial(table, terms)


def index_sets(n, degree):
    if not degree:
        return st.just(())
    return st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree,
                    unique=True).map(lambda ix: tuple(sorted(ix)))


@st.composite
def element(draw, table, cls, degree=None):
    n = table.n_coordinates
    if degree is None:
        degree = draw(st.integers(0, n))
    terms = draw(st.dictionaries(index_sets(n, degree), polynomial(table),
                                 max_size=3))
    return cls(table, degree, terms)


def reference_sign(left, right) -> int:
    """Bubble-sort the concatenation, counting swaps; 0 on a repeat."""
    if set(left) & set(right):
        return 0
    seq, swaps = list(left + right), 0
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps += 1
    return -1 if swaps % 2 else 1


@derandomized
@given(st.data())
def test_the_mask_sign_is_the_parity_of_a_reference_sort(data):
    n = data.draw(st.integers(0, 13))
    left = data.draw(index_sets(n, data.draw(st.integers(0, n))))
    right = data.draw(index_sets(n, data.draw(st.integers(0, n))))
    assert _mask_sign(mask(left), mask(right)) == reference_sign(left, right)


@derandomized
@given(st.data())
def test_wedge_is_associative_and_graded_commutative(data):
    table = data.draw(tables)
    cls = data.draw(classes)
    a, b, c = (data.draw(element(table, cls)) for _ in range(3))
    assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
    sign = -1 if a.degree * b.degree % 2 else 1
    assert a.wedge(b) == b.wedge(a) * sign


@derandomized
@given(st.data())
def test_flat_terms_and_constructor_round_trip(data):
    table = data.draw(tables)
    cls = data.draw(classes)
    a, b = (data.draw(element(table, cls)) for _ in range(2))
    built = a.wedge(b)  # flat from the kernel, terms read afterwards
    for value in (a, b, built):
        again = cls(table, value.degree, dict(value.terms))
        assert again._flat == value._flat
        shift = table._mask_shift
        for indices, coeff in value.terms.items():
            assert {key & (1 << shift) - 1: t for key, t in value._flat.items()
                    if key >> shift == mask(indices)} == coeff._raw


@derandomized
@given(st.data())
def test_equality_and_hash_agree_with_terms(data):
    table = data.draw(tables)
    cls = data.draw(classes)
    a = data.draw(element(table, cls))
    b = data.draw(st.sampled_from((
        data.draw(element(table, cls, a.degree)),
        cls(table, a.degree, dict(reversed(list(a.terms.items())))),
        -(-a), a + a * 0, a.wedge(cls.from_polynomial(Polynomial.one(table))))))
    same_terms = dict(a.terms) == dict(b.terms) and (
        a.degree == b.degree or not a.terms)
    assert (a == b) == same_terms
    if same_terms:
        assert hash(a) == hash(b)


@derandomized
@given(st.data())
def test_a_top_field_past_its_guard_is_refused_below_the_mask(data):
    table = data.draw(tables.filter(lambda t: t.n_coordinates))
    n = table.n_coordinates
    cls = data.draw(classes)
    left = data.draw(index_sets(n, data.draw(st.integers(0, n))))
    free = [k for k in range(n) if k not in left]
    right = tuple(sorted(data.draw(st.lists(st.sampled_from(free), unique=True)
                                   if free else st.just([]))))
    x, y = (Polynomial.variable(table, data.draw(st.sampled_from(
        table.coordinates))) for _ in range(2))
    high = data.draw(st.integers(1, FIELD_LIMIT - 1))
    low = data.draw(st.integers(FIELD_LIMIT - high, FIELD_LIMIT - 1))
    a = cls.basis(table, left, x ** high)
    with pytest.raises(ValueError):
        a.wedge(cls.basis(table, right, y ** low))
    # a safe product is stored first and keeps its mask; nothing else is
    shift = table._mask_shift
    merged = mask(left) | mask(right)
    acc = {}
    with pytest.raises(ValueError):
        _mul_into(acc, {**cls.basis(table, left)._flat, **a._flat},
                  cls.basis(table, right, y ** low)._flat, table)
    assert [key >> shift for key in acc] == [merged]
    # one below the limit, the top field is full and the mask exact
    edge = a.wedge(cls.basis(table, right, y ** (FIELD_LIMIT - 1 - high)))
    assert [key >> shift for key in edge._flat] == [merged]
    (coeff,) = edge.terms.values()
    assert coeff.coordinate_degree() == FIELD_LIMIT - 1


@derandomized
@given(st.data())
def test_a_mask_zero_left_operand_multiplies_every_term(data):
    table = data.draw(tables)
    cls = data.draw(classes)
    p = data.draw(polynomial(table))
    a = data.draw(element(table, cls))
    reference = cls(table, a.degree, {ix: p * c for ix, c in a.terms.items()})
    for left, right in ((p._raw, a._flat), (a._flat, p._raw)):
        acc = {}
        _mul_into(acc, left, right, table)
        assert _normalized(acc) == reference._flat
    assert cls.from_polynomial(p).wedge(a)._flat == reference._flat
    assert (a * p)._flat == reference._flat


@derandomized
@given(st.data())
def test_a_pair_whose_masks_meet_is_zero_before_its_guard_test(data):
    table = data.draw(tables.filter(lambda t: t.n_coordinates))
    n = table.n_coordinates
    cls = data.draw(classes)
    shared = data.draw(st.integers(0, n - 1))
    left, right = (tuple(sorted({shared, *data.draw(index_sets(
        n, data.draw(st.integers(0, n))))})) for _ in range(2))
    x, y = (Polynomial.variable(table, data.draw(st.sampled_from(
        table.coordinates))) for _ in range(2))
    high = data.draw(st.integers(1, FIELD_LIMIT - 1))
    low = data.draw(st.integers(FIELD_LIMIT - high, FIELD_LIMIT - 1))
    a, b = cls.basis(table, left, x ** high), cls.basis(table, right, y ** low)
    acc = {}
    _mul_into(acc, a._flat, b._flat, table)  # the fields sum past the limit
    assert acc == {}
    assert a.wedge(b).is_zero()
