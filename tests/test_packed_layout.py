"""Packed monomial keys against the exponent tuples they replace.

Every table here has 0 to 13 coordinates and 0 to 4 parameters.  The
reference model is the tuple form: the old graded order key
(sum(c), c, sum(p), p), tuple derivatives and the tuple division loop.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from poissonkit import (DifferentialForm, GaussRational, Multivector,  # noqa: E402
                        Polynomial, VariableTable, format_polynomial, loads,
                        parse_polynomial, reduce_mod, serialize)
from poissonkit.polynomials import (FIELD_LIMIT, _derivative_terms,  # noqa: E402
                                    _from_raw)

derandomized = settings(derandomize=True, deadline=None, max_examples=150)

tables = st.builds(
    lambda nc, npar: VariableTable([f"x{k}" for k in range(1, nc + 1)],
                                   [f"p{k}" for k in range(1, npar + 1)]),
    st.integers(0, 13), st.integers(0, 4))


@st.composite
def part(draw, size):
    """`size` exponents whose sum is below FIELD_LIMIT, often right at
    the edge: the cut points of a drawn total."""
    if not size:
        return ()
    total = draw(st.just(FIELD_LIMIT - 1) | st.integers(0, FIELD_LIMIT - 1)
                 | st.integers(0, 6))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=size - 1,
                                max_size=size - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


@st.composite
def exponents(draw, table):
    return (draw(part(table.n_coordinates))
            + draw(part(len(table.parameters))))


@st.composite
def monomial(draw, table):
    """An exponent tuple of total degree at most 20, so that its text
    parses back."""
    exps = [0] * table.width
    if table.width:
        for slot, power in draw(st.lists(st.tuples(
                st.integers(0, table.width - 1), st.integers(1, 5)),
                max_size=4)):
            exps[slot] += power
    return tuple(exps)


scalars = st.builds(
    lambda a, d, b: GaussRational(a, 0) / d + GaussRational(0, b),
    st.integers(-9, 9), st.integers(1, 6), st.integers(-3, 3) | st.just(0))


@st.composite
def polynomial(draw, table):
    return Polynomial(table, draw(st.dictionaries(
        monomial(table), scalars, max_size=5)))


@st.composite
def table_and(draw, make):
    table = draw(tables)
    return table, draw(make(table))


def order_key(table, exps):
    nc = table.n_coordinates
    coords, params = exps[:nc], exps[nc:]
    return (sum(coords), coords, sum(params), params)


@derandomized
@given(table_and(exponents))
def test_pack_then_unpack_gives_the_tuple_back(case):
    table, exps = case
    key = table._pack(exps)
    assert key >= 0 and not key & table._guard
    assert table._unpack(key) == exps
    assert Polynomial(table, {exps: 1}).terms == {exps: GaussRational(1)}


@derandomized
@given(st.data())
def test_packed_order_is_the_graded_order_key(data):
    table = data.draw(tables)
    small = data.draw(st.lists(monomial(table), min_size=2, max_size=6))
    wide = data.draw(st.lists(exponents(table), min_size=2, max_size=4))
    for group in (small, wide):
        keys = {exps: table._pack(exps) for exps in group}
        by_key = sorted(group, key=keys.__getitem__)
        assert by_key == sorted(group, key=lambda e: order_key(table, e))
        for a in group:
            for b in group:
                assert (keys[a] < keys[b]) == (order_key(table, a)
                                               < order_key(table, b))


def reference_derivative(terms, slot):
    out = {}
    for exps, c in terms.items():
        e = exps[slot]
        if e:
            out[exps[:slot] + (e - 1,) + exps[slot + 1:]] = c * e
    return out


def reference_reduce(table, f, g):
    """The tuple division loop: f = q*g + r over scalar dicts."""
    def key(exps):
        return order_key(table, exps)
    lead = max(g, key=key)
    work, quotient, remainder = dict(f), {}, {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if all(a >= b for a, b in zip(m, lead)):
            shift = tuple(a - b for a, b in zip(m, lead))
            factor = quotient[shift] = c / g[lead]
            for exps, t in g.items():
                if exps != lead:
                    target = tuple(a + b for a, b in zip(exps, shift))
                    value = work.get(target, GaussRational(0)) - factor * t
                    if value:
                        work[target] = value
                    else:
                        work.pop(target, None)
        else:
            remainder[m] = c
    return quotient, remainder


@derandomized
@given(st.data())
def test_derivatives_and_division_match_the_tuple_reference(data):
    table = data.draw(tables)
    f = data.draw(polynomial(table))
    g = data.draw(polynomial(table))
    for slot in range(table.n_coordinates):
        got = _from_raw(table, _derivative_terms(f._raw, table, slot))
        # equal packed keys, degree fields included, not just equal tuples
        assert got == Polynomial(table, reference_derivative(f.terms, slot))
        assert got == f.partial_derivative(table.coordinates[slot])
    if g:
        q, r = reduce_mod(f, g)
        want_q, want_r = reference_reduce(table, f.terms, g.terms)
        assert q == Polynomial(table, want_q) and r == Polynomial(table, want_r)
        assert q.terms == want_q and r.terms == want_r
        assert q * g + r == f


@derandomized
@given(st.data())
def test_text_form_parses_back(data):
    table = data.draw(tables)
    f = data.draw(polynomial(table))
    assert parse_polynomial(format_polynomial(f), table) == f
    # descending packed keys are descending graded-lex order
    assert [table._unpack(key) for key in sorted(f._raw, reverse=True)] == \
        sorted(f.terms, key=lambda e: order_key(table, e), reverse=True)


@derandomized
@given(st.data())
def test_documents_round_trip_byte_exactly(data):
    table = data.draw(tables)
    n = table.n_coordinates
    cls = data.draw(st.sampled_from((Multivector, DifferentialForm)))
    degree = data.draw(st.integers(0, n))
    index_sets = st.lists(st.integers(0, n - 1), min_size=degree,
                          max_size=degree, unique=True).map(
        lambda ix: tuple(sorted(ix))) if degree else st.just(())
    terms = data.draw(st.dictionaries(index_sets, polynomial(table),
                                      max_size=4))
    element = cls(table, degree, terms)
    text = serialize(element)
    again = loads(text)
    assert serialize(again) == text and again == element


@derandomized
@given(st.data())
def test_a_field_past_its_guard_is_refused(data):
    table = data.draw(tables.filter(lambda t: t.width))
    slot = data.draw(st.integers(0, table.width - 1))
    name = table.names[slot]
    low = data.draw(st.integers(1, FIELD_LIMIT - 1))
    high = data.draw(st.integers(FIELD_LIMIT - low, FIELD_LIMIT - 1))
    exps = [0] * table.width
    exps[slot] = FIELD_LIMIT
    with pytest.raises(ValueError):
        table._pack(exps)
    with pytest.raises(ValueError):
        Polynomial(table, {tuple(exps): 1})
    a = Polynomial.monomial(table, {name: low})
    b = Polynomial.monomial(table, {name: high})
    with pytest.raises(ValueError):
        a * b
    # a degree field reaches its guard though no variable field does
    same_part = [v for v in (table.coordinates if slot < table.n_coordinates
                             else table.parameters) if v != name]
    if same_part:
        other = Polynomial.monomial(table, {same_part[0]: high})
        with pytest.raises(ValueError):
            a * other


def test_a_quotient_term_past_its_guard_is_refused():
    table = VariableTable(("x1", "x2"), ("p1",))
    g = parse_polynomial("x1 + x2*p1^20", table)
    f = Polynomial.monomial(table, {"x1": 1, "p1": FIELD_LIMIT - 20})
    with pytest.raises(ValueError):
        reduce_mod(f, g)
