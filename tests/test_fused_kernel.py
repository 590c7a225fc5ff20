"""Chart transitions, Schouten brackets and contraction against the
algorithms they replaced.

`chart_transition`, `schouten` and `contract` each accumulate their
result into one {indices: {exponents: scalar}} dict and build it once.
The reference functions below are the old algorithms, kept as the
models the single-pass routines must match exactly:

* `_reference_schouten` adds one `_slot_contract(odd, k).wedge(
  d even / dx_k)` per coordinate into a running Multivector and
  applies the signs (and the -2 of [A, A]) to whole elements;
* `_reference_contract` is the chain zero + sum_k slot(a, k) * g_k;
* `_reference_chart_transition` wedges 1-vector images of the xi_k,
  groups the pieces by pole order, multiplies each group up to the top
  order and divides by z_a^top monomial by monomial.
"""

import random

import pytest

from poissonkit import (DiagonalSpec, DifferentialForm, GaussRational,
                        Multivector, Polynomial, VariableTable, chart_extend,
                        chart_transition, contract, jacobi_check,
                        make_diagonal, schouten)
from poissonkit.multivectors import _slot_contract
from poissonkit.randomized import random_element, random_polynomial

T = VariableTable(("x1", "x2", "x3", "x4", "x5"), ("a",))


def _reference_partial(element, slot):
    """d/dx at exponent position `slot`, coefficient by coefficient."""
    terms = {}
    for ix, coeff in element.terms.items():
        derived = {}
        for exps, c in coeff.terms.items():
            if exps[slot]:
                lowered = exps[:slot] + (exps[slot] - 1,) + exps[slot + 1:]
                derived[lowered] = c * exps[slot]
        terms[ix] = Polynomial(element.table, derived)
    return Multivector(element.table, element.degree, terms)


def _reference_odd_even_sum(odd, even, degree):
    total = Multivector.zero(odd.table, degree)
    for k in range(odd.table.n_coordinates):
        left = _slot_contract(odd, k)
        if not left.is_zero():
            right = _reference_partial(even, k)
            if not right.is_zero():
                total = total + left.wedge(right)
    return total


def _reference_schouten(a, b):
    table = a.table
    degree = min(max(a.degree + b.degree - 1, 0), table.n_coordinates)
    if a is b:
        if a.degree % 2:
            return Multivector.zero(table, degree)
        return _reference_odd_even_sum(a, a, degree) * -2
    first = _reference_odd_even_sum(a, b, degree)
    second = _reference_odd_even_sum(b, a, degree)
    first = first if a.degree % 2 else -first
    second = second if (a.degree * (b.degree + 1)) % 2 else -second
    return first + second


def _reference_contract(eta, a):
    result = Multivector.zero(a.table, max(a.degree - 1, 0))
    for (k,), g in eta.terms.items():
        result = result + _slot_contract(a, k) * g
    return result


def _reference_chart_transition(biv, names, source, target):
    n = len(names) - 1
    table = biv.table
    if source == target:
        return biv
    target_coords = tuple(nm for i, nm in enumerate(names) if i != target)
    ttable = VariableTable(target_coords, table.parameters)
    hom = [i for i in range(n + 1) if i != source]
    tslot = {m: target_coords.index(names[m]) for m in range(n + 1)
             if m != target}
    anchor = tslot[source]

    def coefficient_parts(poly):
        parts = {}
        for exps, c in poly.terms.items():
            new = [0] * ttable.width
            degree = 0
            for k in range(n):
                e = exps[k]
                if not e:
                    continue
                degree += e
                if hom[k] != target:
                    new[tslot[hom[k]]] += e
            for j in range(table.n_parameters):
                new[ttable.n_coordinates + j] = exps[n + j]
            parts.setdefault(degree, {})[tuple(new)] = c
        return {d: Polynomial(ttable, terms) for d, terms in parts.items()}

    xi_images = {}
    z_a = Polynomial.variable(ttable, names[source])
    for k in range(n):
        m = hom[k]
        if m != target:
            xi_images[k] = Multivector(ttable, 1, {(tslot[m],): z_a})
        else:
            xi_images[k] = Multivector(ttable, 1, {
                (tslot[mm],): -z_a * Polynomial.variable(ttable, names[mm])
                for mm in range(n + 1) if mm != target})

    by_power = {}
    for indices, coeff in biv.terms.items():
        wedge_part = Multivector.from_polynomial(Polynomial.one(ttable))
        for k in indices:
            wedge_part = wedge_part.wedge(xi_images[k])
        for d, numerator in coefficient_parts(coeff).items():
            piece = wedge_part * numerator
            by_power[d] = by_power.get(d, Multivector.zero(ttable, 2)) + piece
    if not by_power:
        return Multivector.zero(ttable, 2)
    top = max(by_power)
    total = Multivector.zero(ttable, 2)
    for d, part in by_power.items():
        total = total + part * (z_a ** (top - d))
    new_terms = {}
    for indices, coeff in total.terms.items():
        divided = {}
        for exps, c in coeff.terms.items():
            if exps[anchor] < top:
                raise ValueError("does not extend")
            divided[exps[:anchor] + (exps[anchor] - top,)
                    + exps[anchor + 1:]] = c
        new_terms[indices] = Polynomial(ttable, divided)
    return Multivector(ttable, 2, new_terms)


def _assert_same(fused, reference):
    assert type(fused) is type(reference)
    assert fused.table == reference.table
    assert fused.degree == reference.degree
    assert fused.terms == reference.terms
    for coeff in fused.terms.values():
        assert coeff.table == fused.table
        assert coeff.terms and all(c for c in coeff.terms.values())


def _has_imaginary(*elements):
    return any(not c.is_rational() for e in elements
               for poly in e.terms.values() for c in poly.terms.values())


@pytest.mark.parametrize("da", range(5))
@pytest.mark.parametrize("db", range(5))
def test_schouten_matches_reference(da, db):
    rng = random.Random(f"fused-schouten:{da}:{db}")
    imaginary = False
    for _ in range(3):
        a = random_element(rng, T, da, max_components=4)
        b = random_element(rng, T, db, max_components=4)
        # a + a2 shares index tuples with a, so some products cancel
        a2 = a + random_element(rng, T, da, max_components=3)
        for left, right in ((a, b), (b, a), (a2, b), (a, a2)):
            _assert_same(schouten(left, right), _reference_schouten(left, right))
        for same in (a, b, a2):
            _assert_same(schouten(same, same), _reference_schouten(same, same))
        imaginary |= _has_imaginary(a, b, a2)
    assert imaginary or da == db == 0


def test_schouten_of_a_diagonal_structure_is_zero_like_the_reference():
    spec = DiagonalSpec(6, {(i, j): GaussRational(i * j - 7, i + j)
                            for i in range(1, 7) for j in range(i + 1, 7)})
    bivector = make_diagonal(spec).bivector
    bracket = schouten(bivector, bivector)
    _assert_same(bracket, _reference_schouten(bivector, bivector))
    assert bracket.is_zero() and bracket.degree == 3


@pytest.mark.parametrize("degree", range(5))
def test_contract_matches_reference(degree):
    rng = random.Random(f"fused-contract:{degree}")
    for _ in range(12):
        a = random_element(rng, T, degree, max_components=5)
        eta = random_element(rng, T, 1, DifferentialForm, max_components=4)
        _assert_same(contract(eta, a), _reference_contract(eta, a))
        # an exact form df with cancelling partial sums
        f = random_polynomial(rng, T, max_terms=4, max_degree=3)
        df = DifferentialForm(T, 1, {
            (k,): f.partial_derivative(name)
            for k, name in enumerate(T.coordinates)
            if not f.partial_derivative(name).is_zero()})
        _assert_same(contract(df, a), _reference_contract(df, a))
        _assert_same(contract(DifferentialForm.zero(T, 1), a),
                     _reference_contract(DifferentialForm.zero(T, 1), a))


def _random_chart_bivector(rng, table, n):
    """Coefficients up to degree 4, so that some poles survive; every
    third draw adds E ^ (q d_j) for the Euler field E and a quadratic q,
    whose pole terms cancel in every chart."""
    coords = table.coordinates
    biv = Multivector.zero(table, 2)
    for _ in range(rng.randint(1, 4)):
        ij = tuple(sorted(rng.sample(range(n), 2)))
        coeff = random_polynomial(rng, table, max_terms=4,
                                  max_degree=rng.randint(1, 4))
        biv = biv + Multivector(table, 2, {ij: coeff})
    if rng.random() < 1 / 3:
        euler = Multivector(table, 1, {(k,): Polynomial.variable(table, c)
                                       for k, c in enumerate(coords)})
        q = random_polynomial(rng, table, max_terms=3, max_degree=2)
        q = q * Polynomial.variable(table, rng.choice(coords))
        extra = euler.wedge(Multivector(table, 1, {(rng.randrange(n),): q}))
        biv = extra if rng.random() < 0.5 else biv + extra
    return biv


@pytest.mark.parametrize("n", range(2, 7))
def test_chart_transition_matches_reference_on_every_chart_pair(n):
    names = tuple(f"X{k}" for k in range(n + 1))
    rng = random.Random(f"fused-chart:{n}")
    outcomes = {"extends": 0, "pole": 0}
    for source in range(n + 1):
        coords = tuple(nm for i, nm in enumerate(names) if i != source)
        table = VariableTable(coords, ("a",))
        for target in range(n + 1):
            for _ in range(3):
                biv = _random_chart_bivector(rng, table, n)
                try:
                    expected = _reference_chart_transition(
                        biv, names, source, target)
                except ValueError as exc:
                    assert str(exc) == "does not extend"
                    with pytest.raises(ValueError, match="^does not extend$"):
                        chart_transition(biv, names, source, target)
                    outcomes["pole"] += 1
                    continue
                _assert_same(chart_transition(biv, names, source, target),
                             expected)
                outcomes["extends"] += 1
    assert outcomes["extends"] and outcomes["pole"]


def test_chart_transition_keeps_cancelled_poles():
    # E ^ (x1^2 d_2) has cubic coefficients, yet its pole terms cancel
    names = ("X0", "X1", "X2", "X3")
    table = VariableTable(names[1:])
    x = [Polynomial.variable(table, c) for c in table.coordinates]
    euler = Multivector(table, 1, {(k,): x[k] for k in range(3)})
    biv = euler.wedge(Multivector(table, 1, {(1,): x[0] * x[0]}))
    assert max(sum(e) for c in biv.terms.values() for e in c.terms) == 3
    for target in range(1, 4):
        _assert_same(chart_transition(biv, names, 0, target),
                     _reference_chart_transition(biv, names, 0, target))
    lone = Multivector(table, 2, {(0, 1): x[0] * x[0] * x[2]})
    with pytest.raises(ValueError, match="^does not extend$"):
        chart_transition(lone, names, 0, 1)


def test_chart_extend_and_jacobi_check_build_no_wedge(monkeypatch):
    spec = DiagonalSpec(8, {(i, j): GaussRational(3 * i - j, j)
                            for i in range(1, 9) for j in range(i + 1, 9)})
    ps = make_diagonal(spec)
    names = ("x0",) + ps.table.coordinates
    expected = _reference_chart_transition(ps.bivector, names, 0, 5)
    expected_bracket = _reference_schouten(expected, expected)

    def refuse(self, other):
        raise AssertionError("the single-pass kernels build no wedge")

    monkeypatch.setattr(Multivector, "wedge", refuse)
    chart = chart_extend(ps, 5)
    _assert_same(chart.bivector, expected)
    _assert_same(jacobi_check(chart), expected_bracket)
    assert chart.integrable
