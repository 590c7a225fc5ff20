"""Chart transitions, pushforwards and the other exterior-algebra
operators against the algorithms they replaced.

`chart_transition`, `pushforward`, `schouten`, `contract`,
`exterior_derivative` and `bv_laplacian` each accumulate their result
into one flat {mask and monomial key: (a, b, d)} dict and build it
once.  The reference functions below are the old algorithms, kept as the
models the single-pass routines must match exactly:

* `_reference_schouten` adds one `_slot_contract(odd, k).wedge(
  d even / dx_k)` per coordinate into a running Multivector and
  applies the signs (and the -2 of [A, A]) to whole elements;
* `_reference_contract` is the chain zero + sum_k slot(a, k) * g_k;
* `_reference_chart_transition` wedges 1-vector images of the xi_k,
  groups the pieces by pole order, multiplies each group up to the top
  order and divides by z_a^top monomial by monomial;
* `_reference_pushforward` wedges validated 1-vector images of the xi_k
  onto each pushed coefficient and adds the pieces into a running
  Multivector;
* `_reference_exterior_derivative` adds +-dc/dx_k per term into a dict
  of Polynomials;
* `_reference_bv_laplacian` is the chain zero + sum_k
  d/dx_k (_slot_contract(a, k)).
"""

import random

import pytest

from poissonkit import (DeformationFamily, DiagonalScaling, DiagonalSpec,
                        DifferentialForm, GaussRational, Multivector,
                        Polynomial, Translation, TriangularShear,
                        VariableTable, bv_laplacian, chart_extend,
                        chart_transition, contract, exterior_derivative,
                        jacobi_check, make_diagonal, pushforward, schouten)
from poissonkit import polynomials
from poissonkit.randomized import (random_element, random_polynomial,
                                   random_scalar)

T = VariableTable(("x1", "x2", "x3", "x4", "x5"), ("a",))


def _slot_contract(element, k):
    """Remove generator k, moving it to the front first (Koszul sign)."""
    terms = {}
    for indices, coeff in element.terms.items():
        if k in indices:
            pos = indices.index(k)
            terms[indices[:pos] + indices[pos + 1:]] = (
                coeff if pos % 2 == 0 else -coeff)
    return type(element)(element.table, max(element.degree - 1, 0), terms)


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


def _reference_exterior_derivative(omega):
    table = omega.table
    terms = {}
    for indices, coeff in omega.terms.items():
        for k, name in enumerate(table.coordinates):
            if k in indices:
                continue
            dc = coeff.partial_derivative(name)
            if dc.is_zero():
                continue
            merged = tuple(sorted(indices + (k,)))
            # moving dx_k from the front to its place passes its position
            add = dc if merged.index(k) % 2 == 0 else -dc
            terms[merged] = terms[merged] + add if merged in terms else add
    degree = min(omega.degree + 1, table.n_coordinates)
    return DifferentialForm(table, degree,
                            terms if omega.degree < degree else {})


def _reference_bv_laplacian(a):
    total = Multivector.zero(a.table, max(a.degree - 1, 0))
    for k in range(a.table.n_coordinates):
        total = total + _reference_partial(_slot_contract(a, k), k)
    return total


def _substitute(f, images):
    """f with each named variable sent to its image, as a Polynomial."""
    return polynomials._wrapped(f.table, polynomials._substituted(
        f._raw, f.table, images))


def _reference_odd_images(phi):
    table = phi.table
    forward = phi.forward_images()
    backward = phi.inverse_images()
    images = {}
    for k, name in enumerate(table.coordinates):
        comps = {}
        for j, target in enumerate(table.coordinates):
            image = forward.get(target)
            if image is None:
                entry = Polynomial.one(table) if j == k else Polynomial.zero(table)
            else:
                entry = _substitute(image.partial_derivative(name), backward)
            comps[(j,)] = entry
        images[k] = Multivector(table, 1, comps)
    return images


def _reference_pushforward(path, a):
    for phi in path:
        backward = phi.inverse_images()
        odd = _reference_odd_images(phi)
        total = Multivector.zero(a.table, a.degree)
        for indices, coeff in a.terms.items():
            piece = Multivector.from_polynomial(_substitute(coeff, backward))
            for k in indices:
                piece = piece.wedge(odd[k])
            total = total + piece
        a = total
    return a


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
            for j in range(len(table.parameters)):
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
    return any(c.im != 0 for e in elements
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


@pytest.mark.parametrize("degree", range(6))
def test_exterior_derivative_matches_reference(degree):
    rng = random.Random(f"fused-d:{degree}")
    for _ in range(12):
        omega = random_element(rng, T, degree, DifferentialForm,
                               max_components=4)
        # omega + omega2 shares index tuples with omega, so sums cancel
        omega2 = omega + random_element(rng, T, degree, DifferentialForm,
                                        max_components=3)
        for form in (omega, omega2, DifferentialForm.zero(T, degree)):
            _assert_same(exterior_derivative(form),
                         _reference_exterior_derivative(form))
    f = random_polynomial(rng, T, max_terms=4, max_degree=3)
    _assert_same(exterior_derivative(f), _reference_exterior_derivative(
        DifferentialForm.from_polynomial(f)))


@pytest.mark.parametrize("degree", range(6))
def test_bv_laplacian_matches_reference(degree):
    rng = random.Random(f"fused-bv:{degree}")
    for _ in range(12):
        a = random_element(rng, T, degree, max_components=4)
        a2 = a + random_element(rng, T, degree, max_components=3)
        for field in (a, a2, Multivector.zero(T, degree)):
            _assert_same(bv_laplacian(field), _reference_bv_laplacian(field))


def _random_step(rng, kind):
    coords = T.coordinates
    if kind == "translation":
        amount = random_polynomial(rng, VariableTable((), ("a",)), 2, 2)
        return Translation(T, rng.choice(coords), Polynomial(T, {
            (0,) * len(coords) + exps: c for exps, c in amount.terms.items()}))
    if kind == "scaling":
        return DiagonalScaling(T, {name: random_scalar(rng) for name in
                                   rng.sample(coords, rng.randint(1, 5))})
    pos = rng.randrange(len(coords) - 1)
    later = VariableTable(coords[pos + 1:], ("a",))
    shear = random_polynomial(rng, later, 3, 2)
    return TriangularShear(T, coords[pos], Polynomial(T, {
        (0,) * (pos + 1) + exps: c for exps, c in shear.terms.items()}))


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("kind", ["translation", "scaling", "shear"])
def test_pushforward_matches_reference_on_one_step(kind, degree):
    rng = random.Random(f"fused-push:{kind}:{degree}")
    for _ in range(6):
        phi = _random_step(rng, kind)
        a = random_element(rng, T, degree, max_components=4)
        for field in (a, Multivector.zero(T, degree)):
            _assert_same(pushforward(phi, field),
                         _reference_pushforward([phi], field))


@pytest.mark.parametrize("degree", range(6))
def test_pushforward_matches_reference_along_paths(degree):
    rng = random.Random(f"fused-path:{degree}")
    kinds = ("translation", "scaling", "shear")
    for _ in range(4):
        path = [_random_step(rng, rng.choice(kinds))
                for _ in range(rng.randint(2, 4))]
        a = random_element(rng, T, degree, max_components=3)
        _assert_same(pushforward(path, a), _reference_pushforward(path, a))


def test_a_family_pushforward_matches_reference():
    spec = DiagonalSpec(4, {(1, 2): 3, (1, 3): -5, (1, 4): 7, (2, 3): 11,
                            (2, 4): -13, (3, 4): 17})
    family = DeformationFamily.build(spec, [
        ("translation", "x1", "t"), ("shear", "x2", "t*x3^2 + x4"),
        ("scaling", {"x3": "2", "x4": "-1/3"}), ("translation", "x4", "2*t")])
    _assert_same(family.bivector(), _reference_pushforward(
        family.path, family.base_bivector()))
