"""Each operation has one implementation; these tests keep the retired
second ones as references and require the same results.

* division: the step loop with its own product and sum, which
  `reduce_mod` used before each step ran in `polynomials._mul_into`;
* curl: the conjugation of d by the volume isomorphism, which `curl`
  equals and no longer computes;
* the skew matrix of `rank_at`: every entry read through the skew fill
  pi_ji = -pi_ij, one evaluation per entry;
* rank at a point: Gauss-Jordan elimination of that matrix, the scan
  reference `test_structures._reference_rref`, where `rank_at` now reads
  the largest nonzero principal Pfaffian from `_PfaffianMemo`.
"""

import random

import pytest

from poissonkit import (GaussRational, Multivector, PoissonStructure,
                        Polynomial, VariableTable, contract, curl,
                        exterior_derivative, rank_at, reduce_mod,
                        volume_isomorphism, volume_isomorphism_inverse)
from poissonkit import multivectors, polynomials
from poissonkit.randomized import random_element, random_polynomial
from poissonkit.scalars import _product, _quotient, _reduced, _sum
from poissonkit.structures import _PfaffianMemo

from test_structures import _reference_rref

COORDINATES = VariableTable(("x1", "x2", "x3", "x4"))
WITH_PARAMETERS = VariableTable(("x1", "x2", "x3"), ("p1", "p2"))


def _reference_reduce_mod(f: Polynomial, g: Polynomial):
    """Division by g with a step loop of its own: each quotient term
    adds factor * shift * (negated tail of g) into the work dict one
    target at a time, reducing each sum and deleting each zero."""
    table = f.table
    guard = table._guard
    lead_g = max(g._raw)
    lc_g = g._raw[lead_g]
    tail = [(e, (-a, -b, d)) for e, (a, b, d) in g._raw.items() if e != lead_g]
    work = dict(f._raw)
    quotient, remainder = {}, {}
    while work:
        m = max(work)
        c = work.pop(m)
        shift = m - lead_g
        if shift >= 0 and not (shift & guard):
            factor = quotient[shift] = _reduced(_quotient(c, lc_g))
            for key, t in tail:
                target = key + shift
                acc = _sum(work.get(target, (0, 0, 1)), _product(factor, t))
                if acc[0] or acc[1]:
                    work[target] = _reduced(acc)
                else:
                    del work[target]
        else:
            remainder[m] = c
    return (polynomials._from_raw(table, quotient),
            polynomials._from_raw(table, remainder))


def _nonzero(rng, table, **sizes):
    f = random_polynomial(rng, table, **sizes)
    while f.is_zero():
        f = random_polynomial(rng, table, **sizes)
    return f


@pytest.mark.parametrize("table", [COORDINATES, WITH_PARAMETERS],
                         ids=["coordinates", "parameters"])
def test_division_matches_the_step_loop(table):
    rng = random.Random(2417)
    inexact = complex_quotients = 0
    for _ in range(150):
        f = random_polynomial(rng, table, max_terms=8, max_degree=4, bound=7)
        g = _nonzero(rng, table, max_terms=3, max_degree=2, bound=5)
        quotient, remainder = reduce_mod(f, g)
        assert (quotient, remainder) == _reference_reduce_mod(f, g)
        assert quotient * g + remainder == f
        # an exact multiple: every term of f cancels on the way
        q = _nonzero(rng, table, max_terms=4, max_degree=3, bound=5)
        multiple = q * g
        assert reduce_mod(multiple, g) == (q, Polynomial.zero(table))
        assert _reference_reduce_mod(multiple, g) == (q, Polynomial.zero(table))
        inexact += not remainder.is_zero()
        complex_quotients += any(c.im for _, c in quotient.sorted_terms())
    assert inexact and complex_quotients


def test_division_covers_complex_and_fractional_coefficients():
    table = WITH_PARAMETERS
    f = polynomials.parse_polynomial(
        "(2/3 + 5*i)*x1^3*p1 - 7/4*i*x1*x2^2 + (1/9 - 1/9*i)*x3*p2^2 + 11", table)
    g = polynomials.parse_polynomial("(3/5 - 2/5*i)*x1*p1 + 1/2*x2 - i*p2", table)
    assert reduce_mod(f, g) == _reference_reduce_mod(f, g)
    quotient, remainder = reduce_mod(f, g)
    assert quotient * g + remainder == f
    coefficients = [c for _, c in quotient.sorted_terms()]
    assert any(c.im and c.re.denominator > 1 for c in coefficients)


def _conjugated_curl(a: Multivector) -> Multivector:
    return volume_isomorphism_inverse(exterior_derivative(volume_isomorphism(a)))


@pytest.mark.parametrize("table", [COORDINATES, WITH_PARAMETERS],
                         ids=["coordinates", "parameters"])
def test_curl_is_the_conjugation_in_every_degree(table):
    rng = random.Random(83)
    for degree in range(table.n_coordinates + 1):
        for _ in range(15):
            a = random_element(rng, table, degree, max_components=3)
            expected = _conjugated_curl(a)
            assert curl(a) == expected
            assert curl(a).degree == expected.degree
            u = random_polynomial(rng, table, max_terms=2, max_degree=2)
            while u.is_constant():
                u = random_polynomial(rng, table, max_terms=2, max_degree=2)
            pair = curl(a, u)
            assert pair.main == expected
            assert pair.correction == -contract(exterior_derivative(u), a)
            assert curl(a, Polynomial.constant(table, 3)) == expected


def test_curl_reads_no_volume_isomorphism(monkeypatch):
    def refuse(*args):
        raise AssertionError("curl went through a volume isomorphism or d")

    for name in ("volume_isomorphism", "volume_isomorphism_inverse",
                 "exterior_derivative"):
        monkeypatch.setattr(multivectors, name, refuse)
    a = random_element(random.Random(5), COORDINATES, 2, max_components=3)
    curl(a)
    curl(a, Polynomial.constant(COORDINATES, 2))


def test_division_runs_in_the_product_loop(monkeypatch):
    f = polynomials.parse_polynomial("x1^3*x2 + x1^2 + 5", COORDINATES)
    g = polynomials.parse_polynomial("x1 - x2 + 1", COORDINATES)
    calls = []
    original = polynomials._mul_into

    def counting(acc, left, right, table):
        calls.append((len(left), len(right)))
        return original(acc, left, right, table)

    monkeypatch.setattr(polynomials, "_mul_into", counting)
    quotient, remainder = reduce_mod(f, g)
    monkeypatch.undo()
    # one call per quotient term, on that term and the two of g's tail
    assert calls == [(1, 2)] * len(quotient.sorted_terms())
    assert quotient * g + remainder == f


def test_the_pfaffian_of_the_empty_set_is_the_unit():
    table = COORDINATES
    assert _PfaffianMemo({}, table)[()] == {0: (1, 0, 1)}
    x1 = polynomials.parse_polynomial("x1", table)._raw
    memo = _PfaffianMemo({0b11: x1, 0b1100: x1}, table)
    assert memo[()] == {0: (1, 0, 1)}
    assert memo[(0, 1)] == x1
    assert memo[(0, 2)] == {}
    assert polynomials._from_raw(table, memo[(0, 1, 2, 3)]) == \
        polynomials.parse_polynomial("x1^2", table)


def _reference_rank_at(ps: PoissonStructure, point) -> int:
    """Rank by elimination, with each entry read through the skew fill
    and evaluated where it stands: pi_ij above the diagonal, -pi_ji
    below, 0 on it."""
    table = ps.table
    n = table.n_coordinates

    def entry(i, j):
        if i == j:
            return Polynomial.zero(table)
        if i < j:
            return ps.bivector.terms.get((i, j), Polynomial.zero(table))
        return -ps.bivector.terms.get((j, i), Polynomial.zero(table))

    rows = [{j: entry(i, j).evaluate(point) for j in range(n)}
            for i in range(n)]
    return len(_reference_rref(rows, n)[1])


def _outcome(function, *args):
    try:
        return "value", function(*args)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_rank_at_names_the_unassigned_variable_as_the_skew_fill_did():
    table = VariableTable(("x1", "x2", "x3", "x4"), ("a", "b", "c"))
    rng = random.Random(61)
    names = table.names
    missing_named = set()
    for _ in range(200):
        bivector = random_element(rng, table, 2, max_components=4)
        if bivector.is_zero():
            continue
        ps = PoissonStructure(bivector)
        # each point leaves out a different subset of the variables
        point = {name: GaussRational(rng.randint(-3, 3))
                 for name in names if rng.random() < 0.75}
        got = _outcome(rank_at, ps, point)
        assert got == _outcome(_reference_rank_at, ps, point)
        if got[0] == "KeyError":
            missing_named.add(got[1])
    # several different variables are named first
    assert len(missing_named) >= 4
