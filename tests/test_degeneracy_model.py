"""Degeneracy ideals and divisors against the wedge ladder they replaced.

`degeneracy_ideal` and `degeneracy_divisor` read the coefficient of
Pi^k at the sorted index set S as k! Pf(A_S), from one memoized
sub-Pfaffian expansion of the coefficient table A.  The reference
functions below are the old algorithm, kept as the model the new one
must match exactly: Pi, Pi^2, ... by repeated `wedge`, stopping at the
first power that vanishes.
"""

import random
from fractions import Fraction

import pytest

from poissonkit import (DiagonalSpec, GaussRational, Multivector, Polynomial,
                        PoissonStructure, VariableTable, chart_extend,
                        degeneracy_divisor, degeneracy_ideal, make_diagonal,
                        parse_polynomial, wedge_power)
from poissonkit.diagonal import is_generic
from poissonkit.randomized import random_polynomial


def _reference_ideal(ps, two_k):
    n = ps.table.n_coordinates
    if two_k % 2 != 0 or two_k < 0 or two_k >= 2 * (n // 2):
        raise ValueError("bad degeneracy order")
    power = wedge_power(ps.bivector, two_k // 2 + 1)
    return [power.terms[ix] for ix in sorted(power.terms)]


def _reference_divisor(ps):
    """(power, generators, support product, monomial gcd) by the ladder."""
    table = ps.table
    n = table.n_coordinates
    top = None
    power = wedge_power(ps.bivector, 1)
    k = 1
    while k <= n // 2 and not power.is_zero():
        top = power
        power = power.wedge(ps.bivector)
        k += 1
    if top is None:
        raise ValueError("zero structure has no degeneracy divisor")
    generators = [top.terms[ix] for ix in sorted(top.terms)]
    support = set()
    gcd_exps = None
    for g in generators:
        support |= {v for v in g.variables_present() if table.is_coordinate(v)}
        for exps in g.terms:
            coords = exps[:n]
            gcd_exps = coords if gcd_exps is None else tuple(
                min(a, b) for a, b in zip(gcd_exps, coords))
    support_product = Polynomial.monomial(
        table, {name: 1 for name in sorted(support, key=table.slot)})
    monomial_gcd = Polynomial.monomial(
        table, {table.coordinates[i]: e for i, e in enumerate(gcd_exps) if e})
    return k - 1, generators, support_product, monomial_gcd


def _assert_matches_ladder(ps):
    """Divisor and every ideal order identical to the ladder; returns the
    divisor power."""
    divisor = degeneracy_divisor(ps)
    power, generators, support, gcd = _reference_divisor(ps)
    assert divisor.power == power
    assert divisor.generators == tuple(generators)
    assert divisor.support_product == support
    assert divisor.monomial_gcd == gcd
    for g in divisor.generators:
        assert g.table == ps.table
        assert all(not c.is_zero() for c in g.terms.values())
    n = ps.table.n_coordinates
    for two_k in range(0, 2 * (n // 2), 2):
        ideal = degeneracy_ideal(ps, two_k)
        assert ideal.k == two_k
        assert ideal.generators == tuple(_reference_ideal(ps, two_k))
    return divisor.power


def _random_structure(rng, table, density):
    """Bivector whose (i, j) coefficient is nonzero with probability
    `density`, drawn with fractional and occasionally imaginary scalars."""
    n = table.n_coordinates
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                terms[(i, j)] = random_polynomial(rng, table, max_terms=2,
                                                  max_degree=2, bound=5)
    return PoissonStructure(Multivector(table, 2, terms))


def _coordinates(n):
    return tuple(f"x{k}" for k in range(1, n + 1))


@pytest.mark.parametrize("seed", range(24))
def test_random_structures_match_ladder(seed):
    rng = random.Random(f"degeneracy-model:{seed}")
    n = 2 + seed % 6  # even and odd tables, C^2 to C^7
    params = ("a",) if seed % 3 == 0 else ()
    table = VariableTable(_coordinates(n), params)
    ps = _random_structure(rng, table, density=(1.0, 0.6, 0.3)[seed % 3])
    if ps.bivector.is_zero():
        ps = PoissonStructure(Multivector.basis(table, (0, 1), 3))
    _assert_matches_ladder(ps)


def test_random_structures_carry_fractional_and_imaginary_scalars():
    scalars = []
    for seed in range(24):
        rng = random.Random(f"degeneracy-model:{seed}")
        table = VariableTable(_coordinates(2 + seed % 6),
                              ("a",) if seed % 3 == 0 else ())
        ps = _random_structure(rng, table, density=(1.0, 0.6, 0.3)[seed % 3])
        scalars += [c for f in ps.bivector.terms.values()
                    for c in f.terms.values()]
    assert any(c.re.denominator > 1 for c in scalars)
    assert any(c.im != 0 for c in scalars)


def _complex_spec(rng, n):
    while True:
        spec = DiagonalSpec(n, {
            (i, j): GaussRational(
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 40),
                         rng.randint(1, 9)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        if is_generic(spec):
            return spec


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_projective_chart_matches_ladder(n):
    rng = random.Random(f"degeneracy-model-charts:{n}")
    for _ in range(2):
        ps = make_diagonal(_complex_spec(rng, 2 * n))
        for c in range(2 * n + 1):
            assert _assert_matches_ladder(chart_extend(ps, c)) == n


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_tables_match_ladder(n):
    rng = random.Random(f"degeneracy-model-odd:{n}")
    ps = make_diagonal(_complex_spec(rng, n))
    assert _assert_matches_ladder(ps) == n // 2
    table = VariableTable(_coordinates(n))
    assert _assert_matches_ladder(_random_structure(rng, table, 0.8)) >= 1


def _diagonal(lambdas):
    n = len(lambdas)
    return make_diagonal(DiagonalSpec(n, {
        (i + 1, j + 1): GaussRational(lambdas[i][j])
        for i in range(n) for j in range(i + 1, n) if lambdas[i][j]}))


def _wedge_sum(n, pairs):
    """Skew matrix sum_p u_p v_p^T - v_p u_p^T, of rank 2 * len(pairs)."""
    return [[sum(Fraction(u[i] * v[j] - u[j] * v[i]) for u, v in pairs)
             for j in range(n)] for i in range(n)]


def test_rank_deficient_tables_match_ladder():
    rng = random.Random("degeneracy-model-rank")
    for n, rank in ((4, 2), (6, 2), (6, 4), (7, 4), (8, 6)):
        pairs = [([rng.randint(-5, 5) for _ in range(n)],
                  [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(n)]) for _ in range(rank // 2)]
        ps = _diagonal(_wedge_sum(n, pairs))
        # Pf(Lambda) = 0, so the top power vanishes on the whole table
        assert _assert_matches_ladder(ps) == rank // 2 < n // 2
    # a coefficient table whose 4x4 Pfaffian cancels term by term
    table = VariableTable(_coordinates(4), ("a",))
    u = [parse_polynomial(t, table) for t in ("x1", "a*x2", "1/2*i", "x3*x4")]
    v = [parse_polynomial(t, table) for t in ("x2", "x3", "x1 - a", "3")]
    terms = {(i, j): u[i] * v[j] - u[j] * v[i]
             for i in range(4) for j in range(i + 1, 4)}
    ps = PoissonStructure(Multivector(table, 2, terms))
    assert _assert_matches_ladder(ps) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_symbolic_tables_match_ladder(n):
    ps = make_diagonal(DiagonalSpec.symbolic(n))
    assert _assert_matches_ladder(ps) == n // 2
    # a sparse symbolic spec: l13, l24 and l56 only
    entries = {pair: f"l{pair[0]}{pair[1]}"
               for pair in ((1, 3), (2, 4), (5, 6)) if pair[1] <= n}
    if entries:
        _assert_matches_ladder(make_diagonal(DiagonalSpec(n, entries)))


def test_zero_structure_and_bad_orders_raise():
    table = VariableTable(_coordinates(4))
    zero = PoissonStructure(Multivector.zero(table, 2))
    for function in (degeneracy_divisor, _reference_divisor):
        with pytest.raises(ValueError):
            function(zero)
    ps = make_diagonal(DiagonalSpec.symbolic(5))
    for bad in (-2, 1, 3, 4, 5, 6):
        with pytest.raises(ValueError):
            degeneracy_ideal(ps, bad)
        with pytest.raises(ValueError):
            _reference_ideal(ps, bad)


def test_divisor_and_ideals_build_no_wedge(monkeypatch):
    ps = chart_extend(make_diagonal(_complex_spec(random.Random(8), 8)), 3)

    def no_wedge(self, other):
        raise AssertionError("wedge called")

    monkeypatch.setattr(Multivector, "wedge", no_wedge)
    assert degeneracy_divisor(ps).power == 4
    assert len(degeneracy_ideal(ps, 4).generators) == 28
