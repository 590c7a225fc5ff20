"""The exterior-algebra kernel against coordinate formulas from outside it.

The `_reference_*` tests elsewhere compare the kernel with earlier
versions of itself, which share its sign conventions.  Here the right
side is written out in sympy from the coefficients alone, so a Koszul
sign or a factor shared by every version of the kernel still shows.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from poissonkit import (Polynomial, VariableTable, VolumeCurl,  # noqa: E402
                        curl, schouten)
from poissonkit.randomized import (random_element,  # noqa: E402
                                   random_polynomial)


def _sympy_polynomial(f, symbols):
    """f as a sympy expression with exact Gaussian-rational coefficients."""
    return sympy.Add(*(
        (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
        * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
        for exps, c in f.terms.items()))


def _bivector_entries(pi, symbols):
    """pi_ij for every ordered pair, with pi_ji = -pi_ij and pi_ii = 0."""
    n = len(symbols)
    entries = [[sympy.Integer(0)] * n for _ in range(n)]
    for (i, j), f in pi.terms.items():
        entries[i][j] = _sympy_polynomial(f, symbols)
        entries[j][i] = -entries[i][j]
    return entries


def test_the_self_bracket_is_minus_twice_the_jacobiator():
    """Coefficient (i, j, k) of [Pi, Pi] is
    -2 sum_l (pi_li d_l pi_jk + pi_lj d_l pi_ki + pi_lk d_l pi_ij),
    the Jacobiator of the brackets {x_i, x_j} = pi_ij, on seeded random
    bivectors on C^3..C^6, integrable or not."""
    rng = random.Random("schouten-jacobiator")
    non_integrable = 0
    for n in (3, 4, 5, 6):
        table = VariableTable(tuple(f"x{k}" for k in range(1, n + 1)))
        symbols = sympy.symbols(table.coordinates)

        def d(l, f):
            return sympy.diff(f, symbols[l])

        for _ in range(8):
            pi = random_element(rng, table, 2, max_components=4)
            bracket = schouten(pi, pi)
            non_integrable += not bracket.is_zero()
            p = _bivector_entries(pi, symbols)
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        jacobiator = sum(
                            p[l][i] * d(l, p[j][k]) + p[l][j] * d(l, p[k][i])
                            + p[l][k] * d(l, p[i][j]) for l in range(n))
                        left = _sympy_polynomial(bracket.terms.get(
                            (i, j, k), Polynomial.zero(table)), symbols)
                        assert sympy.expand(left + 2 * jacobiator) == 0, \
                            (pi, (i, j, k))
    # the identity is tested on brackets that do not vanish
    assert non_integrable >= 8


def test_the_volume_curl_is_minus_the_divergence_against_u():
    """Coefficient j of the curl against the volume u dx_1^...^dx_n is
    -(1/u) sum_i d_i(u pi_ij), minus the divergence of Pi against that
    volume; the sign is the one the plain curl (u = 1) has.  Checked as
    main + correction / u on seeded random bivectors on C^2..C^5 and
    random non-constant units u."""
    rng = random.Random("volume-curl-divergence")
    for n in (2, 3, 4, 5):
        table = VariableTable(tuple(f"x{k}" for k in range(1, n + 1)))
        symbols = sympy.symbols(table.coordinates)
        zero = Polynomial.zero(table)

        def coefficient(field, j):
            return _sympy_polynomial(field.terms.get((j,), zero), symbols)

        for _ in range(6):
            pi = random_element(rng, table, 2, max_components=4)
            p = _bivector_entries(pi, symbols)

            def divergence(u, j):
                return sum(sympy.diff(u * p[i][j], symbols[i])
                           for i in range(n)) / u

            plain = curl(pi)
            for j in range(n):
                assert sympy.expand(coefficient(plain, j)
                                    + divergence(1, j)) == 0, (pi, j)
            u = random_polynomial(rng, table, max_terms=3, max_degree=2)
            while u.is_constant():
                u = random_polynomial(rng, table, max_terms=3, max_degree=2)
            pair = curl(pi, u)
            assert isinstance(pair, VolumeCurl)
            w = _sympy_polynomial(u, symbols)
            for j in range(n):
                value = (coefficient(pair.main, j)
                         + coefficient(pair.correction, j) / w)
                assert sympy.cancel(value + divergence(w, j)) == 0, \
                    (pi, u, j)
