"""The exterior-algebra kernel against coordinate formulas from outside it.

The `_reference_*` tests elsewhere compare the kernel with earlier
versions of itself, which share its sign conventions.  Here the right
side is written out in sympy from the coefficients alone, so a Koszul
sign or a factor shared by every version of the kernel still shows.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from poissonkit import VariableTable, schouten  # noqa: E402
from poissonkit.randomized import random_element  # noqa: E402


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
                        left = _sympy_polynomial(
                            bracket.coefficient((i, j, k)), symbols)
                        assert sympy.expand(left + 2 * jacobiator) == 0, \
                            (pi, (i, j, k))
    # the identity is tested on brackets that do not vanish
    assert non_integrable >= 8
