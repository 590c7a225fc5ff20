"""The exterior-algebra kernel against coordinate formulas from outside it.

The `_reference_*` tests elsewhere compare the kernel with earlier
versions of itself, which share its sign conventions.  Here the right
side is written out in sympy from the coefficients alone, so a Koszul
sign or a factor shared by every version of the kernel still shows.
Jet orders are read the same way, from sympy's own derivatives.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from poissonkit import (GaussRational, Polynomial,  # noqa: E402
                        VariableTable, VolumeCurl, curl, documents,
                        jet_vanishing, schouten)
from poissonkit.randomized import (random_element,  # noqa: E402
                                   random_polynomial)


def _sympy_scalar(c):
    """A GaussRational as an exact sympy number."""
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def _sympy_polynomial(f, symbols):
    """f as a sympy expression with exact Gaussian-rational coefficients."""
    return sympy.Add(*(
        _sympy_scalar(c) * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
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


def _jet_cases():
    """(structure, exact point, r): every golden `jet` case that exits 0,
    then seeded random bivectors with parameters at small complex points,
    each times (x_c - value of x_c)^m for m = 0..4, so that the orders
    run from 0 to past r."""
    golden = Path(__file__).parent / "golden"
    cases = []
    for record in json.loads((golden / "expected.json").read_text()):
        if record["argv"][0] != "jet" or record["exit"] != 0:
            continue
        flags = dict(zip(record["argv"][1::2], record["argv"][2::2]))
        loaded = documents.load_path(str(golden / "inputs" / flags["--in"][1:]))
        # a document marked integrable loads as a PoissonStructure
        pi = getattr(loaded, "bivector", loaded)
        table = pi.table
        values = documents.parse_assignments(flags["--point"], table,
                                             float_syntax=True)
        values.update(documents.parse_assignments(
            flags.get("--params", ""), table, table.parameters,
            float_syntax=True))
        cases.append((pi, values, int(flags.get("--r", 3))))
    rng = random.Random("jet-reference")
    for k in range(60):
        n = 3 + k % 3
        table = VariableTable([f"x{i}" for i in range(1, n + 1)], ("a", "b"))
        pi = random_element(rng, table, 2, max_components=4)
        pi = pi + random_polynomial(rng, table, 4, 3) * pi
        values = {name: GaussRational(Fraction(rng.randint(-8, 8), 4),
                                      Fraction(rng.randint(-8, 8), 4))
                  for name in table.names}
        if k % 4 == 0:
            values[rng.choice(table.coordinates)] = GaussRational(0)
        c = rng.choice(table.coordinates)
        line = Polynomial.variable(table, c) - Polynomial.constant(
            table, values[c])
        cases.append((line ** (k % 5) * pi, values, 3))
    return cases


def _sympy_jet_order(pi, values, r):
    """Least k <= r at which some k-th partial derivative of some
    coefficient of pi is nonzero at the point, r + 1 if none is: sympy's
    Poly.diff, then Poly.eval at the point's exact Rational and I values."""
    symbols = sympy.symbols(pi.table.names)
    point = {s: _sympy_scalar(values[name])
             for s, name in zip(symbols, pi.table.names)}
    coordinates = symbols[:len(pi.table.coordinates)]
    entries = [sympy.Poly.from_dict({exps: _sympy_scalar(c)
                                     for exps, c in f.terms.items()}, *symbols)
               for f in pi.terms.values()]
    for k in range(r + 1):
        for f in entries:
            for combo in combinations_with_replacement(coordinates, k):
                derivative = f.diff(*combo) if combo else f
                if derivative.eval(point) != 0:
                    return k
    return r + 1


def test_jet_orders_equal_sympy_derivatives_at_the_exact_point():
    """On every golden `jet` case and on seeded random bivectors with
    parameters at small complex points, the jet order is the one sympy
    reads from exact derivatives."""
    orders = Counter()
    for pi, values, r in _jet_cases():
        order = jet_vanishing(pi, values, r=r)
        assert order == _sympy_jet_order(pi, values, r), (pi, values)
        orders[order] += 1
    # every order is reached, and every jet through r = 3 vanishing
    assert set(orders) == {0, 1, 2, 3, 4}, orders
