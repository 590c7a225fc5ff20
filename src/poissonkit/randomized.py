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
                           schouten, wedge)
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


def check_wedge_supercommutativity(rng, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        a_deg = rng.randint(0, 3)
        b_deg = rng.randint(0, 3)
        a = random_element(rng, DEFAULT_TABLE, a_deg)
        b = random_element(rng, DEFAULT_TABLE, b_deg)
        if wedge(a, b) != wedge(b, a) * _sign(a_deg * b_deg):
            failures += 1
    return failures


def check_bracket_antisymmetry(rng, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        a_deg = rng.randint(0, 3)
        b_deg = rng.randint(0, 3)
        a = random_element(rng, DEFAULT_TABLE, a_deg)
        b = random_element(rng, DEFAULT_TABLE, b_deg)
        lhs = schouten(a, b)
        rhs = schouten(b, a) * (-_sign((a_deg - 1) * (b_deg - 1)))
        if lhs != rhs:
            failures += 1
    return failures


def check_bracket_leibniz(rng, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        a_deg = rng.randint(0, 3)
        b_deg = rng.randint(0, 2)
        c_deg = rng.randint(0, 2)
        a = random_element(rng, DEFAULT_TABLE, a_deg)
        b = random_element(rng, DEFAULT_TABLE, b_deg)
        c = random_element(rng, DEFAULT_TABLE, c_deg)
        lhs = schouten(a, wedge(b, c))
        rhs = wedge(schouten(a, b), c) \
            + wedge(b, schouten(a, c)) * _sign((a_deg - 1) * b_deg)
        if lhs != rhs:
            failures += 1
    return failures


def check_bracket_jacobi(rng, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        degs = [rng.randint(0, 3) for _ in range(3)]
        a, b, c = (random_element(rng, DEFAULT_TABLE, d) for d in degs)
        total = None
        for (u, du), (v, dv), (w, dw) in (
                ((a, degs[0]), (b, degs[1]), (c, degs[2])),
                ((b, degs[1]), (c, degs[2]), (a, degs[0])),
                ((c, degs[2]), (a, degs[0]), (b, degs[1]))):
            term = schouten(u, schouten(v, w)) * _sign((du - 1) * (dw - 1))
            total = term if total is None else total + term
        if not total.is_zero():
            failures += 1
    return failures


def check_bv_generates_bracket(rng, cases: int) -> int:
    failures = 0
    for _ in range(cases):
        a_deg = rng.randint(0, 3)
        b_deg = rng.randint(0, 3)
        a = random_element(rng, DEFAULT_TABLE, a_deg)
        b = random_element(rng, DEFAULT_TABLE, b_deg)
        defect = bv_laplacian(wedge(a, b)) \
            - wedge(bv_laplacian(a), b) \
            - wedge(a, bv_laplacian(b)) * _sign(a_deg)
        if defect != schouten(a, b) * (BV_SIGN * _sign(a_deg)):
            failures += 1
    return failures


def check_squares_vanish(rng, cases: int) -> int:
    failures = 0
    n = len(DEFAULT_TABLE.coordinates)
    for _ in range(cases):
        form = random_element(rng, DEFAULT_TABLE, rng.randint(0, n - 1),
                              cls=DifferentialForm)
        if not exterior_derivative(exterior_derivative(form)).is_zero():
            failures += 1
        field = random_element(rng, DEFAULT_TABLE, rng.randint(0, n))
        if not bv_laplacian(bv_laplacian(field)).is_zero():
            failures += 1
    return failures


def check_curl_is_signed_laplacian(rng, cases: int) -> int:
    failures = 0
    n = len(DEFAULT_TABLE.coordinates)
    for _ in range(cases):
        p = rng.randint(0, n)
        a = random_element(rng, DEFAULT_TABLE, p)
        if curl(a) != bv_laplacian(a) * _sign(p + 1):
            failures += 1
    return failures


def check_volume_curl_pair(rng, cases: int) -> int:
    """u*(curl_u A - curl A) must equal -contract(du, A) exactly."""
    failures = 0
    n = len(DEFAULT_TABLE.coordinates)
    for _ in range(cases):
        p = rng.randint(1, n)
        a = random_element(rng, DEFAULT_TABLE, p)
        u = random_polynomial(rng, DEFAULT_TABLE, max_terms=2, max_degree=2)
        while u.is_constant():
            u = random_polynomial(rng, DEFAULT_TABLE, max_terms=2, max_degree=2)
        pair = curl(a, u)
        defect = pair.correction + contract(exterior_derivative(u), a)
        if pair.main != curl(a) or not defect.is_zero() or pair.denominator != u:
            failures += 1
    return failures


def check_pushforward_naturality(rng, cases: int) -> int:
    failures = 0
    coords = DEFAULT_TABLE.coordinates
    for _ in range(cases):
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
        if pushforward(phi, schouten(a, b)) != schouten(
                pushforward(phi, a), pushforward(phi, b)):
            failures += 1
    return failures


SUITES = (
    ("wedge supercommutativity", check_wedge_supercommutativity),
    ("bracket graded antisymmetry", check_bracket_antisymmetry),
    ("bracket graded Leibniz", check_bracket_leibniz),
    ("bracket graded Jacobi", check_bracket_jacobi),
    ("laplacian generates bracket", check_bv_generates_bracket),
    ("d and laplacian square to zero", check_squares_vanish),
    ("curl equals signed laplacian", check_curl_is_signed_laplacian),
    ("volume curl exact pair", check_volume_curl_pair),
    ("pushforward naturality", check_pushforward_naturality),
)


def run_suites(seed: int, cases: int = 200):
    """Run every suite; returns [(name, cases, failures)]."""
    results = []
    for name, fn in SUITES:
        rng = random.Random(f"{seed}:{name}")
        results.append((name, cases, fn(rng, cases)))
    return results
