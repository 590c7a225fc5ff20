"""The product loop on raw (a, b, d) triples against the scalar loop it
replaced, and a digest of the paper's projective claim on Q(i) specs.

`_reference_mul_into` is the old product loop, which multiplied and
added GaussRational objects term by term; the raw loop plus the one
builder `_from_raw` must give the same polynomial, term for term.
"""

import hashlib
import random
from fractions import Fraction

from poissonkit import (DiagonalSpec, GaussRational, Polynomial,
                        chart_extend, degeneracy_divisor, jacobi_check,
                        make_diagonal)
from poissonkit.polynomials import VariableTable, _from_raw, _mul_into

T = VariableTable(("x1", "x2", "x3"), ("a",))


def _raw(terms):
    """The raw term dict {packed key: (a, b, d)} of {exponents: scalar}."""
    return {T._pack(e): c._t for e, c in terms.items()}


def _reference_mul_into(acc, terms1, terms2):
    for e1, c1 in terms1.items():
        for e2, c2 in terms2.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            prev = acc.get(exps)
            acc[exps] = c1 * c2 if prev is None else prev + c1 * c2


def _scalar(rng):
    re = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 9)))
    im = (Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5, 6)))
          if rng.random() < 0.4 else 0)
    return GaussRational(re, im) if re or im else GaussRational(1)


def _terms(rng, size):
    terms = {}
    for _ in range(size):
        exps = tuple(rng.randint(0, 2) for _ in range(T.width))
        terms[exps] = _scalar(rng)
    return terms


def test_raw_loop_matches_the_scalar_loop_term_for_term():
    rng = random.Random("raw-loop")
    cancelled = 0
    for _ in range(300):
        raw, ref = {}, {}
        pairs = [(_terms(rng, rng.randint(1, 4)), _terms(rng, rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # the same product with the opposite sign cancels exactly
            f, g = pairs[0]
            pairs.append((f, {e: -c for e, c in g.items()}))
        for f, g in pairs:
            _mul_into(raw, _raw(f), _raw(g), T)
            _reference_mul_into(ref, f, g)
        got, want = _from_raw(T, raw), Polynomial(T, ref)
        assert got.terms == want.terms
        assert all(c._t == w._t for c, w in zip(got.terms.values(),
                                                 want.terms.values()))
        cancelled += len(raw) - len(got.terms)
    assert cancelled


def test_an_accumulator_keeps_the_lcm_of_its_denominators():
    one = T._pack((0,) * T.width)
    for k in range(1, 12):
        for order in (range(1, k + 1), range(k, 0, -1)):
            acc = {}
            for j in order:
                _mul_into(acc, {one: (1, 0, 2 ** j)}, {one: (1, 0, 1)}, T)
            assert acc[one][2] == 2 ** k
    acc = {}
    for d in (2, 3, 4, 6, 9):
        _mul_into(acc, {one: (1, 1, 1)}, {one: (1, 0, d)}, T)
    assert acc[one][2] == 36
    assert _from_raw(T, acc).terms[(0,) * T.width] == GaussRational(
        Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4) + Fraction(1, 6)
        + Fraction(1, 9), Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
        + Fraction(1, 6) + Fraction(1, 9))


def _chart_digest(top):
    rng = random.Random("projective-qi")
    digest = hashlib.sha256()
    for n in range(2, top + 1, 2):
        for imaginary in (False, True):
            entries = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    re = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 8))
                    im = (Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                          if imaginary else 0)
                    entries[(i, j)] = GaussRational(re, im)
            ps = make_diagonal(DiagonalSpec(n, entries))
            for c in range(n + 1):
                chart = chart_extend(ps, c)
                divisor = degeneracy_divisor(chart)
                digest.update(repr(chart.bivector).encode())
                digest.update(repr(jacobi_check(chart)).encode())
                digest.update(f"{divisor.power}|{divisor.support_product}|"
                              f"{divisor.monomial_gcd}|".encode())
                digest.update("|".join(map(str, divisor.generators)).encode())
    return digest.hexdigest()


def test_charts_brackets_and_divisors_on_qi_specs_are_unchanged():
    """Every chart of P^2..P^8 for fractional and imaginary specs; the
    digest was taken from the scalar-accumulating kernel."""
    assert _chart_digest(8) == (
        "5d50c3c229d7f8782c902cdec49f0d44ed3647027f60c74167efedafe63b6e27")
