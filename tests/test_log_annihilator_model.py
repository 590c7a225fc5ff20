"""log_annihilator and is_generic against the minor-by-minor reference.

The library reads every residue Pf(Lambda without i) and the even-n
Pfaffian from one shared sub-Pfaffian memo over the spec's entries.  The
reference below is the earlier form: it copies each of the n minors of
Lambda and calls `pfaffian` on it, and tests Pf(Lambda) on the full
lambda_matrix.
"""

import random
from fractions import Fraction

import pytest

from poissonkit import (DiagonalSpec, GaussRational, Polynomial,
                        curl_eigenvalues, format_polynomial, is_generic,
                        log_annihilator, pfaffian)
from poissonkit import diagonal


def _reference_residues(spec):
    table = spec.table()
    matrix = spec.lambda_matrix(table)
    residues = []
    for i in range(spec.n):
        minor = [
            [matrix[r][c] for c in range(spec.n) if c != i]
            for r in range(spec.n) if r != i
        ]
        value = pfaffian(minor)
        if not isinstance(value, Polynomial):
            value = Polynomial.constant(table, value)
        residues.append(value if i % 2 == 0 else -value)
    if all(r.is_zero() for r in residues):
        raise ValueError("non-generic spec")
    if spec.is_numeric():
        lead = next(r for r in residues if not r.is_zero()).constant_value()
        inv = GaussRational.one() / lead
        residues = [r.scale(inv) for r in residues]
    return residues


def _reference_is_generic(spec):
    if spec.n % 2 == 0:
        if pfaffian(spec.lambda_matrix(spec.table())).is_zero():
            return False
    else:
        try:
            _reference_residues(spec)
        except ValueError:
            return False
    mu = [m.constant_value() for m in curl_eigenvalues(spec)]
    if any(m.is_zero() for m in mu):
        return False
    return len(set(mu)) == len(mu)


def _random_spec(rng, n, values):
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entries[(i, j)] = rng.choice(values)
    return DiagonalSpec(n, entries)


SMALL = [GaussRational(0), GaussRational(1), GaussRational(-1),
         GaussRational(0, 1), GaussRational(2, -1)]
WIDE = [GaussRational(Fraction(p, q), Fraction(r, s))
        for p in (-3, 0, 2) for q in (1, 5) for r in (0, 1) for s in (1, 3)]


def _numeric_cases():
    rng = random.Random(8128)
    cases = []
    for n in range(1, 10):
        for values in (SMALL, WIDE):
            for _ in range(4):
                cases.append(_random_spec(rng, n, values))
    # sparse and structured non-generic specs
    cases.append(DiagonalSpec(5, {}))
    cases.append(DiagonalSpec(5, {(1, 2): GaussRational(3)}))
    cases.append(DiagonalSpec(4, {(1, 2): 1, (3, 4): 1}))
    cases.append(DiagonalSpec(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1}))
    cases.append(DiagonalSpec(6, {(1, 2): 2, (3, 4): 3, (5, 6): 5}))
    return cases


def _outcome(fn, spec):
    try:
        return [format_polynomial(r) for r in fn(spec)]
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_symbolic_residues_match_the_minor_by_minor_reference():
    for n in range(1, 10, 2):
        spec = DiagonalSpec.symbolic(n)
        residues = log_annihilator(spec).residues
        assert list(residues) == _reference_residues(spec)
        assert all(r.table == spec.table() for r in residues)
    assert [format_polynomial(r) for r in
            log_annihilator(DiagonalSpec(1, {})).residues] == ["1"]


def test_numeric_residues_and_genericity_match_the_reference():
    generic = non_generic = 0
    for spec in _numeric_cases():
        if spec.n % 2:
            got = _outcome(lambda s: log_annihilator(s).residues, spec)
            assert got == _outcome(_reference_residues, spec), spec.entries
        verdict = is_generic(spec)
        assert verdict == _reference_is_generic(spec), spec.entries
        generic += verdict
        non_generic += not verdict
    assert generic and non_generic


def test_one_memo_for_all_residues(monkeypatch):
    calls = []
    original = diagonal._PfaffianMemo

    def counting(entries, table):
        calls.append(entries)
        return original(entries, table)

    monkeypatch.setattr(diagonal, "_PfaffianMemo", counting)
    log_annihilator(DiagonalSpec.symbolic(7))
    assert len(calls) == 1


def test_even_genericity_reads_no_lambda_matrix(monkeypatch):
    def refuse(self, table=None):
        raise AssertionError("lambda_matrix built")

    monkeypatch.setattr(DiagonalSpec, "lambda_matrix", refuse)
    spec = DiagonalSpec(4, {(1, 2): 2, (1, 3): 3, (1, 4): 5, (2, 3): 7,
                            (2, 4): 11, (3, 4): 13})
    assert is_generic(spec)
    assert not is_generic(DiagonalSpec(4, {(1, 2): 1, (1, 3): 1}))
    with pytest.raises(ValueError):
        is_generic(DiagonalSpec.symbolic(4))
