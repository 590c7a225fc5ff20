"""Diagonal structures: Pfaffians, curl eigenvalues, kernel log form."""

import random
from fractions import Fraction
from math import factorial

import pytest

from poissonkit import (DiagonalSpec, GaussRational, Multivector, Polynomial,
                        curl, curl_eigenvalues,
                        format_polynomial, is_generic, log_annihilator,
                        make_diagonal, parse_polynomial, pfaffian,
                        random_generic_spec, contract, wedge_power)
from poissonkit.polynomials import MAX_COORDINATES


def numeric_spec(n, values):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return DiagonalSpec(n, {pair: GaussRational(v)
                            for pair, v in zip(pairs, values)})


def test_spec_validation():
    with pytest.raises(ValueError):
        DiagonalSpec(3, {(2, 1): GaussRational(1)})  # needs i < j
    with pytest.raises(ValueError):
        DiagonalSpec(3, {(1, 5): GaussRational(1)})  # out of range
    spec = DiagonalSpec.symbolic(3)
    assert spec.parameter_names() == ("l12", "l13", "l23")
    assert not spec.is_numeric()
    assert numeric_spec(2, [5]).is_numeric()


def test_entry_polynomial_is_skew():
    spec = DiagonalSpec.symbolic(3)
    T = spec.table()
    assert spec.entry_polynomial(T, 1, 2) == parse_polynomial("l12", T)
    assert spec.entry_polynomial(T, 2, 1) == parse_polynomial("-l12", T)
    assert spec.entry_polynomial(T, 2, 2).is_zero()


def test_make_diagonal_is_integrable():
    ps = make_diagonal(DiagonalSpec.symbolic(5))
    assert ps.integrable is True
    T = ps.table
    assert ps.bivector.terms.get((0, 1), Polynomial.zero(T)) == \
        parse_polynomial("l12*x1*x2", T)


def test_pfaffian_two_and_four():
    spec2 = DiagonalSpec.symbolic(2)
    T2 = spec2.table()
    assert pfaffian(spec2.lambda_matrix(T2)) == parse_polynomial("l12", T2)
    spec4 = DiagonalSpec.symbolic(4)
    T4 = spec4.table()
    assert pfaffian(spec4.lambda_matrix(T4)) == parse_polynomial(
        "l12*l34 - l13*l24 + l14*l23", T4)


def test_pfaffian_of_scalars_and_mixed_entries():
    spec = numeric_spec(4, [2, 3, 5, 7, 11, 13])
    T = spec.table()
    symbolic = pfaffian(spec.lambda_matrix(T))  # 2*13 - 3*11 + 5*7
    assert symbolic == Polynomial.constant(T, 28)
    gauss = [[spec.entry_scalar(i, j) for j in range(1, 5)]
             for i in range(1, 5)]
    assert pfaffian(gauss) == GaussRational(28)
    assert isinstance(pfaffian(gauss), GaussRational)
    ints = [[0, 2, 3, 5], [-2, 0, 7, 11], [-3, -7, 0, 13], [-5, -11, -13, 0]]
    # integer entries give the GaussRational of the integer Pfaffian
    assert pfaffian(ints) == GaussRational(28)
    assert type(pfaffian(ints)) is GaussRational
    # mixed scalar and polynomial entries give a polynomial
    mixed = [row[:] for row in ints]
    mixed[0][1] = parse_polynomial("2", T)
    assert pfaffian(mixed) == symbolic
    # a vanishing Pfaffian is the zero of its ring
    rank_two = [[0, 1, 2, 3], [-1, 0, 1, 2], [-2, -1, 0, 1], [-3, -2, -1, 0]]
    assert pfaffian(rank_two) == GaussRational(0)
    for zero in (GaussRational(0), Polynomial.zero(T)):
        value = pfaffian([[zero] * 2] * 2)
        assert type(value) is type(zero) and value == zero
    assert pfaffian([]) == GaussRational(1)


def _reference_pfaffian(m):
    """First-row expansion in the entries' own arithmetic."""
    if not m:
        return 1
    total = 0
    for j in range(1, len(m)):
        keep = [k for k in range(1, len(m)) if k != j]
        minor = [[m[r][c] for c in keep] for r in keep]
        term = m[0][j] * _reference_pfaffian(minor)
        total = total + term if j % 2 else total - term
    return total


def _skew(upper, size=4):
    m = [[0] * size for _ in range(size)]
    for (i, j), v in upper.items():
        m[i][j], m[j][i] = v, -v
    return m


def test_pfaffian_kinds_and_zeros_follow_the_entries_ring():
    # scalar entries of any kind (int, Fraction, GaussRational) give a
    # GaussRational equal to the Pfaffian in the entries' own arithmetic
    half, i = Fraction(1, 2), GaussRational.i()
    ints = {(0, 1): 2, (0, 2): 3, (0, 3): 5, (1, 2): 7, (1, 3): 11,
            (2, 3): 13}
    cases = [
        (ints, 28),
        ({**ints, (0, 1): half}, Fraction(17, 2)),
        ({**ints, (0, 1): Fraction(4, 2)}, 28),
        ({k: GaussRational(v) for k, v in ints.items()}, 28),
        ({**ints, (0, 1): i}, GaussRational(2, 13)),
        ({**ints, (0, 1): half, (1, 3): i},
         GaussRational(Fraction(83, 2), -3)),
        # a01 a23 - a02 a13 + a03 a12 = 0 whatever the entries' kind
        ({(0, 1): 1, (2, 3): 2, (0, 2): 1, (1, 3): 2}, 0),
        ({(0, 1): half, (2, 3): 2, (0, 2): 1, (1, 3): 1}, 0),
        ({(0, 1): i, (2, 3): i, (0, 2): -1, (1, 3): 1}, 0),
        ({(0, 1): GaussRational(0)}, 0),
        ({(0, 1): Fraction(0)}, 0),
        ({}, 0),
    ]
    for upper, value in cases:
        matrix = _skew(upper)
        got = pfaffian(matrix)
        assert type(got) is GaussRational and got == value, upper
        assert got == _reference_pfaffian(matrix), upper
    rng = random.Random("pfaffian-kinds")
    for _ in range(40):
        pool = (lambda: rng.randint(-5, 5),
                lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                lambda: GaussRational(rng.randint(-3, 3), rng.randint(-3, 3)))
        draw = rng.choice(((0,), (0, 1), (0, 2), (0, 1, 2)))
        upper = {(r, c): pool[rng.choice(draw)]()
                 for r in range(6) for c in range(r + 1, 6)}
        got = pfaffian(_skew(upper, 6))
        assert type(got) is GaussRational
        assert got == _reference_pfaffian(_skew(upper, 6))


def test_pfaffian_odd_size_rejected():
    spec = DiagonalSpec.symbolic(3)
    with pytest.raises(ValueError):
        pfaffian(spec.lambda_matrix(spec.table()))


def test_pfaffian_squares_to_determinant():
    rng = random.Random(99)
    for _ in range(10):
        size = rng.choice((2, 4, 6))
        entries = {}
        for i in range(1, size + 1):
            for j in range(i + 1, size + 1):
                entries[(i, j)] = GaussRational(rng.randint(-9, 9))
        spec = DiagonalSpec(size, entries)
        T = spec.table()
        matrix = spec.lambda_matrix(T)
        pf = pfaffian(matrix)
        det = _determinant(matrix, T)
        assert pf * pf == det


def _determinant(matrix, table):
    size = len(matrix)
    if size == 0:
        return Polynomial.one(table)
    total = Polynomial.zero(table)
    for j in range(size):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[matrix[r][c] for c in range(size) if c != j]
                 for r in range(1, size)]
        term = entry * _determinant(minor, table)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_top_power_factors_through_pfaffian():
    for m in (1, 2, 3):
        spec = DiagonalSpec.symbolic(2 * m)
        ps = make_diagonal(spec)
        T = ps.table
        top = wedge_power(ps.bivector, m)
        coords = Polynomial.monomial(T, {f"x{k}": 1
                                         for k in range(1, 2 * m + 1)})
        pf = pfaffian(spec.lambda_matrix(T))
        expected = coords * pf * GaussRational(factorial(m))
        assert top == Multivector(T, 2 * m,
                                  {tuple(range(2 * m)): expected})


def test_curl_eigenvalues_formula_and_sum():
    spec = DiagonalSpec.symbolic(2)
    T = spec.table()
    mu = curl_eigenvalues(spec)
    assert list(mu) == [parse_polynomial("l12", T),
                        parse_polynomial("-l12", T)]
    for n in range(2, 7):
        spec = DiagonalSpec.symbolic(n)
        T = spec.table()
        mu = curl_eigenvalues(spec)
        total = Polynomial.zero(T)
        for value in mu:
            total = total + value
        assert total.is_zero()
        # the curl of the structure is sum_i mu_i x_i xi_i
        field = curl(make_diagonal(spec).bivector)
        for i in range(n):
            assert field.terms.get((i,), Polynomial.zero(T)) == \
                mu[i] * Polynomial.variable(T, f"x{i + 1}")


def test_log_annihilator_three_coordinates():
    spec = numeric_spec(3, [2, 3, 5])
    form = log_annihilator(spec)
    T = form.table
    assert [format_polynomial(r) for r in form.residues] == ["1", "-3/5", "2/5"]
    # residues lie in the kernel of the coefficient matrix
    matrix = spec.lambda_matrix(T)
    for row in matrix:
        total = Polynomial.zero(T)
        for entry, res in zip(row, form.residues):
            total = total + entry * res
        assert total.is_zero()


def test_log_annihilator_kills_the_structure():
    spec = numeric_spec(5, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    form = log_annihilator(spec)
    ps = make_diagonal(spec)
    cleared = form.cleared_form()
    assert contract(cleared, ps.bivector).is_zero()


def test_log_annihilator_requires_odd_and_generic():
    with pytest.raises(ValueError):
        log_annihilator(DiagonalSpec.symbolic(4))
    degenerate = DiagonalSpec(3, {(1, 2): GaussRational(0),
                                  (1, 3): GaussRational(0),
                                  (2, 3): GaussRational(0)})
    with pytest.raises(ValueError):
        log_annihilator(degenerate)


def test_is_generic():
    assert is_generic(numeric_spec(2, [3]))
    assert not is_generic(numeric_spec(2, [0]))
    # l12 = l34 = 1 gives mu = (1, -1, 1, -1): repeated eigenvalues
    assert not is_generic(numeric_spec(4, [1, 0, 0, 0, 0, 1]))
    assert is_generic(numeric_spec(4, [1, 1, 1, 1, 1, 1]))
    assert is_generic(numeric_spec(4, [2, 3, 5, 7, 11, 13]))


def test_is_generic_is_one_pfaffian_test_for_either_parity(monkeypatch):
    import poissonkit.diagonal as diagonal

    def refuse(spec):
        raise AssertionError("is_generic called log_annihilator")

    monkeypatch.setattr(diagonal, "log_annihilator", refuse)
    # one coordinate: Pf of the empty minor is 1, but mu_1 = 0
    assert not is_generic(DiagonalSpec(1, {}))
    # l12, l13, l23 = 1, 2, 5: mu = (3, 4, -7)
    assert is_generic(numeric_spec(3, [1, 2, 5]))
    # Lambda = e1 v^T - v e1^T with v = (0, 1, 2, 3, 4) has rank 2, so
    # every 4 x 4 minor's Pfaffian vanishes, while mu = (10, -1, -2, -3,
    # -4) is nonzero and distinct: the Pfaffian test alone refuses it
    rank_two = numeric_spec(5, [1, 2, 3, 4])
    assert [m.constant_value() for m in curl_eigenvalues(rank_two)] == [
        10, -1, -2, -3, -4]
    assert not is_generic(rank_two)
    assert is_generic(numeric_spec(4, [2, 3, 5, 7, 11, 13]))


def test_random_generic_spec():
    rng = random.Random(4)
    for n in (2, 3, 4, 5, 6):
        spec = random_generic_spec(n, rng)
        assert spec.n == n
        assert spec.is_numeric()
        assert is_generic(spec)


def test_random_generic_spec_needs_two_coordinates():
    # the one curl eigenvalue on one coordinate is 0, so no draw is generic
    assert curl_eigenvalues(DiagonalSpec(1, {}))[0].is_zero()
    with pytest.raises(ValueError, match="^n must be at least 2: mu_1 = 0 "
                                         "on one coordinate$"):
        random_generic_spec(1, random.Random(1))


@pytest.mark.parametrize("build", [
    lambda: DiagonalSpec(MAX_COORDINATES + 1, {}),
    lambda: DiagonalSpec(10 ** 30, {(1, 2): GaussRational(1)}),
    lambda: DiagonalSpec.symbolic(10 ** 30),
    lambda: random_generic_spec(10 ** 30, random.Random(1)),
], ids=["spec", "spec-huge", "symbolic", "random"])
def test_coordinate_count_is_bounded(build):
    with pytest.raises(ValueError, match=f"^n must be at most "
                                         f"{MAX_COORDINATES}$"):
        build()


def test_the_coordinate_bound_admits_p12():
    assert MAX_COORDINATES == 13
    spec = DiagonalSpec.symbolic(MAX_COORDINATES)
    assert len(spec.entries) == 78 and spec.table().n_coordinates == 13
