"""Invariance constraints on quadratic bivectors and the simplex filter."""

from math import comb

import pytest

from poissonkit import (GaussRational, Multivector, PoissonStructure,
                        Polynomial, RigiditySystem, VariableTable,
                        check_multiplicity, contract, diagonality_constraints,
                        exterior_derivative, jacobi_check, parse_polynomial,
                        reduce_mod, rigidity, simplex_multiplicity_filter,
                        solve_rigidity)


def _reference_constraints(N):
    """The rows built on one ring with every unknown a_ij^kl a parameter.

    The Hamiltonian field of each x_m under the general quadratic
    bivector is reduced mod each x_m'; every remainder term is linear in
    exactly one unknown, whose parameter slot names the column.
    """
    unknowns = [
        (i, j, k, l)
        for i in range(1, N + 1) for j in range(i, N + 1)
        for k in range(1, N + 1) for l in range(k + 1, N + 1)
    ]
    coords = tuple(f"x{m}" for m in range(1, N + 1))
    params = tuple(f"a{i}{j}_{k}{l}" for (i, j, k, l) in unknowns)
    table = VariableTable(coords, params)
    terms = {}
    for name, (i, j, k, l) in zip(params, unknowns):
        coeff = Polynomial.monomial(
            table, {name: 1, f"x{i}": 1}) * Polynomial.monomial(
            table, {f"x{j}": 1})
        key = (k - 1, l - 1)
        terms[key] = terms.get(key, Polynomial.zero(table)) + coeff
    bivector = Multivector(table, 2, terms)

    rows = []
    seen = set()
    for m in range(1, N + 1):
        field = contract(
            exterior_derivative(Polynomial.variable(table, f"x{m}")), bivector)
        for mp in range(1, N + 1):
            if mp == m:
                continue
            component = field.terms.get((mp - 1,), Polynomial.zero(table))
            _, remainder = reduce_mod(
                component, Polynomial.variable(table, f"x{mp}"))
            grouped = {}
            for exps, value in remainder.terms.items():
                hot = exps[N:].index(1)
                grouped.setdefault(exps[:N], {})[hot] = value
            for key in sorted(grouped):
                row = grouped[key]
                fingerprint = tuple(sorted(
                    (c, v.re, v.im) for c, v in row.items()))
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    rows.append(row)
    return unknowns, rows


def _satisfied_by(system, vector):
    """Check an assignment (dense scalar list) against every row."""
    for row in system.rows:
        acc = GaussRational.zero()
        for col, coeff in row.items():
            acc = acc + coeff * vector[col]
        if not acc.is_zero():
            return False
    return True


def _diagonal_vector(system, m, mp):
    """Indicator assignment of the diagonal unknown a_mm'^mm'."""
    target = (min(m, mp), max(m, mp)) * 2
    return [GaussRational(1 if u == target else 0) for u in system.unknowns]


def test_unknown_count():
    system = diagonality_constraints(5)
    # one unknown per (monomial with i <= j) x (wedge slot k < l)
    assert system.n_unknowns == 15 * 10
    assert len(system.unknowns) == 150


def test_constraints_match_the_parameter_ring_reference():
    for N in range(2, 7):
        unknowns, rows = _reference_constraints(N)
        system = diagonality_constraints(N)
        assert list(system.unknowns) == unknowns
        assert system.rows == rows
        assert system.table == VariableTable(
            tuple(f"x{m}" for m in range(1, N + 1)))


def test_one_contraction_per_wedge_slot(monkeypatch):
    calls = []

    def counted(eta, a):
        calls.append(1)
        return contract(eta, a)

    monkeypatch.setattr(rigidity, "contract", counted)
    for N in range(2, 9):
        calls.clear()
        diagonality_constraints(N)
        assert len(calls) == N * (N - 1)


def test_solve_rigidity_rejects_a_non_diagonal_kernel():
    system = diagonality_constraints(3)
    column = system.unknowns.index((1, 1, 1, 2))
    kept = [row for row in system.rows if column not in row]
    assert len(kept) < len(system.rows)
    broken = RigiditySystem(3, system.unknowns, kept, system.table)
    with pytest.raises(AssertionError, match=r"non-diagonal nullspace vector "
                       r"on unknowns \[\(1, 1, 1, 2\)\]"):
        solve_rigidity(broken)


def test_solve_rigidity_rejects_a_row_with_two_entries():
    system = diagonality_constraints(3)
    first, second = (system.unknowns.index(u)
                     for u in ((1, 1, 1, 2), (1, 2, 1, 2)))
    rows = [{first: GaussRational(1), second: GaussRational(-1)}]
    broken = RigiditySystem(3, system.unknowns, rows, system.table)
    with pytest.raises(AssertionError, match=(
            rf"constraint row is not one nonzero entry: columns "
            rf"\[{first}, {second}\] on unknowns "
            rf"\[\(1, 1, 1, 2\), \(1, 2, 1, 2\)\]")):
        solve_rigidity(broken)


def test_solve_rigidity_rejects_a_row_whose_entry_is_zero():
    system = diagonality_constraints(3)
    column = system.unknowns.index((1, 1, 1, 2))
    rows = list(system.rows) + [{column: GaussRational.zero()}]
    broken = RigiditySystem(3, system.unknowns, rows, system.table)
    with pytest.raises(AssertionError, match=(
            rf"constraint row is not one nonzero entry: columns "
            rf"\[{column}\] on unknowns \[\(1, 1, 1, 2\)\]")):
        solve_rigidity(broken)


def test_solution_space_dimension():
    for N in range(2, 9):
        system = diagonality_constraints(N)
        dimension, basis = solve_rigidity(system)
        assert dimension == comb(N, 2)
        assert len(basis) == dimension


def test_basis_vectors_are_diagonal_and_integrable():
    system = diagonality_constraints(4)
    _, basis = solve_rigidity(system)
    seen = set()
    for vector in basis:
        (indices, coeff), = vector.sorted_terms()
        k, l = indices
        seen.add((k, l))
        T = vector.table
        assert coeff == parse_polynomial(f"x{k + 1}*x{l + 1}", T)
        assert jacobi_check(PoissonStructure(vector)).is_zero()
    assert seen == {(k, l) for k in range(4) for l in range(k + 1, 4)}


def test_diagonal_vectors_satisfy_the_system():
    system = diagonality_constraints(3)
    for m in range(1, 4):
        for mp in range(m + 1, 4):
            assert _satisfied_by(system, _diagonal_vector(system, m, mp))
    off_diagonal = [GaussRational(1 if u == (1, 1, 1, 2) else 0)
                    for u in system.unknowns]
    assert not _satisfied_by(system, off_diagonal)


def test_simplex_filter_unique_survivor():
    for k in (1, 2, 3, 4):
        result = simplex_multiplicity_filter(k)
        assert result.total == comb(2 * k + 1, k)
        assert len(result.survivors) == 1
        assert result.survivors[0] == (1,) * (k + 1)


def test_simplex_filter_rejects_small_k():
    with pytest.raises(ValueError):
        simplex_multiplicity_filter(0)


def test_simplex_filter_rejects_k_past_the_bound():
    with pytest.raises(ValueError, match="^k must be at most 10$"):
        simplex_multiplicity_filter(11)


def test_check_multiplicity():
    T = VariableTable(tuple(f"x{k}" for k in range(4)))

    def poly(text):
        return parse_polynomial(text, T)

    assert check_multiplicity(poly("x0*x1*x2*x3"), 3)
    assert not check_multiplicity(poly("x0^2*x1*x2"), 3)
    assert not check_multiplicity(poly("x0^4"), 3)
    with pytest.raises(ValueError):
        check_multiplicity(poly("x0*x1 + x2"), 3)  # not homogeneous of k+1
