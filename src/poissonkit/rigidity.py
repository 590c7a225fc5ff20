"""The two finite combinatorial arguments behind diagonality.

First: a quadratic bivector with all coordinate hyperplanes invariant
must be diagonal.  The unknowns a_ij^kl (i <= j, k < l) are the
coefficients of a general quadratic bivector; requiring that the
Hamiltonian field of each x_m leave every {x_m' = 0} invariant yields a
homogeneous linear system whose solution space is spanned by the
diagonal monomials x_m x_m' xi_m^xi_m'.  Row (m, m', x_i x_j) of that
system is fed only by the unknown a_ij^kl with {k, l} = {m, m'}, so
every row holds one nonzero entry and the kernel is read off the
columns no row touches; no elimination runs.

Second: a homogeneous polynomial of degree k+1 in k+1 variables whose
second partials all vanish identically is a multiple of the unique
square-free monomial x_0...x_k.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

from .multivectors import Multivector, contract, exterior_derivative
from .polynomials import Polynomial, VariableTable, reduce_mod

# Largest N the command line accepts.  N = 12 has 5,148 unknowns and
# 8,712 rows, built from 132 unit fields; `poissonkit rigidity --dim 12`
# certifies 66 in 0.35 to 0.5 s, process start included (2-vCPU Xeon).
MAX_DIM = 12
# Largest k the simplex filter accepts.  It visits C(2k+1, k) monomials; a
# process runs 0.6-1.0 s at k = 10, 2.1 s at 11, 28 s at 13 (2-vCPU Xeon).
MAX_K = 10


class RigiditySystem(NamedTuple):
    """Homogeneous exact linear constraints on the a_ij^kl unknowns."""

    N: int
    unknowns: tuple       # (i, j, k, l) quadruples
    rows: list            # sparse column -> scalar maps
    table: VariableTable  # the N coordinates, no parameters

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns)


def diagonality_constraints(N: int) -> RigiditySystem:
    """Invariance of all coordinate hyperplanes as a linear system.

    Row (m, m', monomial) is the coefficient of that monomial in the
    xi_m' component of the Hamiltonian field of x_m, reduced mod x_m'.
    The field is linear in the unknowns, so column c is read off the
    basis bivector x_i x_j xi_k ^ xi_l of unknowns[c] alone.  Contraction
    is linear over functions, so that field is x_i x_j times the field of
    x_m under xi_k ^ xi_l, nonzero only for m in {k, l}: each column
    scatters one unit field times one remainder of x_i x_j mod x_m'.
    Rows run over m, then m', then sorted monomial.
    """
    if N < 2:
        raise ValueError("need at least two coordinates")
    unknowns = [
        (i, j, k, l)
        for i in range(1, N + 1) for j in range(i, N + 1)
        for k in range(1, N + 1) for l in range(k + 1, N + 1)
    ]
    table = VariableTable(tuple(f"x{m}" for m in range(1, N + 1)))
    variables = [Polynomial.variable(table, name)
                 for name in table.coordinates]
    differentials = [exterior_derivative(x) for x in variables]
    fields = {}  # (m, k, l) -> {m': scalar}: the field of x_m under xi_k^xi_l
    for k, l in combinations(range(N), 2):
        pair = Multivector.basis(table, (k, l))
        for m in (k, l):
            fields[m, k, l] = {mp: c.constant_value() for (mp,), c in
                               contract(differentials[m], pair).terms.items()}
    quadratics = {(i, j): variables[i - 1] * variables[j - 1]
                  for i in range(1, N + 1) for j in range(i, N + 1)}
    remainders = {(i, j, mp): reduce_mod(q, variables[mp])[1].terms
                  for (i, j), q in quadratics.items() for mp in range(N)}
    entries = {}  # (m, m', monomial) -> {column: scalar}, indices from 0
    for col, (i, j, k, l) in enumerate(unknowns):
        for m in (k - 1, l - 1):
            for mp, sign in fields[m, k - 1, l - 1].items():
                for exps, value in remainders[i, j, mp].items():
                    entries.setdefault((m, mp, exps), {})[col] = sign * value

    rows = [entries[key] for key in sorted(entries)]
    return RigiditySystem(N, tuple(unknowns), rows, table)


def solve_rigidity(system: RigiditySystem):
    """Exact kernel basis read off the row support, certified diagonal.

    Row (m, m', x_i x_j) is fed only by the unknown a_ij^kl with
    {k, l} = {m, m'}: the field of x_m under xi_k ^ xi_l is nonzero only
    for m in {k, l}, and then points along the other index.  So each
    row holds exactly one nonzero entry, forcing its unknown to zero,
    and the kernel is spanned by the unit vectors of the columns no row
    touches, in ascending column order.  A row that breaks this
    invariant raises with a diagnostic, as does a non-diagonal basis
    vector; either would falsify the implementation.

    Returns (dimension, basis) where basis is a list of monomial
    bivectors x_m x_m' xi_m ^ xi_m'.
    """
    touched = set()
    for row in system.rows:
        if len(row) != 1 or next(iter(row.values())).is_zero():
            cols = sorted(row)
            quads = [system.unknowns[idx] for idx in cols]
            raise AssertionError(
                f"constraint row is not one nonzero entry: columns "
                f"{cols} on unknowns {quads}")
        touched.update(row)
    basis = []
    table = system.table
    for col in range(system.n_unknowns):
        if col in touched:
            continue
        i, j, k, l = quad = system.unknowns[col]
        if {i, j} != {k, l}:
            raise AssertionError(
                f"non-diagonal nullspace vector on unknowns {[quad]}")
        monomial = Polynomial.monomial(table, {f"x{k}": 1, f"x{l}": 1})
        basis.append(Multivector.basis(table, (k - 1, l - 1), monomial))
    return len(basis), basis


class MonomialSurvivors(NamedTuple):
    """Degree-(k+1) exponent tuples passing the multiplicity filter."""

    k: int
    survivors: tuple
    total: int


def simplex_multiplicity_filter(k: int) -> MonomialSurvivors:
    """Keep degree-(k+1) monomials in x_0..x_k with all second partials zero."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}")
    nvars = k + 1
    survivors = []
    total = 0
    for combo in combinations_with_replacement(range(nvars), k + 1):
        total += 1
        exps = [0] * nvars
        for v in combo:
            exps[v] += 1
        if all(e <= 1 for e in exps):
            survivors.append(tuple(exps))
    if len(survivors) == 1 and any(e > 1 for e in survivors[0]):
        raise AssertionError("unique survivor must be square-free")
    return MonomialSurvivors(k, tuple(survivors), total)


def check_multiplicity(f: Polynomial, k: int) -> bool:
    """True iff every second partial of f vanishes identically.

    f must be homogeneous of degree k+1; a true result certifies f is a
    scalar multiple of the square-free product of its k+1 variables.
    """
    if f.is_zero() or f.homogeneous_degree() != k + 1:
        raise ValueError("input must be homogeneous of degree k+1")
    for name in f.table.coordinates:
        second = f.partial_derivative(name).partial_derivative(name)
        if not second.is_zero():
            return False
    square_free = all(
        all(e <= 1 for e in exps[:f.table.n_coordinates]) for exps in f.terms)
    if not square_free:
        raise AssertionError("vanishing second partials force a square-free form")
    return True
