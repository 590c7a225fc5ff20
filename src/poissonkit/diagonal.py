"""Diagonal Poisson structures and their exact invariants.

A diagonal structure is Pi = sum_{i<j} lambda_ij x_i x_j xi_i^xi_j.  The
skew matrix Lambda = (lambda_ij) carries every invariant used here: the
Pfaffian controls the degeneracy divisor, the row sums mu_i are the curl
eigenvalues, and for odd n the kernel of Lambda gives the residues of
the annihilating logarithmic 1-form.

"Generic" means what `is_generic` checks, and nothing more: Lambda has
full rank (Pf(Lambda) != 0 for even n, some Pf(Lambda_i) != 0 for odd n)
and the mu_i are nonzero and pairwise distinct.  Generic sampling draws
integers from [-10^6, 10^6] and resamples until `is_generic` holds.
"""

from __future__ import annotations

import random
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

from . import polynomials
from .multivectors import DifferentialForm, Multivector
from .polynomials import MAX_COORDINATES, Polynomial, VariableTable
from .scalars import Frozen, GaussRational
from .structures import CheckFailed, PoissonStructure, _PfaffianMemo


def _coordinate_count(n: int) -> int:
    """n, refused before a table or entry dict of its size is built."""
    if n < 1:
        raise ValueError("need at least one coordinate")
    if n > MAX_COORDINATES:
        raise ValueError(f"n must be at most {MAX_COORDINATES}")
    return n


class DiagonalSpec(Frozen):
    """Strictly upper-triangular data lambda_ij, 1 <= i < j <= n.

    Entries are GaussRational scalars or parameter-name strings; the two
    may be mixed.  Missing entries are zero.  The value is immutable.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries):
        object.__setattr__(self, "n", _coordinate_count(n))
        cleaned = {}
        for (i, j), value in dict(entries).items():
            if not (1 <= i < j <= n):
                raise ValueError(f"entry ({i},{j}) out of range for n={n}")
            if isinstance(value, str):
                cleaned[(i, j)] = value
            else:
                if not isinstance(value, GaussRational):
                    value = GaussRational(value)
                if not value.is_zero():
                    cleaned[(i, j)] = value
        object.__setattr__(self, "entries", MappingProxyType(cleaned))

    def __reduce__(self):
        return DiagonalSpec, (self.n, dict(self.entries))

    @classmethod
    def symbolic(cls, n: int) -> "DiagonalSpec":
        return cls(_coordinate_count(n), {
            (i, j): f"l{i}{j}"
            for i in range(1, n + 1) for j in range(i + 1, n + 1)})

    def is_numeric(self) -> bool:
        return all(not isinstance(v, str) for v in self.entries.values())

    def parameter_names(self) -> tuple:
        seen = []
        for key in sorted(self.entries):
            value = self.entries[key]
            if isinstance(value, str) and value not in seen:
                seen.append(value)
        return tuple(seen)

    def table(self) -> VariableTable:
        coords = tuple(f"x{k}" for k in range(1, self.n + 1))
        return VariableTable(coords, self.parameter_names())

    def entry_scalar(self, i: int, j: int):
        """lambda_ij for i != j as a scalar; None if symbolic."""
        value = self.entries.get((min(i, j), max(i, j)), GaussRational.zero())
        if isinstance(value, str):
            return None
        return value if i < j else -value

    def entry_polynomial(self, table: VariableTable, i: int, j: int) -> Polynomial:
        value = self.entries.get((min(i, j), max(i, j)))
        if value is None:
            return Polynomial.zero(table)
        if isinstance(value, str):
            poly = Polynomial.variable(table, value)
        else:
            poly = Polynomial.constant(table, value)
        return poly if i < j else -poly

    def lambda_matrix(self, table: VariableTable) -> list:
        return [
            [self.entry_polynomial(table, i, j) for j in range(1, self.n + 1)]
            for i in range(1, self.n + 1)
        ]

    def __eq__(self, other):
        if not isinstance(other, DiagonalSpec):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self):
        return f"<DiagonalSpec n={self.n} with {len(self.entries)} entries>"


def _diagonal_bivector(spec: DiagonalSpec, table: VariableTable) -> Multivector:
    """sum_{i<j} lambda_ij x_i x_j xi_i^xi_j on `table`: one monomial per
    entry, with a symbolic entry's parameter as one more factor."""
    terms = {}
    for (i, j), value in sorted(spec.entries.items()):
        powers = {f"x{i}": 1, f"x{j}": 1}
        if isinstance(value, str):
            powers[value], value = 1, 1
        terms[(i - 1, j - 1)] = Polynomial.monomial(table, powers, value)
    return Multivector(table, 2, terms)


def make_diagonal(spec: DiagonalSpec) -> PoissonStructure:
    """The structure sum_{i<j} lambda_ij x_i x_j xi_i^xi_j of the spec."""
    return PoissonStructure(_diagonal_bivector(spec, spec.table()))


def pfaffian(matrix: list):
    """Signed perfect-matching sum, expanding along the first row.

    Only entries above the diagonal are read, so skewness is implicit.
    Entries may be scalars or Polynomials on one table, mixed freely.
    The value is a Polynomial if any entry is one, else a GaussRational.
    """
    size = len(matrix)
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix must be square")
    if size % 2 != 0:
        raise ValueError("pfaffian needs even size")
    upper = {(i, j): matrix[i][j]
             for i in range(size) for j in range(i + 1, size)}
    table = next((v.table for v in upper.values()
                  if isinstance(v, Polynomial)), None)
    # scalar entries become constants on a table with no variables
    zero = Polynomial.zero(VariableTable(()) if table is None else table)
    value = polynomials._from_raw(zero.table, _PfaffianMemo(
        {1 << i | 1 << j: (zero + v)._raw for (i, j), v in upper.items()},
        zero.table)[tuple(range(size))])
    return value if table is not None else value.constant_value()


def _spec_pfaffians(spec: DiagonalSpec, table: VariableTable):
    """The memo of Pf(Lambda_S), a raw term dict for every sorted 0-based
    index tuple S, over the spec's entries."""
    return _PfaffianMemo({1 << (i - 1) | 1 << (j - 1):
                          spec.entry_polynomial(table, i, j)._raw
                          for i, j in spec.entries}, table)


def curl_eigenvalues(spec: DiagonalSpec) -> tuple:
    """mu_i = sum_{j>i} lambda_ij - sum_{j<i} lambda_ji; they sum to 0."""
    table = spec.table()
    mu = []
    for i in range(1, spec.n + 1):
        acc = Polynomial.zero(table)
        for j in range(1, spec.n + 1):
            if j != i:
                acc = acc + spec.entry_polynomial(table, i, j)
        mu.append(acc)
    if not sum(mu[1:], mu[0]).is_zero():
        raise ValueError("curl eigenvalues must sum to zero")
    return tuple(mu)


class LogForm(NamedTuple):
    """The 1-form sum_i residues_i dx_i/x_i annihilating the image of Pi."""

    table: VariableTable
    residues: tuple

    def cleared_form(self) -> DifferentialForm:
        """x1...xn times the form: a polynomial 1-form."""
        names = self.table.coordinates
        return DifferentialForm(self.table, 1, {
            (i,): res * Polynomial.monomial(
                self.table, {name: 1 for k, name in enumerate(names) if k != i})
            for i, res in enumerate(self.residues)})


def log_annihilator(spec: DiagonalSpec) -> LogForm:
    """Kernel log form for odd n via signed sub-Pfaffians.

    residues_i = (-1)^i Pf(Lambda with row/column i removed); for a
    numeric spec they are normalized so the first nonzero residue is 1.
    """
    if spec.n % 2 == 0:
        raise ValueError("log annihilator needs an odd number of coordinates")
    table = spec.table()
    pf = _spec_pfaffians(spec, table)
    indices = tuple(range(spec.n))
    residues = []
    for i in indices:
        value = polynomials._from_raw(table, pf[indices[:i] + indices[i + 1:]])
        residues.append(value if i % 2 == 0 else -value)
    if all(r.is_zero() for r in residues):
        raise CheckFailed("non-generic spec")
    if spec.is_numeric():
        lead = next(r for r in residues if not r.is_zero()).constant_value()
        inv = GaussRational.one() / lead
        residues = [r.scale(inv) for r in residues]
    return LogForm(table, tuple(residues))


def is_generic(spec: DiagonalSpec) -> bool:
    """Lambda of full rank, mu_i nonzero and distinct; full rank is some
    Pf(Lambda_S) != 0 with |S| = n - n % 2: the whole set for even n, the
    n minors (log_annihilator's residues up to sign) for odd n."""
    if not spec.is_numeric():
        raise ValueError("genericity check needs numeric entries")
    n = spec.n
    pf = _spec_pfaffians(spec, spec.table())
    if not any(pf[s] for s in combinations(range(n), n - n % 2)):
        return False
    mu = [m.constant_value() for m in curl_eigenvalues(spec)]
    if any(m.is_zero() for m in mu):
        return False
    return len(set(mu)) == len(mu)


def random_generic_spec(n: int, rng: random.Random,
                        bound: int = 10 ** 6) -> DiagonalSpec:
    if _coordinate_count(n) < 2:  # no spec on one coordinate is generic
        raise ValueError("n must be at least 2: mu_1 = 0 on one coordinate")
    for _ in range(200):  # a random draw is generic but for a thin set
        entries = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                value = 0
                while value == 0:
                    value = rng.randint(-bound, bound)
                entries[(i, j)] = GaussRational(value)
        spec = DiagonalSpec(n, entries)
        if is_generic(spec):
            return spec
    raise RuntimeError("could not sample a generic spec")
