"""Poisson structures: integrability, brackets, degeneracy, restriction,
hypersurface invariance, and projective chart transitions.

A PoissonStructure is an immutable degree-2 multivector.  Whether it is
integrable is decided in one place: `jacobi_check` computes [Pi, Pi]
from the structure's own bivector the first time it is asked and keeps
it, and the `integrable` property reads that bracket.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Mapping, NamedTuple

from . import multivectors, polynomials
from .multivectors import Multivector, contract, exterior_derivative, schouten
from .polynomials import (_FIELD_MASK, FIELD_BITS, Polynomial, VariableTable,
                          _values, reduce_mod)
from .scalars import Frozen


class CheckFailed(ValueError):
    """A well-posed check that fails: a chart that does not extend, a
    hyperplane that is not invariant, a non-generic spec.  The command
    line exits 1 on it and 2 on any other ValueError, which is unusable
    input."""


class PoissonStructure(Frozen):
    """A bivector whose integrability is computed once, on demand."""

    __slots__ = ("bivector", "_bracket")

    def __init__(self, bivector: Multivector):
        if not isinstance(bivector, Multivector) or bivector.degree != 2:
            raise ValueError("a Poisson structure needs a degree-2 multivector")
        object.__setattr__(self, "bivector", bivector)
        object.__setattr__(self, "_bracket", None)

    def __reduce__(self):
        return PoissonStructure, (self.bivector,)

    @property
    def table(self) -> VariableTable:
        return self.bivector.table

    @property
    def integrable(self) -> bool:
        return jacobi_check(self).is_zero()

    def __repr__(self):
        return f"<PoissonStructure {self.bivector!r}>"


def jacobi_check(ps: PoissonStructure) -> Multivector:
    """Return [Pi, Pi], computed from the structure's own bivector once."""
    bracket = ps._bracket
    if bracket is None:
        try:
            bracket = schouten(ps.bivector, ps.bivector)
        except ValueError as exc:  # a refused bracket: name the field
            raise ValueError(f"integrable: {exc}") from None
        object.__setattr__(ps, "_bracket", bracket)
    return bracket


def hamiltonian(ps: PoissonStructure, f: Polynomial) -> Multivector:
    """Vector field contract(df, Pi)."""
    return contract(exterior_derivative(f), ps.bivector)


def poisson_bracket(ps: PoissonStructure, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g}: the Hamiltonian field of f applied to g."""
    return contract(exterior_derivative(g), hamiltonian(ps, f)).scalar()


def wedge_power(a: Multivector, k: int) -> Multivector:
    if k < 0:
        raise ValueError("negative wedge power")
    out = Multivector.from_polynomial(Polynomial.one(a.table))
    for _ in range(k):
        out = out.wedge(a)
    return out


class _PfaffianMemo(dict):
    """Principal sub-Pfaffians Pf(A_S) of a skew table, memoized.

    `entries` maps the mask (1 << i) | (1 << j) of each pair i < j, as
    in a bivector's flat key, to the raw term dict {packed key:
    (a, b, d)} of a_ij on `table`; absent pairs are zero.
    Indexed by a sorted index tuple S of even length, the memo gives
    Pf(A_S) by expanding along the first row,
    Pf(A_S) = sum_p (-1)^p a_(s_0, s_(p+1)) Pf(A_S without s_0, s_(p+1)),
    down to Pf of the empty set, 1, so every smaller Pfaffian is computed
    once and shared.  Each value is a raw term dict of reduced nonzero
    triples, {} when the Pfaffian vanishes.  The dict fills itself
    through `__missing__`, not through a recursive closure, so it is no
    reference cycle and is freed as soon as its last caller drops it.
    """

    def __init__(self, entries: dict, table: VariableTable):
        self.entries, self.table = entries, table
        self.negated = {ix: polynomials._scaled(t, -1)
                        for ix, t in entries.items()}
        self[()] = {0: (1, 0, 1)}

    def __missing__(self, indices: tuple) -> dict:
        first, rest = 1 << indices[0], indices[1:]
        acc = {}
        for pos, j in enumerate(rest):
            a = (self.negated if pos % 2 else self.entries).get(first | 1 << j)
            if a:
                sub = self[rest[:pos] + rest[pos + 1:]]
                if sub:
                    polynomials._mul_into(acc, a, sub, self.table)
        acc = self[indices] = polynomials._normalized(acc)
        return acc


def _power_coefficients(ps: PoissonStructure):
    """k -> the nonzero coefficients of Pi^k in sorted index order.

    The coefficient of Pi^k at the sorted index set S is k! Pf(A_S) for
    the coefficient table A of Pi, so every k shares one Pfaffian memo.
    """
    table = ps.table
    pf = _PfaffianMemo(multivectors._split(ps.bivector), table).__getitem__

    def coefficients(k: int) -> list:
        scale = factorial(k)
        return [polynomials._from_raw(table, polynomials._scaled(t, scale))
                for t in map(pf, combinations(range(table.n_coordinates), 2 * k))
                if t]

    return coefficients


class DegeneracyIdeal(NamedTuple):
    """Coefficients of Pi^(k/2+1), the locus where rank <= k."""

    k: int
    generators: tuple


def degeneracy_ideal(ps: PoissonStructure, two_k: int) -> DegeneracyIdeal:
    n = ps.table.n_coordinates
    if two_k % 2 != 0 or two_k < 0 or two_k >= 2 * (n // 2):
        raise ValueError(f"degeneracy order must be even in [0, {2 * (n // 2) - 2}]")
    return DegeneracyIdeal(two_k,
                           tuple(_power_coefficients(ps)(two_k // 2 + 1)))


class DivisorData(NamedTuple):
    """Divisorial summary of the top nonvanishing degeneracy ideal.

    `support_product` is the square-free product of every coordinate
    appearing in some generator; `monomial_gcd` is the largest monomial
    in the coordinates dividing all generators.  The gcd certifies the
    actual divisorial part; a gcd of 1 with nonempty support shows the
    degeneracy locus has no divisorial component through the origin
    beyond the listed support pattern.
    """

    power: int
    generators: tuple
    support_product: Polynomial
    monomial_gcd: Polynomial

    def support_size(self) -> int:
        return len(self.support_product.variables_present())


def degeneracy_divisor(ps: PoissonStructure) -> DivisorData:
    """Top nonvanishing power Pi^k and its coefficients, searched from the
    largest k = n // 2 down, with their support and monomial gcd."""
    table = ps.table
    coefficients = _power_coefficients(ps)
    for power in range(table.n_coordinates // 2, 0, -1):
        generators = coefficients(power)
        if generators:
            break
    else:
        raise ValueError("zero structure has no degeneracy divisor")
    support = set()
    gcd_exps = None
    n_coords = table.n_coordinates
    for g in generators:
        support |= {v for v in g.variables_present() if table.is_coordinate(v)}
        for exps in map(table._unpack, g._raw):
            coords = exps[:n_coords]
            gcd_exps = coords if gcd_exps is None else tuple(
                min(a, b) for a, b in zip(gcd_exps, coords))
    support_product = Polynomial.monomial(
        table, {name: 1 for name in sorted(support, key=table.slot)})
    monomial_gcd = Polynomial.monomial(
        table, {table.coordinates[i]: e for i, e in enumerate(gcd_exps) if e})
    return DivisorData(power, tuple(generators), support_product, monomial_gcd)


def rank_at(ps: PoissonStructure, point: Mapping[str, object]) -> int:
    """Rank of the skew coefficient matrix at an exact point: 2k for the
    largest k with a nonzero principal Pfaffian of size 2k.

    Every pi_ij is evaluated in one batch, in sorted index order, into a
    Pfaffian memo of constants.  The search keeps one S with Pf(A_S)
    nonzero and borders it by a pair {a, b} outside S until every
    Pf(A_S+{a,b}) vanishes; then the rank is |S|, since those Pfaffians
    are +-Pf(A_S) times the entries of the Schur complement of A_S.
    """
    n = ps.table.n_coordinates
    terms = ps.bivector.sorted_terms()
    values = _values(ps.table, [f._raw for _, f in terms], point)
    entries = {1 << i | 1 << j: {0: value._t}
               for ((i, j), _), value in zip(terms, values) if value}
    pf = _PfaffianMemo(entries, ps.table)
    chosen = ()
    while True:
        outside = [k for k in range(n) if k not in chosen]
        bordered = (tuple(sorted(chosen + pair))
                    for pair in combinations(outside, 2))
        grown = next((s for s in bordered if pf[s]), None)
        if grown is None:
            return len(chosen)
        chosen = grown


def invariant_hypersurface(ps: PoissonStructure, f: Polynomial) -> bool:
    """True iff {x_m, f} lies in (f) for every coordinate x_m: the xi_m
    coefficient of the Hamiltonian field of f is -{x_m, f}."""
    if f.is_zero():
        raise ValueError("zero polynomial does not define a hypersurface")
    return all(reduce_mod(c, f)[1].is_zero()
               for c in hamiltonian(ps, f).terms.values())


def restrict_hyperplane(ps: PoissonStructure, coordinate) -> PoissonStructure:
    """Induced structure on the invariant {coordinate = 0}, given by name."""
    table = ps.table
    if not table.is_coordinate(coordinate):
        raise KeyError(f"not a coordinate: {coordinate!r}")
    if not invariant_hypersurface(ps, Polynomial.variable(table, coordinate)):
        raise CheckFailed("not a Poisson hypersurface")
    pos = table.coordinates.index(coordinate)
    new_table = table.drop_coordinate(coordinate)
    shift, bit = table._mask_shift, 1 << pos
    flat = {}
    for key, t in ps.bivector._flat.items():
        mask, exps = key >> shift, table._unpack(key & (1 << shift) - 1)
        if not (mask & bit or exps[pos]):  # drop xi_pos and x_pos
            mask = mask & (bit - 1) | mask >> 1 & ~(bit - 1)
            flat[mask << new_table._mask_shift
                 | new_table._pack(exps[:pos] + exps[pos + 1:])] = t
    return PoissonStructure(
        multivectors._built(Multivector, new_table, 2, flat))


def chart_transition(biv: Multivector, names: tuple, source: int,
                     target: int) -> Multivector:
    """Push a bivector between affine charts of projective space.

    `names` lists the n+1 homogeneous coordinate labels; the chart with
    index c has affine coordinates names-without-names[c] in order.  The
    input lives on chart `source`; the result lives on chart `target`.
    Raises CheckFailed("does not extend") if the pushforward has a pole.
    """
    n = len(names) - 1
    table = biv.table
    expected = tuple(nm for i, nm in enumerate(names) if i != source)
    if table.coordinates != expected:
        raise ValueError("bivector table does not match the source chart")
    if source == target:
        return biv
    target_coords = tuple(nm for i, nm in enumerate(names) if i != target)
    ttable = VariableTable(target_coords, table.parameters)
    hom = [i for i in range(n + 1) if i != source]  # source pos -> hom index
    tslot = {m: target_coords.index(names[m]) for m in range(n + 1) if m != target}
    anchor = tslot[source]  # slot of z_a = 1/y_b in the target chart
    units, shift = ttable._units, ttable._mask_shift  # shift is the source's
    one, minus_one = (1, 0, 1), (-1, 0, 1)

    # xi_k -> z_a xi_m, and xi_b -> -z_a sum_m z_m xi_m for y_b = 1/z_a,
    # as flat dicts for the shared pushforward
    xi_images = {}
    for k in range(n):
        m = hom[k]
        xi_images[k] = ({(1 << tslot[m] << shift) + units[anchor]: one}
                        if m != target
                        else {(1 << tslot[mm] << shift) + units[anchor]
                              + units[tslot[mm]]: minus_one
                              for mm in range(n + 1) if mm != target})

    # y^e -> z^e' z_a^(D - |e|) / z_a^D for the top coordinate degree D:
    # each numerator carries the pole as a bias of D at the anchor, so
    # no field goes negative; every nonzero sum must keep the bias.  Both
    # tables have the same fields, so the map is field arithmetic: each
    # coordinate field but y_b's stays or moves by one field, as z_a
    # enters the row and y_b leaves; z_a gets D - |e|, the degree D - e_b.
    low, top_shift = (1 << shift) - 1, table._degree_shifts[0]
    b_field, a_field = table._shifts[hom.index(target)], ttable._shifts[anchor]
    moves = {-1: 0, 0: 0, 1: 0}  # the fields that move up, stay, move down
    for k in range(n):
        if hom[k] != target:
            moves[tslot[hom[k]] - k] |= _FIELD_MASK << table._shifts[k]
    keep = moves[0] | (1 << table._degree_shifts[1] + FIELD_BITS) - 1
    top = max((key & low) >> top_shift for key in biv._flat) if biv else 0
    images = {}
    for key, t in biv._flat.items():
        e = key & low
        images[key - e + (e & keep) + ((e & moves[1]) >> FIELD_BITS)
               + ((e & moves[-1]) << FIELD_BITS)
               + (top - (e >> top_shift) << a_field)
               + (top - (e >> b_field & _FIELD_MASK) << top_shift)] = t
    bias = top * units[anchor]
    flat = {}
    for key, c in multivectors._pushforward_sums(
            ttable, images, xi_images).items():
        if c[0] or c[1]:
            if key >> a_field & _FIELD_MASK < top:
                raise CheckFailed("does not extend")
            flat[key - bias] = c
    return multivectors._built(Multivector, ttable, biv.degree, flat)


def chart_extend(ps: PoissonStructure, target: int,
                 chart_zero_name: str = "x0") -> PoissonStructure:
    """Extend a chart-0 structure on projective space to chart `target`.

    The structure's coordinates are read as X_1/X_0 .. X_n/X_0; the new
    chart gets the same labels plus `chart_zero_name`, a name the table
    must not hold, for X_0/X_target.  Nothing about integrability is
    carried over: the chart's [Pi, Pi] comes from its own bivector.
    """
    table = ps.table
    n = table.n_coordinates
    if not 0 <= target <= n:
        raise ValueError(f"chart index must lie in 0..{n}")
    if target == 0:
        return ps
    if chart_zero_name in table.names:
        raise ValueError(
            f"chart zero name {chart_zero_name!r} is already a variable")
    names = (chart_zero_name,) + table.coordinates
    return PoissonStructure(chart_transition(ps.bivector, names, 0, target))
