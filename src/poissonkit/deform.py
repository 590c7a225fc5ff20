"""Deformation families and degenerate-singular-point tracking.

A family is a generic diagonal base structure pushed forward along a
path of elementary automorphisms whose data is polynomial in a single
parameter t.  The pushforward is computed once, symbolically, so the
family is an exactly integrable bivector Pi_t.  The base degenerates at
the origin, and every step has a constant Jacobian determinant, so the
degenerate point of Pi_t is phi_t(0), the origin pushed along the path:
n polynomials in t over Q(i), composed once and evaluated exactly at
each t.  Jet orders are read from exact Taylor coefficients evaluated in
double precision against a tolerance.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, product
from cmath import isfinite
from math import factorial
from typing import NamedTuple

import numpy as np

from .automorphisms import (DiagonalScaling, ElementaryAutomorphism,
                            Translation, TriangularShear, pushforward)
from .diagonal import DiagonalSpec, _diagonal_bivector, is_generic
from .multivectors import Multivector, _built, curl
from .polynomials import (Polynomial, VariableTable, _substituted, _wrapped,
                          parse_polynomial)
from .scalars import Frozen, GaussRational
from .structures import PoissonStructure


def _family_table(base: DiagonalSpec, parameter: str) -> VariableTable:
    """x1..xn, then the parameter: the table of every family on `base`."""
    return VariableTable([f"x{k}" for k in range(1, base.n + 1)], (parameter,))


class DeformationFamily(Frozen):
    """Diagonal base pushed along parameter-dependent automorphisms; immutable."""

    __slots__ = ("base", "parameter", "table", "path",
                 "_bivector", "_curl", "_origin")

    def __init__(self, base: DiagonalSpec, path=(), parameter: str = "t"):
        if not base.is_numeric():
            raise ValueError("family base must have numeric entries")
        if base.n % 2 != 0:
            raise ValueError("family base must have an even number of coordinates")
        if not is_generic(base):
            raise ValueError("family base fails the genericity checks")
        table = _family_table(base, parameter)
        path = tuple(path)
        for step in path:
            if not isinstance(step, ElementaryAutomorphism):
                raise TypeError("path entries must be elementary automorphisms")
            if step.table != table:
                raise ValueError("path step lives on the wrong table")
        values = (base, parameter, table, path, None, None, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return DeformationFamily, (self.base, self.path, self.parameter)

    @classmethod
    def build(cls, base: DiagonalSpec, steps, parameter: str = "t"):
        """Construct from step descriptors.

        Each descriptor is ("translation", coord, text), ("shear", coord,
        text) or ("scaling", {coord: scalar_text}); every text is parsed
        over the family table.
        """
        table = _family_table(base, parameter)
        path = []
        for descriptor in steps:
            kind = descriptor[0]
            if kind in ("translation", "shear"):
                _, coord, text = descriptor
                step = Translation if kind == "translation" else TriangularShear
                path.append(step(table, coord, parse_polynomial(text, table)))
            elif kind == "scaling":
                _, scales = descriptor
                path.append(DiagonalScaling(table, {
                    name: parse_polynomial(text, table).constant_value()
                    for name, text in scales.items()}))
            else:
                raise ValueError(f"unknown step kind {kind!r}")
        return cls(base, path, parameter)

    @property
    def n(self) -> int:
        return self.base.n

    def base_bivector(self) -> Multivector:
        return _diagonal_bivector(self.base, self.table)

    def bivector(self) -> Multivector:
        """The exact symbolic pushforward Pi_t."""
        if self._bivector is None:
            object.__setattr__(self, "_bivector",
                               pushforward(self.path, self.base_bivector()))
        return self._bivector

    def curl_field(self) -> Multivector:
        if self._curl is None:
            object.__setattr__(self, "_curl", curl(self.bivector()))
        return self._curl

    def _origin_image(self) -> tuple:
        """phi_t(0) as n polynomials in t alone, composed on first use:
        from the origin, each step's forward images take the point the
        steps before it left."""
        if self._origin is None:
            table = self.table
            zero = Polynomial.zero(table)
            point = dict.fromkeys(table.coordinates, zero)
            for step in self.path:
                point.update({name: _wrapped(table, _substituted(
                    image._raw, table, point))
                    for name, image in step.forward_images().items()})
            object.__setattr__(self, "_origin", tuple(point.values()))
        return self._origin

    def at(self, t_value) -> PoissonStructure:
        """Exact member structure at a Gaussian-rational parameter value."""
        if not isinstance(t_value, GaussRational):
            t_value = GaussRational(t_value)
        images = {self.parameter: Polynomial.constant(self.table, t_value)}
        return PoissonStructure(_built(Multivector, self.table, 2, _substituted(
            self.bivector()._flat, self.table, images)))


class TrackResult(NamedTuple):
    """Degenerate singular point of one family member: `point` is
    phi_t(0) in Q(i), exact, and `gamma` the nearest doubles to its
    parts.  Pi_t and curl(Pi_t) vanish exactly there, so `residual`,
    `jet0` and `jet1`, their peaks at the point, are 0.0, and
    `newton_iters` is 0; the fields keep the shape of the report."""

    t: complex
    gamma: tuple
    point: tuple
    residual: float
    jet0: float
    jet1: float
    newton_iters: int


def track_degenerate_point(family: DeformationFamily, t: complex) -> TrackResult:
    """The zero of Pi_t and curl(Pi_t) that starts at the origin.

    t must be finite; it is read exactly from its doubles.  A part of
    the point that overflows double precision raises ValueError.
    """
    t = complex(t)
    if not isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    values = {family.parameter: GaussRational(t.real, t.imag)}
    point = tuple(f.evaluate(values) for f in family._origin_image())
    try:
        # int / int rounds to the nearest double
        gamma = tuple(complex(a / d, b / d) for a, b, d in
                      (z._t for z in point))
    except OverflowError:
        raise ValueError(f"gamma overflows double precision at t = {t}") \
            from None
    return TrackResult(t, gamma, point, 0.0, 0.0, 0.0, 0)


def _float_values(table: VariableTable, polynomials: list, point):
    """Complex-double values of polynomials at named variables, with
    overflow left as inf or NaN for the caller to refuse.

    The distinct monomials, in canonical order of first appearance, are
    the rows of an exponent matrix E and the coefficients a matrix C, so
    the values are C @ prod(x ** E).  A variable of no monomial need not
    be assigned; the error names the first missing one otherwise.
    """
    rows, entries = {}, []
    for k, f in enumerate(polynomials):
        for exps, coeff in f.sorted_terms():
            entries.append((k, rows.setdefault(exps, len(rows)), complex(coeff)))
    exponents = np.array(list(rows), dtype=np.int64).reshape(-1, table.width)
    coefficients = np.zeros((len(polynomials), len(rows)), dtype=complex)
    for k, m, value in entries:
        coefficients[k, m] = value
    used = list(zip(table.names, exponents.any(axis=0)))
    missing = sorted(name for name, u in used if u and name not in point)
    if missing:
        raise KeyError(f"unassigned variable: {missing[0]!r}")
    x = np.array([complex(point[name]) if u else 0j for name, u in used],
                 dtype=complex)
    with np.errstate(all="ignore"):
        return coefficients @ (x ** exponents).prod(axis=1)


def jet_vanishing(structure, point, r: int = 3, tol: float = 1e-6) -> int:
    """Least k <= r with a nonzero k-th Taylor coefficient at the point.

    Returns r+1 when every jet through order r vanishes below tolerance.
    r must lie in 0..3 and tol be finite and non-negative: no value
    compares above a NaN tolerance.  Taylor coefficients come from exact
    differentiation, evaluated in double precision; a value that
    overflows it raises ValueError, since an infinite or NaN value would
    compare as vanishing.
    """
    if r < 0:
        raise ValueError(f"r must be at least 0, got {r}")
    if r > 3:
        raise ValueError("jet resolution is limited to r <= 3")
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    bivector = structure.bivector if isinstance(structure, PoissonStructure) \
        else structure
    table = bivector.table
    coefficients = list(bivector.terms.values())
    for order in range(r + 1):
        derived, scales = [], []
        for combo in combinations_with_replacement(table.coordinates, order):
            scale = 1.0
            for c in Counter(combo).values():
                scale /= factorial(c)
            for f in coefficients:
                for name in combo:
                    f = f.partial_derivative(name)
                if not f.is_zero():
                    derived.append(f)
                    scales.append(scale)
        values = _float_values(table, derived, point)
        if not np.isfinite(values).all():
            raise ValueError(f"the order-{order} jet overflows double "
                             "precision at this point")
        if any(abs(v) * scale > tol for v, scale in zip(values, scales)):
            return order
    return r + 1


def scan_degenerate_points(ps: PoissonStructure, samples) -> list:
    """Exact grid scan for common zeros of Pi and curl(Pi).

    `samples` lists the exact values tried on every axis; returns the
    grid points (tuples of GaussRational) where both vanish.
    """
    table = ps.table
    names = table.coordinates
    polys = list(ps.bivector.terms.values())
    polys.extend(curl(ps.bivector).terms.values())
    hits = []
    for combo in product(samples, repeat=len(names)):
        values = dict(zip(names, combo))
        if all(f.evaluate(values).is_zero() for f in polys):
            hits.append(tuple(combo))
    return hits
