"""Deformation families and degenerate-singular-point tracking.

A family is a generic diagonal base structure pushed forward along a
path of elementary automorphisms whose data is polynomial in a single
parameter t.  The pushforward is computed once, symbolically, so the
family is an exactly integrable bivector Pi_t.  The base degenerates at
the origin, and every step has a constant Jacobian determinant, so the
degenerate point of Pi_t is phi_t(0), the origin pushed along the path:
n polynomials in t over Q(i), composed once and evaluated exactly, in one
batch, at each t.  Jet orders are read from exact Taylor coefficients
evaluated exactly: a jet vanishes when every coefficient is exactly zero.
"""

from __future__ import annotations

from itertools import chain, product
from cmath import isfinite
from typing import NamedTuple

from .automorphisms import (DiagonalScaling, ElementaryAutomorphism,
                            Translation, TriangularShear, pushforward)
from .diagonal import DiagonalSpec, _diagonal_bivector, is_generic
from .multivectors import Multivector, _built, curl
from .polynomials import (Polynomial, VariableTable, _substituted, _values,
                          _wrapped, parse_polynomial)
from .scalars import Frozen, _from_double
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
        """phi_t(0) as n raw term dicts in t alone, and their t-degree,
        composed on first use: from the origin, each step's forward images
        take the point the steps before it left."""
        if self._origin is None:
            table = self.table
            zero = Polynomial.zero(table)
            point = dict.fromkeys(table.coordinates, zero)
            for step in self.path:
                point.update({name: _wrapped(table, _substituted(
                    image._raw, table, point))
                    for name, image in step.forward_images().items()})
            raws = tuple(f._raw for f in point.values())
            degree = max(table._degrees(chain.from_iterable(raws)), default=0)
            object.__setattr__(self, "_origin", (raws, degree))
        return self._origin

    def at(self, t_value) -> PoissonStructure:
        """Exact member structure at a Gaussian-rational parameter value."""
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


# phi_t(0) has parts of about t-degree * (largest bit length in t's triple)
# bits: at most 1,995 in the tests, goldens, demos and perfbench; x1 =
# t^32000 at t = (127 + i)/128 has 256,000 and tracks in 0.2 s (2-vCPU Xeon).
MAX_POINT_BITS = 1 << 18


def track_degenerate_point(family: DeformationFamily, t: complex) -> TrackResult:
    """The zero of Pi_t and curl(Pi_t) that starts at the origin.

    t must be finite; it is read exactly from its doubles.  A point past
    MAX_POINT_BITS estimated bits or past double range raises ValueError.
    """
    t = complex(t)
    if not isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    exact = _from_double(t)
    raws, degree = family._origin_image()
    bits = degree * max(map(int.bit_length, map(abs, exact._t)))
    if bits > MAX_POINT_BITS:
        raise ValueError(f"the exact point at t = {t} would have about {bits} "
                         f"bits, past the bound of {MAX_POINT_BITS}")
    point = tuple(_values(family.table, raws, {family.parameter: exact}))
    try:
        gamma = tuple(map(complex, point))  # int / int rounds to nearest
    except OverflowError:
        raise ValueError(f"gamma overflows double precision at t = {t}") \
            from None
    return TrackResult(t, gamma, point, 0.0, 0.0, 0.0, 0)


def jet_vanishing(structure, point, r: int = 3) -> int:
    """Least k <= r with a nonzero k-th Taylor coefficient at the point.

    Returns r+1 when every jet through order r vanishes exactly.  r must
    lie in 0..3, and `point` holds exact values, as `Polynomial.evaluate`
    takes them.  A k-th Taylor coefficient is a k-th partial derivative
    of a coefficient over a nonzero factor, so the first derivative of
    order k that is not exactly zero at the point decides the order.
    """
    if r < 0:
        raise ValueError(f"r must be at least 0, got {r}")
    if r > 3:
        raise ValueError("jet resolution is limited to r <= 3")
    bivector = structure.bivector if isinstance(structure, PoissonStructure) \
        else structure
    names = bivector.table.coordinates
    coefficients = list(bivector.terms.values())
    # order 0 evaluates every coefficient, so each variable of the
    # structure must be assigned, as for rank_at
    if any(_values(bivector.table, [f._raw for f in coefficients], point)):
        return 0
    # (first coordinate still to differentiate along, derivative): each
    # order differentiates only from that coordinate on, so every
    # multiset of coordinates is taken once
    derived = [(0, f) for f in coefficients]
    for order in range(1, r + 1):
        derived = [(k, g) for first, f in derived
                   for k in range(first, len(names))
                   if not (g := f.partial_derivative(names[k])).is_zero()]
        if any(_values(bivector.table, [g._raw for _, g in derived], point)):
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
