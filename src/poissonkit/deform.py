"""Deformation families and degenerate-singular-point tracking.

A family is a generic diagonal base structure pushed forward along a
path of elementary automorphisms whose data is polynomial in a single
parameter t.  The pushforward is computed once, symbolically, so the
family is an exactly integrable bivector Pi_t; tracking then follows
the common zero of Pi_t and curl(Pi_t) by Newton continuation in t, and
jet orders are certified from exact Taylor coefficients evaluated in
double precision.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, product
from math import factorial

import numpy as np

from .automorphisms import (DiagonalScaling, ElementaryAutomorphism,
                            Translation, TriangularShear, pushforward)
from .diagonal import DiagonalSpec, is_generic
from .multivectors import Multivector, curl
from .polynomials import (FloatPolynomials, Polynomial, VariableTable,
                          parse_polynomial)
from .scalars import GaussRational
from .structures import PoissonStructure


# Each field evaluates at one point laid out as the family table's slots:
# the coordinates, then the parameter.  The Jacobian is flat, row-major.
_NewtonSystem = namedtuple("_NewtonSystem", "residual jacobian jet0 jet1")


class DeformationFamily:
    """Diagonal base pushed along parameter-dependent automorphisms."""

    def __init__(self, base: DiagonalSpec, path=(), parameter: str = "t"):
        if not base.is_numeric():
            raise ValueError("family base must have numeric entries")
        if base.n % 2 != 0:
            raise ValueError("family base must have an even number of coordinates")
        if not is_generic(base):
            raise ValueError("family base fails the genericity checks")
        self.base = base
        self.parameter = parameter
        coords = tuple(f"x{k}" for k in range(1, base.n + 1))
        self.table = VariableTable(coords, (parameter,))
        for step in path:
            if not isinstance(step, ElementaryAutomorphism):
                raise TypeError("path entries must be elementary automorphisms")
            if step.table != self.table:
                raise ValueError("path step lives on the wrong table")
        self.path = tuple(path)
        self._bivector = None
        self._curl = None
        self._system = None

    @classmethod
    def build(cls, base: DiagonalSpec, steps, parameter: str = "t"):
        """Construct from step descriptors.

        Each descriptor is ("translation", coord, data), ("shear", coord,
        data) or ("scaling", {coord: scalar_text}); data strings are
        parsed over the family table.
        """
        family = cls(base, (), parameter)
        path = []
        for descriptor in steps:
            kind = descriptor[0]
            if kind == "translation":
                _, coord, data = descriptor
                if isinstance(data, str):
                    data = parse_polynomial(data, family.table)
                path.append(Translation(family.table, coord, data))
            elif kind == "shear":
                _, coord, data = descriptor
                if isinstance(data, str):
                    data = parse_polynomial(data, family.table)
                path.append(TriangularShear(family.table, coord, data))
            elif kind == "scaling":
                _, scales = descriptor
                parsed = {}
                for name, value in scales.items():
                    if isinstance(value, str):
                        value = parse_polynomial(value, family.table).constant_value()
                    parsed[name] = value
                path.append(DiagonalScaling(family.table, parsed))
            else:
                raise ValueError(f"unknown step kind {kind!r}")
        return cls(base, path, parameter)

    @property
    def n(self) -> int:
        return self.base.n

    def base_bivector(self) -> Multivector:
        terms = {}
        for (i, j), value in sorted(self.base.entries.items()):
            terms[(i - 1, j - 1)] = Polynomial.monomial(
                self.table, {f"x{i}": 1, f"x{j}": 1}, value)
        return Multivector(self.table, 2, terms)

    def bivector(self) -> Multivector:
        """The exact symbolic pushforward Pi_t."""
        if self._bivector is None:
            self._bivector = pushforward(self.path, self.base_bivector())
        return self._bivector

    def curl_field(self) -> Multivector:
        if self._curl is None:
            self._curl = curl(self.bivector())
        return self._curl

    def _newton_system(self) -> "_NewtonSystem":
        """Float forms of curl(Pi_t), its Jacobian in the coordinates and
        the jet polynomials of Pi_t, compiled on first use."""
        if self._system is None:
            table = self.table
            components = [self.curl_field().coefficient((i,))
                          for i in range(self.n)]
            coefficients = list(self.bivector().terms.values())

            def partials(polys):
                return FloatPolynomials(table, (
                    f.partial_derivative(name)
                    for f in polys for name in table.coordinates))

            self._system = _NewtonSystem(
                FloatPolynomials(table, components), partials(components),
                FloatPolynomials(table, coefficients), partials(coefficients))
        return self._system

    def at(self, t_value) -> PoissonStructure:
        """Exact member structure at a Gaussian-rational parameter value."""
        if not isinstance(t_value, GaussRational):
            t_value = GaussRational(t_value)
        images = {self.parameter: Polynomial.constant(self.table, t_value)}
        moved = Multivector(self.table, 2, {
            ix: c.substitute(images) for ix, c in self.bivector().terms.items()})
        return PoissonStructure(moved, True)


class TrackResult:
    """Certified degenerate singular point of one family member."""

    def __init__(self, t, gamma, residual, jet0, jet1, newton_iters):
        self.t = t
        self.gamma = tuple(gamma)
        self.residual = residual
        self.jet0 = jet0
        self.jet1 = jet1
        self.newton_iters = newton_iters

    def __repr__(self):
        return (f"<TrackResult t={self.t} gamma={self.gamma} "
                f"residual={self.residual:.3e} jet0={self.jet0:.3e} "
                f"jet1={self.jet1:.3e} iters={self.newton_iters}>")


class _NonConvergence(Exception):
    pass


def track_degenerate_point(family: DeformationFamily, t: complex,
                           tol: float = 1e-12, max_iter: int = 50,
                           initial_step: float = 1e-2,
                           min_step: float = 1e-6) -> TrackResult:
    """Newton continuation for the zero of curl(Pi_t) near the origin."""
    n = family.n
    system = family._newton_system()

    def newton(gamma, t_value):
        point = np.append(gamma, t_value)
        for iteration in range(max_iter):
            fvec = system.residual(point)
            if float(np.abs(fvec).max()) <= tol:
                return point[:n], iteration
            jmat = system.jacobian(point).reshape(n, n)
            try:
                delta = np.linalg.solve(jmat, fvec)
            except np.linalg.LinAlgError:
                raise ValueError("non-simple singularity") from None
            point[:n] -= delta
        raise _NonConvergence

    t = complex(t)
    gamma = np.zeros(n, dtype=complex)
    total_iters = 0
    if t != 0:
        radius = abs(t)
        direction = t / radius
        tau = 0.0
        step = initial_step
        while tau < radius:
            tau_next = min(tau + step, radius)
            try:
                gamma, iters = newton(gamma, direction * tau_next)
            except _NonConvergence:
                if step / 2 < min_step:
                    raise ValueError(
                        f"left basin; reduce step (reached tau={tau:.6g} "
                        f"of {radius:.6g}, last step {step:.3g})") from None
                step /= 2
                continue
            total_iters += iters
            tau = tau_next
    point = np.append(gamma, t)
    residual = float(np.abs(system.residual(point)).max(initial=0.0))
    jet0 = float(np.abs(system.jet0(point)).max(initial=0.0))
    jet1 = float(np.abs(system.jet1(point)).max(initial=0.0))
    return TrackResult(t, [complex(z) for z in gamma], residual, jet0, jet1,
                       total_iters)


def jet_vanishing(structure, point, r: int = 3, tol: float = 1e-6) -> int:
    """Least k <= r with a nonzero k-th Taylor coefficient at the point.

    Returns r+1 when every jet through order r vanishes below tolerance.
    Taylor coefficients come from exact differentiation, evaluated in
    double precision.
    """
    if r > 3:
        raise ValueError("jet resolution is limited to r <= 3")
    bivector = structure.bivector if isinstance(structure, PoissonStructure) \
        else structure
    table = bivector.table
    coefficients = list(bivector.terms.values())
    for order in range(r + 1):
        derived, scales = [], []
        for combo in combinations_with_replacement(table.coordinates, order):
            scale = 1.0
            counts = {}
            for name in combo:
                counts[name] = counts.get(name, 0) + 1
            for c in counts.values():
                scale /= factorial(c)
            for f in coefficients:
                for name in combo:
                    f = f.partial_derivative(name)
                if not f.is_zero():
                    derived.append(f)
                    scales.append(scale)
        values = FloatPolynomials(table, derived).evaluate(point)
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
