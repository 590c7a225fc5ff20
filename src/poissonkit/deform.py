"""Deformation families and degenerate-singular-point tracking.

A family is a generic diagonal base structure pushed forward along a
path of elementary automorphisms whose data is polynomial in a single
parameter t.  The pushforward is computed once, symbolically, so the
family is an exactly integrable bivector Pi_t; tracking then follows
the common zero of Pi_t and curl(Pi_t) by Newton continuation in t, and
jet orders are read from exact Taylor coefficients evaluated in double
precision against a tolerance.  These are float checks: no distance to
an exact zero is bounded.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, product
from cmath import isfinite
from math import factorial
from typing import NamedTuple

import numpy as np

from .automorphisms import (DiagonalScaling, ElementaryAutomorphism,
                            Translation, TriangularShear, pushforward)
from .diagonal import DiagonalSpec, _diagonal_bivector, is_generic
from .multivectors import Multivector, _built, curl
from .polynomials import (FloatPolynomials, Polynomial, VariableTable,
                          _substituted, parse_polynomial)
from .scalars import Frozen, GaussRational
from .structures import CheckFailed, PoissonStructure


# `newton` compiles the n curl components followed by their n^2 partials
# (flat, row-major), so both share one monomial table; `residual` and
# `jacobian` are its coefficient rows for each, to multiply by its
# monomial vector.  `jets` compiles Pi_t's coefficients followed by their
# partials; `jet0` and `jet1` pair each block's rows with the columns of
# its monomials, in the order a table of its own would list them.  Points
# are laid out as the family table's slots: the coordinates, then t.
_NewtonSystem = namedtuple("_NewtonSystem",
                           "newton residual jacobian jets jet0 jet1")

# Newton iterations tried at one continuation step before it halves.
NEWTON_ITERATIONS = 50
# The first continuation step goes to t; the step doubles after every
# converged Newton solve and halves after every failed one, down to this.
MIN_STEP = 1e-6
# Continuation steps one track may attempt; a track that needs more
# stops there, with a message of its own.  An attempt runs at most
# NEWTON_ITERATIONS iterations of 13 to 19 us (4 and 12 coordinates,
# 2-vCPU Xeon, Python 3.11: the least of 15 timed tracks at tol 0, which
# no iteration meets, over their 800 iterations), so a track ends within
# 6.5 to 9.5 s.  The budget runs out only when attempts keep failing, as
# at t = 1e100 on 4 coordinates, where the absolute tol sits below the
# float residual, about half of the attempts fail and the track stops
# after 4.2 s (the least of 5).
MAX_STEPS = 10_000


def _family_table(base: DiagonalSpec, parameter: str) -> VariableTable:
    """x1..xn, then the parameter: the table of every family on `base`."""
    return VariableTable([f"x{k}" for k in range(1, base.n + 1)], (parameter,))


class DeformationFamily(Frozen):
    """Diagonal base pushed along parameter-dependent automorphisms; immutable."""

    __slots__ = ("base", "parameter", "table", "path",
                 "_bivector", "_curl", "_system")

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

    def _newton_system(self) -> "_NewtonSystem":
        """Float forms of curl(Pi_t), its Jacobian in the coordinates and
        the jet polynomials of Pi_t, compiled on first use."""
        if self._system is None:
            table = self.table
            components = [self.curl_field().coefficient((i,))
                          for i in range(self.n)]
            coefficients = list(self.bivector().terms.values())

            def partials(polys):
                return [f.partial_derivative(name)
                        for f in polys for name in table.coordinates]

            newton = FloatPolynomials(table, components + partials(components))
            rows = newton.coefficients
            derived = partials(coefficients)
            jets = FloatPolynomials(table, coefficients + derived)
            column = {e: k for k, e in
                      enumerate(map(tuple, jets.exponents.tolist()))}
            # the coefficients' monomials open the jet table in their own
            # order, the partials' are gathered in theirs; the rows are
            # C-ordered copies, since layout picks a product's sum order
            head = slice(0, len({e for f in coefficients for e in f._raw}))
            own = np.array(list(dict.fromkeys(
                column[e] for f in derived for e, _ in f.sorted_terms())),
                dtype=np.intp)
            rows0, rows1 = np.split(jets.coefficients, [len(coefficients)])
            object.__setattr__(self, "_system", _NewtonSystem(
                newton, rows[:self.n], rows[self.n:], jets,
                (rows0[:, head].copy(), head), (rows1[:, own].copy(), own)))
        return self._system

    def at(self, t_value) -> PoissonStructure:
        """Exact member structure at a Gaussian-rational parameter value."""
        if not isinstance(t_value, GaussRational):
            t_value = GaussRational(t_value)
        images = {self.parameter: Polynomial.constant(self.table, t_value)}
        return PoissonStructure(_built(Multivector, self.table, 2, _substituted(
            self.bivector()._flat, self.table, images)))


class TrackResult(NamedTuple):
    """Degenerate singular point of one family member, as float Newton
    continuation found it: `residual` is the largest |curl(Pi_t)|
    component at gamma, read by the check that ended the last Newton
    solve, made at t itself, so it is at most tol (at t = 0 no solve runs
    and it is read at the origin); `jet0` and `jet1` are the largest
    |coefficient| of Pi_t and of its first partials there.  No exact
    bound on the distance to a zero of curl(Pi_t) is computed."""

    t: complex
    gamma: tuple
    residual: float
    jet0: float
    jet1: float
    newton_iters: int


def track_degenerate_point(family: DeformationFamily, t: complex,
                           tol: float = 1e-12) -> TrackResult:
    """Newton continuation for the zero of curl(Pi_t) near the origin.

    t must be finite and tol finite and non-negative.  The first attempt
    goes straight to t; the step doubles after every converged attempt
    and halves after every failed one, which restarts from the last
    converged point.
    The continuation fails with CheckFailed when it leaves the basin
    (the step would halve below MIN_STEP), spends MAX_STEPS attempts
    short of t, or meets a non-simple singularity.
    """
    t = complex(t)
    if not isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    n = family.n
    system = family._newton_system()
    monomials = system.newton.monomials
    residual_rows, jacobian_rows = system.residual, system.jacobian

    def newton(point):
        """Iterations to move `point` in place within tol and the residual
        that the check ending them read there, or None."""
        for iteration in range(NEWTON_ITERATIONS):
            values = monomials(point)
            fvec = residual_rows @ values
            # abs(nan) <= tol is False, so a NaN residual never converges
            if all(abs(z) <= tol for z in fvec.tolist()):
                return iteration, fvec
            jmat = (jacobian_rows @ values).reshape(n, n)
            try:
                delta = np.linalg.solve(jmat, fvec)
            except np.linalg.LinAlgError:
                raise CheckFailed("non-simple singularity") from None
            point[:n] -= delta
        return None

    def peak(vector) -> float:
        return float(np.abs(vector).max(initial=0.0))

    # one buffer holds every attempted point; gamma keeps the last
    # converged coordinates and restores them after a failed attempt.  The
    # last attempt runs at t itself, so the check that ended it read the
    # reported residual; at t = 0 the point is the origin
    point = np.zeros(n + 1, dtype=complex)
    gamma = np.zeros(n, dtype=complex)
    total_iters = 0
    if t != 0:
        radius = abs(t)
        direction = t / radius
        tau = 0.0
        step = radius
        attempts = 0
        solved = True
        stop = None
        while tau < radius:
            if attempts == MAX_STEPS:
                stop = f"spent all MAX_STEPS = {MAX_STEPS} step attempts"
                break
            if solved is None:
                point[:n] = gamma
            attempts += 1
            tau_next = min(tau + step, radius)
            point[n] = t if tau_next == radius else direction * tau_next
            solved = newton(point)
            if solved is not None:
                iters, fvec = solved
                gamma[:] = point[:n]
                total_iters += iters
                tau = tau_next
                step *= 2
            elif step / 2 < MIN_STEP:
                stop = "left basin"
                break
            else:
                step /= 2
        if stop is not None:
            with np.errstate(all="ignore"):  # an overflow reads as inf or nan
                last = peak(residual_rows @ monomials(point))
            raise CheckFailed(
                f"{stop} (reached tau={tau:.6g} of {radius:.6g}, last step "
                f"{step:.3g}, last residual {last:.3g}, tol {tol:g})")
    with np.errstate(all="ignore"):  # an overflow reads as inf or nan
        if t == 0:
            fvec = residual_rows @ monomials(point)
        values = system.jets.monomials(point)
        reported = [peak(fvec)] + [peak(rows @ values[columns])
                                   for rows, columns in (system.jet0,
                                                         system.jet1)]
    for name, value in zip(("residual", "jet0", "jet1"), reported):
        if not isfinite(value):
            raise ValueError(f"{name} overflows double precision at t = {t}")
    return TrackResult(t, tuple(gamma.tolist()), *reported, total_iters)


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
        with np.errstate(all="ignore"):
            values = FloatPolynomials(table, derived).evaluate(point)
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
