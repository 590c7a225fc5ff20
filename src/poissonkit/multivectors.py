"""Multivector fields and differential forms as super-polynomials.

A degree-p multivector is a sum of terms f(x) * xi_{s1}^...^xi_{sp} with
polynomial coefficients and strictly increasing generator indices; the
xi_k are the odd generators standing for the coordinate vector fields.
Differential forms use the dual odd generators dx_k.  All sign discipline
is the Koszul rule for the chosen generator order.

Conventions frozen here (and regression-tested):

* contraction fills the first slot: contract(dx1, xi1^xi2) = xi2;
* the Schouten bracket uses a right odd derivative on the first argument
  and a left one on the second (the antibracket convention); with left
  derivatives in both sums the graded Leibniz and Jacobi identities
  break at mixed degrees;
* curl is conjugation of the exterior derivative by the volume
  isomorphism xi_S -> sign(S, S^c) dx_{S^c}; on p-vectors it equals
  (-1)^(p+1) times the flat odd Laplacian sum_k d/dx_k d/dxi_k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from . import polynomials
from .polynomials import FloatPolynomials, Polynomial, VariableTable, _scaled
from .scalars import GaussRational

# Index pairs recur across a computation: checking two generic diagonal
# structures on every chart of P^8 asks for 3,851 distinct pairs 73,920 times.
MERGE_SIGN_CACHE = 1 << 16


@lru_cache(maxsize=MERGE_SIGN_CACHE)
def _merge_sign(left: tuple, right: tuple):
    """Merge two strictly increasing, disjoint index tuples.

    Returns (sign, merged) where sign is the Koszul sign of the shuffle,
    or (0, None) if the tuples intersect.
    """
    inversions = 0
    for s in left:
        for t in right:
            if s == t:
                return 0, None
            if s > t:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1 if inversions & 1 else 1), merged


def _complement_sign(indices: tuple, n: int):
    """Sign of the permutation (indices, complement) of (0..n-1)."""
    complement = tuple(k for k in range(n) if k not in indices)
    sign, _ = _merge_sign(indices, complement)
    # sign of merging equals sign of sorting the concatenation
    return sign, complement


class _SuperElement:
    """Shared machinery for multivectors and forms; `terms` is a read-only
    {indices: Polynomial} mapping of the nonzero coefficients."""

    __slots__ = ("table", "degree", "terms")
    _prefix = "e"

    def __init__(self, table: VariableTable, degree: int,
                 terms: Mapping[tuple, Polynomial]):
        n = table.n_coordinates
        if degree < 0 or degree > n:
            raise ValueError(f"degree {degree} out of range for {n} coordinates")
        cleaned = {}
        for indices, coeff in terms.items():
            indices = tuple(indices)
            if len(indices) != degree:
                raise ValueError(f"index tuple {indices!r} does not match degree {degree}")
            if any(indices[k] >= indices[k + 1] for k in range(len(indices) - 1)):
                raise ValueError(f"index tuple {indices!r} is not strictly increasing")
            if indices and (indices[0] < 0 or indices[-1] >= n):
                raise ValueError(f"index tuple {indices!r} out of range")
            if not isinstance(coeff, Polynomial):
                raise TypeError("coefficients must be Polynomial values")
            if coeff.table != table:
                raise ValueError("coefficient on a different variable table")
            if not coeff.is_zero():
                cleaned[indices] = coeff
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", MappingProxyType(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.table, self.degree, dict(self.terms))

    @classmethod
    def zero(cls, table: VariableTable, degree: int = 0):
        return cls(table, degree, {})

    @classmethod
    def from_polynomial(cls, f: Polynomial):
        return cls(f.table, 0, {(): f})

    @classmethod
    def basis(cls, table: VariableTable, indices, coeff=None):
        indices = tuple(indices)
        if coeff is None:
            coeff = Polynomial.one(table)
        elif not isinstance(coeff, Polynomial):
            coeff = Polynomial.constant(table, coeff)
        return cls(table, len(indices), {indices: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices) -> Polynomial:
        return self.terms.get(tuple(indices), Polynomial.zero(self.table))

    def scalar(self) -> Polynomial:
        """The coefficient of a degree-0 element."""
        if self.degree != 0 and not self.is_zero():
            raise ValueError("not a degree-0 element")
        return self.terms.get((), Polynomial.zero(self.table))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    # -- linear structure ------------------------------------------------

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError("mixed multivector/form arithmetic")
        if self.table != other.table:
            raise ValueError("elements live on different variable tables")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        terms = dict(self.terms)
        for indices, coeff in other.terms.items():
            acc = terms.get(indices)
            terms[indices] = coeff if acc is None else acc + coeff
        return _trusted(type(self), self.table, self.degree, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _trusted(type(self), self.table, self.degree,
                        {ix: -c for ix, c in self.terms.items()})

    def __mul__(self, factor):
        if isinstance(factor, (int, Fraction, GaussRational)):
            factor = polynomials._as_scalar(factor)
            return _trusted(type(self), self.table, self.degree,
                            {ix: c.scale(factor) for ix, c in self.terms.items()})
        if not isinstance(factor, Polynomial):
            return NotImplemented
        return _trusted(type(self), self.table, self.degree,
                        {ix: c * factor for ix, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        if self.table != other.table:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, self.table,
                     frozenset((ix, frozenset(c._raw.items()))
                               for ix, c in self.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    def wedge(self, other):
        if type(self) is not type(other):
            raise TypeError("mixed multivector/form wedge")
        if self.table != other.table:
            raise ValueError("elements live on different variable tables")
        table = self.table
        degree = self.degree + other.degree
        if degree > table.n_coordinates:
            return type(self).zero(table, table.n_coordinates)
        sums = {}
        _wedge_into(sums, _raw_terms(self), _raw_terms(other), table._guard)
        return _built(type(self), table, degree, sums)

    def __repr__(self):
        if self.is_zero():
            return f"<{type(self).__name__} 0 (degree {self.degree})>"
        bits = []
        for indices, coeff in self.sorted_terms():
            gens = "^".join(f"{self._prefix}{k}" for k in indices)
            bits.append(f"({coeff}){'*' + gens if gens else ''}")
        return f"<{type(self).__name__} {' + '.join(bits)}>"


def _trusted(cls, table: VariableTable, degree: int, terms: dict):
    """Trusted constructor for results built from valid elements."""
    element = object.__new__(cls)
    object.__setattr__(element, "table", table)
    object.__setattr__(element, "degree", degree)
    object.__setattr__(element, "terms", MappingProxyType(
        {ix: c for ix, c in terms.items() if c}))
    return element


def _raw_terms(element) -> dict:
    """{indices: raw term dict} of an element's coefficients."""
    return {ix: c._raw for ix, c in element.terms.items()}


def _built(cls, table: VariableTable, degree: int, sums: dict):
    """The element of a raw accumulator {indices: raw term dict}; zero
    sums and zero coefficients are dropped here, once."""
    return _trusted(cls, table, degree,
                    {ix: polynomials._from_raw(table, acc)
                     for ix, acc in sums.items()})


def _wedge_into(sums: dict, left: dict, right: dict, guard: int) -> None:
    """Add the exterior product of two raw elements into `sums`.

    Both sides map index tuples to raw term dicts on a table with the
    given `guard` mask.  Each merged index tuple collects its coefficient
    products straight through `polynomials._mul_into`; a negative Koszul
    sign negates the left coefficient, once per left term.
    """
    for ix1, t1 in left.items():
        negated = None
        for ix2, t2 in right.items():
            sign, merged = _merge_sign(ix1, ix2)
            if not sign:
                continue
            if sign < 0:
                if negated is None:
                    negated = _scaled(t1, -1)
                polynomials._mul_into(sums.setdefault(merged, {}), negated, t2,
                                      guard)
            else:
                polynomials._mul_into(sums.setdefault(merged, {}), t1, t2,
                                      guard)


def _pushforward_sums(table: VariableTable, images: dict,
                      xi_images: dict) -> dict:
    """The raw accumulator of sum_S c_S xi_S under a coordinate change:
    `images[S]` is the raw image of c_S, `xi_images[k]` that of xi_k."""
    unit = {(): {0: (1, 0, 1)}}
    guard = table._guard
    sums = {}
    for indices, coeff in images.items():
        image = unit
        for k in indices:
            image, previous = {}, image
            _wedge_into(image, previous, xi_images[k], guard)
        _wedge_into(sums, image, {(): coeff}, guard)
    return sums


class Multivector(_SuperElement):
    """Polynomial multivector field (degree-p skew contravariant tensor)."""

    _prefix = "xi"


class DifferentialForm(_SuperElement):
    """Polynomial differential form."""

    _prefix = "dx"


def wedge(a, b):
    """Exterior product; supercommutative in the degrees."""
    return a.wedge(b)


def contract(eta: DifferentialForm, a: Multivector) -> Multivector:
    """Contraction of a 1-form into the first slot of a multivector.

    contract(dx1, xi1^xi2) = xi2.  For a Poisson bivector Pi and df this
    reproduces the Hamiltonian field sum_(i<j) pi_ij (df/dx_i xi_j -
    df/dx_j xi_i).
    """
    if isinstance(eta, Polynomial):
        raise TypeError("contract expects a 1-form, not a polynomial")
    if not isinstance(eta, DifferentialForm) or eta.degree != 1:
        raise ValueError("contract expects a differential form of degree 1")
    if not isinstance(a, Multivector):
        raise TypeError("contract expects a multivector in the second slot")
    if eta.table != a.table:
        raise ValueError("form and multivector on different variable tables")
    sums = {}
    fields = _raw_terms(a)
    for (k,), g in eta.terms.items():
        g = g._raw
        negated = _scaled(g, -1)
        for indices, coeff in fields.items():
            if k in indices:
                pos = indices.index(k)
                polynomials._mul_into(
                    sums.setdefault(indices[:pos] + indices[pos + 1:], {}),
                    coeff, negated if pos % 2 else g, a.table._guard)
    return _built(Multivector, a.table, max(a.degree - 1, 0), sums)


def exterior_derivative(omega) -> DifferentialForm:
    """Exterior derivative; accepts a Polynomial as a degree-0 form."""
    if isinstance(omega, Polynomial):
        omega = DifferentialForm.from_polynomial(omega)
    if not isinstance(omega, DifferentialForm):
        raise TypeError("exterior derivative acts on differential forms")
    table = omega.table
    n = table.n_coordinates
    if omega.degree >= n:
        return DifferentialForm.zero(table, n)
    sums = {}
    for indices, coeff in _raw_terms(omega).items():
        for k in range(n):
            if k in indices:
                continue
            derived = polynomials._derivative_terms(coeff, table, k)
            if derived:
                sign, merged = _merge_sign((k,), indices)
                polynomials._add_into(sums.setdefault(merged, {}), (
                    derived if sign > 0 else _scaled(derived, -1)))
    return _built(DifferentialForm, table, omega.degree + 1, sums)


def schouten(a: Multivector, b: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket via the odd-coordinate antibracket.

    [A,B] = sum_k (d_R A / dxi_k) ^ (dB/dx_k)
            - sum_k (dA/dx_k) ^ (d_L B / dxi_k)

    where d_L moves the generator to the front and d_R to the end; on a
    degree-a term d_R = (-1)^(a-1) d_L, which is how the signs below
    arise.  Restricts to the Lie bracket on vector fields and to v(f)
    for a vector field and a function; satisfies graded antisymmetry,
    Leibniz and Jacobi in the (degree - 1) grading.
    """
    if not isinstance(a, Multivector) or not isinstance(b, Multivector):
        raise TypeError("schouten bracket is defined for multivectors")
    if a.table != b.table:
        raise ValueError("multivectors on different variable tables")
    table = a.table
    degree = min(max(a.degree + b.degree - 1, 0), table.n_coordinates)
    sums = {}
    if a is b:
        # The second sign is -1 for every degree and the two sums agree:
        # they add up for even degree and cancel for odd degree.
        if not a.degree % 2:
            _odd_even_sum(sums, a, a, -2)
    else:
        _odd_even_sum(sums, a, b, 1 if a.degree % 2 else -1)
        # dA/dx_k ^ d_L B/dxi_k, rewritten with the odd factor in front
        _odd_even_sum(sums, b, a, 1 if (a.degree * (b.degree + 1)) % 2 else -1)
    return _built(Multivector, table, degree, sums)


def _odd_even_sum(sums: dict, odd: Multivector, even: Multivector,
                  factor: int) -> None:
    """Add factor * sum_k (d_L odd / dxi_k) ^ (d even / dx_k) into `sums`.

    The factor and the sign of d_L go into the left terms, once per k.
    """
    table = odd.table
    odd_terms = _raw_terms(odd)
    even_terms = odd_terms if even is odd else _raw_terms(even)
    for k in range(table.n_coordinates):
        left = {}
        for indices, coeff in odd_terms.items():
            if k in indices:
                pos = indices.index(k)
                scale = -factor if pos % 2 else factor
                left[indices[:pos] + indices[pos + 1:]] = (
                    coeff if scale == 1 else _scaled(coeff, scale))
        if left:
            right = {}
            for ix, coeff in even_terms.items():
                derived = polynomials._derivative_terms(coeff, table, k)
                if derived:
                    right[ix] = derived
            _wedge_into(sums, left, right, table._guard)


def bv_laplacian(a: Multivector) -> Multivector:
    """Flat odd Laplacian sum_k d/dx_k d/dxi_k.

    Generates the Schouten bracket: Delta(A^B) - Delta(A)^B
    - (-1)^a A^Delta(B) = BV_SIGN * (-1)^a * [A, B] exactly, and
    curl(A) = (-1)^(p+1) Delta(A) on degree-p multivectors.
    """
    sums = {}
    for indices, coeff in _raw_terms(a).items():
        for pos, k in enumerate(indices):
            derived = polynomials._derivative_terms(coeff, a.table, k)
            if derived:
                # d/dxi_k moves xi_k to the front past pos generators
                polynomials._add_into(
                    sums.setdefault(indices[:pos] + indices[pos + 1:], {}),
                    _scaled(derived, -1) if pos % 2 else derived)
    return _built(Multivector, a.table, max(a.degree - 1, 0), sums)


#: Sign s in Delta(A^B) - Delta(A)^B - (-1)^a A^Delta(B) = s*(-1)^a*[A,B].
#: Frozen by the pair (xi1, x1): defect 1, bracket 1, a = 1, so s = -1.
BV_SIGN = -1


def volume_isomorphism(a: Multivector) -> DifferentialForm:
    """xi_S f |-> sign(S, S^c) f dx_{S^c} for the standard volume form."""
    table = a.table
    n = table.n_coordinates
    terms = {}
    for indices, coeff in a.terms.items():
        sign, complement = _complement_sign(indices, n)
        terms[complement] = coeff if sign > 0 else -coeff
    return DifferentialForm(table, n - a.degree, terms)


def volume_isomorphism_inverse(omega: DifferentialForm) -> Multivector:
    table = omega.table
    n = table.n_coordinates
    terms = {}
    for indices, coeff in omega.terms.items():
        _, complement = _complement_sign(indices, n)
        sign, _ = _complement_sign(complement, n)
        terms[complement] = coeff if sign > 0 else -coeff
    return Multivector(table, n - omega.degree, terms)


class VolumeCurl:
    """Curl against a non-constant volume unit u, kept as an exact pair.

    The operator value is  main + correction / u  where both parts are
    polynomial multivectors; no division is ever performed.
    """

    __slots__ = ("main", "correction", "denominator")

    def __init__(self, main: Multivector, correction: Multivector,
                 denominator: Polynomial):
        if not (isinstance(main, Multivector)
                and isinstance(correction, Multivector)
                and isinstance(denominator, Polynomial)):
            raise TypeError("a volume curl is two multivectors over a polynomial")
        if not main.table == correction.table == denominator.table:
            raise ValueError("volume curl parts on different variable tables")
        if denominator.is_zero():
            raise ZeroDivisionError("volume unit is identically zero")
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "correction", correction)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("VolumeCurl is immutable")

    def __reduce__(self):
        return VolumeCurl, (self.main, self.correction, self.denominator)

    def evaluate_float(self, values: Mapping[str, complex]) -> dict:
        """Complex-double coefficients of main + correction / u, in
        canonical index order, from one compiled form of u and both parts."""
        main = self.main.sorted_terms()
        correction = self.correction.sorted_terms()
        polys = [self.denominator] + [c for _, c in main + correction]
        u, *rest = map(complex, FloatPolynomials(
            self.denominator.table, polys).evaluate(values))
        out = {ix: v for (ix, _), v in zip(main, rest)}
        for (ix, _), v in zip(correction, rest[len(main):]):
            out[ix] = out.get(ix, 0j) + v / u
        return out

    def __repr__(self):
        return (f"<VolumeCurl main={self.main!r} correction={self.correction!r}"
                f" / ({self.denominator})>")


def curl(a: Multivector, u: Polynomial | None = None):
    """Curl operator of the volume form u * dx_1^...^dx_n.

    With u omitted (or constant nonzero) this is the exact conjugation
    inverse(volume) o d o volume and returns a Multivector.  For
    non-constant u the result is the exact pair
    curl(a) - (1/u) contract(du, a), returned as a VolumeCurl.
    """
    if not isinstance(a, Multivector):
        raise TypeError("curl acts on multivectors")
    base = volume_isomorphism_inverse(exterior_derivative(volume_isomorphism(a)))
    if u is None:
        return base
    if not isinstance(u, Polynomial) or u.table != a.table:
        raise TypeError("volume unit must be a polynomial on the same table")
    if u.is_zero():
        raise ZeroDivisionError("volume unit is identically zero")
    if u.is_constant():
        return base
    du = exterior_derivative(u)
    return VolumeCurl(base, -contract(du, a), u)
