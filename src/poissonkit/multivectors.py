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
from typing import Mapping

from .polynomials import FloatPolynomials, Polynomial, VariableTable
from .scalars import GaussRational


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
    """Shared machinery for multivectors and forms."""

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
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
            total = coeff if acc is None else acc + coeff
            terms[indices] = total
        return type(self)(self.table, self.degree, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.table, self.degree,
                          {ix: -c for ix, c in self.terms.items()})

    def __mul__(self, factor):
        if isinstance(factor, (int, Fraction, GaussRational)):
            factor = Polynomial.constant(self.table, factor)
        if not isinstance(factor, Polynomial):
            return NotImplemented
        return type(self)(self.table, self.degree,
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
                     frozenset((ix, frozenset(c.terms.items()))
                               for ix, c in self.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    def wedge(self, other):
        if type(self) is not type(other):
            raise TypeError("mixed multivector/form wedge")
        if self.table != other.table:
            raise ValueError("elements live on different variable tables")
        degree = self.degree + other.degree
        if degree > self.table.n_coordinates:
            return type(self).zero(self.table, self.table.n_coordinates)
        terms = {}
        for ix1, c1 in self.terms.items():
            for ix2, c2 in other.terms.items():
                sign, merged = _merge_sign(ix1, ix2)
                if not sign:
                    continue
                add = c1 * c2 if sign > 0 else -(c1 * c2)
                acc = terms.get(merged)
                terms[merged] = add if acc is None else acc + add
        return type(self)(self.table, degree, terms)

    def evaluate_float(self, values: Mapping[str, complex]) -> dict:
        """Complex-double wedge coefficients in canonical index order."""
        terms = self.sorted_terms()
        compiled = FloatPolynomials(self.table, (c for _, c in terms))
        return {ix: complex(v) for (ix, _), v in
                zip(terms, compiled.evaluate(values))}

    def __repr__(self):
        if self.is_zero():
            return f"<{type(self).__name__} 0 (degree {self.degree})>"
        bits = []
        for indices, coeff in self.sorted_terms():
            gens = "^".join(f"{self._prefix}{k}" for k in indices)
            bits.append(f"({coeff}){'*' + gens if gens else ''}")
        return f"<{type(self).__name__} {' + '.join(bits)}>"


class Multivector(_SuperElement):
    """Polynomial multivector field (degree-p skew contravariant tensor)."""

    _prefix = "xi"


class DifferentialForm(_SuperElement):
    """Polynomial differential form."""

    _prefix = "dx"


def wedge(a, b):
    """Exterior product; supercommutative in the degrees."""
    return a.wedge(b)


def _slot_contract(element, k: int):
    """Remove generator k, moving it to the front first (Koszul sign)."""
    terms = {}
    for indices, coeff in element.terms.items():
        try:
            pos = indices.index(k)
        except ValueError:
            continue
        reduced = indices[:pos] + indices[pos + 1:]
        terms[reduced] = coeff if pos % 2 == 0 else -coeff
    return type(element)(element.table, max(element.degree - 1, 0), terms)


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
    result = Multivector.zero(a.table, max(a.degree - 1, 0))
    for (k,), g in eta.terms.items():
        result = result + _slot_contract(a, k) * g
    return result


def exterior_derivative(omega) -> DifferentialForm:
    """Exterior derivative; accepts a Polynomial as a degree-0 form."""
    if isinstance(omega, Polynomial):
        omega = DifferentialForm.from_polynomial(omega)
    if not isinstance(omega, DifferentialForm):
        raise TypeError("exterior derivative acts on differential forms")
    table = omega.table
    names = table.coordinates
    terms = {}
    for indices, coeff in omega.terms.items():
        for k, name in enumerate(names):
            if k in indices:
                continue
            dc = coeff.partial_derivative(name)
            if dc.is_zero():
                continue
            sign, merged = _merge_sign((k,), indices)
            add = dc if sign > 0 else -dc
            acc = terms.get(merged)
            total = add if acc is None else acc + add
            terms[merged] = total
    if omega.degree >= table.n_coordinates:
        return DifferentialForm.zero(table, table.n_coordinates)
    return DifferentialForm(table, omega.degree + 1, terms)


def _even_partial(a, name: str):
    return type(a)(a.table, a.degree,
                   {ix: c.partial_derivative(name) for ix, c in a.terms.items()})


def odd_partial(a: Multivector, k: int) -> Multivector:
    """Left derivative with respect to generator k (move to front, drop)."""
    return _slot_contract(a, k)


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
    total = Multivector.zero(table, degree)
    first_sign = -1 if a.degree % 2 == 0 else 1
    for k, name in enumerate(table.coordinates):
        left = _slot_contract(a, k)
        if not left.is_zero():
            right = _even_partial(b, name)
            if not right.is_zero():
                total = total + left.wedge(right) * first_sign
    # dA/dx_k ^ d_L B/dxi_k, rewritten with the odd factor in front
    second_sign = -1 if (a.degree * (b.degree + 1)) % 2 == 0 else 1
    for k, name in enumerate(table.coordinates):
        left = _slot_contract(b, k)
        if not left.is_zero():
            right = _even_partial(a, name)
            if not right.is_zero():
                total = total + left.wedge(right) * second_sign
    return total


def bv_laplacian(a: Multivector) -> Multivector:
    """Flat odd Laplacian sum_k d/dx_k d/dxi_k.

    Generates the Schouten bracket: Delta(A^B) - Delta(A)^B
    - (-1)^a A^Delta(B) = BV_SIGN * (-1)^a * [A, B] exactly, and
    curl(A) = (-1)^(p+1) Delta(A) on degree-p multivectors.
    """
    table = a.table
    total = Multivector.zero(table, max(a.degree - 1, 0))
    for k, name in enumerate(table.coordinates):
        total = total + _even_partial(_slot_contract(a, k), name)
    return total


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
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "correction", correction)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("VolumeCurl is immutable")

    def cleared(self) -> Multivector:
        """u * value, a polynomial multivector."""
        return self.main * self.denominator + self.correction

    def evaluate_float(self, values: Mapping[str, complex]) -> dict:
        u = self.denominator.evaluate_float(values)
        main = self.main.evaluate_float(values)
        corr = self.correction.evaluate_float(values)
        out = dict(main)
        for ix, v in corr.items():
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
