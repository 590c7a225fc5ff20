"""Multivector fields and differential forms as super-polynomials.

A degree-p multivector is a sum of terms f(x) * xi_{s1}^...^xi_{sp} with
polynomial coefficients and strictly increasing generator indices; the
xi_k are the odd generators standing for the coordinate vector fields.
Differential forms use the dual odd generators dx_k.  All sign discipline
is the Koszul rule for the chosen generator order.

An element is stored flat: one dict from packed keys to reduced nonzero
(a, b, d) triples, one entry per monomial of each coefficient.  A key is
(mask << table._mask_shift) | monomial key, where bit k of the mask is
xi_k (dx_k for a form) and the monomial key is laid out by the
`VariableTable`; a polynomial's raw dict is the mask-0 case.  Every
product runs through `polynomials._mul_into`, which adds keys, so ORs
disjoint masks, and signs by the Koszul sign of the shuffle.  The
{indices: Polynomial} mapping `terms` is built on first read.

Conventions frozen here (and regression-tested):

* contraction fills the first slot: contract(dx1, xi1^xi2) = xi2;
* the Schouten bracket uses a right odd derivative on the first argument
  and a left one on the second (the antibracket convention); with left
  derivatives in both sums the graded Leibniz and Jacobi identities
  break at mixed degrees;
* curl is conjugation of the exterior derivative by the volume
  isomorphism xi_S -> sign(S, S^c) dx_{S^c}; on p-vectors it equals
  (-1)^(p+1) times the flat odd Laplacian sum_k d/dx_k d/dxi_k, which
  is how it is computed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import lt
from types import MappingProxyType
from typing import Mapping

from . import polynomials
from .polynomials import MASK_SIGN_CACHE, Polynomial, VariableTable, _mask_sign
from .scalars import Frozen, GaussRational, _product


@lru_cache(maxsize=MASK_SIGN_CACHE)
def _indices(mask: int) -> tuple:
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


class _SuperElement(Frozen):
    """Shared machinery for multivectors and forms; `terms` is a read-only
    {indices: Polynomial} mapping of the nonzero coefficients."""

    __slots__ = ("table", "degree", "_flat", "_terms")
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
            if not all(map(lt, indices, indices[1:])):
                raise ValueError(f"index tuple {indices!r} is not strictly increasing")
            if indices and (indices[0] < 0 or indices[-1] >= n):
                raise ValueError(f"index tuple {indices!r} out of range")
            if not isinstance(coeff, Polynomial):
                raise TypeError("coefficients must be Polynomial values")
            if coeff.table != table:
                raise ValueError("coefficient on a different variable table")
            if not coeff.is_zero():
                cleaned[indices] = coeff
        shift = table._mask_shift
        flat = {}
        for indices, coeff in cleaned.items():
            base = 0
            for k in indices:
                base |= 1 << k << shift
            for key, t in coeff._raw.items():
                flat[base | key] = t
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_terms", MappingProxyType(cleaned))

    def __reduce__(self):
        return type(self), (self.table, self.degree, dict(self.terms))

    @property
    def terms(self) -> Mapping:
        terms = self._terms
        if terms is None:
            terms = {}
            for mask, raw in _split(self).items():
                terms[_indices(mask)] = polynomials._wrapped(self.table, raw)
            terms = MappingProxyType(terms)
            object.__setattr__(self, "_terms", terms)
        return terms

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
        return not self._flat

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
        flat = dict(self._flat)
        polynomials._add_into(flat, other._flat)
        return _built(type(self), self.table, self.degree, flat)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _built(type(self), self.table, self.degree,
                      polynomials._scaled(self._flat, -1))

    def __mul__(self, factor):
        if isinstance(factor, (int, Fraction, GaussRational)):
            t = polynomials._as_scalar(factor)._t
            return _built(type(self), self.table, self.degree,
                          {k: _product(c, t) for k, c in self._flat.items()})
        if not isinstance(factor, Polynomial):
            return NotImplemented
        if factor.table != self.table:
            raise ValueError("polynomials live on different variable tables")
        flat = {}
        polynomials._mul_into(flat, factor._raw, self._flat, self.table)
        return _built(type(self), self.table, self.degree, flat)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        if self.table != other.table:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self._flat == other._flat

    def __hash__(self):
        return hash((type(self).__name__, self.table,
                     frozenset(self._flat.items())))

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
        flat = {}
        polynomials._mul_into(flat, self._flat, other._flat, table)
        return _built(type(self), table, degree, flat)

    def __repr__(self):
        if self.is_zero():
            return f"<{type(self).__name__} 0 (degree {self.degree})>"
        bits = []
        for indices, coeff in self.sorted_terms():
            gens = "^".join(f"{self._prefix}{k}" for k in indices)
            bits.append(f"({coeff}){'*' + gens if gens else ''}")
        return f"<{type(self).__name__} {' + '.join(bits)}>"


def _built(cls, table: VariableTable, degree: int, flat: Mapping):
    """The one trusted builder, from a flat dict valid for `table`: each
    nonzero triple is reduced and zero sums are dropped, in one pass."""
    element = object.__new__(cls)
    object.__setattr__(element, "table", table)
    object.__setattr__(element, "degree", degree)
    object.__setattr__(element, "_flat", polynomials._normalized(flat))
    object.__setattr__(element, "_terms", None)
    return element


def _split(element) -> dict:
    """{mask: raw term dict} of an element's coefficients, in one pass
    over its flat dict."""
    shift = element.table._mask_shift
    groups = {}
    for key, t in element._flat.items():
        mask = key >> shift
        raw = groups.get(mask)
        if raw is None:
            raw = groups[mask] = {}
        raw[key - (mask << shift)] = t
    return groups


def _xi_derivative(flat: Mapping, bit: int, shift: int, factor: int = 1) -> dict:
    """factor * d_L/dxi_k of a flat dict, for bit = 1 << k, whose masks sit
    at `shift`: the left derivative moves xi_k to the front past the
    generators below it.  Dropping one mask bit keeps keys distinct."""
    drop = bit << shift
    out = {}
    for key, t in flat.items():
        mask = key >> shift
        if mask & bit:
            s = -factor if (mask & (bit - 1)).bit_count() & 1 else factor
            out[key - drop] = t if s == 1 else (t[0] * s, t[1] * s, t[2])
    return out


def _pushforward_sums(table: VariableTable, images: Mapping,
                      xi_images: dict) -> dict:
    """The flat accumulator of sum_S c_S xi_S under a coordinate change.

    Each key of `images` keeps the mask S of its source term above the
    image of that term's monomial; `xi_images[k]` is the flat image of
    xi_k.  The image of each xi_S is built once, by wedging.
    """
    shift = table._mask_shift
    low = (1 << shift) - 1
    wedges = {}
    sums = {}
    for key, t in images.items():
        mask = key >> shift
        image = wedges.get(mask)
        if image is None:
            first, *rest = _indices(mask) or (None,)
            image = xi_images.get(first, {0: (1, 0, 1)})  # 1 for S = ()
            for k in rest:
                image, previous = {}, image
                polynomials._mul_into(image, previous, xi_images[k], table)
            wedges[mask] = image
        polynomials._mul_into(sums, {key & low: t}, image, table)
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
    table = a.table
    flat = {}
    for (k,), g in eta.terms.items():
        polynomials._mul_into(flat, g._raw, _xi_derivative(
            a._flat, 1 << k, table._mask_shift), table)
    return _built(Multivector, table, max(a.degree - 1, 0), flat)


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
    flat = {}
    for k in range(n):
        derived = polynomials._derivative_terms(omega._flat, table, k)
        if derived:
            polynomials._mul_into(
                flat, {1 << k << table._mask_shift: (1, 0, 1)}, derived, table)
    return _built(DifferentialForm, table, omega.degree + 1, flat)


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
    factors = []
    if a is b or (a.degree == b.degree and a._flat == b._flat):
        # Equal arguments: the second sign is -1 for every degree and the
        # two sums agree, adding up for even degree, cancelling for odd.
        if not a.degree % 2:
            _odd_even_factors(factors, a, a, -2)
    else:
        _odd_even_factors(factors, a, b, 1 if a.degree % 2 else -1)
        # dA/dx_k ^ d_L B/dxi_k, rewritten with the odd factor in front
        _odd_even_factors(
            factors, b, a, 1 if (a.degree * (b.degree + 1)) % 2 else -1)
    products = sum(len(left) * len(right) for left, right in factors)
    if products * _HEAVIEST_TERM ** 2 > MAX_BRACKET_PRODUCTS:
        products = sum(_weight(left) * _weight(right)
                       for left, right in factors)
        if products > MAX_BRACKET_PRODUCTS:
            raise ValueError(f"the Schouten bracket takes {products} term "
                             f"products, more than {MAX_BRACKET_PRODUCTS}")
    flat = {}
    for left, right in factors:
        polynomials._mul_into(flat, left, right, table)
    return _built(Multivector, table, degree, flat)


# A bound on the weighted term products of one Schouten bracket, checked
# before any is made; a term counts once more per 1,024 bits of its
# coefficient.  The costliest admitted [Pi, Pi] found load and bracket in
# 0.7 to 1.8 s (2-vCPU Xeon, Python 3.11.7): 707 records on 13 coordinates
# whose monomials hold every coordinate (999,698 products, 667,843 terms),
# 176 of them with coprime 1,000-digit denominators, and 960 on x1.
MAX_BRACKET_PRODUCTS = 1_000_000
# A document's coefficient parts stay below 10^4300, 14,285 bits each, so
# its terms weigh at most 1 + 42,855 // 1,024 = 42, also after the factors
# of a derivative (an exponent up to 25, a 2).  So weights are summed only
# when the plain count times 42^2 could pass the bound.
_HEAVIEST_TERM = 42


def _weight(raw: Mapping) -> int:
    return sum(1 + (a.bit_length() + b.bit_length() + d.bit_length()) // 1024
               for a, b, d in raw.values())


def _odd_even_factors(factors: list, odd: Multivector, even: Multivector,
                      factor: int) -> None:
    """Append the nonempty (left, right) raw dicts of factor * sum_k
    (d_L odd / dxi_k) ^ (d even / dx_k) to `factors`; the factor and the
    sign of d_L go into the left terms."""
    table = odd.table
    shift, odd_flat, even_flat = table._mask_shift, odd._flat, even._flat
    for k in range(table.n_coordinates):
        left = _xi_derivative(odd_flat, 1 << k, shift, factor)
        if left:
            right = polynomials._derivative_terms(even_flat, table, k)
            if right:
                factors.append((left, right))


def bv_laplacian(a: Multivector) -> Multivector:
    """Flat odd Laplacian sum_k d/dx_k d/dxi_k.

    Generates the Schouten bracket: Delta(A^B) - Delta(A)^B
    - (-1)^a A^Delta(B) = BV_SIGN * (-1)^a * [A, B] exactly, and
    curl(A) = (-1)^(p+1) Delta(A) on degree-p multivectors.
    """
    table = a.table
    flat = {}
    for k in range(table.n_coordinates):
        polynomials._add_into(flat, polynomials._derivative_terms(
            _xi_derivative(a._flat, 1 << k, table._mask_shift), table, k))
    return _built(Multivector, table, max(a.degree - 1, 0), flat)


#: Sign s in Delta(A^B) - Delta(A)^B - (-1)^a A^Delta(B) = s*(-1)^a*[A,B].
#: Frozen by the pair (xi1, x1): defect 1, bracket 1, a = 1, so s = -1.
BV_SIGN = -1


def _complemented(element, cls, to_form: bool):
    """The flat image of each term under S -> S^c, signed by the
    permutation (S, S^c) of the multivector side's index set S."""
    table = element.table
    n = table.n_coordinates
    shift = table._mask_shift
    low = (1 << shift) - 1
    full = (1 << n) - 1
    flat = {}
    for key, t in element._flat.items():
        mask = key >> shift
        complement = full ^ mask
        side = mask if to_form else complement
        flat[complement << shift | key & low] = (
            t if _mask_sign(side, full ^ side) > 0 else (-t[0], -t[1], t[2]))
    return _built(cls, table, n - element.degree, flat)


def volume_isomorphism(a: Multivector) -> DifferentialForm:
    """xi_S f |-> sign(S, S^c) f dx_{S^c} for the standard volume form."""
    return _complemented(a, DifferentialForm, True)


def volume_isomorphism_inverse(omega: DifferentialForm) -> Multivector:
    return _complemented(omega, Multivector, False)


class VolumeCurl(Frozen):
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

    def __reduce__(self):
        return VolumeCurl, (self.main, self.correction, self.denominator)

    def __repr__(self):
        return (f"<VolumeCurl main={self.main!r} correction={self.correction!r}"
                f" / ({self.denominator})>")


def curl(a: Multivector, u: Polynomial | None = None):
    """Curl operator of the volume form u * dx_1^...^dx_n.

    With u omitted (or constant nonzero) this is the conjugation
    inverse(volume) o d o volume, a Multivector, computed as the signed
    Laplacian (-1)^(p+1) Delta(a) on a degree-p field.  For non-constant
    u the result is the exact pair curl(a) - (1/u) contract(du, a),
    returned as a VolumeCurl.
    """
    if not isinstance(a, Multivector):
        raise TypeError("curl acts on multivectors")
    base = bv_laplacian(a) if a.degree % 2 else -bv_laplacian(a)
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
