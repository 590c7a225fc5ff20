"""Exact arithmetic over the Gaussian rationals Q(i).

A scalar (a + b*i)/d is stored as one integer triple (a, b, d) with
d > 0 and gcd(a, b, d) = 1.  The form is unique, so equality and hashing
compare the triple.  `GaussRational(re, im)` is the one validating
constructor; arithmetic builds its results through the trusted `_make`
and `_norm`.  The parts `.re` and `.im` read back as `fractions.Fraction`.
The triple helpers `_sum`, `_product`, `_quotient` and `_reduced` hold
the one copy of each formula.  The operators reduce their results
through `_norm`; polynomials store their coefficients as reduced triples
of this form and compute on them with the same helpers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import eq, mul


def _sum(x: tuple, y: tuple) -> tuple:
    """The triple of x + y over the lcm of the denominators, not reduced:
    a running sum's denominator never grows past its summands' lcm."""
    a, b, d = x
    c, e, f = y
    if d == f:
        return a + c, b + e, d
    g = gcd(d, f)
    s, t = d // g, f // g
    return a * t + c * s, b * t + e * s, s * f


def _product(x: tuple, y: tuple) -> tuple:
    """The triple of x * y, not reduced."""
    a, b, d = x
    c, e, f = y
    if b or e:
        return a * c - b * e, a * e + b * c, d * f
    return a * c, 0, d * f


def _quotient(x: tuple, y: tuple) -> tuple:
    # (a + b i)/d / ((c + e i)/f) = f (a + b i)(c - e i) / (d (c^2 + e^2))
    a, b, d = x
    c, e, f = y
    n = c * c + e * e
    if not n:
        raise ZeroDivisionError("division by zero in Q(i)")
    return (a * c + b * e) * f, (b * c - a * e) * f, d * n


def _reduced(t: tuple) -> tuple:
    """The normalized form of a triple (a, b, d) with d > 0."""
    a, b, d = t
    g = gcd(d, a, b)
    return t if g == 1 else (a // g, b // g, d // g)


def _norm(t: tuple) -> "GaussRational":
    """The scalar of a triple (a, b, d) with d > 0, gcd divided out."""
    z = object.__new__(GaussRational)
    _set_t(z, t if t[2] == 1 else _reduced(t))
    return z


def _binary(op, build=_norm):
    """A dunder method returning build(op(x, y)) for the triples x, y of
    self and other."""
    def method(self, other):
        if type(other) is not GaussRational:
            if type(other) is int:
                other = _make(other, 0, 1)
            elif isinstance(other, (int, Fraction)):
                other = GaussRational(other)
            else:
                return NotImplemented
        return build(op(self._t, other._t))
    return method


class Frozen:
    """The base of every immutable value: no attribute can be set or
    deleted once built.  Constructors fill the slots through
    `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class GaussRational(Frozen):
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)
        object.__setattr__(
            self, "_t", (re.numerator * (d // p), im.numerator * (d // q), d))

    def __reduce__(self):
        return GaussRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "GaussRational":
        return _make(0, 0, 1)

    @classmethod
    def one(cls) -> "GaussRational":
        return _make(1, 0, 1)

    @classmethod
    def i(cls) -> "GaussRational":
        return _make(0, 1, 1)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._t == (0, 0, 1)

    # -- ring/field operations ------------------------------------------

    __add__ = __radd__ = _binary(_sum)
    __sub__ = _binary(lambda x, y: _sum(x, (-y[0], -y[1], y[2])))
    __rsub__ = _binary(lambda x, y: _sum(y, (-x[0], -x[1], x[2])))
    __mul__ = __rmul__ = _binary(_product)
    __truediv__ = _binary(_quotient)
    __rtruediv__ = _binary(lambda x, y: _quotient(y, x))
    __eq__ = _binary(eq, bool)

    def __pow__(self, n: int):
        if n < 0:
            return GaussRational.one() / self ** (-n)
        return _power(self, n, GaussRational.one())

    def __neg__(self):
        a, b, d = self._t
        return _make(-a, -b, d)

    def __pos__(self):
        return self

    def __hash__(self):
        return hash(self._t)

    def __bool__(self):
        return self._t != (0, 0, 1)

    def __complex__(self):
        a, b, d = self._t
        return complex(a / d, b / d)

    # -- text form -------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


# The slot's own setter, which the immutable __setattr__ does not block.
_set_t = GaussRational._t.__set__


def _make(a: int, b: int, d: int) -> GaussRational:
    """Trusted constructor: (a, b, d) must already be normalized."""
    z = object.__new__(GaussRational)
    _set_t(z, (a, b, d))
    return z


def _power(base, n: int, one, mul=mul):
    """base ** n for n >= 0 by repeated squaring, in any ring whose
    product is `mul`."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


# CPython converts integers of at most 4,300 digits to and from text.
_PART_LIMIT = 10 ** 4300


def _part_text(n: int, d: int) -> str:
    """The text of the rational n/d in lowest terms: `n` or `n/d`."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _triple_text(t: tuple) -> str:
    """The canonical text of a triple (a, b, d) with d > 0; each part is
    reduced by its own gcd.  A unit imaginary part prints as bare `i`."""
    a, b, d = t
    try:
        real = _part_text(a, d) if a or not b else ""
        if not b:
            return real
        im = "i" if abs(b) == d else _part_text(abs(b), d) + "*i"
        return real + ("-" if b < 0 else "+" if a else "") + im
    except ValueError:  # str() refuses a part past the limit
        raise ValueError("a coefficient has a numerator or denominator of "
                         "more than 4300 digits") from None


def format_scalar(z: GaussRational) -> str:
    """Canonical text form: `a/b`, `c/d*i`, or `a/b+c/d*i`.

    A unit imaginary part prints as bare `i`.  The output always parses
    back to the same value.  A part of over 4,300 digits raises ValueError.
    """
    return _triple_text(z._t)
