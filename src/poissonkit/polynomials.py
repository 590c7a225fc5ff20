"""Sparse multivariate polynomials over Q(i) with a coordinate/parameter split.

Variables come in two flavours: *coordinates* (the geometric variables,
subject to differentiation and monomial ordering) and *parameters*
(structure constants, deformation parameters).  A monomial is stored as
one packed integer whose fixed-width fields are laid out by the
`VariableTable`, most significant first:

    [coordinate degree | x_1 ... x_nc | parameter degree | p_1 ... p_np]

and maps to the reduced nonzero triple (a, b, d) of its coefficient
(a + b i)/d, on which all arithmetic runs.  A product of monomials is
the sum of their keys; `Polynomial.terms` and the constructor speak
exponent tuples over coordinates-then-parameters, and text prints from keys.
A multivector keeps a generator mask above the fields, so this module
owns the whole packed key: fields, guard, mask sign and `_mul_into`,
the one product loop of the package.

The monomial order is graded lexicographic on the coordinate part with a
graded lexicographic tie-break on the parameter part, so parameters act
as coefficients: division never reorders the coordinate-level structure.
With the degrees in the leading fields, that order is integer comparison
of the packed keys.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import comb
from operator import or_
from typing import Iterable, Mapping

from .scalars import (Frozen, GaussRational, _make, _norm, _power, _product,
                      _quotient, _reduced, _sum, _triple_text)

# Every field of a packed key is FIELD_BITS wide, and its top bit is a
# guard: an exponent or degree must stay below FIELD_LIMIT = 32,768, so
# adding two keys never carries into the next field, and a sum that
# reaches the limit shows in the guard bit.  `_pack` refuses such a
# field and the product loop raises ValueError on it.  What the command
# line reads is of total degree at most MAX_DEGREE = 25; the largest
# degrees a verb then forms are a Pfaffian of six entries on 13
# coordinates (150), [Pi, Pi] (49) and a chart transition, pole bias
# included (29), all far below the limit.  Only a family path of
# shears multiplies degrees step by step: four shears by 20th powers,
# x1 by x2^20 through x4 by t^20, are refused with exit 2 once a
# product reaches the limit.
FIELD_BITS = 16  # one big-endian unsigned short, "H", per field
FIELD_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1
# Generator mask pairs recur: checking two generic diagonal structures on
# every chart of P^8 asks for 252 distinct pairs 8,288 times.  The bound
# holds for every mask cache of the package.
MASK_SIGN_CACHE = 1 << 16


@lru_cache(maxsize=MASK_SIGN_CACHE)
def _mask_sign(left: int, right: int) -> int:
    """The Koszul sign of the shuffle that sorts the generators of the
    mask `left` followed by those of `right`, or 0 if they share one."""
    if left & right:
        return 0
    inversions = 0
    while right:
        low = right & -right
        inversions += (left & ~(low - 1)).bit_count()  # left ones above it
        right ^= low
    return -1 if inversions & 1 else 1


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; message names token and position."""


class VariableTable(Frozen):
    """Immutable registry of coordinate and parameter names, and the
    layout of their packed monomial keys.

    Exponent tuples are laid out as coordinates first, parameters second.
    A packed key holds FIELD_BITS-wide fields, most significant first:
    the coordinate degree, one field per coordinate, the parameter
    degree, one field per parameter.  The bits from `_mask_shift` up,
    above every field, are free: a multivector's key puts its generator
    mask there.  Names must be unique, valid identifiers, and distinct
    from the reserved imaginary unit `i`.
    """

    __slots__ = ("coordinates", "parameters", "_slots", "_shifts", "_units",
                 "_guard", "_degree_shifts", "_mask_shift", "_packer",
                 "_unpacker")

    def __init__(self, coordinates: Iterable[str], parameters: Iterable[str] = ()):
        coords = tuple(coordinates)
        params = tuple(parameters)
        seen = {}
        for pos, name in enumerate(coords + params):
            if not name.isidentifier():
                raise ValueError(f"invalid variable name: {name!r}")
            if name == "i":
                raise ValueError("variable name 'i' is reserved for the imaginary unit")
            if name in seen:
                raise ValueError(f"duplicate variable name: {name!r}")
            seen[name] = pos
        nc, npar = len(coords), len(params)
        fields = nc + npar + 2
        # field f, counted from the most significant, starts at this bit
        start = [FIELD_BITS * (fields - 1 - f) for f in range(fields)]
        degree_shifts = (start[0], start[nc + 1])
        shifts = tuple(start[1:nc + 1] + start[nc + 2:])
        # one more in a variable's field and in its part's degree field
        units = tuple((1 << s) + (1 << degree_shifts[pos >= nc])
                      for pos, s in enumerate(shifts))
        set_ = object.__setattr__
        set_(self, "coordinates", coords)
        set_(self, "parameters", params)
        set_(self, "_slots", seen)
        set_(self, "_shifts", shifts)
        set_(self, "_units", units)
        set_(self, "_guard", sum(1 << (s + FIELD_BITS - 1) for s in start))
        set_(self, "_degree_shifts", degree_shifts)
        set_(self, "_mask_shift", FIELD_BITS * fields)
        set_(self, "_packer", struct.Struct(f">{fields}H"))
        set_(self, "_unpacker", struct.Struct(f">2x{nc}H2x{npar}H"))

    def __reduce__(self):
        return VariableTable, (self.coordinates, self.parameters)

    @property
    def names(self) -> tuple[str, ...]:
        return self.coordinates + self.parameters

    @property
    def n_coordinates(self) -> int:
        return len(self.coordinates)

    @property
    def width(self) -> int:
        return len(self.coordinates) + len(self.parameters)

    def slot(self, name: str) -> int:
        try:
            return self._slots[name]
        except KeyError:
            raise KeyError(f"unknown variable: {name!r}") from None

    def is_coordinate(self, name: str) -> bool:
        return name in self._slots and self._slots[name] < len(self.coordinates)

    def drop_coordinate(self, name: str) -> "VariableTable":
        if not self.is_coordinate(name):
            raise KeyError(f"not a coordinate: {name!r}")
        coords = tuple(c for c in self.coordinates if c != name)
        return VariableTable(coords, self.parameters)

    def _pack(self, exps) -> int:
        """The packed key of a sequence of exponents, coordinates then
        parameters.  A negative or non-integer exponent is refused, and so
        is a degree (hence any field) at FIELD_LIMIT."""
        nc = len(self.coordinates)
        coords, params = exps[:nc], exps[nc:]
        degree, pdegree = sum(coords), sum(params)
        if degree >= FIELD_LIMIT or pdegree >= FIELD_LIMIT:
            raise ValueError(f"a degree of {max(degree, pdegree)} does not "
                             f"fit below {FIELD_LIMIT}")
        try:
            return int.from_bytes(self._packer.pack(
                degree, *coords, pdegree, *params), "big")
        except struct.error:
            raise ValueError(f"bad exponent tuple {tuple(exps)!r}") from None

    def _unpack(self, key: int) -> tuple:
        """The exponent tuple of a packed key."""
        return self._unpacker.unpack(key.to_bytes(self._packer.size, "big"))

    def _degrees(self, raw: Mapping) -> list:
        """The total degree of each key of a raw term dict."""
        top, low = self._degree_shifts
        return [(key >> top) + (key >> low & _FIELD_MASK) for key in raw]

    def __eq__(self, other):
        if not isinstance(other, VariableTable):
            return NotImplemented
        return (
            self.coordinates == other.coordinates
            and self.parameters == other.parameters
        )

    def __hash__(self):
        return hash((self.coordinates, self.parameters))

    def __repr__(self):
        return f"VariableTable({self.coordinates!r}, {self.parameters!r})"


def _as_scalar(value) -> GaussRational:
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational(value)
    raise TypeError(f"cannot use {type(value).__name__} as a scalar")


class Polynomial(Frozen):
    """Element of Q(i)[coordinates, parameters] in canonical sparse form.

    `_raw` maps packed monomial keys (laid out by the table) to reduced
    nonzero (a, b, d) triples; zero never stores a term, so structural
    equality is semantic equality.  The constructor and `terms` speak
    exponent tuples.
    """

    __slots__ = ("table", "_raw")

    def __init__(self, table: VariableTable, terms: Mapping[tuple, GaussRational]):
        raw = {}
        width = table.width
        pack = table._pack
        for exps, coeff in terms.items():
            coeff = _as_scalar(coeff)
            if coeff.is_zero():
                continue
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(f"bad exponent tuple {exps!r} for table of width {width}")
            raw[pack(exps)] = coeff._t
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_raw", raw)

    @property
    def terms(self) -> dict:
        """A fresh {exponents: GaussRational} dict of the nonzero terms;
        writing into it leaves the polynomial unchanged."""
        unpack = self.table._unpack
        return {unpack(e): _make(*t) for e, t in self._raw.items()}

    def __reduce__(self):
        return Polynomial, (self.table, self.terms)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, table: VariableTable) -> "Polynomial":
        return cls(table, {})

    @classmethod
    def one(cls, table: VariableTable) -> "Polynomial":
        return cls.constant(table, GaussRational.one())

    @classmethod
    def constant(cls, table: VariableTable, value) -> "Polynomial":
        return _from_raw(table, {0: _as_scalar(value)._t})

    @classmethod
    def variable(cls, table: VariableTable, name: str) -> "Polynomial":
        return cls.monomial(table, {name: 1})

    @classmethod
    def monomial(cls, table: VariableTable, powers: Mapping[str, int], coeff=1) -> "Polynomial":
        exps = [0] * table.width
        for name, e in powers.items():
            exps[table.slot(name)] += e
        return cls(table, {tuple(exps): _as_scalar(coeff)})

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return not self._raw

    def is_constant(self) -> bool:
        return not any(self._raw)

    def constant_value(self) -> GaussRational:
        """The value of a constant polynomial (error otherwise)."""
        if self.is_zero():
            return GaussRational.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return _make(*next(iter(self._raw.values())))

    def variables_present(self) -> set:
        present = reduce(or_, self._raw, 0)
        return {name for name, e in zip(self.table.names,
                                        self.table._unpack(present)) if e}

    def coordinate_degree(self) -> int:
        """Max total degree in the coordinates; -1 for the zero polynomial."""
        if not self._raw:
            return -1
        return max(self._raw) >> self.table._degree_shifts[0]

    def homogeneous_degree(self):
        """Common total coordinate degree of all terms, or None if mixed."""
        top = self.table._degree_shifts[0]
        degrees = {key >> top for key in self._raw}
        return degrees.pop() if len(degrees) == 1 else None

    # -- arithmetic -----------------------------------------------------

    def _check_table(self, other: "Polynomial"):
        if self.table != other.table:
            raise ValueError("polynomials live on different variable tables")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        raw = dict(self._raw)
        _add_into(raw, other._raw)
        return _from_raw(self.table, raw)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _from_raw(self.table, _scaled(self._raw, -1))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        acc = {}
        _mul_into(acc, self._raw, other._raw, self.table)
        return _from_raw(self.table, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Polynomial.one(self.table))

    def scale(self, value) -> "Polynomial":
        value = _as_scalar(value)._t
        return _from_raw(self.table, {e: _product(t, value)
                                      for e, t in self._raw.items()})

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, GaussRational)):
            return Polynomial.constant(self.table, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.table == other.table and self._raw == other._raw

    def __hash__(self):
        return hash((self.table, frozenset(self._raw.items())))

    def __bool__(self):
        return not self.is_zero()

    # -- calculus ---------------------------------------------------------

    def partial_derivative(self, name: str) -> "Polynomial":
        """Exact partial derivative with respect to a coordinate."""
        if not self.table.is_coordinate(name):
            raise KeyError(f"not a coordinate: {name!r}")
        return _from_raw(self.table, _derivative_terms(
            self._raw, self.table, self.table.slot(name)))

    def evaluate(self, values: Mapping[str, object]) -> GaussRational:
        """Exact evaluation by `_values`; every variable present must be
        assigned (the error names the first unassigned one, by name)."""
        return _values(self.table, (self._raw,), values)[0]

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<Polynomial {format_polynomial(self)}>"


def _scaled(raw: Mapping, s: int) -> dict:
    """The raw term dict of s times `raw`, for an integer s."""
    return {e: (a * s, b * s, d) for e, (a, b, d) in raw.items()}


def _normalized(raw: Mapping) -> dict:
    """A raw term dict with each nonzero triple reduced and zero sums
    dropped, in one pass."""
    return {e: t if t[2] == 1 else _reduced(t)
            for e, t in raw.items() if t[0] or t[1]}


def _from_raw(table: VariableTable, raw: dict) -> Polynomial:
    """The trusted builder, from a raw term dict of packed keys valid
    for `table`."""
    return _wrapped(table, _normalized(raw))


def _wrapped(table: VariableTable, raw: dict) -> Polynomial:
    """A polynomial around a raw term dict that is already normalized,
    such as one coefficient split from a multivector's flat dict."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "table", table)
    object.__setattr__(p, "_raw", raw)
    return p


def _substituted(raw: Mapping, table: VariableTable,
                 images: Mapping[str, Polynomial]) -> dict:
    """The normalized raw term dict of `raw` with each named variable
    sent to its image.  Only the named fields of a key are read, so a
    multivector's flat dict keeps its generator masks."""
    cache = {}
    for name, img in images.items():
        slot = table.slot(name)
        if img.table != table:
            raise ValueError("substitution image on a different variable table")
        cache[slot] = (table._shifts[slot], table._units[slot], img)
    one = {0: (1, 0, 1)}
    acc = {}
    for key, t in raw.items():
        residual = key
        factor = None
        for shift, unit, img in cache.values():
            e = key >> shift & _FIELD_MASK
            if e:
                residual -= e * unit
                piece = img ** e
                factor = piece if factor is None else factor * piece
        _mul_into(acc, one if factor is None else factor._raw,
                  {residual: t}, table)
    return _normalized(acc)


def _values(table: VariableTable, raws, values: Mapping) -> list:
    """The exact values of a sequence of raw term dicts at one point, the
    one evaluator: each variable's powers are built once, each from the one
    below it, and each sum runs on the triples and is reduced once."""
    present = reduce(or_, chain.from_iterable(raws), 0)
    used = [(name, shift) for name, shift in zip(table.names, table._shifts)
            if present >> shift & _FIELD_MASK]
    missing = sorted(name for name, _ in used if name not in values)
    if missing:  # raise what evaluating one dict at a time would raise
        for raw in raws[:-1]:
            _values(table, (raw,), values)
        raise KeyError(f"unassigned variable: {missing[0]!r}")
    tables = []
    for name, shift in used:
        x = _as_scalar(values[name])._t
        powers = {0: (1, 0, 1)}
        exps = sorted({k >> shift & _FIELD_MASK for raw in raws for k in raw})
        for below, e in zip([0] + exps, exps):
            powers[e] = _power(x, e - below, powers[below], _product)
        tables.append((shift, powers))
    results = []
    for raw in raws:
        total = (0, 0, 1)
        for key, t in raw.items():
            for shift, powers in tables:
                t = _product(t, powers[key >> shift & _FIELD_MASK])
            total = _sum(total, t)
        results.append(_norm(total))
    return results


def _add_into(acc: dict, raw: Mapping) -> None:
    """Add a raw term dict into the raw dict `acc`: the one sum loop.
    Sums that cancel stay as zero triples until the result is built."""
    for key, t in raw.items():
        prev = acc.get(key)
        acc[key] = t if prev is None else _sum(prev, t)


def _mul_into(acc: dict, left: Mapping, right: Mapping,
              table: VariableTable) -> None:
    """Add the product of two raw term dicts on `table` into `acc`: the
    one product loop, for polynomials and the flat dicts of elements.

    Keys add, so monomials multiply and disjoint generator masks OR; a
    pair whose masks meet is zero, and `_mask_sign` signs the rest.  A
    left term of mask 0 needs neither, so callers put a mask-0 operand
    on the left.  No field carries: each stored field is below
    FIELD_LIMIT, so a field sum fits its FIELD_BITS, and one reaching
    FIELD_LIMIT sets its bit of `table._guard` and raises ValueError
    before it is stored, the top field included.  Sums that cancel stay
    in `acc` as zero triples until the result is built.
    """
    shift, guard = table._mask_shift, table._guard
    get = acc.get
    for k1, t1 in left.items():
        m1 = k1 >> shift
        if not m1:
            for k2, t2 in right.items():
                key = k1 + k2
                if key & guard:
                    raise ValueError(f"an exponent or degree of a product "
                                     f"reaches {FIELD_LIMIT}")
                prev = get(key)
                acc[key] = (_product(t1, t2) if prev is None
                            else _sum(prev, _product(t1, t2)))
            continue
        negated = None
        for k2, t2 in right.items():
            m2 = k2 >> shift
            if m1 & m2:
                continue
            key = k1 + k2
            if key & guard:
                raise ValueError(f"an exponent or degree of a product "
                                 f"reaches {FIELD_LIMIT}")
            if _mask_sign(m1, m2) < 0:
                if negated is None:
                    negated = (-t1[0], -t1[1], t1[2])
                c = _product(negated, t2)
            else:
                c = _product(t1, t2)
            prev = get(key)
            acc[key] = c if prev is None else _sum(prev, c)


def _derivative_terms(raw: Mapping, table: VariableTable, slot: int) -> dict:
    """The raw term dict of d/dx for the coordinate at `slot`; lowering
    one exponent keeps distinct monomials distinct, so nothing collects."""
    shift, unit = table._shifts[slot], table._units[slot]
    out = {}
    for key, c in raw.items():
        e = key >> shift & _FIELD_MASK
        if e:
            out[key - unit] = c if e == 1 else (c[0] * e, c[1] * e, c[2])
    return out


# -- division ------------------------------------------------------------


def reduce_mod(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Division with remainder by a single polynomial: f = q*g + r.

    Uses the table's graded lexicographic order (coordinates first,
    parameters as tie-break), which is integer order on packed keys.  No
    monomial of r is divisible by the leading monomial of g, so r = 0
    exactly when f lies in the principal ideal (g): a single polynomial
    is a Groebner basis of the ideal it generates.
    """
    if g.is_zero():
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    f._check_table(g)
    table = f.table
    guard = table._guard
    lead_g = max(g._raw)
    lc_g = g._raw[lead_g]
    # the other terms of g, negated: each step adds factor * shift * tail
    tail = {e: (-a, -b, d) for e, (a, b, d) in g._raw.items() if e != lead_g}

    work = dict(f._raw)
    quotient = {}
    remainder = {}
    while work:
        m = max(work)
        c = work.pop(m)
        if not (c[0] or c[1]):  # a term that cancelled in an earlier step
            continue
        # lead_g divides m when no field of m - lead_g borrows: a borrow
        # sets that field's guard bit, or the sign if it is the top field
        shift = m - lead_g
        if shift >= 0 and not (shift & guard):
            # every target is below m in the order, so no shift repeats
            factor = quotient[shift] = _reduced(_quotient(c, lc_g))
            _mul_into(work, {shift: factor}, tail, table)
        else:
            remainder[m] = c
    return _from_raw(table, quotient), _from_raw(table, remainder)


# -- text syntax -----------------------------------------------------------


# One token a match, after any whitespace: an integer literal of ASCII
# digits, a name, an operator, or any other character, which is refused.
_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^()])|(?P<other>\S))")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value, at = match[kind], match.start(kind)
        # a name starts with a letter or "_"; \w also holds numerals
        if kind == "other" or kind == "name" and not (
                value[0].isalpha() or value[0] == "_"):
            raise PolynomialSyntaxError(
                f"unexpected character {value[0]!r} at position {at}")
        tokens.append((value if kind == "op" else kind, value, at))
    tokens.append(("end", "", len(text)))
    return tokens


# The parser recurses once per parenthesis; deeper input is rejected as a
# syntax error long before Python's recursion limit is reached.
MAX_NESTING = 100
# A power's cost grows with its exponent: (x1+x2+x3+x4)^20 expands to
# 1,771 terms in about 0.2 s, ^40 to 12,341 terms in several seconds.
MAX_EXPONENT = 20
# A bound on the total degree of a parsed or loaded term, checked before
# each power or product is expanded.  On four variables the costliest
# degree-25 input, (x1+x2+x3+x4)^17*(x1+x2+x3+x4)^8, expands to 3,276
# terms in about 0.35 s; at degree 40, ^20*^20 takes about 4 s.
MAX_DEGREE = 25
# A bound on the term count of every product and power the parser
# expands, checked before expanding, and on the term records of a
# loaded document.  The costliest admitted inputs found,
# (1+x1+x2+x3)^12*(1+x1+x2+x3)^13 (3,276 terms) and
# (x1+...+x5)^8*(x1+...+x5)^8 (4,845 terms), take 0.35 to 0.6 s with
# fractional coefficients; the refused (x1+...+x8)^10 would take 0.7 s
# for 19,448 terms, ^20 would have 888,030.
MAX_TERMS = 5_000
# A bound on the sum of those term bounds over one whole text, so that
# admitted products joined by + cannot add up to a long parse.  A bound
# of one term is not charged: a product of two monomials costs one step,
# so a long canonical sum of monomials stays readable.
# (x1+...+x5)^8*(x1+...+x5)^8 is charged 5,835 and parses in about
# 0.4 s; three copies joined by + are charged 17,505 and refused.  The
# costliest admitted text found, two (x1+...+x4)^12*(x1+...+x4)^13 with
# fractional coefficients joined by +, takes 1.2 to 1.4 s.
MAX_TEXT_TERMS = 10_000
# A bound on the coordinates of a diagonal spec or a loaded document,
# checked before any table or entry dict is built; 13 admits P^12.  On a
# numeric 13-coordinate spec, `diagonal --in` takes 0.33 s and `logform`
# 0.25 s, best of 3 whole processes on a 2-vCPU Xeon with Python 3.11.
MAX_COORDINATES = 13


def _total_degree(f: Polynomial) -> int:
    return max(f.table._degrees(f._raw), default=0)


def _term_bound(f: Polynomial, g: Polynomial, e: int = 1) -> int:
    """An upper bound on the term count of f^e*g: a product has at most
    one term per pair or multiset of factor terms, and at most one per
    monomial of its degree range in the variables present."""
    if not (f._raw and g._raw):
        return len(g._raw)
    df, dg = (h.table._degrees(h._raw) for h in (f, g))
    lo, hi = min(df) * e + min(dg), max(df) * e + max(dg)
    n = len(f.variables_present() | g.variables_present())
    pairs = comb(len(f._raw) + e - 1, e) * len(g._raw)
    return min(pairs, comb(n + hi, n) - (comb(n + lo - 1, n) if lo else 0))


class _Parser:
    def __init__(self, text: str, table: VariableTable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.charged = 0
        self.table = table

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        kind, value, at = self.peek()
        shown = value if value else "end of input"
        raise PolynomialSyntaxError(f"{message}: {shown!r} at position {at}")

    def parse(self) -> Polynomial:
        poly = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return poly

    def expr(self) -> Polynomial:
        """A signed sum, collected into one raw term dict, so a sum of k
        terms costs k additions rather than k copies of the total."""
        acc = {}
        op = self.advance()[0] if self.peek()[0] in "+-" else "+"
        while True:
            terms = self.term()._raw
            _add_into(acc, _scaled(terms, -1) if op == "-" else terms)
            if self.peek()[0] not in "+-":
                return _from_raw(self.table, acc)
            op = self.advance()[0]

    def bound(self, token, f: Polynomial, g: Polynomial, e: int = 1) -> None:
        """Refuse to expand f^e*g past MAX_DEGREE or MAX_TERMS, or the
        text past MAX_TEXT_TERMS."""
        degree = _total_degree(f) * e + _total_degree(g)
        if degree > MAX_DEGREE:
            raise PolynomialSyntaxError(
                f"degree {degree} larger than {MAX_DEGREE}: {token[1]!r}"
                f" at position {token[2]}")
        terms = _term_bound(f, g, e)
        if terms > MAX_TERMS:
            raise PolynomialSyntaxError(
                f"up to {terms} terms, more than {MAX_TERMS}: {token[1]!r}"
                f" at position {token[2]}")
        self.charged += terms if terms > 1 else 0
        if self.charged > MAX_TEXT_TERMS:
            raise PolynomialSyntaxError(
                f"products and powers of up to {self.charged} terms in all,"
                f" more than {MAX_TEXT_TERMS}: {token[1]!r}"
                f" at position {token[2]}")

    def term(self) -> Polynomial:
        total = self.factor()
        while self.peek()[0] == "*":
            star = self.advance()
            rhs = self.factor()
            self.bound(star, total, rhs)
            total = total * rhs
        return total

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, _ = self.peek()
            if kind != "int":
                self.fail("expected integer exponent")
            # lengths first: int() refuses strings of over 4,300 digits
            digits = value.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                self.fail(f"exponent larger than {MAX_EXPONENT}")
            exponent = int(digits)
            self.bound(self.advance(), base, Polynomial.one(self.table),
                       exponent)
            return base ** exponent
        return base

    def integer(self) -> int:
        """Consume an integer literal; int() refuses over 4,300 digits."""
        _, digits, at = self.peek()
        try:
            value = int(digits)
        except ValueError:
            raise PolynomialSyntaxError(
                f"integer literal of {len(digits)} digits is too long"
                f" at position {at}") from None
        self.advance()
        return value

    def base(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "int":
            num = self.integer()
            if self.peek()[0] == "/":
                self.advance()
                if self.peek()[0] != "int":
                    self.fail("expected integer denominator")
                den = self.integer()
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator in rational literal")
                return Polynomial.constant(self.table, Fraction(num, den))
            return Polynomial.constant(self.table, num)
        if kind == "name":
            self.advance()
            if value == "i":
                return Polynomial.constant(self.table, GaussRational.i())
            try:
                return Polynomial.variable(self.table, value)
            except KeyError:
                raise PolynomialSyntaxError(f"unknown variable {value!r}") from None
        if kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            inner = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected closing parenthesis")
            self.advance()
            self.depth -= 1
            return inner
        self.fail("expected a term")


def parse_polynomial(text: str, table: VariableTable) -> Polynomial:
    """Parse the textual syntax, e.g. `(3/2+1/2*i)*x1^2*x2 - l12*x3`."""
    return _Parser(text, table).parse()


_NO_VARIABLES = VariableTable(())


def parse_scalar(text: str) -> GaussRational:
    """Parse scalar literals such as `3/2`, `-1/2*i`, `3/2+1/2*i`, `i`."""
    return _Parser(text, _NO_VARIABLES).parse().constant_value()


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form; parsing it back reproduces f exactly.  Terms
    run in descending packed order, each printed from its key and triple."""
    if f.is_zero():
        return "0"
    names, unpack, raw = f.table.names, f.table._unpack, f._raw
    out = []
    for key in sorted(raw, reverse=True):
        a, b, d = raw[key]
        if a and b:  # a complex coefficient, in parentheses, never negative
            negative, body = False, f"({_triple_text((a, b, d))})"
        else:  # a real or imaginary one, whose sign is the term's
            negative, body = a < 0 or b < 0, _triple_text((abs(a), abs(b), d))
        if key:
            mono = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(names, unpack(key)) if e)
            body = mono if body == "1" else f"{body}*{mono}"
        out += (" - " if negative else " + "), body
    out[0] = out[0].strip(" +")  # the leading term keeps only a minus
    return "".join(out)
