"""Sparse multivariate polynomials over Q(i) with a coordinate/parameter split.

Variables come in two flavours: *coordinates* (the geometric variables,
subject to differentiation and monomial ordering) and *parameters*
(structure constants, deformation parameters).  A monomial is stored as a
single exponent tuple over coordinates-then-parameters, mapped to a
nonzero GaussRational.

The monomial order is graded lexicographic on the coordinate part with a
graded lexicographic tie-break on the parameter part, so parameters act
as coefficients: division never reorders the coordinate-level structure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .scalars import GaussRational, format_scalar


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; message names token and position."""


class VariableTable:
    """Immutable registry of coordinate and parameter names.

    Exponent tuples are laid out as coordinates first, parameters second.
    Names must be unique, valid identifiers, and distinct from the
    reserved imaginary unit `i`.
    """

    __slots__ = ("coordinates", "parameters", "_slots")

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
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "_slots", seen)

    def __setattr__(self, name, value):
        raise AttributeError("VariableTable is immutable")

    @property
    def names(self) -> tuple[str, ...]:
        return self.coordinates + self.parameters

    @property
    def n_coordinates(self) -> int:
        return len(self.coordinates)

    @property
    def n_parameters(self) -> int:
        return len(self.parameters)

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


class Polynomial:
    """Element of Q(i)[coordinates, parameters] in canonical sparse form.

    `terms` maps exponent tuples to nonzero scalars; zero never stores a
    term, so structural equality is semantic equality.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VariableTable, terms: Mapping[tuple, GaussRational]):
        cleaned = {}
        width = table.width
        for exps, coeff in terms.items():
            coeff = _as_scalar(coeff)
            if coeff.is_zero():
                continue
            exps = tuple(exps)
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r} for table of width {width}")
            cleaned[exps] = coeff
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, table: VariableTable) -> "Polynomial":
        return cls(table, {})

    @classmethod
    def one(cls, table: VariableTable) -> "Polynomial":
        return cls.constant(table, GaussRational.one())

    @classmethod
    def constant(cls, table: VariableTable, value) -> "Polynomial":
        return cls(table, {(0,) * table.width: _as_scalar(value)})

    @classmethod
    def variable(cls, table: VariableTable, name: str) -> "Polynomial":
        exps = [0] * table.width
        exps[table.slot(name)] = 1
        return cls(table, {tuple(exps): GaussRational.one()})

    @classmethod
    def monomial(cls, table: VariableTable, powers: Mapping[str, int], coeff=1) -> "Polynomial":
        exps = [0] * table.width
        for name, e in powers.items():
            exps[table.slot(name)] += e
        return cls(table, {tuple(exps): _as_scalar(coeff)})

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> GaussRational:
        """The value of a constant polynomial (error otherwise)."""
        if self.is_zero():
            return GaussRational.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def coefficient(self, powers: Mapping[str, int]) -> GaussRational:
        exps = [0] * self.table.width
        for name, e in powers.items():
            exps[self.table.slot(name)] = e
        return self.terms.get(tuple(exps), GaussRational.zero())

    def variables_present(self) -> set:
        names = self.table.names
        present = set()
        for exps in self.terms:
            for pos, e in enumerate(exps):
                if e:
                    present.add(names[pos])
        return present

    def coordinate_degree(self) -> int:
        """Max total degree in the coordinates; -1 for the zero polynomial."""
        nc = self.table.n_coordinates
        if not self.terms:
            return -1
        return max(sum(e[:nc]) for e in self.terms)

    def homogeneous_degree(self):
        """Common total coordinate degree of all terms, or None if mixed."""
        nc = self.table.n_coordinates
        degrees = {sum(e[:nc]) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def monomial_content(self) -> tuple:
        """Componentwise minimum exponent tuple over all terms."""
        if not self.terms:
            return (0,) * self.table.width
        its = iter(self.terms)
        acc = list(next(its))
        for exps in its:
            for k, e in enumerate(exps):
                if e < acc[k]:
                    acc[k] = e
        return tuple(acc)

    def sorted_terms(self) -> list:
        """Terms in canonical (descending) monomial order."""
        key = _order_key_fn(self.table)
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]), reverse=True)

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        key = _order_key_fn(self.table)
        return max(self.terms, key=key)

    # -- arithmetic -----------------------------------------------------

    def _check_table(self, other: "Polynomial"):
        if self.table != other.table:
            raise ValueError("polynomials live on different variable tables")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = total
        return Polynomial(self.table, terms)

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
        return Polynomial(self.table, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = terms.get(exps)
                total = prod if acc is None else acc + prod
                if total.is_zero():
                    terms.pop(exps, None)
                else:
                    terms[exps] = total
        return Polynomial(self.table, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.table)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, value) -> "Polynomial":
        value = _as_scalar(value)
        return Polynomial(self.table, {e: c * value for e, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, GaussRational)):
            return Polynomial.constant(self.table, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = Polynomial.constant(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    # -- calculus ---------------------------------------------------------

    def partial_derivative(self, name: str) -> "Polynomial":
        """Exact partial derivative with respect to a coordinate."""
        if not self.table.is_coordinate(name):
            raise KeyError(f"not a coordinate: {name!r}")
        slot = self.table.slot(name)
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[slot]
            if not e:
                continue
            lowered = exps[:slot] + (e - 1,) + exps[slot + 1:]
            add = coeff * e
            acc = terms.get(lowered)
            total = add if acc is None else acc + add
            if total.is_zero():
                terms.pop(lowered, None)
            else:
                terms[lowered] = total
        return Polynomial(self.table, terms)

    def evaluate(self, values: Mapping[str, object]) -> GaussRational:
        """Exact evaluation; every variable present in the polynomial must
        be assigned (the error names the first unassigned symbol)."""
        names = self.table.names
        missing = sorted(self.variables_present() - set(values))
        if missing:
            raise KeyError(f"unassigned variable: {missing[0]!r}")
        total = GaussRational.zero()
        for exps, coeff in self.sorted_terms():
            acc = coeff
            for pos, e in enumerate(exps):
                if e:
                    acc = acc * _as_scalar(values[names[pos]]) ** e
            total = total + acc
        return total

    def evaluate_float(self, values: Mapping[str, complex]) -> complex:
        """Complex-double evaluation through the compiled float form."""
        return complex(FloatPolynomials(self.table, [self]).evaluate(values)[0])

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring homomorphism sending each named variable to a polynomial on
        the same table; unnamed variables map to themselves."""
        table = self.table
        names = table.names
        cache = {}
        for name, img in images.items():
            slot = table.slot(name)
            if img.table != table:
                raise ValueError("substitution image on a different variable table")
            cache[slot] = img
        result = Polynomial.zero(table)
        for exps, coeff in self.terms.items():
            residual = list(exps)
            factor = None
            for slot, img in cache.items():
                e = residual[slot]
                if e:
                    residual[slot] = 0
                    piece = img ** e
                    factor = piece if factor is None else factor * piece
            base = Polynomial(table, {tuple(residual): coeff})
            result = result + (base if factor is None else base * factor)
        return result

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<Polynomial {format_polynomial(self)}>"


class FloatPolynomials:
    """Polynomials on one table compiled for complex-double evaluation.

    The monomials of all the polynomials, in canonical term order, form
    the rows of an exponent matrix E; the coefficients form a complex
    matrix C with one row per polynomial.  The values at a point x are
    C @ prod(x ** E, axis=1), so a whole system costs one vectorized
    evaluation.  Build once and reuse; numpy loads on first use.
    """

    __slots__ = ("table", "exponents", "coefficients", "_present")

    def __init__(self, table: VariableTable, polynomials: Iterable[Polynomial]):
        import numpy as np

        polynomials = list(polynomials)
        rows = {}
        entries = []
        for k, f in enumerate(polynomials):
            if f.table != table:
                raise ValueError("polynomials live on different variable tables")
            for exps, coeff in f.sorted_terms():
                entries.append((k, rows.setdefault(exps, len(rows)),
                                complex(coeff)))
        exponents = np.array(list(rows), dtype=np.int64).reshape(
            len(rows), table.width)
        coefficients = np.zeros((len(polynomials), len(rows)), dtype=complex)
        for k, m, value in entries:
            coefficients[k, m] = value
        present = exponents.any(axis=0)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "_present", frozenset(
            name for name, used in zip(table.names, present) if used))

    def __setattr__(self, name, value):
        raise AttributeError("FloatPolynomials is immutable")

    def __call__(self, point):
        """Values at a point given as one complex number per table slot,
        coordinates first, then parameters."""
        import numpy as np

        powers = np.asarray(point, dtype=complex) ** self.exponents
        return self.coefficients @ powers.prod(axis=1)

    def evaluate(self, values: Mapping[str, complex]):
        """Values at named variables; every variable present must be
        assigned (the error names the first unassigned symbol)."""
        missing = sorted(self._present - set(values))
        if missing:
            raise KeyError(f"unassigned variable: {missing[0]!r}")
        return self([complex(values[name]) if name in self._present else 0j
                     for name in self.table.names])


# -- monomial order ------------------------------------------------------


def _order_key_fn(table: VariableTable):
    nc = table.n_coordinates

    def key(exps: tuple):
        coord = exps[:nc]
        param = exps[nc:]
        return (sum(coord), coord, sum(param), param)

    return key


def reduce_mod(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Division with remainder by a single polynomial: f = q*g + r.

    Uses the table's graded lexicographic order (coordinates first,
    parameters as tie-break).  No monomial of r is divisible by the
    leading monomial of g, so r = 0 exactly when f lies in the principal
    ideal (g): a single polynomial is a Groebner basis of the ideal it
    generates.
    """
    if g.is_zero():
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    f._check_table(g)
    table = f.table
    key = _order_key_fn(table)
    lead_g = max(g.terms, key=key)
    lc_g = g.terms[lead_g]

    work = dict(f.terms)
    quotient = {}
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if all(a >= b for a, b in zip(m, lead_g)):
            shift = tuple(a - b for a, b in zip(m, lead_g))
            factor = c / lc_g
            quotient[shift] = quotient.get(shift, GaussRational.zero()) + factor
            for exps, coeff in g.terms.items():
                if exps == lead_g:
                    continue
                target = tuple(a + b for a, b in zip(exps, shift))
                acc = work.get(target, GaussRational.zero()) - factor * coeff
                if acc.is_zero():
                    work.pop(target, None)
                else:
                    work[target] = acc
        else:
            remainder[m] = c
    return Polynomial(table, quotient), Polynomial(table, remainder)


# -- text syntax -----------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r} at position {pos}")
    tokens.append(("end", "", n))
    return tokens


# The parser recurses once per parenthesis; deeper input is rejected as a
# syntax error long before Python's recursion limit is reached.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, table: VariableTable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
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
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.advance()[0] == "-" else 1
        total = self.term()
        if sign < 0:
            total = -total
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.term()
            total = total - rhs if op == "-" else total + rhs
        return total

    def term(self) -> Polynomial:
        total = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            total = total * self.factor()
        return total

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, _ = self.peek()
            if kind != "int":
                self.fail("expected integer exponent")
            self.advance()
            return base ** int(value)
        return base

    def base(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "int":
            self.advance()
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                dkind, dvalue, _ = self.peek()
                if dkind != "int":
                    self.fail("expected integer denominator")
                self.advance()
                den = int(dvalue)
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


def _format_monomial(table: VariableTable, exps: tuple) -> str:
    names = table.names
    pieces = []
    for pos, e in enumerate(exps):
        if e == 1:
            pieces.append(names[pos])
        elif e > 1:
            pieces.append(f"{names[pos]}^{e}")
    return "*".join(pieces)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form; parsing it back reproduces f exactly."""
    if f.is_zero():
        return "0"
    out = []
    for exps, coeff in f.sorted_terms():
        mono = _format_monomial(f.table, exps)
        if coeff.is_rational():
            negative = coeff.re < 0
            mag = -coeff if negative else coeff
            if not mono:
                body = format_scalar(mag)
            elif mag.is_one():
                body = mono
            else:
                body = f"{format_scalar(mag)}*{mono}"
        elif not coeff.re:
            negative = coeff.im < 0
            mag = -coeff if negative else coeff
            body = format_scalar(mag) if not mono else f"{format_scalar(mag)}*{mono}"
        else:
            negative = False
            body = f"({format_scalar(coeff)})"
            if mono:
                body = f"{body}*{mono}"
        if not out:
            out.append("-" + body if negative else body)
        else:
            out.append(" - " if negative else " + ")
            out.append(body)
    return "".join(out)
