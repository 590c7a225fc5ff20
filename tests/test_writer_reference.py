"""The writer against a reference kept here.

Text and documents print each term from its packed key and its triple.
The reference below is the earlier writer, which rebuilt every value
first: `Fraction` parts for scalars, exponent tuples and
`GaussRational`s for polynomials, and one `Polynomial` per index tuple
for documents.  Both must give the same bytes.
"""

import json
import random
from fractions import Fraction

import pytest

from poissonkit import (DifferentialForm, GaussRational, Multivector,
                        PoissonStructure, Polynomial, VariableTable,
                        format_polynomial, format_scalar, serialize,
                        to_document)


def reference_scalar(z):
    if z.is_zero():
        return "0"
    parts = []
    try:
        if z.re:
            parts.append(str(z.re))
        if z.im:
            mag = abs(z.im)
            body = "i" if mag == 1 else f"{mag}*i"
            if parts:
                parts.append("+" if z.im > 0 else "-")
                parts.append(body)
            else:
                parts.append(body if z.im > 0 else "-" + body)
    except ValueError:
        raise ValueError("a coefficient has a numerator or denominator of "
                         "more than 4300 digits") from None
    return "".join(parts)


def reference_monomial(table, exps):
    names = table.names
    pieces = []
    for pos, e in enumerate(exps):
        if e == 1:
            pieces.append(names[pos])
        elif e > 1:
            pieces.append(f"{names[pos]}^{e}")
    return "*".join(pieces)


def reference_polynomial(f):
    if f.is_zero():
        return "0"
    out = []
    for exps, coeff in f.sorted_terms():
        mono = reference_monomial(f.table, exps)
        if coeff.im == 0:
            negative = coeff.re < 0
            mag = -coeff if negative else coeff
            if not mono:
                body = reference_scalar(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{reference_scalar(mag)}*{mono}"
        elif not coeff.re:
            negative = coeff.im < 0
            mag = -coeff if negative else coeff
            body = (reference_scalar(mag) if not mono
                    else f"{reference_scalar(mag)}*{mono}")
        else:
            negative = False
            body = f"({reference_scalar(coeff)})"
            if mono:
                body = f"{body}*{mono}"
        if not out:
            out.append("-" + body if negative else body)
        else:
            out.append(" - " if negative else " + ")
            out.append(body)
    return "".join(out)


def reference_term_records(element):
    records = []
    for indices in sorted(element.terms):
        terms = element.terms[indices].terms
        for exps in sorted(terms):
            exponents = {
                name: exps[slot]
                for slot, name in enumerate(element.table.names)
                if exps[slot]
            }
            records.append({
                "coeff": reference_scalar(terms[exps]),
                "exponents": exponents,
                "indices": list(indices),
            })
    return records


def reference_serialize(element):
    kind = "multivector" if isinstance(element, Multivector) else "form"
    doc = {
        "kind": kind,
        "coordinates": list(element.table.coordinates),
        "parameters": list(element.table.parameters),
        "degree": element.degree,
        "terms": reference_term_records(element),
    }
    return json.dumps(doc, indent=2) + "\n"


def random_part(rng):
    """Zero, a unit, a small fraction, a 40-digit one or one whose
    numerator has over 1,000 digits."""
    sign = rng.choice((1, -1))
    draw = rng.random()
    if draw < 0.25:
        return 0
    if draw < 0.45:
        return sign
    if draw < 0.55:
        return sign * Fraction(rng.randrange(1, 10 ** 40),
                               rng.randrange(1, 10 ** 40))
    if draw < 0.6:
        return sign * Fraction(rng.randrange(10 ** 1100, 10 ** 1101),
                               rng.randrange(1, 10 ** 1050))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_polynomial(rng, table):
    return Polynomial(table, {
        tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(table.width)):
            GaussRational(random_part(rng), random_part(rng))
        for _ in range(rng.randint(0, 5))})


def random_table(rng):
    return VariableTable(
        tuple(f"x{k}" for k in range(1, rng.randint(1, 5) + 1)),
        tuple(f"p{k}" for k in range(rng.randint(0, 3))))


@pytest.mark.parametrize("seed", range(40))
def test_text_matches_the_reference(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    for _ in range(30):
        z = GaussRational(random_part(rng), random_part(rng))
        assert format_scalar(z) == str(z) == reference_scalar(z)
        f = random_polynomial(rng, table)
        assert format_polynomial(f) == str(f) == reference_polynomial(f)


@pytest.mark.parametrize("seed", range(40))
def test_documents_match_the_reference(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    n = table.n_coordinates
    for cls in (Multivector, DifferentialForm):
        for _ in range(8):
            degree = rng.randint(0, n)
            element = cls(table, degree, {
                tuple(sorted(rng.sample(range(n), degree))):
                    random_polynomial(rng, table)
                for _ in range(rng.randint(0, 4))})
            text = serialize(element)
            assert text == reference_serialize(element)
            assert json.dumps(to_document(element), indent=2) + "\n" == text


def test_every_coefficient_shape_is_covered():
    shapes = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
              (Fraction(1, 2), Fraction(-3, 4)), (0, Fraction(2, 3)),
              (Fraction(-5, 3), 0), (10 ** 1200 + 1, 0), (0, -10 ** 1200),
              (Fraction(1, 10 ** 1200), Fraction(7, 3))]
    table = VariableTable(("x", "y"), ("a",))
    for re, im in shapes:
        z = GaussRational(re, im)
        assert format_scalar(z) == reference_scalar(z)
        for exps in ((0, 0, 0), (1, 0, 0), (0, 2, 1)):
            f = Polynomial(table, {exps: z, (3, 0, 0): GaussRational(-1)})
            assert format_polynomial(f) == reference_polynomial(f)
            g = Polynomial(table, {exps: z})
            assert format_polynomial(g) == reference_polynomial(g)
        element = Multivector(
            table, 1, {(1,): Polynomial(table, {(1, 1, 0): z})})
        assert serialize(element) == reference_serialize(element)


def test_a_structure_document_is_its_bivector_document_with_a_flag():
    table = VariableTable(("x", "y"))
    x, y = (Polynomial.variable(table, name) for name in ("x", "y"))
    ps = PoissonStructure(Multivector(table, 2, {(0, 1): x * y.scale(
        GaussRational(Fraction(1, 2), -1))}))
    doc = json.loads(reference_serialize(ps.bivector))
    doc["integrable"] = "true"
    assert serialize(ps) == json.dumps(doc, indent=2) + "\n"
    assert json.dumps(to_document(ps), indent=2) + "\n" == serialize(ps)


@pytest.mark.parametrize("part", [10 ** 4300, Fraction(1, 10 ** 4300)],
                         ids=["numerator", "denominator"])
def test_a_part_past_4300_digits_has_the_same_error(part):
    message = ("a coefficient has a numerator or denominator of more than "
               "4300 digits")
    table = VariableTable(("x",))
    for z in (GaussRational(part), GaussRational(1, part)):
        f = Polynomial(table, {(1,): z})
        element = Multivector(table, 1, {(0,): f})
        for write, reference in ((format_scalar, reference_scalar),
                                 (lambda _: format_polynomial(f),
                                  lambda _: reference_polynomial(f)),
                                 (lambda _: serialize(element),
                                  lambda _: reference_serialize(element))):
            with pytest.raises(ValueError) as caught:
                write(z)
            with pytest.raises(ValueError) as expected:
                reference(z)
            assert str(caught.value) == str(expected.value) == message
