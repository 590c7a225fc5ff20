"""Canonical JSON document layer: byte-exact round-trips."""

import json
from fractions import Fraction

import pytest

from poissonkit import (DeformationFamily, DiagonalSpec, DifferentialForm,
                        GaussRational, Multivector, PoissonStructure,
                        VariableTable, exterior_derivative, from_document,
                        loads, make_diagonal, parse_polynomial, schouten,
                        serialize, to_document)
from poissonkit.polynomials import MAX_COORDINATES


def numeric_spec(n, values):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return DiagonalSpec(n, {pair: GaussRational(v)
                            for pair, v in zip(pairs, values)})


def assert_byte_stable(obj):
    text = serialize(obj)
    again = loads(text)
    assert serialize(again) == text
    return again


def test_multivector_round_trip():
    ps = make_diagonal(DiagonalSpec.symbolic(3))
    again = assert_byte_stable(ps)
    assert isinstance(again, PoissonStructure)
    assert again.bivector == ps.bivector
    assert again.integrable is True


def test_form_round_trip():
    T = VariableTable(("x1", "x2"), ("a",))
    form = exterior_derivative(parse_polynomial("a*x1^2*x2 + (1/2+i)*x2", T))
    again = assert_byte_stable(form)
    assert isinstance(again, DifferentialForm)
    assert again == form


def test_zero_and_scalar_documents():
    T = VariableTable(("x1", "x2"))
    zero = Multivector.zero(T, 2)
    doc = to_document(zero)
    assert doc["terms"] == []
    assert loads(serialize(zero)).is_zero()
    scalar = Multivector.from_polynomial(parse_polynomial("3 - i", T))
    assert loads(serialize(scalar)) == scalar


def test_document_shape_is_canonical():
    ps = make_diagonal(numeric_spec(2, [Fraction(5, 3)]))
    doc = to_document(ps)
    assert doc["kind"] == "multivector"
    assert doc["degree"] == 2
    assert doc["coordinates"] == ["x1", "x2"]
    assert doc["integrable"] == "true"
    assert doc["terms"] == [{
        "coeff": "5/3",
        "exponents": {"x1": 1, "x2": 1},
        "indices": [0, 1],
    }]


def test_diagonal_spec_round_trip():
    mixed = DiagonalSpec(3, {(1, 2): GaussRational(2), (1, 3): "a",
                             (2, 3): GaussRational(Fraction(1, 2),
                                                   Fraction(-3, 7))})
    again = assert_byte_stable(mixed)
    assert again == mixed
    assert again.entries[(1, 3)] == "a"


def test_family_round_trip():
    base = numeric_spec(4, [2, 3, 5, 7, 11, 13])
    fam = DeformationFamily.build(base, [
        ("translation", "x1", "1/2*t"),
        ("shear", "x2", "t*x3^2"),
        ("scaling", {"x1": "3", "x3": "1/5"}),
    ])
    again = assert_byte_stable(fam)
    assert isinstance(again, DeformationFamily)
    assert again.bivector() == fam.bivector()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        from_document({"kind": "mystery"})
    with pytest.raises(ValueError):
        loads(json.dumps({"kind": "family", "parameter": "t",
                          "base": {"kind": "diagonal-spec", "n": 2,
                                   "entries": [{"i": 1, "j": 2, "value": "1"}]},
                          "path": [{"kind": "rotation"}]}))


def _family_doc():
    base = numeric_spec(4, [2, 3, 5, 7, 11, 13])
    return to_document(DeformationFamily.build(base, [
        ("translation", "x1", "1/2*t"), ("shear", "x2", "t*x3^2")]))


@pytest.mark.parametrize("value", [1, None, [], {}],
                         ids=["int", "null", "list", "object"])
def test_family_parameter_must_be_a_string(value):
    doc = _family_doc()
    doc["parameter"] = value
    with pytest.raises(ValueError, match="^parameter must be a string"):
        from_document(doc)


@pytest.mark.parametrize("step", [0, 1])
def test_path_step_data_must_be_a_string(step):
    doc = _family_doc()
    doc["path"][step]["data"] = ["t"]
    with pytest.raises(ValueError, match="^data must be a string, not list"):
        from_document(doc)


@pytest.mark.parametrize("record, message", [
    (7, "^a path record must be an object, not int"),
    ("translation", "^a path record must be an object, not str"),
    ({"kind": "translation", "coordinate": ["x1"], "data": "t"},
     "^coordinate must be a string, not list"),
    ({"kind": "shear", "coordinate": 2, "data": "t*x3"},
     "^coordinate must be a string, not int"),
    ({"kind": "scaling", "scales": [["x1", "3"]]},
     "^scales must be an object, not list"),
    ({"kind": "scaling", "scales": "x1=3"},
     "^scales must be an object, not str"),
    ({"kind": "scaling", "scales": {"x1": 3}},
     "^scale must be a string, not int"),
    ({"kind": "scaling", "scales": {"x1": True}},
     "^scale must be a string, not bool"),
    ({"kind": "scaling", "scales": {"x1": None}},
     "^scale must be a string, not NoneType"),
    ({"kind": "scaling", "scales": {"x1": [1]}},
     "^scale must be a string, not list"),
], ids=["record-int", "record-string", "coordinate-list", "coordinate-int",
        "scales-list", "scales-string", "scale-int", "scale-true",
        "scale-null", "scale-list"])
def test_path_records_and_scales_are_checked(record, message):
    doc = _family_doc()
    doc["path"].append(record)
    with pytest.raises(ValueError, match=message):
        from_document(doc)


def test_a_scaling_record_of_strings_still_loads():
    doc = _family_doc()
    doc["path"].append({"kind": "scaling", "scales": {"x1": "3", "x4": "i"}})
    again = from_document(doc)
    assert serialize(again) == json.dumps(doc, indent=2) + "\n"


def test_term_coeff_must_be_a_string():
    doc = to_document(make_diagonal(numeric_spec(2, [3])))
    doc["terms"][0]["coeff"] = 5
    with pytest.raises(ValueError, match="^coeff must be a string, not int"):
        from_document(doc)


@pytest.mark.parametrize("claim", ["yes", 0, None, {}, [], True, "True"])
def test_integrable_must_be_one_of_three_strings(claim):
    doc = to_document(make_diagonal(numeric_spec(4, [2, 3, 5, 7, 11, 13])))
    doc["integrable"] = claim
    with pytest.raises(ValueError, match='^integrable must be "true", '
                                         '"false" or "unknown"$'):
        from_document(doc)


def test_serialized_text_ends_with_newline():
    ps = make_diagonal(DiagonalSpec.symbolic(2))
    text = serialize(ps)
    assert text.endswith("}\n")
    json.loads(text)  # remains plain JSON


def _bivector_doc(records, coordinates=("x1", "x2"), parameters=("a",)):
    return json.dumps({"kind": "multivector", "coordinates": list(coordinates),
                       "parameters": list(parameters), "degree": 2,
                       "terms": records})


def test_repeated_monomial_records_add_up():
    T = VariableTable(("x1", "x2"), ("a",))
    records = [
        {"coeff": "1/2", "exponents": {"x1": 1, "a": 1}, "indices": [0, 1]},
        {"coeff": "3", "exponents": {"x2": 2}, "indices": [0, 1]},
        {"coeff": "1/2+i", "exponents": {"a": 1, "x1": 1}, "indices": [0, 1]},
        {"coeff": "-3", "exponents": {"x2": 2}, "indices": [0, 1]},
        {"coeff": "-2/7*i", "exponents": {}, "indices": [0, 1]},
    ]
    loaded = loads(_bivector_doc(records))
    expected = Multivector(T, 2, {(0, 1): parse_polynomial(
        "(1+i)*a*x1 - 2/7*i", T)})
    assert loaded == expected
    # the cancelled x2^2 records leave no term, and output is canonical
    assert serialize(loaded) == serialize(expected)
    assert loads(_bivector_doc(records[1:2] + records[3:4])).is_zero()


def test_document_term_records_are_bounded_in_number():
    from poissonkit.polynomials import MAX_TERMS

    record = {"coeff": "1", "exponents": {"x1": 1}, "indices": [0, 1]}
    loaded = loads(_bivector_doc([record] * MAX_TERMS))
    assert loaded.terms[(0, 1)].terms == {(1, 0, 0): GaussRational(MAX_TERMS)}
    with pytest.raises(ValueError, match=f"terms holds {MAX_TERMS + 1} "
                                         f"records, more than {MAX_TERMS}"):
        loads(_bivector_doc([record] * (MAX_TERMS + 1)))


def test_document_terms_are_bounded_in_total_degree():
    from poissonkit.polynomials import MAX_DEGREE

    top = {"coeff": "1", "exponents": {"x1": MAX_DEGREE - 3, "a": 3},
           "indices": [0, 1]}
    assert loads(_bivector_doc([top])).terms
    for exponents in ({"x1": 10 ** 6}, {"x1": MAX_DEGREE - 3, "a": 4}):
        record = {"coeff": "1", "exponents": exponents, "indices": [0, 1]}
        with pytest.raises(ValueError, match=f"larger than {MAX_DEGREE}"):
            loads(_bivector_doc([record]))


def _spec_doc(value="3"):
    return {"kind": "diagonal-spec", "n": 2,
            "entries": [{"i": 1, "j": 2, "value": value}]}


@pytest.mark.parametrize("value, kind", [
    (True, "bool"), (0.1, "float"), (1e300, "float"), (3, "int"),
    (None, "NoneType"), (["1"], "list")],
    ids=["true", "tenth", "huge", "int", "null", "list"])
def test_spec_value_must_be_a_string(value, kind):
    with pytest.raises(ValueError, match=f"^value must be a string, not "
                                         f"{kind}$"):
        from_document(_spec_doc(value))
    assert from_document(_spec_doc("3")).entries == {(1, 2): GaussRational(3)}


def _bivector_record_doc(**changes):
    doc = to_document(make_diagonal(numeric_spec(2, [3])))
    doc.update(changes)
    return doc


def _with_record(**changes):
    record = {"coeff": "1", "exponents": {"x1": 1}, "indices": [0, 1]}
    record.update(changes)
    return _bivector_record_doc(terms=[record])


def _missing(doc, *path):
    """`doc` with the field at the end of `path` deleted."""
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    return doc


def _scaling_family_doc():
    doc = _family_doc()
    doc["path"].append({"kind": "scaling", "scales": {"x1": "3"}})
    return doc


@pytest.mark.parametrize("doc, message", [
    (_bivector_record_doc(terms=[3]), "^a term record must be an object, "
                                      "not int$"),
    (_bivector_record_doc(terms=3), "^terms must be a list, not int$"),
    (_bivector_record_doc(terms={"0": {}}), "^terms must be a list, not "
                                            "dict$"),
    (_with_record(indices=5), "^indices must be a list, not int$"),
    (_with_record(indices="01"), "^indices must be a list, not str$"),
    (_bivector_record_doc(coordinates="x1x2"), "^coordinates must be a list, "
                                               "not str$"),
    (_bivector_record_doc(parameters="ab"), "^parameters must be a list, "
                                            "not str$"),
    ({"kind": "diagonal-spec", "n": 2, "entries": [5]},
     "^a spec entry must be an object, not int$"),
    ({"kind": "diagonal-spec", "n": 2, "entries": 5},
     "^entries must be a list, not int$"),
    (_missing(_bivector_record_doc(), "coordinates"), "^coordinates is missing$"),
    (_missing(_bivector_record_doc(), "degree"), "^degree is missing$"),
    (_missing(_bivector_record_doc(), "terms"), "^terms is missing$"),
    (_missing(_with_record(), "terms", 0, "indices"), "^indices is missing$"),
    (_missing(_with_record(), "terms", 0, "coeff"), "^coeff is missing$"),
    (_missing(_spec_doc(), "n"), "^n is missing$"),
    (_missing(_spec_doc(), "entries"), "^entries is missing$"),
    (_missing(_spec_doc(), "entries", 0, "i"), "^i is missing$"),
    (_missing(_spec_doc(), "entries", 0, "j"), "^j is missing$"),
    (_missing(_spec_doc(), "entries", 0, "value"), "^value is missing$"),
    (_missing(_family_doc(), "base"), "^base is missing$"),
    (_missing(_family_doc(), "base", "n"), "^n is missing$"),
    (_missing(_family_doc(), "path"), "^path is missing$"),
    (_missing(_family_doc(), "path", 0, "kind"), "^kind is missing$"),
    (_missing(_family_doc(), "path", 0, "coordinate"),
     "^coordinate is missing$"),
    (_missing(_family_doc(), "path", 1, "data"), "^data is missing$"),
    (_missing(_scaling_family_doc(), "path", 2, "scales"),
     "^scales is missing$"),
], ids=["term-int", "terms-int", "terms-object", "indices-int",
        "indices-string", "coordinates-string", "parameters-string",
        "entry-int", "entries-int", "no-coordinates", "no-degree",
        "no-terms", "no-indices", "no-coeff", "no-spec-n", "no-entries",
        "no-entry-i", "no-entry-j", "no-entry-value", "no-base",
        "no-base-n", "no-path", "no-path-kind", "no-path-coordinate",
        "no-path-data", "no-path-scales"])
def test_document_shapes_are_checked(doc, message):
    with pytest.raises(ValueError, match=message):
        from_document(doc)


def test_optional_fields_take_their_defaults():
    doc = _missing(_missing(_with_record(), "parameters"),
                   "terms", 0, "exponents")
    assert from_document(doc).bivector.terms == {(0, 1): parse_polynomial(
        "1", VariableTable(("x1", "x2")))}
    family = from_document(_missing(_family_doc(), "parameter"))
    assert family.parameter == "t"


@pytest.mark.parametrize("field, value, message", [
    ("path", 3, "^path must be a list, not int$"),
    ("path", {"kind": "translation"}, "^path must be a list, not dict$"),
    ("base", 3, "^base must be an object, not int$"),
], ids=["path-int", "path-object", "base-int"])
def test_family_shapes_are_checked(field, value, message):
    doc = _family_doc()
    doc[field] = value
    with pytest.raises(ValueError, match=message):
        from_document(doc)


def test_document_coordinates_are_bounded():
    names = [f"x{k}" for k in range(1, MAX_COORDINATES + 2)]
    with pytest.raises(ValueError, match=f"^coordinates must list at most "
                                         f"{MAX_COORDINATES} names, not "
                                         f"{MAX_COORDINATES + 1}$"):
        from_document(_bivector_record_doc(coordinates=names))
    doc = _bivector_record_doc(coordinates=names[:MAX_COORDINATES])
    assert from_document(doc).table.n_coordinates == MAX_COORDINATES
    spec = {"kind": "diagonal-spec", "n": 10 ** 30, "entries": []}
    with pytest.raises(ValueError, match=f"^n must be at most "
                                         f"{MAX_COORDINATES}$"):
        from_document(spec)


def _dense_structure_doc(records, flag):
    """`records` distinct terms on 13 coordinates whose monomials hold
    every coordinate: [Pi, Pi] costs about 2 * records^2 term products."""
    names = [f"x{k}" for k in range(1, 14)]
    pairs = [(i, j) for i in range(13) for j in range(i + 1, 13)]
    terms = []
    for r in range(records):
        exponents = {name: 1 for name in names}
        exponents[names[r % 13]] += 1 + r // 169
        exponents[names[r // 13 % 13]] += 1
        terms.append({"coeff": "1", "exponents": exponents,
                      "indices": list(pairs[r % len(pairs)])})
    return json.dumps({"kind": "multivector", "coordinates": names,
                       "parameters": [], "degree": 2, "integrable": flag,
                       "terms": terms})


def test_a_stated_flag_is_refused_past_the_bracket_budget():
    from poissonkit.multivectors import MAX_BRACKET_PRODUCTS

    text = _dense_structure_doc(708, "false")
    with pytest.raises(ValueError, match=(
            f"^integrable: the Schouten bracket takes 1002528 term "
            f"products, more than {MAX_BRACKET_PRODUCTS}$")):
        loads(text)
    # "unknown" states nothing, so loading computes no bracket; asking
    # for the flag does, and meets the same bound
    ps = loads(text.replace('"false"', '"unknown"'))
    assert len(ps.bivector.terms) == 78
    with pytest.raises(ValueError, match="^integrable: the Schouten "
                                         "bracket takes 1002528 term"):
        ps.integrable


def _reference_bracket_products(terms, n):
    """The bound the document loader used to estimate for [Pi, Pi] of
    {indices: {exponents: scalar}}: for each coordinate k, the weighted
    terms whose indices hold k times those whose monomial holds x_k."""
    holding, moving = [0] * n, [0] * n
    for indices, monomials in terms.items():
        for exps, coeff in monomials.items():
            weight = 1 + sum(v.bit_length() for v in coeff._t) // 1024
            for k in indices:
                holding[k] += weight
            for k in range(n):
                if exps[k]:
                    moving[k] += weight
    return sum(h * m for h, m in zip(holding, moving))


def test_the_bracket_estimate_bounds_the_products(monkeypatch):
    import random
    import re

    from poissonkit import Polynomial, multivectors, polynomials

    products = []
    original = polynomials._mul_into

    def counting(acc, left, right, table):
        # the term pairs with disjoint masks, each one product
        shift = table._mask_shift
        products.append(sum(not (k1 >> shift) & (k2 >> shift)
                            for k1 in left for k2 in right))
        return original(acc, left, right, table)

    def kernel_count(bivector):
        """The count `schouten` checks, read from its refusal under a
        bound of -1, which refuses before any product is made."""
        monkeypatch.setattr(multivectors, "MAX_BRACKET_PRODUCTS", -1)
        try:
            with pytest.raises(ValueError) as caught:
                schouten(bivector, bivector)
        finally:
            monkeypatch.undo()
        return int(re.search(r"takes (\d+) term", str(caught.value))[1])

    rng = random.Random("bracket-budget")
    T = VariableTable(("x1", "x2", "x3", "x4", "x5"), ("a",))
    counted = 0
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            indices = tuple(sorted(rng.sample(range(5), 2)))
            exps = tuple(rng.randint(0, 2) for _ in range(T.width))
            terms.setdefault(indices, {})[exps] = GaussRational(
                rng.randint(1, 9), rng.randint(0, 2))
        bivector = Multivector(T, 2, {
            ix: Polynomial(T, t) for ix, t in terms.items()})
        count = kernel_count(bivector)
        # every term weighs 1, so the count is the old estimate exactly
        assert count == _reference_bracket_products(terms, 5)
        products.clear()
        monkeypatch.setattr(polynomials, "_mul_into", counting)
        PoissonStructure(bivector).integrable
        monkeypatch.undo()
        assert sum(products) <= count
        counted += sum(products)
    assert counted


def test_the_bracket_count_weighs_long_coefficients():
    # 200 dense terms with coprime 1,000-digit denominators each weigh
    # 1 + 3,322 // 1,024 = 4, so the count is 16 times the plain 80,000
    doc = json.loads(_dense_structure_doc(200, "false"))
    for r, record in enumerate(doc["terms"]):
        record["coeff"] = f"1/{10 ** 999 + r}"
    terms = {ix: coeff.terms for ix, coeff in from_document(
        dict(doc, integrable="unknown")).bivector.terms.items()}
    assert _reference_bracket_products(terms, 13) == 16 * 80_000
    with pytest.raises(ValueError, match=(
            "^integrable: the Schouten bracket takes 1280000 term products, "
            "more than 1000000$")):
        from_document(doc)


def test_repeated_records_cannot_grow_a_coefficient_past_a_literal():
    import time

    # 4,000-digit denominators, pairwise coprime: every sum of two has
    # about 8,000 digits, past the 4,300 a literal may hold
    record = {"exponents": {"x1": 1}, "indices": [0, 1]}
    records = [dict(record, coeff=f"1/{10 ** 3999 + r}") for r in range(3)]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^coeff has a numerator or "
                                         "denominator of more than 4300 "
                                         "digits$"):
        loads(_bivector_doc(records))
    assert time.perf_counter() - start < 1
    # one record of that size loads, and so does a 4,300-digit literal;
    # a literal raised to a power past 4,300 digits does not
    assert loads(_bivector_doc(records[:1]))
    assert loads(_bivector_doc([dict(record, coeff="9" * 4300)]))
    with pytest.raises(ValueError, match="^coeff has a numerator"):
        loads(_bivector_doc([dict(record, coeff=f"({'9' * 3000})^2")]))
