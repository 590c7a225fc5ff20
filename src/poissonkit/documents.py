"""Canonical JSON documents for every shared object kind.

Serialization is canonical: terms sorted, coefficients normalized, two
space indentation, trailing newline.  parse-then-serialize is therefore
the identity on canonical files, which lets tests diff bytes.
"""

from __future__ import annotations

import json
from cmath import isfinite

from .automorphisms import DiagonalScaling, Translation, TriangularShear
from .deform import DeformationFamily
from .diagonal import DiagonalSpec, _coordinate_count
from .multivectors import DifferentialForm, Multivector, VolumeCurl, _indices
from .polynomials import (MAX_COORDINATES, MAX_DEGREE, MAX_TERMS, Polynomial,
                          VariableTable, format_polynomial, parse_scalar)
from .scalars import _PART_LIMIT, _triple_text, format_scalar
from .structures import PoissonStructure


def _term_records(element) -> list:
    """One record per stored term, read from its packed key and triple,
    ordered by index tuple, then ascending exponent tuple."""
    table = element.table
    names, unpack, shift = table.names, table._unpack, table._mask_shift
    low = (1 << shift) - 1
    # keys are distinct, so no two rows tie before their triples
    rows = sorted((_indices(key >> shift), unpack(key & low), t)
                  for key, t in element._flat.items())
    return [{"coeff": _triple_text(t),
             "exponents": {name: e for name, e in zip(names, exps) if e},
             "indices": list(indices)} for indices, exps, t in rows]


def multivector_document(element) -> dict:
    kind = "multivector" if isinstance(element, Multivector) else "form"
    return {
        "kind": kind,
        "coordinates": list(element.table.coordinates),
        "parameters": list(element.table.parameters),
        "degree": element.degree,
        "terms": _term_records(element),
    }


def poisson_document(ps: PoissonStructure) -> dict:
    doc = multivector_document(ps.bivector)
    doc["integrable"] = "true" if ps.integrable else "false"
    return doc


def volume_curl_document(vc: VolumeCurl) -> dict:
    return {
        "kind": "volume-curl",
        "main": multivector_document(vc.main),
        "correction": multivector_document(vc.correction),
        "denominator": format_polynomial(vc.denominator),
    }


def diagonal_document(spec: DiagonalSpec) -> dict:
    entries = []
    for (i, j) in sorted(spec.entries):
        value = spec.entries[(i, j)]
        entries.append({
            "i": i,
            "j": j,
            "value": value if isinstance(value, str) else format_scalar(value),
        })
    return {"kind": "diagonal-spec", "n": spec.n, "entries": entries}


def _step_descriptor(step) -> dict:
    if isinstance(step, Translation):
        return {"kind": "translation", "coordinate": step.coordinate,
                "data": format_polynomial(step.amount)}
    if isinstance(step, TriangularShear):
        return {"kind": "shear", "coordinate": step.coordinate,
                "data": format_polynomial(step.shear)}
    if isinstance(step, DiagonalScaling):
        return {"kind": "scaling", "scales": {
            name: format_scalar(value)
            for name, value in sorted(step.scales.items())}}
    raise TypeError(f"cannot serialize step {step!r}")


def family_document(family: DeformationFamily) -> dict:
    return {
        "kind": "family",
        "parameter": family.parameter,
        "base": diagonal_document(family.base),
        "path": [_step_descriptor(step) for step in family.path],
    }


def to_document(obj) -> dict:
    if isinstance(obj, PoissonStructure):
        return poisson_document(obj)
    if isinstance(obj, (Multivector, DifferentialForm)):
        return multivector_document(obj)
    if isinstance(obj, VolumeCurl):
        return volume_curl_document(obj)
    if isinstance(obj, DiagonalSpec):
        return diagonal_document(obj)
    if isinstance(obj, DeformationFamily):
        return family_document(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize(obj) -> str:
    return json.dumps(to_document(obj), indent=2) + "\n"


_MISSING = object()
# the JSON kinds a field may be asked to have, as its error names them
_KINDS = {str: "a string", dict: "an object", list: "a list"}


def _typed(value, field: str, kind: type):
    """`value` if it is of the JSON `kind`, str, dict, list or int, else a
    ValueError naming the field.  An integer must be a JSON integer: a
    string, a boolean or a number with a fraction or exponent is refused."""
    if kind is int:
        if type(value) is not int:
            raise ValueError(f"{field} must be an integer, got {value!r}")
    elif not isinstance(value, kind):
        raise ValueError(f"{field} must be {_KINDS[kind]}, not "
                         f"{type(value).__name__}")
    return value


def _field(record: dict, name: str, kind: type, default=_MISSING):
    """The field `name` of a document or record, checked by `_typed`; an
    absent field is `default`, or `<name> is missing` without one."""
    value = record.get(name, default)
    if value is _MISSING:
        raise ValueError(f"{name} is missing")
    return _typed(value, name, kind)


def _names(record: dict, field: str, default=_MISSING) -> tuple:
    names = tuple(_field(record, field, list, default))
    if not all(isinstance(name, str) for name in names):
        raise ValueError(f"{field} must be a list of names")
    return names


def _element_from_document(doc: dict):
    coordinates = _names(doc, "coordinates")
    if len(coordinates) > MAX_COORDINATES:
        raise ValueError(f"coordinates must list at most {MAX_COORDINATES} "
                         f"names, not {len(coordinates)}")
    table = VariableTable(coordinates, _names(doc, "parameters", []))
    cls = Multivector if doc["kind"] == "multivector" else DifferentialForm
    degree = _field(doc, "degree", int)
    records = _field(doc, "terms", list)
    if len(records) > MAX_TERMS:
        raise ValueError(f"terms holds {len(records)} records, more than "
                         f"{MAX_TERMS}")
    # indices -> {exponents: scalar}; records that repeat a monomial add up
    terms = {}
    for record in records:
        record = _typed(record, "a term record", dict)
        indices = tuple(_typed(k, "indices entry", int)
                        for k in _field(record, "indices", list))
        exps = [0] * table.width
        for name, power in _field(record, "exponents", dict, {}).items():
            exps[table.slot(name)] = _typed(power, "exponent", int)
        if sum(exps) > MAX_DEGREE:
            raise ValueError(f"a term of degree {sum(exps)} is larger than "
                             f"{MAX_DEGREE}")
        exps = tuple(exps)
        coeff = parse_scalar(_field(record, "coeff", str))
        acc = terms.setdefault(indices, {})
        coeff = acc[exps] + coeff if exps in acc else coeff
        # records that repeat a monomial must not grow a part without bound
        if not all(-_PART_LIMIT < v < _PART_LIMIT for v in coeff._t):
            raise ValueError("coeff has a numerator or denominator of more "
                             "than 4300 digits")
        acc[exps] = coeff
    element = cls(table, degree, {ix: Polynomial(table, t)
                                  for ix, t in terms.items()})
    if "integrable" in doc:
        claim = doc["integrable"]
        if claim not in ("true", "false", "unknown"):
            raise ValueError('integrable must be "true", "false" or "unknown"')
        ps = PoissonStructure(element)
        # a stated flag must match the Schouten bracket; "unknown" states none
        if claim != "unknown" and ps.integrable != (claim == "true"):
            actual = "is not" if claim == "true" else "is"
            raise ValueError(f"document claims integrable: {claim}, "
                             f"but [Pi, Pi] {actual} zero")
        return ps
    return element


def _spec_from_document(doc: dict) -> DiagonalSpec:
    n = _coordinate_count(_field(doc, "n", int))
    entries = {}
    for record in _field(doc, "entries", list):
        record = _typed(record, "a spec entry", dict)
        value = _field(record, "value", str)
        # a bare identifier other than the imaginary unit names a parameter
        if not value.isidentifier() or value == "i":
            value = parse_scalar(value)
        entries[_field(record, "i", int), _field(record, "j", int)] = value
    return DiagonalSpec(n, entries)


def _family_from_document(doc: dict) -> DeformationFamily:
    base = _spec_from_document(_field(doc, "base", dict))
    steps = []
    for record in _field(doc, "path", list):
        kind = _field(_typed(record, "a path record", dict), "kind", str)
        if kind in ("translation", "shear"):
            steps.append((kind, _field(record, "coordinate", str),
                          _field(record, "data", str)))
        elif kind == "scaling":
            steps.append((kind, {
                name: _typed(value, "scale", str) for name, value in
                _field(record, "scales", dict).items()}))
        else:
            raise ValueError(f"unknown path step kind {kind!r}")
    return DeformationFamily.build(
        base, steps, _field(doc, "parameter", str, "t"))


def from_document(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError("a document must be a JSON object")
    kind = doc.get("kind")
    if kind in ("multivector", "form"):
        return _element_from_document(doc)
    if kind == "diagonal-spec":
        return _spec_from_document(doc)
    if kind == "family":
        return _family_from_document(doc)
    raise ValueError(f"unknown document kind {kind!r}")


def loads(text: str):
    return from_document(json.loads(text))


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def parse_assignments(text: str, table: VariableTable, names=None,
                      exact: bool = True) -> dict:
    """Parse `--point`/`--params` data: positional values or name=value.

    Positional values fill `names` (default: the coordinates) in order;
    name=value pairs may be mixed in, and a name filled twice, by name or
    by position, is refused.  Exact mode parses scalars in the
    coefficient syntax, float mode accepts finite decimal/complex literals.
    """
    if names is None:
        names = table.coordinates
    values = {}
    positional = 0
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" in chunk:
            name, _, raw = chunk.partition("=")
            name = name.strip()
            if name not in table.names:
                raise ValueError(f"unknown variable {name!r}")
        else:
            if positional >= len(names):
                raise ValueError("too many positional values")
            name, raw = names[positional], chunk
            positional += 1
        if exact:
            value = parse_scalar(raw)
        else:
            try:
                value = complex(raw)
            except ValueError:
                raise ValueError(f"{name} must be a number, not {raw!r}") \
                    from None
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, not {raw!r}")
        if name in values:
            raise ValueError(f"{name} is given twice")
        values[name] = value
    return values
