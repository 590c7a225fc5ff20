"""Canonical JSON documents for every shared object kind.

Serialization is canonical: terms sorted, coefficients normalized, two
space indentation, trailing newline.  parse-then-serialize is therefore
the identity on canonical files, which lets tests diff bytes.
"""

from __future__ import annotations

import json

from .automorphisms import DiagonalScaling, Translation, TriangularShear
from .deform import DeformationFamily
from .diagonal import DiagonalSpec
from .multivectors import DifferentialForm, Multivector, VolumeCurl
from .polynomials import Polynomial, VariableTable, format_polynomial
from .scalars import format_scalar, parse_scalar
from .structures import PoissonStructure


def _term_records(element) -> list:
    records = []
    for indices in sorted(element.terms):
        poly = element.terms[indices]
        for exps in sorted(poly.terms):
            exponents = {
                name: exps[slot]
                for slot, name in enumerate(element.table.names)
                if exps[slot]
            }
            records.append({
                "coeff": format_scalar(poly.terms[exps]),
                "exponents": exponents,
                "indices": list(indices),
            })
    return records


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
    doc["integrable"] = {True: "true", False: "false", None: "unknown"}[
        ps.integrable]
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


def _element_from_document(doc: dict):
    table = VariableTable(tuple(doc["coordinates"]),
                          tuple(doc.get("parameters", ())))
    cls = Multivector if doc["kind"] == "multivector" else DifferentialForm
    degree = int(doc["degree"])
    terms = {}
    zero = Polynomial.zero(table)
    for record in doc["terms"]:
        indices = tuple(record["indices"])
        exps = [0] * table.width
        for name, power in record.get("exponents", {}).items():
            exps[table.slot(name)] = int(power)
        mono = Polynomial(table, {tuple(exps): parse_scalar(record["coeff"])})
        terms[indices] = terms.get(indices, zero) + mono
    element = cls(table, degree, terms)
    if "integrable" in doc:
        flag = {"true": True, "false": False, "unknown": None}[doc["integrable"]]
        return PoissonStructure(element, flag)
    return element


def _spec_from_document(doc: dict) -> DiagonalSpec:
    entries = {}
    for record in doc["entries"]:
        value = record["value"]
        # a bare identifier other than the imaginary unit names a parameter
        if isinstance(value, str) and (not value.isidentifier()
                                       or value == "i"):
            value = parse_scalar(value)
        entries[(int(record["i"]), int(record["j"]))] = value
    return DiagonalSpec(int(doc["n"]), entries)


def _family_from_document(doc: dict) -> DeformationFamily:
    base = _spec_from_document(doc["base"])
    steps = []
    for record in doc["path"]:
        kind = record["kind"]
        if kind in ("translation", "shear"):
            steps.append((kind, record["coordinate"], record["data"]))
        elif kind == "scaling":
            steps.append((kind, dict(record["scales"])))
        else:
            raise ValueError(f"unknown path step kind {kind!r}")
    return DeformationFamily.build(base, steps,
                                   doc.get("parameter", "t"))


def from_document(doc: dict):
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


def save_path(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(obj))


def parse_assignments(text: str, table: VariableTable, names=None,
                      exact: bool = True) -> dict:
    """Parse `--point`/`--params` data: positional values or name=value.

    Positional values fill `names` (default: the coordinates) in order;
    name=value pairs may be mixed in.  Exact mode parses scalars in the
    coefficient syntax, float mode accepts decimal/complex literals.
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
        values[name] = parse_scalar(raw) if exact else complex(raw)
    return values
