"""Specs, families, path steps and result records as immutable values:
one validating constructor each, which copies and pickles go through."""

import copy
import pickle

import pytest

from poissonkit import (DeformationFamily, DiagonalScaling, DiagonalSpec,
                        ElementaryAutomorphism, GaussRational, Translation,
                        TriangularShear, VariableTable, degeneracy_divisor,
                        degeneracy_ideal, diagonality_constraints,
                        log_annihilator, make_diagonal, parse_polynomial,
                        serialize, simplex_multiplicity_filter,
                        track_degenerate_point)
from poissonkit import curl, deform, exterior_derivative

SPEC4 = DiagonalSpec(4, {
    (1, 2): GaussRational(2), (1, 3): GaussRational(3, 1),
    (1, 4): GaussRational(5), (2, 3): GaussRational(-7, 2),
    (2, 4): GaussRational(11), (3, 4): GaussRational(13)})
STEPS = [("translation", "x1", "1/2*t"), ("shear", "x2", "t*x3^2"),
         ("scaling", {"x4": "3"})]
T = VariableTable(("x1", "x2", "x3"), ("t",))


def _steps():
    return [Translation(T, "x1", parse_polynomial("t", T)),
            TriangularShear(T, "x1", parse_polynomial("x2*x3 + t", T)),
            DiagonalScaling(T, {"x2": 2, "x3": GaussRational(1, 3)}),
            ElementaryAutomorphism(T)]


def _records():
    ps = make_diagonal(SPEC4)
    family = DeformationFamily.build(SPEC4, STEPS)
    spec3 = DiagonalSpec(3, {(1, 2): 2, (1, 3): 3, (2, 3): 5})
    return [degeneracy_ideal(ps, 2), degeneracy_divisor(ps),
            track_degenerate_point(family, 0.05), log_annihilator(spec3),
            diagonality_constraints(3), simplex_multiplicity_filter(3)]


def test_no_attribute_can_be_set_after_construction():
    family = DeformationFamily.build(SPEC4, STEPS)
    ps = make_diagonal(SPEC4)
    f = parse_polynomial("x1*x2 - t", T)
    values = [SPEC4, family, *family.path, *_steps(), *_records(),
              GaussRational(1, 2), T, f, ps,
              ps.bivector, exterior_derivative(f),
              curl(ps.bivector, parse_polynomial("x1 + 1", ps.table))]
    for value in values:
        names = [name for name in dir(value) if not name.startswith("__")]
        for name in names + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    with pytest.raises(AttributeError, match="^GaussRational is immutable$"):
        del GaussRational(1, 2)._t
    with pytest.raises(AttributeError, match="^DiagonalSpec is immutable$"):
        del DiagonalSpec(2, {(1, 2): 3}).entries
    with pytest.raises(TypeError):
        SPEC4.entries[(1, 2)] = GaussRational(0)
    with pytest.raises(TypeError):
        del SPEC4.entries[(1, 2)]
    with pytest.raises(TypeError):
        _steps()[2].scales["x2"] = GaussRational(5)
    assert len(SPEC4.entries) == 6


def _same_step(a, b):
    assert type(a) is type(b)
    assert a.table == b.table
    assert a.forward_images() == b.forward_images()
    assert a.inverse_images() == b.inverse_images()


def test_copy_deepcopy_and_pickle_round_trip():
    family = DeformationFamily.build(SPEC4, STEPS)
    family.curl_field()
    for twin in (copy.copy(SPEC4), copy.deepcopy(SPEC4),
                 pickle.loads(pickle.dumps(SPEC4))):
        assert type(twin) is DiagonalSpec and twin == SPEC4
        with pytest.raises(AttributeError):
            twin.n = 5
    for twin in (copy.copy(family), copy.deepcopy(family),
                 pickle.loads(pickle.dumps(family))):
        assert type(twin) is DeformationFamily
        assert serialize(twin) == serialize(family)
        assert twin.bivector() == family.bivector()
        for step, original in zip(twin.path, family.path):
            _same_step(step, original)
        with pytest.raises(AttributeError):
            twin.path = ()
    for step in _steps():
        for twin in (copy.copy(step), copy.deepcopy(step),
                     pickle.loads(pickle.dumps(step))):
            _same_step(twin, step)
            with pytest.raises(AttributeError):
                twin.table = None


def _forged(cls, **slots):
    forged = object.__new__(cls)
    for name, value in slots.items():
        object.__setattr__(forged, name, value)
    return pickle.dumps(forged)


def test_forged_pickles_are_refused():
    spec = _forged(DiagonalSpec, n=2, entries={(2, 1): GaussRational(1)})
    with pytest.raises(ValueError, match=r"entry \(2,1\) out of range"):
        pickle.loads(spec)
    flat = DiagonalSpec(4, {(1, 2): GaussRational(1)})
    family = _forged(DeformationFamily, base=flat, path=(), parameter="t")
    with pytest.raises(ValueError, match="genericity"):
        pickle.loads(family)
    shear = _forged(TriangularShear, table=T, coordinate="x2",
                    _g=parse_polynomial("x1", T))
    with pytest.raises(ValueError, match="strictly later"):
        pickle.loads(shear)


def test_build_checks_the_base_once_through_the_constructor(monkeypatch):
    checked, paths = [], []
    is_generic = deform.is_generic
    monkeypatch.setattr(deform, "is_generic",
                        lambda spec: checked.append(spec) or is_generic(spec))
    init = DeformationFamily.__init__

    def recording(self, base, path=(), parameter="t"):
        paths.append(tuple(path))
        init(self, base, path, parameter)

    monkeypatch.setattr(DeformationFamily, "__init__", recording)
    family = DeformationFamily.build(SPEC4, STEPS)
    assert checked == [SPEC4]
    assert paths == [family.path] and len(family.path) == 3
