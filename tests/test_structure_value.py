"""PoissonStructure as an immutable value whose [Pi, Pi] is computed once,
from its own bivector, by jacobi_check alone."""

import copy
import json
import pickle

import pytest

from poissonkit import (DeformationFamily, DiagonalSpec, GaussRational,
                        Multivector, PoissonStructure, VariableTable,
                        chart_extend, jacobi_check, loads, make_diagonal,
                        parse_polynomial, restrict_hyperplane, serialize)
from poissonkit import structures
from poissonkit.cli import main

SPEC4 = DiagonalSpec(4, {
    (1, 2): GaussRational(2), (1, 3): GaussRational(3, 1),
    (1, 4): GaussRational(5), (2, 3): GaussRational(-7, 2),
    (2, 4): GaussRational(11), (3, 4): GaussRational(13)})
T4 = VariableTable(("x1", "x2", "x3", "x4"))
# 1 xi1^xi2 + x1 xi3^xi4 is not Poisson: [Pi, Pi] = -2 xi1^xi2^xi3
NOT_POISSON = Multivector(T4, 2, {(0, 1): parse_polynomial("1", T4),
                                  (2, 3): parse_polynomial("x1", T4)})


@pytest.fixture
def brackets(monkeypatch):
    """Every schouten call jacobi_check makes, as its argument pair."""
    calls = []
    original = structures.schouten

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(structures, "schouten", counting)
    return calls


def test_structure_is_immutable():
    ps = make_diagonal(SPEC4)
    for name, value in (("integrable", "junk"), ("integrable", True),
                        ("bivector", 5), ("_bracket", None), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(ps, name, value)
    with pytest.raises(TypeError):
        PoissonStructure(ps.bivector, True)
    assert ps.integrable is True
    assert PoissonStructure(NOT_POISSON).integrable is False


def test_copy_deepcopy_and_pickle_round_trip():
    for ps in (make_diagonal(SPEC4), PoissonStructure(NOT_POISSON)):
        flag = ps.integrable
        for twin in (copy.copy(ps), copy.deepcopy(ps),
                     pickle.loads(pickle.dumps(ps))):
            assert type(twin) is PoissonStructure
            assert twin.bivector == ps.bivector
            assert twin.integrable is flag
            assert serialize(twin) == serialize(ps)
            with pytest.raises(AttributeError):
                twin.bivector = NOT_POISSON


def test_forged_pickle_is_rejected():
    forged = object.__new__(PoissonStructure)
    object.__setattr__(forged, "bivector", Multivector.basis(T4, (0,)))
    object.__setattr__(forged, "_bracket", None)
    data = pickle.dumps(forged)
    with pytest.raises(ValueError):
        pickle.loads(data)


def test_one_bracket_per_structure(brackets):
    ps = make_diagonal(SPEC4)
    assert brackets == []
    assert ps.integrable is True
    assert jacobi_check(ps).is_zero()
    assert json.loads(serialize(ps))["integrable"] == "true"
    assert len(brackets) == 1
    assert brackets[0][0] is ps.bivector and brackets[0][1] is ps.bivector
    # restriction and family members decide nothing until asked
    restricted = restrict_hyperplane(ps, "x1")
    member = DeformationFamily.build(
        SPEC4, [("translation", "x1", "1/2*t")]).at(GaussRational(1, 3))
    assert len(brackets) == 1
    assert restricted.integrable is True and member.integrable is True
    assert len(brackets) == 3


def test_chart_computes_its_own_bracket(brackets):
    ps = make_diagonal(SPEC4)
    assert ps.integrable is True
    assert chart_extend(ps, 0) is ps
    for target in range(1, 5):
        chart = chart_extend(ps, target)
        del brackets[:]
        assert jacobi_check(chart).is_zero()
        assert jacobi_check(chart).is_zero()
        assert len(brackets) == 1
        assert brackets[0][0] is chart.bivector
        assert brackets[0][1] is chart.bivector


def test_chart_does_not_inherit_integrability(monkeypatch):
    ps = make_diagonal(SPEC4)
    assert ps.integrable is True
    # a transition that returned a non-Poisson bivector must be caught
    table = VariableTable(("x0", "x2", "x3", "x4"))
    moved = Multivector(table, 2, {(0, 1): parse_polynomial("1", table),
                                   (2, 3): parse_polynomial("x0", table)})
    monkeypatch.setattr(structures, "chart_transition", lambda *args: moved)
    assert chart_extend(ps, 1).integrable is False
    bad = PoissonStructure(NOT_POISSON)
    assert bad.integrable is False
    monkeypatch.setattr(structures, "chart_transition",
                        lambda *args: make_diagonal(SPEC4).bivector)
    assert chart_extend(bad, 1).integrable is True


def test_jacobi_verb_computes_one_bracket(brackets, tmp_path, capsys):
    path = tmp_path / "diag4.mv"
    path.write_text(serialize(make_diagonal(SPEC4)))
    del brackets[:]
    assert main(["jacobi", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "0\n"
    assert len(brackets) == 1


def _document(bivector, flag):
    doc = json.loads(serialize(bivector))
    if flag is not None:
        doc["integrable"] = flag
    return json.dumps(doc)


@pytest.mark.parametrize("flag", ["unknown", None])
def test_unflagged_documents_print_the_verified_flag(flag, tmp_path, capsys):
    cases = ((make_diagonal(SPEC4).bivector, "true"), (NOT_POISSON, "false"))
    for bivector, verified in cases:
        path = tmp_path / "ps.mv"
        path.write_text(_document(bivector, flag))
        argvs = [["chart", "--target", "2"]]
        if flag is not None:
            argvs.append(["parse"])
        for argv in argvs:
            assert main([argv[0], "--in", str(path), *argv[1:]]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["integrable"] == verified, (argv, flag)
            assert loads(json.dumps(out)).integrable is (verified == "true")
    if flag is None:
        # a flagless document is a plain multivector, and parse keeps it so
        path.write_text(_document(NOT_POISSON, None))
        assert main(["parse", "--in", str(path)]) == 0
        assert "integrable" not in json.loads(capsys.readouterr().out)
