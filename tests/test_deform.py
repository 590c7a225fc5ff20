"""Families, degenerate-point tracking, jet certificates."""

from fractions import Fraction

import pytest

from poissonkit import (DeformationFamily, DiagonalSpec, GaussRational,
                        Multivector, PoissonStructure, Polynomial,
                        VariableTable, jacobi_check, jet_vanishing,
                        parse_polynomial, scan_degenerate_points, schouten,
                        track_degenerate_point)

BASE = DiagonalSpec(4, {
    (1, 2): GaussRational(2), (1, 3): GaussRational(3),
    (1, 4): GaussRational(5), (2, 3): GaussRational(7),
    (2, 4): GaussRational(11), (3, 4): GaussRational(13)})


def build(steps):
    return DeformationFamily.build(BASE, steps)


def test_family_validates_base():
    degenerate = DiagonalSpec(4, {(i, j): GaussRational(0)
                                  for i in range(1, 5)
                                  for j in range(i + 1, 5)})
    with pytest.raises(ValueError):
        DeformationFamily(degenerate)
    with pytest.raises(ValueError):
        DeformationFamily(DiagonalSpec.symbolic(4))


def test_member_at_zero_is_the_base():
    fam = build([("translation", "x1", "1/2*t")])
    member = fam.at(GaussRational(0))
    base = fam.base_bivector()
    assert member.bivector == base
    assert member.integrable is True


def test_family_members_are_integrable():
    fam = build([("translation", "x1", "1/2*t"),
                 ("shear", "x3", "-2*t + t*x4^2")])
    assert jacobi_check(PoissonStructure(fam.bivector(), None)).is_zero()
    member = fam.at(GaussRational(Fraction(1, 20)))
    assert jacobi_check(member).is_zero()


def test_curl_field_is_poisson_field():
    fam = build([("translation", "x2", "3*t")])
    assert schouten(fam.curl_field(), fam.bivector()).is_zero()


def test_tracking_translation_family_is_exact():
    fam = build([("translation", "x1", "1/2*t"),
                 ("translation", "x3", "-2*t")])
    drift = (0.5, 0.0, -2.0, 0.0)
    for t in (0.1, -0.1, 0.05, 0.03 + 0.04j):
        result = track_degenerate_point(fam, t)
        assert result.residual <= 1e-12
        for value, direction in zip(result.gamma, drift):
            assert abs(value - t * direction) <= 1e-8
        assert result.jet0 <= 1e-6
        assert result.jet1 <= 1e-6


def test_tracking_with_shear():
    # steps apply in order: the shear sees the original x2 = 0, then the
    # translation moves x2, so the tracked point is (-t, t, 0, 0)
    fam = build([("shear", "x1", "t*x2^2 - t"),
                 ("translation", "x2", "t")])
    result = track_degenerate_point(fam, 0.08)
    assert abs(result.gamma[0] - (-0.08)) <= 1e-10
    assert abs(result.gamma[1] - 0.08) <= 1e-10
    assert result.residual <= 1e-12
    assert result.jet0 <= 1e-6 and result.jet1 <= 1e-6


def test_tracking_error_paths():
    fam = build([("translation", "x1", "t")])
    # Newton never converges, so the step halves from 1e-2 until the next
    # halving would fall below min_step: the last step tried is 1e-2 / 2^13
    with pytest.raises(ValueError, match=r"left basin; reduce step "
                       r"\(reached tau=0 of 0\.05, last step 1\.22e-06\)"):
        track_degenerate_point(fam, 0.05, max_iter=0)


# Reference Newton iteration counts and tracked points for the families
# above, recorded with a term-by-term evaluator; compiling the Newton system
# reorders float sums but must not move either.
TRACKED = [
    ([("translation", "x1", "1/2*t"), ("translation", "x3", "-2*t")],
     [(0.1, 10, (0.05, 0, -0.2, 0)), (-0.1, 10, (-0.05, 0, 0.2, 0)),
      (0.05, 5, (0.025, 0, -0.1, 0)),
      (0.03 + 0.04j, 5, (0.015 + 0.02j, 0, -0.06 - 0.08j, 0))]),
    ([("shear", "x1", "t*x2^2 - t"), ("translation", "x2", "t")],
     [(0.08, 16, (-0.08, 0.08, 0, 0))]),
    ([("translation", "x1", "1/2*t"), ("shear", "x3", "-2*t + t*x4^2")],
     [(0.05, 5, (0.025, 0, -0.1, 0)), (0.1j, 10, (0.05j, 0, -0.2j, 0))]),
]


def test_tracking_iterations_and_points_are_unchanged():
    for steps, cases in TRACKED:
        fam = build(steps)
        for t, iters, gamma in cases:
            result = track_degenerate_point(fam, t)
            assert result.newton_iters == iters
            for value, expected in zip(result.gamma, gamma):
                assert abs(value - expected) <= 1e-12


def test_tracking_compiles_the_newton_system_once(monkeypatch):
    fam = build([("translation", "x1", "1/2*t"),
                 ("shear", "x3", "-2*t + t*x4^2")])
    first = track_degenerate_point(fam, 0.05)
    calls = []
    derivative = Polynomial.partial_derivative

    def counted(self, name):
        calls.append(name)
        return derivative(self, name)

    monkeypatch.setattr(Polynomial, "partial_derivative", counted)
    second = track_degenerate_point(fam, 0.05)
    assert calls == []
    assert second.gamma == first.gamma
    assert second.newton_iters == first.newton_iters


def test_jet_orders():
    fam = build([])
    origin = {"x1": 0.0, "x2": 0.0, "x3": 0.0, "x4": 0.0, "t": 0.0}
    assert jet_vanishing(fam.base_bivector(), origin) == 2
    away = dict(origin, x1=1.0, x2=1.0)
    assert jet_vanishing(fam.base_bivector(), away) == 0
    T = VariableTable(("x1", "x2"))
    flat = Multivector(T, 2, {(0, 1): parse_polynomial("x1^4", T)})
    # every jet through order 3 vanishes, reported as r + 1
    assert jet_vanishing(flat, {"x1": 0.0, "x2": 0.0}) == 4
    with pytest.raises(ValueError):
        jet_vanishing(flat, {"x1": 0.0, "x2": 0.0}, r=5)


def test_scan_degenerate_points():
    member = build([]).at(GaussRational(0))
    samples = [GaussRational(-1), GaussRational(0), GaussRational(1)]
    hits = scan_degenerate_points(member, samples)
    assert hits == [(GaussRational(0),) * 4]
