"""Families, degenerate-point tracking, jet certificates."""

import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from poissonkit import (CheckFailed, DeformationFamily, DiagonalScaling,
                        DiagonalSpec, GaussRational, Multivector,
                        PoissonStructure, Polynomial, VariableTable,
                        jacobi_check, jet_vanishing, loads, Translation,
                        parse_polynomial, random_generic_spec,
                        scan_degenerate_points, schouten,
                        track_degenerate_point)
from poissonkit import deform, polynomials

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


def test_a_family_document_with_an_odd_base_is_refused():
    document = {"kind": "family", "parameter": "t", "path": [],
                "base": {"kind": "diagonal-spec", "n": 3, "entries": [
                    {"i": 1, "j": 2, "value": "2"},
                    {"i": 1, "j": 3, "value": "3"},
                    {"i": 2, "j": 3, "value": "5"}]}}
    with pytest.raises(ValueError) as refused:
        loads(json.dumps(document))
    assert str(refused.value) == \
        "family base must have an even number of coordinates"


def test_member_at_zero_is_the_base():
    fam = build([("translation", "x1", "1/2*t")])
    member = fam.at(GaussRational(0))
    base = fam.base_bivector()
    assert member.bivector == base
    assert member.integrable is True


def test_family_members_are_integrable():
    fam = build([("translation", "x1", "1/2*t"),
                 ("shear", "x3", "-2*t + t*x4^2")])
    assert jacobi_check(PoissonStructure(fam.bivector())).is_zero()
    member = fam.at(GaussRational(Fraction(1, 20)))
    assert jacobi_check(member).is_zero()


def test_curl_field_is_poisson_field():
    fam = build([("translation", "x2", "3*t")])
    assert schouten(fam.curl_field(), fam.bivector()).is_zero()


def _exact(t) -> GaussRational:
    """The Gaussian rational a double or complex t stands for."""
    t = complex(t)
    return GaussRational(t.real, t.imag)


def test_tracking_translation_family_is_exact():
    fam = build([("translation", "x1", "1/2*t"),
                 ("translation", "x3", "-2*t")])
    for t in (0.1, -0.1, 0.05, 0.03 + 0.04j):
        result = track_degenerate_point(fam, t)
        exact = _exact(t)
        zero = GaussRational(0)
        assert result.point == (exact / 2, zero, -2 * exact, zero)
        assert result.gamma == (t / 2, 0, -2 * t, 0)
        assert (result.residual, result.jet0, result.jet1,
                result.newton_iters) == (0.0, 0.0, 0.0, 0)


def test_tracking_with_shear():
    # steps apply in order: the shear sees the original x2 = 0, then the
    # translation moves x2, so the tracked point is (-t, t, 0, 0)
    fam = build([("shear", "x1", "t*x2^2 - t"),
                 ("translation", "x2", "t")])
    result = track_degenerate_point(fam, 0.08)
    assert result.gamma == (-0.08, 0.08, 0, 0)
    assert result.point[:2] == (-GaussRational(0.08), GaussRational(0.08))


def test_tracking_error_paths():
    # a part of phi_t(0) past the largest double is refused, real or
    # imaginary, as unusable input rather than a failed check
    fam = build([("translation", "x1", "t^2"), ("translation", "x2", "t^3")])
    for t, message in [(1e200, r"\(1e\+200\+0j\)"), (1e150j, r"1e\+150j")]:
        with pytest.raises(ValueError, match=r"^gamma overflows double "
                           rf"precision at t = {message}$") as caught:
            track_degenerate_point(fam, t)
        assert not isinstance(caught.value, CheckFailed)
    # below the overflow both parts read as the nearest doubles
    gamma = track_degenerate_point(fam, 1e100j).gamma
    assert gamma[:2] == (-float(Fraction(1e100) ** 2),
                         -1j * float(Fraction(1e100) ** 3))


@pytest.mark.parametrize("t, message", [
    (float("inf"), r"^t must be finite, got \(inf\+0j\)$"),
    (complex(0, float("nan")), r"^t must be finite"),
], ids=["inf", "nan-imaginary"])
def test_tracking_refuses_an_unusable_t(t, message):
    fam = build([("translation", "x1", "t")])
    with pytest.raises(ValueError, match=message) as caught:
        track_degenerate_point(fam, t)
    assert not isinstance(caught.value, CheckFailed)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
def test_tracking_refuses_an_unusable_tol(tol):
    # the point is exact, so a track takes (family, t) only: any tol is
    # refused, as `track --tol` is
    fam = build([("translation", "x1", "t")])
    with pytest.raises(TypeError, match="tol"):
        track_degenerate_point(fam, 0.05, tol=tol)


# Tracked points for the families above, as the nearest doubles to
# phi_t(0).
TRACKED = [
    ([("translation", "x1", "1/2*t"), ("translation", "x3", "-2*t")],
     [(0.1, (0.05, 0, -0.2, 0)), (-0.1, (-0.05, 0, 0.2, 0)),
      (0.05, (0.025, 0, -0.1, 0)),
      (0.03 + 0.04j, (0.015 + 0.02j, 0, -0.06 - 0.08j, 0))]),
    ([("shear", "x1", "t*x2^2 - t"), ("translation", "x2", "t")],
     [(0.08, (-0.08, 0.08, 0, 0))]),
    ([("translation", "x1", "1/2*t"), ("shear", "x3", "-2*t + t*x4^2")],
     [(0.05, (0.025, 0, -0.1, 0)), (0.1j, (0.05j, 0, -0.2j, 0))]),
]


def test_tracking_iterations_and_points_are_unchanged():
    # no iteration runs: every report reads newton_iters = 0
    for steps, cases in TRACKED:
        fam = build(steps)
        for t, gamma in cases:
            result = track_degenerate_point(fam, t)
            assert result.newton_iters == 0
            assert result.gamma == gamma


def test_a_translation_and_scaling_family_reaches_t_in_one_attempt(
        monkeypatch):
    # a track evaluates the n composed coordinates of phi_t(0) in one
    # batch, at t itself
    fam = build([("translation", "x1", "1/2*t + t^2"),
                 ("scaling", {"x1": "3", "x3": "-1/2"}),
                 ("translation", "x3", "-2*t")])
    evaluations = []
    values = polynomials._values

    def counted(table, raws, point):
        evaluations.append((len(raws), point))
        return values(table, raws, point)

    monkeypatch.setattr(polynomials, "_values", counted)
    monkeypatch.setattr(deform, "_values", counted)
    for t in (1.0, 0.7 + 0.7j, -150.0):
        evaluations.clear()
        result = track_degenerate_point(fam, t)
        exact = _exact(t)
        assert evaluations == [(4, {fam.parameter: exact})]
        zero = GaussRational(0)
        assert result.point == (3 * (exact / 2 + exact * exact), zero,
                                -2 * exact, zero)
        expected = _origin_image(fam, t)
        drift = np.abs(np.array(result.gamma) - expected).max()
        assert drift <= 1e-12 * np.abs(expected).max()


def _oracle_family(rng, n):
    """A generic base on C^n pushed along a translation, a shear and a
    scaling in shuffled order; every translation and shear vanishes at
    t = 0, so the tracked point starts at the origin."""

    def scalar():
        return f"({rng.choice((-1, 1)) * rng.randint(1, 3)}/{rng.choice((1, 2, 4))})"

    sheared = rng.randint(1, n - 1)
    later = f"x{rng.randint(sheared + 1, n)}^{rng.choice((2, 3, 8))}"
    steps = [("translation", f"x{rng.randint(1, n)}",
              f"{scalar()}*t + {scalar()}*t^2"),
             ("shear", f"x{sheared}", f"{scalar()}*t*{later} + {scalar()}*t"),
             ("scaling", {f"x{k}": scalar()
                          for k in rng.sample(range(1, n + 1), 2)})]
    rng.shuffle(steps)
    return DeformationFamily.build(random_generic_spec(n, rng, bound=20),
                                   steps)


def _origin_image(family, t) -> np.ndarray:
    """phi_t(0) in doubles: the origin pushed along the path in order,
    each step moving the point the steps before it left, as in
    test_tracking_with_shear."""
    point = np.zeros(family.n + 1, dtype=complex)
    point[-1] = t
    names = family.table.coordinates
    for step in family.path:
        if isinstance(step, DiagonalScaling):
            for name, scale in step.scales.items():
                point[names.index(name)] *= complex(scale)
        else:
            shift = step.amount if isinstance(step, Translation) else step.shear
            values = dict(zip(family.table.names, point))
            point[names.index(step.coordinate)] += sum(
                complex(c) * math.prod(values[name] ** e for name, e in
                                       zip(family.table.names, exps))
                for exps, c in shift.terms.items())
    return point[:-1]


def _oracle_families():
    rng = random.Random("track-oracle")
    return [_oracle_family(rng, n) for n in (4, 4, 4, 6, 6, 6)]


def test_tracks_land_on_the_origin_pushed_along_the_path():
    """curl(Pi_t) is the base's curl mu_i x_i carried along the path, so
    its one zero is phi_t(0); every track must report it, on seeded
    families on C^4 and C^6."""
    for family in _oracle_families():
        for t in (0.3, 1, 0.7 + 0.7j, -1.5):
            expected = _origin_image(family, t)
            scale = max(1.0, np.abs(expected).max())
            result = track_degenerate_point(family, t)
            drift = np.abs(np.array(result.gamma) - expected).max()
            assert drift <= 1e-12 * scale, (family.path, t)


STEEP = [("shear", "x1", "x2^12"), ("shear", "x2", "x3^4"),
         ("translation", "x3", "t"), ("translation", "x4", "2*t^2")]


def test_a_steep_shear_track_lands_on_the_origin_pushed_along_the_path():
    # float Newton once reported gamma_1 = 0.0125 here: read exactly, the
    # x1 coefficient of curl(Pi_1), 326 terms up to degree 48, is 0.125
    # at that gamma, and evaluating it in doubles cancels to 0
    fam = build(STEEP)
    zero = GaussRational(0)
    for t, third, fourth in [(1, 1, 2), (-1.5, Fraction(-3, 2),
                                          Fraction(9, 2))]:
        result = track_degenerate_point(fam, t)
        assert result.point == (zero, zero, GaussRational(third),
                                GaussRational(fourth))
        assert result.gamma == (0, 0, float(third), float(fourth))


def _nearest_double(part: Fraction, value: float) -> bool:
    """Whether no double lies nearer to `part` than `value`."""
    gap = abs(Fraction(value) - part)
    return all(abs(Fraction(math.nextafter(value, toward)) - part) >= gap
               for toward in (-math.inf, math.inf))


def test_the_tracked_point_is_an_exact_zero_of_the_member_and_its_curl():
    """At the reported point every coefficient of Pi_t and of curl(Pi_t)
    is exactly zero, so the reported residual and jets, 0.0, are their
    values; each part of gamma is the double nearest the exact part."""
    from pathlib import Path

    from poissonkit.documents import load_path
    golden = Path(__file__).parent / "golden" / "inputs"
    families = [build(steps) for steps, _ in TRACKED]
    families += [load_path(str(golden / f"{name}.json"))
                 for name in ("fam4", "fam4-mixed")]
    families += [build(STEEP), build([(kind, coordinate, text.replace(
        "x2^12", "x2^4")) for kind, coordinate, text in STEEP])]
    families += _oracle_families()
    checked = 0
    for family in families:
        coefficients = list(family.bivector().terms.values())
        coefficients += family.curl_field().terms.values()
        for t in (0, 0.05, 0.3, 1, 0.05 + 0.05j, -1.5, 10):
            t = complex(t)
            result = track_degenerate_point(family, t)
            values = dict(zip(family.table.coordinates, result.point))
            values[family.parameter] = _exact(t)
            for f in coefficients:
                assert f.evaluate(values).is_zero(), (family.path, t)
            assert (result.residual, result.jet0, result.jet1,
                    result.newton_iters) == (0.0, 0.0, 0.0, 0)
            for z, exact in zip(result.gamma, result.point):
                assert _nearest_double(exact.re, z.real)
                assert _nearest_double(exact.im, z.imag)
            checked += 1
    assert checked == 13 * 7


def test_tracking_composes_the_origin_image_once(monkeypatch):
    fam = build([("translation", "x1", "1/2*t"),
                 ("shear", "x3", "-2*t + t*x4^2")])
    first = track_degenerate_point(fam, 0.05)
    calls = []
    substituted = polynomials._substituted

    def counted(*args):
        calls.append(args)
        return substituted(*args)

    monkeypatch.setattr(polynomials, "_substituted", counted)
    monkeypatch.setattr(deform, "_substituted", counted)
    second = track_degenerate_point(fam, 0.05)
    assert calls == []
    assert second == first
    # no bivector or curl is built to track
    assert fam._bivector is None and fam._curl is None


def test_jet_orders():
    fam = build([])
    origin = dict.fromkeys(("x1", "x2", "x3", "x4", "t"), 0)
    assert jet_vanishing(fam.base_bivector(), origin) == 2
    away = dict(origin, x1=1, x2=1)
    assert jet_vanishing(fam.base_bivector(), away) == 0
    T = VariableTable(("x1", "x2"))
    flat = Multivector(T, 2, {(0, 1): parse_polynomial("x1^4", T)})
    # every jet through order 3 vanishes, reported as r + 1
    assert jet_vanishing(flat, {"x1": 0, "x2": 0}) == 4
    with pytest.raises(ValueError):
        jet_vanishing(flat, {"x1": 0, "x2": 0}, r=5)
    # the point holds exact values, as Polynomial.evaluate takes them
    with pytest.raises(TypeError, match="float"):
        jet_vanishing(flat, {"x1": 0.0, "x2": 0.0})
    # no tolerance: a vanishing jet is exactly zero
    with pytest.raises(TypeError, match="tol"):
        jet_vanishing(flat, {"x1": 0, "x2": 0}, tol=1e-6)


def test_jet_names_an_unassigned_variable_of_the_structure():
    # every coefficient is evaluated at order 0, even past a nonzero one
    T = VariableTable(("x1", "x2", "x3"))
    pi = Multivector(T, 2, {(0, 1): parse_polynomial("1", T),
                            (1, 2): parse_polynomial("x3", T)})
    with pytest.raises(KeyError, match="'x3'"):
        jet_vanishing(pi, {"x1": 0, "x2": 0})


def test_jet_reads_exact_values_where_doubles_overflow():
    T = VariableTable(("x1", "x2"))
    f = Multivector(T, 2, {(0, 1): parse_polynomial("x1^20 + x2", T)})
    # x1^20 is 10^400 at x1 = 1e20, past every double, and exact here
    assert jet_vanishing(f, {"x1": GaussRational(1e20), "x2": 1}) == 0
    # x2 * x1^20 vanishes exactly at x2 = 0, to order 1
    g = Multivector(T, 2, {(0, 1): parse_polynomial("x2*x1^20", T)})
    assert jet_vanishing(g, {"x1": GaussRational(1e20), "x2": 0}) == 1


@pytest.mark.parametrize("t_value", [GaussRational(Fraction(1, 3)),
                                     GaussRational.i()], ids=["1/3", "i"])
def test_a_member_is_the_bivector_substituted_coefficient_by_coefficient(
        t_value):
    from pathlib import Path

    from poissonkit.documents import load_path
    family = load_path(str(Path(__file__).parent / "golden" / "inputs"
                           / "fam4-mixed.json"))
    images = {family.parameter: Polynomial.constant(family.table, t_value)}
    expected = Multivector(family.table, 2, {
        ix: polynomials._wrapped(family.table, polynomials._substituted(
            c._raw, family.table, images))
        for ix, c in family.bivector().terms.items()})
    member = family.at(t_value)
    assert member.bivector == expected
    assert dict(member.bivector.terms) == dict(expected.terms)
    assert jacobi_check(member).is_zero()


def test_an_overflowing_track_is_refused_without_warnings():
    from pathlib import Path

    from poissonkit.documents import load_path
    family = load_path(str(Path(__file__).parent / "golden" / "inputs"
                           / "fam4-mixed.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        # x2 = t^2 - 1/5 is about 1e600 at t = 1e300
        with pytest.raises(ValueError, match=r"^gamma overflows double "
                           r"precision at t = \(1e\+300\+0j\)$"):
            track_degenerate_point(family, 1e300)


def test_scan_degenerate_points():
    member = build([]).at(GaussRational(0))
    samples = [GaussRational(-1), GaussRational(0), GaussRational(1)]
    hits = scan_degenerate_points(member, samples)
    assert hits == [(GaussRational(0),) * 4]


def test_build_checks_genericity_once(monkeypatch):
    from poissonkit import deform
    calls = []
    original = deform.is_generic

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(deform, "is_generic", counting)
    fam = build([("translation", "x1", "1/2*t"), ("shear", "x3", "-2*t"),
                 ("scaling", {"x2": "3"})])
    assert calls == [BASE]
    assert len(fam.path) == 3
    assert all(step.table == fam.table for step in fam.path)


def test_family_path_steps_are_checked():
    with pytest.raises(TypeError, match="^path entries must be elementary "
                                        "automorphisms$"):
        DeformationFamily(BASE, [("translation", "x1", "t")])
    other = VariableTable(("x1", "x2", "x3", "x4"), ("s",))
    step = Translation(other, "x1", parse_polynomial("s", other))
    with pytest.raises(ValueError, match="^path step lives on the wrong "
                                         "table$"):
        DeformationFamily(BASE, [step])
