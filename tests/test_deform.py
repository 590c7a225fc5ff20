"""Families, degenerate-point tracking, jet certificates."""

import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from poissonkit import (CheckFailed, DeformationFamily, DiagonalScaling,
                        DiagonalSpec, GaussRational, Multivector,
                        PoissonStructure, Polynomial, VariableTable,
                        jacobi_check, jet_vanishing, loads, Translation,
                        parse_polynomial, random_generic_spec,
                        scan_degenerate_points, schouten,
                        track_degenerate_point)
from poissonkit import polynomials
from poissonkit.polynomials import FloatPolynomials

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


def test_tracking_error_paths(monkeypatch):
    from poissonkit import deform
    fam = build([("translation", "x1", "t")])
    # with no Newton iterations no step converges, so the step halves
    # from |t| = 0.05 until the next halving would fall below MIN_STEP:
    # the last step tried is 0.05 / 2^15
    monkeypatch.setattr(deform, "NEWTON_ITERATIONS", 0)
    with pytest.raises(ValueError, match=r"left basin "
                       r"\(reached tau=0 of 0\.05, last step 1\.53e-06, "
                       r"last residual 1\.53e-05, tol 1e-12\)"):
        track_degenerate_point(fam, 0.05)


def test_a_basin_failure_names_the_residual_and_tol():
    from pathlib import Path

    from poissonkit.documents import load_path
    family = load_path(str(Path(__file__).parent / "golden" / "inputs"
                           / "fam4.json"))
    # float Newton stops short of a zero residual, so tol 0 reads as
    # leaving the basin; the message shows the residual that tol refused
    with pytest.raises(CheckFailed, match=r"left basin "
                       r"\(reached tau=0 of 0\.05, last step 1\.53e-06, "
                       r"last residual [0-9.e+-]+, tol 0\)$") as caught:
        track_degenerate_point(family, 0.05, tol=0.0)
    residual = float(str(caught.value).split("last residual ")[1]
                     .split(",")[0])
    assert 0 < residual <= 1e-12


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
    fam = build([("translation", "x1", "t")])
    with pytest.raises(ValueError, match=r"^tol must be finite and "
                                         r"non-negative, got") as caught:
        track_degenerate_point(fam, 0.05, tol=tol)
    assert not isinstance(caught.value, CheckFailed)
    # a zero tolerance is usable: this family's residual reaches 0.0
    assert track_degenerate_point(fam, 0.05, tol=0.0).residual == 0.0


def test_tracking_stops_after_max_steps(monkeypatch):
    from poissonkit import deform
    fam = build([("translation", "x1", "t")])
    # one attempt is within any budget: the first attempt goes to t,
    # however far, and this family's curl is linear, so it converges
    monkeypatch.setattr(deform, "MAX_STEPS", 1)
    result = track_degenerate_point(fam, 1e6)
    assert result.residual <= 1e-12
    assert abs(result.gamma[0] - 1e6) <= 1e-6
    # with no Newton iterations every attempt fails and halves the step
    # from 0.1, so the eleventh attempt ends the track before MIN_STEP
    monkeypatch.setattr(deform, "MAX_STEPS", 11)
    monkeypatch.setattr(deform, "NEWTON_ITERATIONS", 0)
    with pytest.raises(CheckFailed, match=r"^spent all MAX_STEPS = 11 step "
                       r"attempts \(reached tau=0 of 0\.1, last step "
                       r"4\.88e-05, last residual 0\.000977, tol 1e-12\)$"):
        track_degenerate_point(fam, 0.1)


def test_a_nan_residual_never_counts_as_converged(monkeypatch):
    fam = build([("translation", "x1", "t")])
    newton = fam._newton_system().newton
    monomials = FloatPolynomials.monomials

    def poisoned(self, point):
        values = monomials(self, point)
        return values * np.nan if self is newton else values

    monkeypatch.setattr(FloatPolynomials, "monomials", poisoned)
    # every attempt fails, so the step halves down to MIN_STEP
    with pytest.raises(CheckFailed, match=r"^left basin "
                       r"\(reached tau=0 of 0\.05, last step 1\.53e-06, "
                       r"last residual nan, tol 1e-12\)$"):
        track_degenerate_point(fam, 0.05)


# Reference Newton iteration counts and tracked points for the families
# above.  The points were recorded with a term-by-term evaluator; compiling
# the Newton system reorders float sums but must not move them.  The counts
# are those of a track whose first attempt goes straight to t.
TRACKED = [
    ([("translation", "x1", "1/2*t"), ("translation", "x3", "-2*t")],
     [(0.1, 1, (0.05, 0, -0.2, 0)), (-0.1, 1, (-0.05, 0, 0.2, 0)),
      (0.05, 1, (0.025, 0, -0.1, 0)),
      (0.03 + 0.04j, 1, (0.015 + 0.02j, 0, -0.06 - 0.08j, 0))]),
    ([("shear", "x1", "t*x2^2 - t"), ("translation", "x2", "t")],
     [(0.08, 2, (-0.08, 0.08, 0, 0))]),
    ([("translation", "x1", "1/2*t"), ("shear", "x3", "-2*t + t*x4^2")],
     [(0.05, 1, (0.025, 0, -0.1, 0)), (0.1j, 1, (0.05j, 0, -0.2j, 0))]),
]


def test_tracking_iterations_and_points_are_unchanged():
    for steps, cases in TRACKED:
        fam = build(steps)
        for t, iters, gamma in cases:
            result = track_degenerate_point(fam, t)
            assert result.newton_iters == iters
            for value, expected in zip(result.gamma, gamma):
                assert abs(value - expected) <= 1e-12


@pytest.mark.parametrize("tol", [1e-12, 0.0])
def test_the_report_reads_the_jets_as_tables_of_their_own(tol):
    """jet0 and jet1 are the peaks of Pi_t's coefficients and of their
    first partials at p = (gamma, t), evaluated on a table of their own,
    bit for bit; the residual, read by the check that ended the last
    Newton solve, is at most tol."""
    from pathlib import Path

    from poissonkit.documents import load_path
    golden = Path(__file__).parent / "golden" / "inputs"
    cases = [(build(steps), [0] + [t for t, _, _ in tracked])
             for steps, tracked in TRACKED]
    cases += [(load_path(str(golden / f"{name}.json")),
               [0, 0.05, 0.3, 1, 0.05 + 0.05j, -1.5])
              for name in ("fam4", "fam4-mixed")]
    converged = 0
    for family, ts in cases:
        table = family.table
        coefficients = list(family.bivector().terms.values())
        jet0 = FloatPolynomials(table, coefficients)
        jet1 = FloatPolynomials(table, [f.partial_derivative(name)
                                        for f in coefficients
                                        for name in table.coordinates])
        for t in ts:
            try:
                result = track_degenerate_point(family, t, tol=tol)
            except CheckFailed:
                # tol 0 asks for a float residual of exactly 0, which
                # some tracks never reach
                assert tol == 0
                continue
            p = np.array(result.gamma + (t,), dtype=complex)
            assert result.jet0 == np.abs(jet0(p)).max(initial=0.0)
            assert result.jet1 == np.abs(jet1(p)).max(initial=0.0)
            if t != 0:  # at t = 0 no Newton solve runs
                assert result.residual <= tol
                converged += 1
    assert converged


def test_one_newton_evaluation_per_iteration_and_per_check(monkeypatch):
    fam = build(TRACKED[1][0])
    system = fam._newton_system()
    evaluations = []
    jet_evaluations = []
    monomials = FloatPolynomials.monomials

    def counted(self, point):
        if self is system.newton:
            evaluations.append(complex(point[-1]))
        elif self is system.jets:
            jet_evaluations.append(complex(point[-1]))
        return monomials(self, point)

    class JacobianRows:
        multiplies = 0

        def __matmul__(self, values):
            JacobianRows.multiplies += 1
            return system.jacobian @ values

    counting = system._replace(jacobian=JacobianRows())
    monkeypatch.setattr(FloatPolynomials, "monomials", counted)
    monkeypatch.setattr(DeformationFamily, "_newton_system",
                        lambda self: counting)
    result = track_degenerate_point(fam, 0.08)
    # one attempt goes straight to t: two iterations and the check that
    # ends them, which read the reported residual; the jets take one
    # evaluation of their own table
    assert result.newton_iters == 2
    assert evaluations == [0.08] * (2 + 1)
    assert jet_evaluations == [0.08]
    assert JacobianRows.multiplies == result.newton_iters


def test_a_linear_track_doubles_its_step(monkeypatch):
    # the attempts at tau = 1, 0.5 and 0.25 read a NaN residual and fail,
    # so the step halves to 0.125; from there every attempt converges and
    # the step doubles: tau runs 0.125, 0.375, 0.875, then stops at t
    fam = build([("translation", "x1", "1/2*t"),
                 ("translation", "x3", "-2*t")])
    newton = fam._newton_system().newton
    poisoned = {1.0, 0.5, 0.25}
    attempted = []
    monomials = FloatPolynomials.monomials

    def counted(self, point):
        values = monomials(self, point)
        if self is not newton:
            return values
        tau = complex(point[-1]).real
        if not attempted or attempted[-1] != tau:
            attempted.append(tau)
        if tau in poisoned:
            # the NaN spreads to the point, so the whole attempt fails
            poisoned.remove(tau)
            return values * np.nan
        return values

    monkeypatch.setattr(FloatPolynomials, "monomials", counted)
    result = track_degenerate_point(fam, 1.0)
    assert attempted == [1.0, 0.5, 0.25, 0.125, 0.375, 0.875, 1.0]
    for value, expected in zip(result.gamma, (0.5, 0, -2.0, 0)):
        assert abs(value - expected) <= 1e-12


def test_a_translation_and_scaling_family_reaches_t_in_one_attempt(
        monkeypatch):
    # translations and scalings carry the base's linear curl to a curl
    # still linear in x, so one Newton iteration lands on its zero and
    # the first attempt, at t itself, converges
    fam = build([("translation", "x1", "1/2*t + t^2"),
                 ("scaling", {"x1": "3", "x3": "-1/2"}),
                 ("translation", "x3", "-2*t")])
    system = fam._newton_system()
    evaluations = []
    jet_evaluations = []
    monomials = FloatPolynomials.monomials

    def counted(self, point):
        if self is system.newton:
            evaluations.append(complex(point[-1]))
        elif self is system.jets:
            jet_evaluations.append(complex(point[-1]))
        return monomials(self, point)

    monkeypatch.setattr(FloatPolynomials, "monomials", counted)
    for t in (1.0, 0.7 + 0.7j, -150.0):
        evaluations.clear()
        jet_evaluations.clear()
        result = track_degenerate_point(fam, t)
        # one iteration and the check that ends it, which read the
        # reported residual; then one evaluation of the jet table
        assert result.newton_iters == 1
        assert evaluations == [t] * 2
        assert jet_evaluations == [t]
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
    """phi_t(0): the origin pushed along the path in order, each step
    moving the point the steps before it left, as in
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
            point[names.index(step.coordinate)] += \
                FloatPolynomials(family.table, [shift])(point)[0]
    return point[:-1]


@pytest.mark.parametrize("fail_at_t", [False, True],
                         ids=["as-is", "first-attempt-at-t-fails"])
def test_tracks_land_on_the_origin_pushed_along_the_path(monkeypatch,
                                                         fail_at_t):
    """curl(Pi_t) is the base's curl mu_i x_i carried along the path, so
    its one zero is phi_t(0); every track must find it, on seeded
    families on C^4 and C^6.  With `fail_at_t` the first attempt, which
    goes to t, reads a NaN residual and fails, leaving NaN in the point:
    the track must restore gamma, halve the step and reach t again."""
    rng = random.Random("track-oracle")
    families = [_oracle_family(rng, n) for n in (4, 4, 4, 6, 6, 6)]
    monomials = FloatPolynomials.monomials
    armed = {}

    def failing(self, point):
        values = monomials(self, point)
        if armed and self is armed["newton"] \
                and abs(point[-1] - armed["t"]) <= 1e-12 * abs(armed["t"]):
            armed.clear()
            return values * np.nan
        return values

    monkeypatch.setattr(FloatPolynomials, "monomials", failing)
    for family in families:
        for t in (0.3, 1, 0.7 + 0.7j, -1.5):
            expected = _origin_image(family, t)
            scale = max(1.0, np.abs(expected).max())
            if fail_at_t:
                armed.update(newton=family._newton_system().newton, t=t)
            result = track_degenerate_point(family, t)
            assert not armed
            assert result.residual <= 1e-12
            drift = np.abs(np.array(result.gamma) - expected).max()
            assert drift <= 1e-9 * scale, (family.path, t)


@pytest.mark.xfail(strict=True, reason="the x1 coefficient of curl(Pi_1) "
                   "cancels to 0 in doubles at gamma_1 = 0.0125; an exact "
                   "radius would refuse this point")
def test_a_steep_shear_track_lands_on_the_origin_pushed_along_the_path():
    # phi_1(0) = (0, 0, 1, 2), but the track reports gamma_1 = 0.0125
    # with residual 0.0: at that gamma, read exactly, the x1 coefficient
    # of curl(Pi_1), 326 terms up to degree 48, is 0.125, and evaluating
    # it in doubles cancels to 0
    fam = build([("shear", "x1", "x2^12"), ("shear", "x2", "x3^4"),
                 ("translation", "x3", "t"), ("translation", "x4", "2*t^2")])
    result = track_degenerate_point(fam, 1)
    drift = np.abs(np.array(result.gamma) - _origin_image(fam, 1)).max()
    assert drift <= 1e-6


def test_a_singular_jacobian_is_a_non_simple_singularity(monkeypatch):
    def singular(matrix, vector):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    fam = build([("translation", "x1", "t")])
    with pytest.raises(CheckFailed, match="^non-simple singularity$"):
        track_degenerate_point(fam, 0.05)


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


def test_jet_overflow_is_an_error_not_a_vanishing_jet():
    T = VariableTable(("x1", "x2"))
    f = Multivector(T, 2, {(0, 1): parse_polynomial("x1^20 + x2", T)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        # x1^20 overflows double precision at x1 = 1e20
        with pytest.raises(ValueError, match="order-0 jet overflows"):
            jet_vanishing(f, {"x1": 1e20, "x2": 1.0})
        # at x1 = 1e15 it is large but finite
        assert jet_vanishing(f, {"x1": 1e15, "x2": 1.0}) == 0
        # x2 * x1^20 vanishes exactly at x2 = 0, but x1^20 is inf in
        # double precision and inf * 0 is NaN
        g = Multivector(T, 2, {(0, 1): parse_polynomial("x2*x1^20", T)})
        with pytest.raises(ValueError, match="order-0 jet overflows"):
            jet_vanishing(g, {"x1": 1e20, "x2": 0.0})


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
                           / "fam4.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        with pytest.raises(ValueError, match=r"^jet0 overflows double "
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
