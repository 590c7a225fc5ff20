"""Poisson structures: Jacobi, Hamiltonian calculus, degeneracy, charts."""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poissonkit import (DiagonalSpec, GaussRational, Multivector,
                        PoissonStructure, Polynomial, VariableTable,
                        chart_extend, chart_transition, degeneracy_divisor,
                        degeneracy_ideal, hamiltonian, invariant_hypersurface,
                        jacobi_check, make_diagonal, parse_polynomial,
                        poisson_bracket, rank_at, reduce_mod,
                        restrict_hyperplane, schouten, wedge_power)
from poissonkit import structures
from poissonkit.randomized import random_element, random_polynomial


def sym(n):
    return make_diagonal(DiagonalSpec.symbolic(n))


def num(n, values):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    entries = {pair: GaussRational(v) for pair, v in zip(pairs, values)}
    return make_diagonal(DiagonalSpec(n, entries))


NUM4 = num(4, [2, 3, 5, 7, 11, 13])


def p(text, table):
    return parse_polynomial(text, table)


def test_constructor_validates_degree():
    T = VariableTable(("x1", "x2"))
    with pytest.raises(ValueError):
        PoissonStructure(Multivector.basis(T, (0,)))


def test_jacobi_check_diagonal():
    ps = sym(4)
    assert jacobi_check(ps).is_zero()
    assert ps.integrable is True


def test_jacobi_check_detects_failure():
    T = VariableTable(("x1", "x2", "x3"))
    biv = Multivector(T, 2, {(0, 1): p("x3", T), (0, 2): p("x1^2", T)})
    ps = PoissonStructure(biv)
    assert not jacobi_check(ps).is_zero()
    assert ps.integrable is False


def test_bracket_and_hamiltonian():
    ps = sym(3)
    T = ps.table
    assert poisson_bracket(ps, p("x1", T), p("x2", T)) == p("l12*x1*x2", T)
    assert poisson_bracket(ps, p("x2", T), p("x1", T)) == p("-l12*x1*x2", T)
    # bracket derivation in the second slot
    f, g, h = p("x1", T), p("x2", T), p("x3", T)
    assert poisson_bracket(ps, f, g * h) == \
        poisson_bracket(ps, f, g) * h + g * poisson_bracket(ps, f, h)
    xf = hamiltonian(ps, f)
    assert xf == Multivector(T, 1, {(1,): p("l12*x1*x2", T),
                                    (2,): p("l13*x1*x3", T)})
    # Hamiltonian fields are Poisson fields
    assert schouten(xf, ps.bivector).is_zero()


def test_wedge_power():
    ps = sym(4)
    sq = wedge_power(ps.bivector, 2)
    assert sq.degree == 4
    assert wedge_power(ps.bivector, 0) == Multivector.from_polynomial(
        parse_polynomial("1", ps.table))


def test_degeneracy_ideal_symbolic_four():
    ps = sym(4)
    ideal = degeneracy_ideal(ps, 2)
    assert ideal.k == 2
    assert len(ideal.generators) == 1
    expected = p("2*(l12*l34 - l13*l24 + l14*l23)*x1*x2*x3*x4", ps.table)
    assert ideal.generators[0] == expected


def test_degeneracy_ideal_validates_order():
    ps = sym(4)
    for bad in (-2, 1, 3, 4, 7):
        with pytest.raises(ValueError):
            degeneracy_ideal(ps, bad)
    ideal0 = degeneracy_ideal(ps, 0)
    assert len(ideal0.generators) == 6  # the bivector coefficients themselves


def test_rank_stratification_example():
    one = GaussRational(1)
    zero = GaussRational(0)
    full = {"x1": one, "x2": one, "x3": one, "x4": one}
    assert rank_at(NUM4, full) == 4
    assert rank_at(NUM4, {**full, "x1": zero}) == 2
    assert rank_at(NUM4, {name: zero for name in full}) == 0


def _reference_rref(rows, ncols):
    """Gauss-Jordan that scans every open row for each column and every
    row for each pivot; the pivot is the first open row holding it."""
    zero, one = GaussRational.zero(), GaussRational.one()
    work = [{c: v for c, v in r.items() if not v.is_zero()} for r in rows]
    work = [r for r in work if r]
    pivots = []
    done = []
    col = 0
    while col < ncols and work:
        hit = None
        for idx, row in enumerate(work):
            if col in row:
                hit = idx
                break
        if hit is None:
            col += 1
            continue
        pivot_row = work.pop(hit)
        inv = one / pivot_row[col]
        pivot_row = {c: v * inv for c, v in pivot_row.items()}
        for target in (work, done):
            for idx, row in enumerate(target):
                if col in row:
                    factor = row[col]
                    new = dict(row)
                    for c, v in pivot_row.items():
                        acc = new.get(c, zero) - factor * v
                        if acc.is_zero():
                            new.pop(c, None)
                        else:
                            new[c] = acc
                    target[idx] = new
        work = [r for r in work if r]
        done.append(pivot_row)
        pivots.append(col)
        col += 1
    return done, pivots


def _scalar(rng):
    return GaussRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                         Fraction(rng.choice((0, 0, rng.randint(-3, 3))),
                                  rng.randint(1, 3)))


def _huge(rng):
    return GaussRational(rng.randrange(-10 ** 150, 10 ** 150),
                         rng.randrange(-10 ** 150, 10 ** 150))


def _skew_sum(rng, n, pairs, scalar):
    """The skew matrix sum_p u_p v_p^T - v_p u_p^T of random u_p, v_p."""
    matrix = [[GaussRational.zero()] * n for _ in range(n)]
    for _ in range(pairs):
        u = [scalar(rng) for _ in range(n)]
        v = [scalar(rng) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                matrix[i][j] = matrix[i][j] + u[i] * v[j] - v[i] * u[j]
    return matrix


def test_rank_at_matches_the_scan_reference():
    """rank_at on constant bivectors sum_p u_p ^ v_p, of rank at most
    2 * (number of pairs), against the scan-based reference rref: random
    ones on 2 to 7 coordinates, rank 0, 2 and full on 8 to 13, and a full
    rank one on 13 whose entries have 300-digit parts."""
    rng = random.Random("rank-at-skew")
    matrices = []
    for _ in range(150):
        n = rng.randint(2, 7)
        matrices.append(_skew_sum(rng, n, rng.randint(0, n // 2), _scalar))
    for n in range(8, 14):
        matrices += [_skew_sum(rng, n, pairs, _scalar)
                     for pairs in (0, 1, n // 2)]
    matrices.append(_skew_sum(rng, 13, 6, _huge))
    deficient = 0
    for matrix in matrices:
        n = len(matrix)
        table = VariableTable(tuple(f"x{k}" for k in range(1, n + 1)))
        terms = {(i, j): Polynomial.constant(table, matrix[i][j])
                 for i in range(n) for j in range(i + 1, n)
                 if not matrix[i][j].is_zero()}
        ps = PoissonStructure(Multivector(table, 2, terms))
        point = {name: _scalar(rng) for name in table.coordinates}
        rows = [dict(enumerate(row)) for row in matrix]
        _, pivots = _reference_rref(rows, n)
        assert rank_at(ps, point) == len(pivots)
        deficient += len(pivots) < n
    assert deficient > 100


def test_rank_at_borders_one_nonzero_pfaffian(monkeypatch):
    """n = 13 at rank 6: growing one nonzero Pf(A_S) a pair at a time
    fills 346 memo entries, where checking every Pfaffian of size 8
    filled 2,599."""
    memos = []

    class Recorded(structures._PfaffianMemo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(structures, "_PfaffianMemo", Recorded)
    matrix = _skew_sum(random.Random("rank-at-bordered"), 13, 3, _scalar)
    table = VariableTable(tuple(f"x{k}" for k in range(1, 14)))
    ps = PoissonStructure(Multivector(table, 2, {
        (i, j): Polynomial.constant(table, matrix[i][j])
        for i in range(13) for j in range(i + 1, 13)
        if not matrix[i][j].is_zero()}))
    assert rank_at(ps, {}) == 6
    assert len(memos) == 1 and len(memos[0]) <= 400


def test_invariant_hypersurface():
    T = NUM4.table
    assert invariant_hypersurface(NUM4, p("x1", T))
    assert invariant_hypersurface(NUM4, p("x1*x2", T))
    assert not invariant_hypersurface(NUM4, p("x1 + x2", T))
    with pytest.raises(ValueError):
        invariant_hypersurface(NUM4, p("0", T))


def test_restrict_hyperplane_gives_sub_block():
    restricted = restrict_hyperplane(NUM4, "x4")
    assert restricted.table.coordinates == ("x1", "x2", "x3")
    # surviving entries are l12, l13, l23 of the ambient structure
    expected = num(3, [2, 3, 7])
    assert restricted.bivector == expected.bivector
    assert restricted.integrable is True


def test_restrict_hyperplane_reads_a_coordinate_name_only():
    restricted = restrict_hyperplane(NUM4, "x4")
    assert restricted.table.coordinates == ("x1", "x2", "x3")
    # an index is no coordinate name: "not a coordinate: 3"
    for name in ("x9", "l12", 3):
        with pytest.raises(KeyError) as refused:
            restrict_hyperplane(sym(4), name)
        assert refused.value.args == (f"not a coordinate: {name!r}",)


def _invariant_by_brackets(ps, f):
    """The reference: {x_m, f} lies in (f) for every coordinate x_m."""
    return all(reduce_mod(poisson_bracket(
        ps, Polynomial.variable(ps.table, name), f), f)[1].is_zero()
        for name in ps.table.coordinates)


def test_invariance_agrees_with_a_bracket_per_coordinate():
    rng = random.Random("invariance")
    T = VariableTable(("x1", "x2", "x3", "x4"), ("a",))
    seen = set()
    for _ in range(30):
        f = random_polynomial(rng, T, 3, 2)
        if f.is_zero():
            continue
        base = random_element(rng, T, 2, max_components=3)
        tail = Multivector(T, 2, {(2, 3): random_polynomial(rng, T, 2, 2)})
        # on f*B every bracket {x_m, f} is a multiple of f; a tail on
        # xi_3^xi_4 can break only the brackets of x3 and x4
        for bivector in (base, base * f, base * f + tail):
            ps = PoissonStructure(bivector)
            field = hamiltonian(ps, f)
            for m, name in enumerate(T.coordinates):
                x = Polynomial.variable(T, name)
                assert field.terms.get((m,), Polynomial.zero(T)) == \
                    -poisson_bracket(ps, x, f)
            expected = _invariant_by_brackets(ps, f)
            assert invariant_hypersurface(ps, f) is expected
            seen.add(expected)
    assert seen == {True, False}


def test_restrict_rejects_non_invariant():
    T = NUM4.table
    tilt = PoissonStructure(
        NUM4.bivector + Multivector(T, 2, {(0, 1): p("x2^2", T)}))
    with pytest.raises(ValueError):
        restrict_hyperplane(tilt, "x1")


def test_chart_transition_plane():
    spec = DiagonalSpec(2, {(1, 2): "l"})
    ps = make_diagonal(spec)
    names = ("x0", "x1", "x2")
    moved = chart_transition(ps.bivector, names, 0, 1)
    T = moved.table
    assert T.coordinates == ("x0", "x2")
    assert moved == Multivector(T, 2, {(0, 1): p("-l*x0*x2", T)})


def test_chart_cycle_is_identity():
    spec = DiagonalSpec(2, {(1, 2): "l"})
    ps = make_diagonal(spec)
    names = ("x0", "x1", "x2")
    there = chart_transition(ps.bivector, names, 0, 1)
    back = chart_transition(there, names, 1, 0)
    assert back.table.coordinates == ("x1", "x2")
    assert back == ps.bivector


def test_chart_extend_quadratic_on_all_charts():
    ps = sym(4)
    for target in range(5):
        moved = chart_extend(ps, target)
        assert jacobi_check(moved).is_zero()
        for coeff in moved.bivector.terms.values():
            assert coeff.coordinate_degree() <= 2
    assert chart_extend(ps, 0) is ps


def test_chart_degree_three_extends_but_four_does_not():
    # on two coordinates the transition weight cancels degree exactly 3
    T = VariableTable(("x1", "x2"))
    cubic = PoissonStructure(
        Multivector(T, 2, {(0, 1): p("x1^3", T)}))
    moved = chart_extend(cubic, 1)
    M = moved.table
    assert moved.bivector == Multivector(M, 2, {(0, 1): p("-1", M)})
    quartic = PoissonStructure(
        Multivector(T, 2, {(0, 1): p("x1^4", T)}))
    with pytest.raises(ValueError):
        chart_extend(quartic, 1)


def test_a_taken_chart_zero_name_is_refused():
    # the default x0 names a parameter here, so the input already has X_0
    T = VariableTable(("x1", "x2"), ("x0",))
    ps = PoissonStructure(Multivector(T, 2, {(0, 1): p("x0*x1*x2", T)}))
    for args, name in (((), "x0"), (("x2",), "x2"), (("x0",), "x0")):
        with pytest.raises(ValueError) as refused:
            chart_extend(ps, 1, *args)
        assert str(refused.value) == (
            f"chart zero name {name!r} is already a variable")
    assert chart_extend(ps, 1, "u0").table.coordinates == ("u0", "x2")
    # the command line refuses an explicit taken name the same way
    proc = subprocess.run(
        [sys.executable, "-m", "poissonkit.cli", "chart", "--in",
         str(Path(__file__).parent / "golden" / "inputs" / "diag4.mv"),
         "--target", "1", "--zero-name", "x2"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: chart zero name 'x2' is already a variable\n"


def test_degeneracy_divisor_ambient_six():
    ps = sym(6)
    divisor = degeneracy_divisor(ps)
    T = ps.table
    assert divisor.power == 3
    assert divisor.support_product == p("x1*x2*x3*x4*x5*x6", T)
    assert divisor.support_size() == 6
    # top power generator is Pf * product, so the monomial gcd carries it
    assert divisor.monomial_gcd == p("x1*x2*x3*x4*x5*x6", T)
