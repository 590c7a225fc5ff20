"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `criterion NN PASS/FAIL` line and enforces the
stated tolerance and wall-clock budget.  Everything except jet
evaluation is exact arithmetic, so a failure here is a real defect,
never noise.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from poissonkit import (DeformationFamily, DiagonalScaling, DiagonalSpec,
                        GaussRational, Multivector, Polynomial, Translation,
                        TriangularShear, chart_extend, curl, curl_eigenvalues,
                        degeneracy_divisor, diagonality_constraints,
                        is_generic, jacobi_check, jet_vanishing, make_diagonal,
                        parse_polynomial, pfaffian, pushforward,
                        random_generic_spec, rank_at, restrict_hyperplane,
                        schouten, serialize, simplex_multiplicity_filter,
                        solve_rigidity, track_degenerate_point, VolumeCurl,
                        wedge_power)
from poissonkit.randomized import SUITES


def report(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def determinant(matrix):
    """Exact determinant by elimination with row swaps."""
    n = len(matrix)
    work = [list(row) for row in matrix]
    det = GaussRational.one()
    for col in range(n):
        hit = None
        for idx in range(col, n):
            if not work[idx][col].is_zero():
                hit = idx
                break
        if hit is None:
            return GaussRational.zero()
        if hit != col:
            work[col], work[hit] = work[hit], work[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        inv = GaussRational.one() / pivot
        for idx in range(col + 1, n):
            factor = work[idx][col] * inv
            if factor.is_zero():
                continue
            for j in range(col, n):
                work[idx][j] = work[idx][j] - factor * work[col][j]
    return det


def reference_rank(matrix):
    """Exact rank as the size of the largest nonzero minor."""
    n = len(matrix)
    for k in range(n, 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                minor = [[matrix[i][j] for j in cols] for i in rows]
                if not determinant(minor).is_zero():
                    return k
    return 0


def numeric_spec(n, values):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return DiagonalSpec(n, {pair: GaussRational(v)
                            for pair, v in zip(pairs, values)})


def test_criterion_01_algebra_laws():
    start = time.monotonic()
    suites = dict(SUITES)
    checks = (
        ("wedge supercommutativity", suites["wedge supercommutativity"]),
        ("graded antisymmetry", suites["bracket graded antisymmetry"]),
        ("graded Leibniz", suites["bracket graded Leibniz"]),
        ("graded Jacobi", suites["bracket graded Jacobi"]),
    )
    failures = {name: fn(random.Random(f"acceptance1:{name}"), 200)
                for name, fn in checks}
    elapsed = time.monotonic() - start
    ok = all(v == 0 for v in failures.values()) and elapsed < 60.0
    report(1, ok, f"4 x 200 exact law checks, failures {failures}, "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_02_diagonal_integrability():
    start = time.monotonic()
    ok = True
    for n in range(3, 9):
        ps = make_diagonal(DiagonalSpec.symbolic(n))
        ok = ok and jacobi_check(ps).is_zero()
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(2, ok, f"symbolic jacobi_check = 0 for n = 3..8, "
                  f"{elapsed:.1f}s (< 10s)")


def test_criterion_03_curl_is_poisson_field():
    rng = random.Random("acceptance3")
    ok = True
    checked = 0
    # 50 instances: diagonal structures and their pushforwards
    while checked < 50:
        n = rng.choice((2, 3, 4, 5, 6))
        spec = random_generic_spec(n, rng, bound=50)
        biv = make_diagonal(spec).bivector
        if checked % 2 == 1:
            table = biv.table
            steps = []
            for _ in range(rng.randint(1, 2)):
                roll = rng.randrange(3)
                coord = rng.choice(table.coordinates[:-1])
                if roll == 0:
                    steps.append(Translation(
                        table, coord,
                        Polynomial.constant(table, rng.randint(-3, 3))))
                elif roll == 1:
                    steps.append(DiagonalScaling(table, {
                        name: GaussRational(rng.choice((1, 2, 3, -1, -2)))
                        for name in table.coordinates}))
                else:
                    later = table.coordinates[table.slot(coord) + 1:]
                    shear = Polynomial.monomial(
                        table, {rng.choice(later): rng.randint(1, 2)},
                        GaussRational(rng.randint(-2, 2)))
                    if shear.is_zero():
                        continue
                    steps.append(TriangularShear(table, coord, shear))
            biv = pushforward(steps, biv)
        ok = ok and schouten(curl(biv), biv).is_zero()
        checked += 1
    # mu formula, symbolically, through n = 8
    for n in range(2, 9):
        spec = DiagonalSpec.symbolic(n)
        T = spec.table()
        mu = curl_eigenvalues(spec)
        total = Polynomial.zero(T)
        field = curl(make_diagonal(spec).bivector)
        for i in range(n):
            total = total + mu[i]
            ok = ok and field.terms.get((i,), Polynomial.zero(T)) == \
                mu[i] * Polynomial.variable(T, f"x{i + 1}")
        ok = ok and total.is_zero()
    report(3, ok, "[curl(Pi), Pi] = 0 on 50 instances; mu formula and "
                  "sum mu = 0 symbolic for n <= 8")


def test_criterion_04_pfaffian_factorization():
    start = time.monotonic()
    ok = True
    for m in (1, 2, 3, 4):
        spec = DiagonalSpec.symbolic(2 * m)
        ps = make_diagonal(spec)
        T = ps.table
        top = wedge_power(ps.bivector, m)
        coords = Polynomial.monomial(
            T, {f"x{k}": 1 for k in range(1, 2 * m + 1)})
        pf = pfaffian(spec.lambda_matrix(T))
        expected = Multivector(
            T, 2 * m,
            {tuple(range(2 * m)): coords * pf * GaussRational(factorial(m))})
        ok = ok and top == expected
    rng = random.Random("acceptance4")
    for _ in range(50):
        spec = DiagonalSpec(6, {(i, j): GaussRational(rng.randint(-20, 20))
                                for i in range(1, 7)
                                for j in range(i + 1, 7)})
        matrix = [[spec.entry_scalar(i, j) for j in range(1, 7)]
                  for i in range(1, 7)]
        pf = pfaffian(matrix)
        ok = ok and pf * pf == determinant(matrix)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(4, ok, f"Pi^m = m! Pf x..xi.. for m = 1..4 symbolic; Pf^2 = det "
                  f"on 50 random 6x6; {elapsed:.1f}s (< 30s)")


def test_criterion_05_rank_stratification():
    rng = random.Random("acceptance5")
    ok = True
    for m in (1, 2, 3):
        n = 2 * m
        spec = random_generic_spec(n, rng, bound=100)
        ps = make_diagonal(spec)
        lam = [[spec.entry_scalar(i, j) for j in range(1, n + 1)]
               for i in range(1, n + 1)]
        for s in range(n + 1):
            for _ in range(4):
                zeros = set(rng.sample(range(1, n + 1), s))
                point = {}
                for k in range(1, n + 1):
                    point[f"x{k}"] = GaussRational(0) if k in zeros \
                        else GaussRational(rng.randint(1, 40))
                rank = rank_at(ps, point)
                alive = [k for k in range(1, n + 1) if k not in zeros]
                block = [[lam[i - 1][j - 1] for j in alive] for i in alive]
                block_rank = reference_rank(block)
                # exact identity: rank equals the rank of the live block
                ok = ok and rank == block_rank
                # rank bounds for s vanishing coordinates
                ok = ok and max(n - 2 * s, 0) <= rank <= n - s
                # generic lambda: the live block has full even rank
                ok = ok and block_rank == 2 * ((n - s) // 2)
                if s <= 1:
                    ok = ok and rank == n - 2 * s
    report(5, ok, "rank at points on s hyperplanes: equals live-block rank, "
                  "inside [2m-2s, 2m-s], generic value 2*floor((2m-s)/2), "
                  "m <= 3, all s, exact")


def test_criterion_06_rigidity_dimensions():
    ok = True
    timed = None
    for N in range(2, 7):
        start = time.monotonic()
        dimension, basis = solve_rigidity(diagonality_constraints(N))
        elapsed = time.monotonic() - start
        if N == 5:
            timed = elapsed
        ok = ok and dimension == comb(N, 2) and len(basis) == dimension
        seen = set()
        for vector in basis:
            (indices, coeff), = vector.sorted_terms()
            k, l = indices
            seen.add((k, l))
            ok = ok and coeff == Polynomial.monomial(
                vector.table, {f"x{k + 1}": 1, f"x{l + 1}": 1})
        ok = ok and seen == {(k, l) for k in range(N)
                             for l in range(k + 1, N)}
    ok = ok and timed is not None and timed < 30.0
    report(6, ok, f"solution space dimension C(N,2), basis fully diagonal, "
                  f"N = 2..6; N = 5 in {timed:.1f}s (< 30s)")


def test_criterion_07_simplex_filter():
    start = time.monotonic()
    ok = True
    for k in range(1, 7):
        result = simplex_multiplicity_filter(k)
        ok = ok and len(result.survivors) == 1
        ok = ok and result.survivors[0] == (1,) * (k + 1)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(7, ok, f"unique square-free survivor for k = 1..6 by exhaustive "
                  f"enumeration, {elapsed:.1f}s (< 5s)")


TRACK_BASE = numeric_spec(4, [2, 3, 5, 7, 11, 13])
TRACK_DRIFT = (0.5, 0.0, -2.0, 0.0)


def _translation_family():
    return DeformationFamily.build(TRACK_BASE, [
        ("translation", "x1", "1/2*t"),
        ("translation", "x3", "-2*t"),
    ])


def _tracked_points(family):
    points = []
    for t in (0.1, -0.1, 0.05, -0.02, 0.03 + 0.04j, 0.07j):
        points.append((t, track_degenerate_point(family, t)))
    return points


def test_criterion_08_degenerate_point_tracking():
    family = _translation_family()
    ok = True
    worst = 0.0
    for t, result in _tracked_points(family):
        for value, c in zip(result.gamma, TRACK_DRIFT):
            worst = max(worst, abs(value - t * c))
        ok = ok and worst <= 1e-8
        ok = ok and result.jet0 <= 1e-6 and result.jet1 <= 1e-6
        # the square of the bivector vanishes to order >= 4 = 2m at r = 3
        square = wedge_power(family.bivector(), 2)
        point = {f"x{k + 1}": result.gamma[k] for k in range(4)}
        point["t"] = complex(t)
        ok = ok and jet_vanishing(square, point, r=3) == 4
    report(8, ok, f"|gamma(t) - t*c| <= 1e-8 for |t| <= 0.1 (worst "
                  f"{worst:.2e}); 0-jet and 1-jet below 1e-6; Pi^2 order "
                  f">= 4 at r = 3")


def test_criterion_09_volume_form_independence():
    family = _translation_family()
    T = family.table
    units = ["1", "3", "1 + x1", "2 + x2^2", "1 + x1 + x2", "1/2 + x4",
             "1 + x1*x3", "5 + x3^2", "1 + 2*x2", "7 + x1^2"]
    zero = Polynomial.zero(T)
    ok = True
    for t, result in _tracked_points(family):
        # the exact tracked point, with t read exactly from its double
        t = complex(t)
        values = dict(zip(T.coordinates, result.point))
        values["t"] = GaussRational(t.real, t.imag)
        for text in units:
            u = parse_polynomial(text, T)
            field = curl(family.bivector(), u)
            # a constant unit gives the plain curl, a Multivector
            main, correction = ((field.main, field.correction)
                                if isinstance(field, VolumeCurl) else
                                (field, Multivector.zero(T, 1)))
            u_value = u.evaluate(values)
            ok = ok and not u_value.is_zero()
            for ix in set(main.terms) | set(correction.terms):
                value = (main.terms.get(ix, zero).evaluate(values)
                         + correction.terms.get(ix, zero).evaluate(values)
                         / u_value)
                ok = ok and value.is_zero()
    report(9, ok, "curl w.r.t. u * standard volume is exactly 0 at every "
                  "exact tracked point for 10 units, each nonzero there")


def test_criterion_10_restriction_divisor():
    spec = random_generic_spec(6, random.Random("acceptance10"))
    ps = make_diagonal(spec)
    ambient = degeneracy_divisor(ps)
    restricted = restrict_hyperplane(ps, "x6")
    divisor = degeneracy_divisor(restricted)
    T = restricted.table
    ok = divisor.power == 2
    ok = ok and divisor.support_product == parse_polynomial(
        "x1*x2*x3*x4*x5", T)
    ok = ok and divisor.monomial_gcd == Polynomial.one(T)
    ok = ok and ambient.support_size() == 6 > divisor.support_size() == 5
    report(10, ok, "restriction to x6 = 0 has degeneracy support "
                   "x1*x2*x3*x4*x5 (5 < 6 ambient factors), exact")


def test_criterion_11_cli_round_trip_and_exit_codes(tmp_path):
    spec = numeric_spec(4, [2, 3, 5, 7, 11, 13])
    ps = make_diagonal(spec)
    family = _translation_family()
    corpus = {
        "diag4.mv": ps,
        "diag4.spec": spec,
        "diag5.spec": numeric_spec(5, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
        "fam4.json": family,
    }
    for name, obj in corpus.items():
        (tmp_path / name).write_text(serialize(obj))

    def run(*argv, **kw):
        return subprocess.run([sys.executable, "-m", "poissonkit.cli", *argv],
                              capture_output=True, text=True, **kw)

    ok = True
    for name in corpus:
        source = tmp_path / name
        out = tmp_path / ("rt_" + name)
        proc = run("parse", "--in", str(source), "--out", str(out))
        ok = ok and proc.returncode == 0
        ok = ok and out.read_bytes() == source.read_bytes()
    checks = [
        (("jacobi", "--in", str(tmp_path / "diag4.mv")), 0, "0"),
        (("rank", "--in", str(tmp_path / "diag4.mv"),
          "--point", "0,1,1,1"), 0, "2"),
        (("rigidity", "--dim", "5"), 0, None),
        (("invariant", "--in", str(tmp_path / "diag4.mv"),
          "--f", "x1 + x2"), 1, "false"),
        (("parse", "--in", str(tmp_path / "absent.json")), 2, None),
        (("bracket", "--in", str(tmp_path / "diag4.mv"),
          "--f", "x1 +*", "--g", "x2"), 2, None),
        (("mystery-verb",), 2, None),
    ]
    for argv, want_code, want_out in checks:
        proc = run(*argv)
        ok = ok and proc.returncode == want_code
        if want_out is not None:
            ok = ok and proc.stdout.strip() == want_out
    proc = run("rigidity", "--dim", "5")
    ok = ok and "dimension: 10" in proc.stdout \
        and "diagonal: true" in proc.stdout
    report(11, ok, "byte-exact parse round-trip on 4 document kinds; exit "
                   "codes 0/1/2 verified end to end")


def _complex_generic_spec(n, rng):
    """Generic spec whose entries have non-unit denominators and imaginary
    parts, so the whole pipeline runs off the integer fast paths."""
    while True:
        spec = DiagonalSpec(n, {
            (i, j): GaussRational(
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 9)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        values = spec.entries.values()
        if (is_generic(spec) and any(v.re.denominator > 1 for v in values)
                and any(v.im != 0 for v in values)):
            return spec


def test_criterion_12_projective_normal_crossing_divisor():
    rng = random.Random("acceptance12")
    start = time.monotonic()
    ok = True
    charts = 0
    for n in (1, 2, 3, 4, 5, 6):
        spec = _complex_generic_spec(2 * n, rng)
        ps = make_diagonal(spec)
        ok = ok and ps.integrable is True
        pf = pfaffian([[spec.entry_scalar(i, j) for j in range(1, 2 * n + 1)]
                       for i in range(1, 2 * n + 1)])
        for c in range(2 * n + 1):
            chart = chart_extend(ps, c)
            T = chart.table
            hyperplanes = Polynomial.monomial(T, {x: 1 for x in T.coordinates})
            divisor = degeneracy_divisor(chart)
            ok = ok and len(T.coordinates) == 2 * n
            ok = ok and jacobi_check(chart).is_zero()
            ok = ok and divisor.power == n
            ok = ok and divisor.support_product == hyperplanes
            ok = ok and divisor.monomial_gcd == hyperplanes
            # F = Pf(Lambda) X_0 ... X_2n with X_c = 1, as the coefficient
            # n! (-1)^c Pf(Lambda) of Pi^n on chart c
            ok = ok and divisor.generators == (Polynomial.monomial(
                T, {x: 1 for x in T.coordinates},
                (-1) ** c * factorial(n) * pf),)
            charts += 1
    elapsed = time.monotonic() - start
    ok = ok and charts == 3 + 5 + 7 + 9 + 11 + 13 and elapsed < 30.0
    report(12, ok, f"generic Q(i) diagonal structures on P^2 to P^12: on "
                   f"all {charts} charts [Pi, Pi] = 0 and the degeneracy "
                   f"divisor is the reduced product of the visible "
                   f"hyperplanes, its one generator n! (-1)^c Pf(Lambda) "
                   f"times that product; {elapsed:.1f}s (< 30s)")
