"""Independent checks on every workload's results.

Each check takes plain data (ints, Fractions, complex numbers, text) and
returns a list of problems, empty when the answer is right.  The expected
values come from the benchmark's own integer and complex arithmetic
below, never from poissonkit.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

TRACEBACK = "Traceback (most recent call last)"
TRACK_TOL = 1e-12


def lam(entries: dict, a: int, b: int) -> int:
    """Skew entry lambda_ab over homogeneous indices; index 0 reads 0."""
    if a == 0 or b == 0 or a == b:
        return 0
    return entries[(a, b)] if a < b else -entries[(b, a)]


def chart_matrix(entries: dict, n: int, c: int) -> list:
    """M_c[a][b] = lambda_ab - lambda_ac - lambda_cb for a, b != c."""
    idx = [a for a in range(n + 1) if a != c]
    return [[lam(entries, a, b) - lam(entries, a, c) - lam(entries, c, b)
             for b in idx] for a in idx]


def pfaffian(matrix: list) -> int:
    """Pfaffian of a skew integer matrix by expansion along the first row."""
    memo = {}

    def rec(rows: tuple) -> int:
        if not rows:
            return 1
        if rows in memo:
            return memo[rows]
        first, rest = rows[0], rows[1:]
        total = 0
        for pos, j in enumerate(rest):
            if matrix[first][j]:
                sign = -1 if pos % 2 else 1
                total += sign * matrix[first][j] * rec(rest[:pos] + rest[pos + 1:])
        memo[rows] = total
        return total

    return rec(tuple(range(len(matrix))))


def curl_eigenvalues(entries: dict, n: int) -> list:
    return [sum(lam(entries, i, j) for j in range(1, n + 1))
            for i in range(1, n + 1)]


def chart_coordinates(n: int, c: int) -> tuple:
    """Affine coordinate names of chart c of P^n, as chart_extend orders them."""
    if c == 0:
        return tuple(f"x{k}" for k in range(1, n + 1))
    return tuple(f"x{k}" for k in range(n + 1) if k != c)


def expected_top_coefficient(entries: dict, n: int, c: int) -> int:
    """(n/2)! * Pf(M_c): the coefficient of the top generator on chart c."""
    return math.factorial(n // 2) * pfaffian(chart_matrix(entries, n, c))


def check_chart(verdict: dict, expected: int, n: int, c: int) -> list:
    """A chart of P^n degenerates along its n coordinate hyperplanes.

    `verdict` holds the chart's coordinate names, whether [Pi, Pi] is
    zero, the top nonvanishing power, its generators as
    {exponents: (re, im)} maps, and the divisor's support and gcd
    exponents.  The top power must be n/2 with a single generator
    (n/2)! Pf(M_c) x_1...x_n, so the divisor is reduced with normal
    crossings.
    """
    problems = []
    ones = (1,) * n
    if expected == 0:
        problems.append(f"chart {c}: Pf(M_c) is zero, spec is not generic")
    if tuple(verdict["coordinates"]) != chart_coordinates(n, c):
        problems.append(f"chart {c}: coordinates {verdict['coordinates']}")
    if not verdict["jacobi_zero"]:
        problems.append(f"chart {c}: [Pi, Pi] is not zero")
    if verdict["power"] != n // 2:
        problems.append(f"chart {c}: top power {verdict['power']} != {n // 2}")
    if verdict["generators"] != [{ones: (Fraction(expected), Fraction(0))}]:
        problems.append(f"chart {c}: top generator is not "
                        f"{expected}*x1*...*x{n}: {verdict['generators']}")
    if tuple(verdict["support"]) != ones or tuple(verdict["gcd"]) != ones:
        problems.append(f"chart {c}: divisor is not the reduced product "
                        f"of the {n} coordinate hyperplanes")
    return problems


def check_rigidity(N: int, dimension: int, basis: list) -> list:
    """Dimension C(N,2); basis exactly {x_k x_l xi_k^xi_l : k < l}.

    `basis` lists each certified vector as (indices, {exponents: (re, im)}).
    """
    problems = []
    if dimension != math.comb(N, 2):
        problems.append(f"N={N}: dimension {dimension} != {math.comb(N, 2)}")
    expected = set()
    for k in range(N):
        for l in range(k + 1, N):
            exps = tuple(1 if m in (k, l) else 0 for m in range(N))
            expected.add(((k, l), exps))
    got = []
    for indices, coeff in basis:
        if len(coeff) != 1:
            problems.append(f"N={N}: basis vector on {indices} is not a monomial")
            continue
        (exps, value), = coeff.items()
        if value != (1, 0):
            problems.append(f"N={N}: basis coefficient {value} != 1")
        got.append((tuple(indices), tuple(exps)))
    if len(got) != len(set(got)) or set(got) != expected:
        problems.append(f"N={N}: basis is not the diagonal monomials")
    return problems


def origin_image(steps: list, n: int, t: complex) -> list:
    """Phi_t(0): the origin pushed along the family's steps in order."""
    point = [0j] * n
    for step in steps:
        if step[0] == "translation":
            _, coord, a1, a2 = step
            point[coord - 1] += float(a1) * t + float(a2) * t * t
        else:
            for coord, scale in step[1].items():
                point[coord - 1] *= float(scale)
    return point


def check_track(gamma, residual: float, jet0: float, jet1: float,
                expected: list, tol: float) -> list:
    problems = []
    if len(gamma) != len(expected):
        return [f"gamma has {len(gamma)} coordinates, expected {len(expected)}"]
    drift = max(abs(g - e) for g, e in zip(gamma, expected))
    if not drift <= 1e-8:
        problems.append(f"|gamma - Phi_t(0)| = {drift:.3e} > 1e-8")
    if not residual <= tol:
        problems.append(f"residual {residual:.3e} > {tol}")
    if not (jet0 <= 1e-6 and jet1 <= 1e-6):
        problems.append(f"jets {jet0:.3e}, {jet1:.3e} above 1e-6")
    return problems


def check_suite(name: str, failures: int) -> list:
    return [f"suite {name!r}: {failures} failures"] if failures else []


def live_block_rank(entries: dict, point: list) -> int:
    """Rank of (lambda_ij p_i p_j): the rank of Lambda on the live indices."""
    live = [k for k in range(1, len(point) + 1) if point[k - 1] != 0]
    rows = [[Fraction(lam(entries, a, b)) for b in live] for a in live]
    rank = 0
    for col in range(len(live)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def diagonal_document(entries: dict, n: int) -> dict:
    """The canonical bivector document of sum lambda_ij x_i x_j xi_i^xi_j."""
    terms = [{"coeff": str(entries[(i, j)]),
              "exponents": {f"x{i}": 1, f"x{j}": 1},
              "indices": [i - 1, j - 1]}
             for (i, j) in sorted(entries)]
    return {"kind": "multivector",
            "coordinates": [f"x{k}" for k in range(1, n + 1)],
            "parameters": [], "degree": 2, "terms": terms,
            "integrable": "true"}


def check_cli(kind: str, code: int, out: str, err: str, expect: dict) -> list:
    """Check one CLI call against its expected exit code and output."""
    problems = []
    if code != expect["code"]:
        problems.append(f"{kind}: exit {code}, expected {expect['code']}")
    if TRACEBACK in err:
        problems.append(f"{kind}: traceback on stderr")
    if problems or expect["code"] != 0:
        return problems
    try:
        if kind == "diagonal-random":
            doc = json.loads(out)
            n = expect["n"]
            ok = (doc["kind"] == "diagonal-spec" and doc["n"] == n
                  and len(doc["entries"]) == math.comb(n, 2)
                  and all(int(e["value"]) for e in doc["entries"]))
            if not ok:
                problems.append(f"{kind}: not a generic integer spec on C^{n}")
        elif kind == "diagonal-in":
            if json.loads(out) != expect["document"]:
                problems.append(f"{kind}: bivector differs from lambda_ij x_i x_j")
        elif kind == "jacobi":
            if out != "0\n":
                problems.append(f"{kind}: printed {out!r}, expected '0'")
        elif kind == "degeneracy":
            n = expect["n"]
            want = f"{expect['coefficient']}*" + "*".join(
                f"x{k}" for k in range(1, n + 1)) + "\n"
            if out != want:
                problems.append(f"{kind}: printed {out!r}, expected {want!r}")
        elif kind == "rank":
            if int(out) != expect["rank"]:
                problems.append(f"{kind}: {out.strip()} != {expect['rank']}")
        elif kind == "parse":
            if out != expect["text"]:
                problems.append(f"{kind}: canonical document not reprinted")
        elif kind == "track":
            record = json.loads(out)
            gamma = [complex(re, im) for re, im in record["gamma"]]
            problems += check_track(gamma, record["residual"], record["jet0"],
                                    record["jet1"], expect["point"],
                                    expect["tol"])
        elif kind == "rigidity":
            N = expect["N"]
            want = f"dimension: {math.comb(N, 2)}\ndiagonal: true\n"
            if out != want:
                problems.append(f"{kind}: printed {out!r}")
        elif kind == "chart":
            coordinates = json.loads(out)["coordinates"]
            if coordinates != list(expect["coordinates"]):
                problems.append(f"{kind}: chart coordinates {coordinates}")
        else:
            problems.append(f"unknown verb kind {kind!r}")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{kind}: unreadable output ({exc})")
    return problems
