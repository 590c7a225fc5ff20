"""Seeded inputs for the five workloads, in plain Python.

Nothing here imports poissonkit: the same integers feed the library and
the independent oracles, and the CLI workload builds its argument lists
without loading the library into the measuring process.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from fractions import Fraction

from oracles import (TRACK_TOL, chart_coordinates, chart_matrix,
                     curl_eigenvalues, diagonal_document,
                     expected_top_coefficient, live_block_rank, origin_image,
                     pfaffian)

# projective_divisor: two generic specs on C^8 per round.  Entries up to
# 10^6 make every product a big integer.  Rounds stay short (about 2 s)
# so that each chart is timed in many rounds; 2n = 10 takes 4 s a spec.
PROJECTIVE_SIZES = (8, 8)
PROJECTIVE_BOUND = 10 ** 6

# rigidity: one certified dimension per N (N = 8 alone takes 2.4 s).
RIGIDITY_DIMS = (4, 5, 6, 7)

# track: small entries keep curl residuals far below the tracker's 1e-12
# tolerance, so no seed can make a Newton step stall.
TRACK_SIZES = (4, 4, 6)
TRACK_BOUND = 9
TRACK_RADII = (0.05, 0.2, 0.5, 1.0)
TRACK_ANGLES = (math.pi / 8, 5 * math.pi / 8, 9 * math.pi / 8, 13 * math.pi / 8)

# identity_suites: each suite runs on SUITE_DRAWS seeded draws per round,
# SUITE_CASES cases each.  Short calls keep best-of-rounds times steady;
# several draws average the cost of the random elements.
SUITE_CASES = 30
SUITE_DRAWS = 4

# cli: the structure every verb reads lives on C^4 (P^4 for `chart`).
CLI_SIZE = 4
CLI_CHART_TARGETS = (1, 2, 3, 4)
CLI_RIGIDITY_DIM = 4
CLI_DEEP_NESTING = 3000


def _draw(rng: random.Random, bound: int) -> int:
    value = 0
    while value == 0:
        value = rng.randint(-bound, bound)
    return value


def projective_spec(rng: random.Random, n: int, bound: int) -> dict:
    """Integer lambda_ij with Pf(M_c) != 0 on every chart of P^n."""
    while True:
        entries = {(i, j): _draw(rng, bound)
                   for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        if all(pfaffian(chart_matrix(entries, n, c)) for c in range(n + 1)):
            return entries


def family_base(rng: random.Random, n: int, bound: int) -> dict:
    """Integer lambda_ij passing the library's genericity test for even n:
    Pf != 0 and curl eigenvalues nonzero and pairwise distinct."""
    while True:
        entries = {(i, j): _draw(rng, bound)
                   for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        mu = curl_eigenvalues(entries, n)
        if (pfaffian(chart_matrix(entries, n, 0)) and all(mu)
                and len(set(mu)) == n):
            return entries


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(_draw(rng, 3), rng.choice((1, 2, 4)))


def family_steps(rng: random.Random, n: int) -> list:
    """Translations by a1*t + a2*t^2 and constant scalings.

    Every amount vanishes at t = 0, so the tracked point starts at the
    origin, where the diagonal base degenerates.
    """
    steps = []
    for kind in ("translation", "scaling", "translation", "translation"):
        if kind == "translation":
            coord = rng.randint(1, n)
            steps.append(("translation", coord,
                          _small_fraction(rng), _small_fraction(rng)))
        else:
            coords = rng.sample(range(1, n + 1), 2)
            steps.append(("scaling", {k: _small_fraction(rng) for k in coords}))
    return steps


def step_descriptor(step) -> tuple:
    """The library's DeformationFamily.build descriptor for one step."""
    if step[0] == "translation":
        _, coord, a1, a2 = step
        tail = f" + {a2}*t^2" if a2 > 0 else f" - {-a2}*t^2"
        return ("translation", f"x{coord}", f"{a1}*t{tail}")
    _, scales = step
    return ("scaling", {f"x{k}": str(v) for k, v in sorted(scales.items())})


def track_grid() -> list:
    return [r * cmath.exp(1j * a) for r in TRACK_RADII for a in TRACK_ANGLES]


def projective_inputs(seed: int) -> list:
    rng = random.Random(f"{seed}:projective_divisor")
    return [(n, projective_spec(rng, n, PROJECTIVE_BOUND))
            for n in PROJECTIVE_SIZES]


def rigidity_inputs(seed: int) -> list:
    dims = list(RIGIDITY_DIMS)
    random.Random(f"{seed}:rigidity").shuffle(dims)
    return dims


def track_inputs(seed: int) -> list:
    rng = random.Random(f"{seed}:track")
    return [(n, family_base(rng, n, TRACK_BOUND), family_steps(rng, n))
            for n in TRACK_SIZES]


def cli_inputs(seed: int) -> dict:
    rng = random.Random(f"{seed}:cli")
    n = CLI_SIZE
    spec = projective_spec(rng, n, PROJECTIVE_BOUND)
    base = family_base(rng, n, TRACK_BOUND)
    steps = family_steps(rng, n)
    zeros = set(rng.sample(range(1, n + 1), rng.randint(1, 2)))
    point = [0 if k in zeros else _draw(rng, 5) for k in range(1, n + 1)]
    t = TRACK_RADII[1] * cmath.exp(1j * rng.choice(TRACK_ANGLES))
    return {"spec": spec, "base": base, "steps": steps, "point": point,
            "t": t, "random_seed": rng.randint(0, 10 ** 6)}


CLI_DOCUMENTS = ("spec.json", "bivector.json", "family.json", "deep.json")


def deep_document(n: int) -> str:
    """A bivector document whose one coefficient nests CLI_DEEP_NESTING
    parentheses; the CLI contract asks for exit 2 without a traceback."""
    coeff = "(" * CLI_DEEP_NESTING + "1" + ")" * CLI_DEEP_NESTING
    doc = {"kind": "multivector",
           "coordinates": [f"x{k}" for k in range(1, n + 1)],
           "parameters": [], "degree": 2,
           "terms": [{"coeff": coeff, "exponents": {"x1": 1, "x2": 1},
                      "indices": [0, 1]}]}
    return json.dumps(doc, indent=2) + "\n"


def cli_calls(data: dict, docdir: str, bivector_text: str) -> list:
    """One round of the cli workload: (kind, verb argv, expectation)."""
    n = CLI_SIZE
    spec = data["spec"]
    path = {name: os.path.join(docdir, name) for name in CLI_DOCUMENTS}
    biv = path["bivector.json"]
    t_text = repr(data["t"])
    calls = [
        ("diagonal-random", ["diagonal", "--random", str(n),
                             "--seed", str(data["random_seed"])],
         {"code": 0, "n": n}),
        ("diagonal-in", ["diagonal", "--in", path["spec.json"]],
         {"code": 0, "document": diagonal_document(spec, n)}),
        ("jacobi", ["jacobi", "--in", biv], {"code": 0}),
    ]
    for c in CLI_CHART_TARGETS:
        calls.append(("chart", ["chart", "--in", biv, "--target", str(c)],
                      {"code": 0, "coordinates": chart_coordinates(n, c)}))
    calls += [
        ("degeneracy", ["degeneracy", "--in", biv, "--order", str(n - 2)],
         {"code": 0, "n": n,
          "coefficient": expected_top_coefficient(spec, n, 0)}),
        ("parse", ["parse", "--in", biv], {"code": 0, "text": bivector_text}),
        ("rank", ["rank", "--in", biv, "--point="
                  + ",".join(str(v) for v in data["point"])],
         {"code": 0, "rank": live_block_rank(spec, data["point"])}),
        ("track", ["track", "--family", path["family.json"], "--t=" + t_text],
         {"code": 0, "point": origin_image(data["steps"], n, complex(t_text)),
          "tol": TRACK_TOL}),
        ("rigidity", ["rigidity", "--dim", str(CLI_RIGIDITY_DIM)],
         {"code": 0, "N": CLI_RIGIDITY_DIM}),
        ("parse-deep", ["parse", "--in", path["deep.json"]], {"code": 2}),
    ]
    return calls
