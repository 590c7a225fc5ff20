"""Each oracle accepts the right answer and rejects a perturbed one.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import copy
import json
import math
import random
from fractions import Fraction

import sympy

import inputs
import oracles
import workloads


def _spec4():
    return inputs.projective_spec(random.Random("oracle-tests"), 4, 50)


def _verdict(entries, n, c):
    expected = oracles.expected_top_coefficient(entries, n, c)
    return expected, {
        "coordinates": oracles.chart_coordinates(n, c),
        "jacobi_zero": True,
        "power": n // 2,
        "generators": [{(1,) * n: (Fraction(expected), Fraction(0))}],
        "support": (1,) * n,
        "gcd": (1,) * n,
    }


def test_chart_oracle_matches_library_and_rejects_perturbations():
    entries = _spec4()
    ops = workloads.operations(
        "projective_divisor",
        {"specs": [(4, entries, workloads._spec(4, entries))]})
    assert len(ops) == 5
    for op in ops:
        assert op.check(op.run()) == []
    for c in range(5):
        expected, good = _verdict(entries, 4, c)
        assert oracles.check_chart(good, expected, 4, c) == []
        perturbed = []
        for key, value in (("jacobi_zero", False), ("power", 1),
                           ("gcd", (2, 1, 1, 1)), ("support", (1, 1, 1, 0)),
                           ("coordinates", ("x1", "x2", "x3", "x4", "x0"))):
            bad = dict(good, **{key: value})
            perturbed.append(bad)
        perturbed.append(dict(good, generators=[
            {(1,) * 4: (Fraction(expected + 1), Fraction(0))}]))
        perturbed.append(dict(good, generators=[
            {(1,) * 4: (Fraction(expected), Fraction(1))}]))
        perturbed.append(dict(good, generators=[
            {(2, 0, 1, 1): (Fraction(expected), Fraction(0))}]))
        perturbed.append(dict(good, generators=good["generators"] * 2))
        for bad in perturbed:
            assert oracles.check_chart(bad, expected, 4, c), bad


def test_pfaffian_squares_to_sympy_determinant():
    rng = random.Random(7)
    for size in (2, 4, 6, 8):
        matrix = [[0] * size for _ in range(size)]
        for a in range(size):
            for b in range(a + 1, size):
                matrix[a][b] = rng.randint(-9, 9)
                matrix[b][a] = -matrix[a][b]
        pf = oracles.pfaffian(matrix)
        det = sympy.Matrix(matrix).det()
        assert pf ** 2 == det
        assert (pf + 1) ** 2 != det


def test_chart_matrix_on_chart_zero_is_lambda():
    entries = _spec4()
    assert oracles.chart_matrix(entries, 4, 0) == [
        [oracles.lam(entries, a, b) for b in range(1, 5)] for a in range(1, 5)]


def _diagonal_basis(N):
    return [((k, l), {tuple(int(m in (k, l)) for m in range(N)):
                      (Fraction(1), Fraction(0))})
            for k in range(N) for l in range(k + 1, N)]


def test_rigidity_oracle_rejects_perturbations():
    op, = workloads.operations("rigidity", {"dims": [4]})
    assert op.check(op.run()) == []
    good = _diagonal_basis(4)
    assert oracles.check_rigidity(4, 6, good) == []
    assert oracles.check_rigidity(4, 5, good)
    assert oracles.check_rigidity(4, 5, good[:-1])
    assert oracles.check_rigidity(4, 7, good + good[:1])
    off_diagonal = copy.deepcopy(good)
    off_diagonal[0] = ((0, 1), {(2, 0, 0, 0): (Fraction(1), Fraction(0))})
    assert oracles.check_rigidity(4, 6, off_diagonal)
    scaled = copy.deepcopy(good)
    scaled[2] = (scaled[2][0], {e: (Fraction(2), Fraction(0))
                                for e in scaled[2][1]})
    assert oracles.check_rigidity(4, 6, scaled)
    two_terms = copy.deepcopy(good)
    two_terms[1][1][(0, 0, 1, 1)] = (Fraction(1), Fraction(0))
    assert oracles.check_rigidity(4, 6, two_terms)


def test_track_oracle_matches_library_and_rejects_perturbations():
    n, entries, steps = inputs.track_inputs(3)[0]
    family = workloads._family(n, entries, steps)
    t = inputs.track_grid()[5]
    result = workloads.pk.track_degenerate_point(family, t)
    point = oracles.origin_image(steps, n, t)
    tol = oracles.TRACK_TOL
    args = (result.residual, result.jet0, result.jet1, point, tol)
    assert oracles.check_track(result.gamma, *args) == []
    moved = list(result.gamma)
    moved[1] += 1e-6
    assert oracles.check_track(moved, *args)
    assert oracles.check_track(result.gamma[:-1], *args)
    assert oracles.check_track(result.gamma, 1e-9, result.jet0, result.jet1,
                               point, tol)
    assert oracles.check_track(result.gamma, result.residual, 1e-3,
                               result.jet1, point, tol)
    assert oracles.check_track(result.gamma, result.residual, result.jet0,
                               1e-3, point, tol)
    # the oracle's own map: dropping the last step moves the point
    assert oracles.check_track(result.gamma, result.residual, result.jet0,
                               result.jet1,
                               oracles.origin_image(steps[:-1], n, t), tol)


def test_suite_oracle():
    assert oracles.check_suite("wedge", 0) == []
    assert oracles.check_suite("wedge", 1)


def test_live_block_rank_matches_sympy():
    entries = _spec4()
    rng = random.Random(11)
    for _ in range(20):
        point = [rng.choice((0, 0, 1, -2, 3)) for _ in range(4)]
        numeric = sympy.Matrix(4, 4, lambda i, j: oracles.lam(
            entries, i + 1, j + 1) * point[i] * point[j])
        assert oracles.live_block_rank(entries, point) == numeric.rank()


def _cli_round(tmp_path, seed=5):
    built = workloads.build("cli", seed)
    workloads.write_documents(built["texts"], str(tmp_path))
    ops = workloads.cli_in_process_ops(built["data"], str(tmp_path),
                                       built["texts"]["bivector.json"])
    return built, ops


def test_cli_oracle_accepts_library_output(tmp_path):
    _, ops = _cli_round(tmp_path)
    kinds = [op.label for op in ops]
    assert kinds[-1] == "parse-deep"
    for op in ops[:-1]:
        assert op.check(op.run()) == [], op.label


def test_cli_oracle_rejects_perturbations(tmp_path):
    built, ops = _cli_round(tmp_path)
    results = {op.label: op.run() for op in ops[:-1]}
    calls = {kind: expect for kind, _, expect in inputs.cli_calls(
        built["data"], str(tmp_path), built["texts"]["bivector.json"])}

    def rejects(kind, code, out, err=""):
        return oracles.check_cli(kind, code, out, err, calls[kind])

    for kind, (code, out, err) in results.items():
        assert rejects(kind, code + 1, out), kind
        assert rejects(kind, code, out, oracles.TRACEBACK + "\n"), kind
    assert rejects("jacobi", 0, "1\n")
    _, rank_out, _ = results["rank"]
    assert rejects("rank", 0, f"{int(rank_out) + 1}\n")
    _, out, _ = results["degeneracy"]
    coeff, _, rest = out.partition("*")
    assert rejects("degeneracy", 0, f"{int(coeff) + 1}*{rest}")
    assert rejects("parse", 0, results["parse"][1].replace("  ", "   ", 1))
    assert rejects("rigidity", 0, "dimension: 5\ndiagonal: true\n")
    doc = json.loads(results["diagonal-in"][1])
    doc["terms"][0]["coeff"] = str(int(doc["terms"][0]["coeff"]) + 1)
    assert rejects("diagonal-in", 0, json.dumps(doc))
    spec = json.loads(results["diagonal-random"][1])
    spec["entries"][0]["value"] = "0"
    assert rejects("diagonal-random", 0, json.dumps(spec))
    record = json.loads(results["track"][1])
    record["gamma"][0][0] += 1e-6
    assert rejects("track", 0, json.dumps(record))
    chart = json.loads(results["chart"][1])
    chart["coordinates"].reverse()
    assert rejects("chart", 0, json.dumps(chart))
    assert oracles.check_cli("parse-deep", 2, "", "error: too deep\n",
                             calls["parse-deep"]) == []
    assert oracles.check_cli("parse-deep", 1, "", "", calls["parse-deep"])


def test_roundtrip_rejects_non_canonical_documents(tmp_path):
    built, _ = _cli_round(tmp_path)
    text = built["texts"]["bivector.json"]
    assert workloads.roundtrip_problems([text]) == []
    assert workloads.roundtrip_problems([json.dumps(json.loads(text), indent=4)])
    assert workloads.roundtrip_problems([text.rstrip("\n")])


def test_diagonal_document_matches_library():
    entries = _spec4()
    text = workloads.pk.serialize(workloads.pk.make_diagonal(
        workloads._spec(4, entries)))
    assert json.loads(text) == oracles.diagonal_document(entries, 4)


def test_expected_coefficient_is_factorial_times_pfaffian():
    entries = _spec4()
    for c in range(5):
        assert oracles.expected_top_coefficient(entries, 4, c) == \
            math.factorial(2) * oracles.pfaffian(oracles.chart_matrix(entries, 4, c))
