"""Command line behavior: verbs, exit codes, canonical output."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from poissonkit import (DeformationFamily, DiagonalSpec, GaussRational,
                        loads, make_diagonal, serialize)
from poissonkit.cli import _integer, build_parser, main
from poissonkit.polynomials import MAX_TERMS, MAX_TEXT_TERMS
from poissonkit.randomized import MAX_CASES


GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")


def run_cli(*argv, data=None):
    proc = subprocess.run(
        [sys.executable, "-m", "poissonkit.cli", *argv],
        capture_output=True, text=True, input=data)
    return proc.returncode, proc.stdout, proc.stderr


def numeric_spec(n, values):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return DiagonalSpec(n, {pair: GaussRational(v)
                            for pair, v in zip(pairs, values)})


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    spec = numeric_spec(4, [2, 3, 5, 7, 11, 13])
    ps = make_diagonal(spec)
    (root / "diag4.mv").write_text(serialize(ps))
    (root / "diag4.spec").write_text(serialize(spec))
    (root / "diag5.spec").write_text(serialize(
        numeric_spec(5, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])))
    fam = DeformationFamily.build(spec, [("translation", "x1", "1/2*t"),
                                         ("translation", "x3", "-2*t")])
    (root / "fam4.json").write_text(serialize(fam))
    return root


def test_parse_round_trip_is_byte_exact(corpus, tmp_path):
    for name in ("diag4.mv", "diag4.spec", "diag5.spec", "fam4.json"):
        source = corpus / name
        out = tmp_path / name
        code, _, _ = run_cli("parse", "--in", str(source), "--out", str(out))
        assert code == 0
        assert out.read_bytes() == source.read_bytes()


def test_parse_writes_stdout(corpus):
    code, stdout, _ = run_cli("parse", "--in", str(corpus / "diag4.mv"))
    assert code == 0
    assert stdout == (corpus / "diag4.mv").read_text()


def test_jacobi_zero(corpus):
    code, stdout, _ = run_cli("jacobi", "--in", str(corpus / "diag4.mv"))
    assert code == 0
    assert stdout.strip() == "0"


def test_jacobi_failure_exit_one(corpus, tmp_path):
    doc = json.loads((corpus / "diag4.mv").read_text())
    doc["terms"].append({"coeff": "1", "exponents": {"x2": 2},
                         "indices": [0, 1]})
    doc["integrable"] = "unknown"
    bad = tmp_path / "bad.mv"
    bad.write_text(json.dumps(doc))
    code, stdout, _ = run_cli("jacobi", "--in", str(bad))
    assert code == 1
    assert stdout.strip() != "0"


def test_rank_verb(corpus):
    code, stdout, _ = run_cli("rank", "--in", str(corpus / "diag4.mv"),
                              "--point", "0,1,1,1")
    assert code == 0
    assert stdout.strip() == "2"
    code, stdout, _ = run_cli("rank", "--in", str(corpus / "diag4.mv"),
                              "--point", "1,1,1,1")
    assert stdout.strip() == "4"


def test_bracket_and_hamiltonian(corpus):
    code, stdout, _ = run_cli("bracket", "--in", str(corpus / "diag4.mv"),
                              "--f", "x1", "--g", "x2")
    assert code == 0
    assert stdout.strip() == "2*x1*x2"
    code, stdout, _ = run_cli("hamiltonian", "--in", str(corpus / "diag4.mv"),
                              "--f", "x1")
    assert code == 0
    field = loads(stdout)
    assert field.degree == 1


def test_schouten_verb(corpus):
    code, stdout, _ = run_cli("schouten", "--in", str(corpus / "diag4.mv"),
                              "--with", str(corpus / "diag4.mv"))
    assert code == 0
    assert loads(stdout).is_zero()


def test_curl_verb(corpus):
    code, stdout, _ = run_cli("curl", "--in", str(corpus / "diag4.mv"))
    assert code == 0
    field = loads(stdout)
    assert field.degree == 1
    code, stdout, _ = run_cli("curl", "--in", str(corpus / "diag4.mv"),
                              "--unit", "1 + x1^2")
    assert code == 0
    assert json.loads(stdout)["kind"] == "volume-curl"


def test_degeneracy_verb(corpus):
    code, stdout, _ = run_cli("degeneracy", "--in", str(corpus / "diag4.mv"),
                              "--order", "2")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 1
    assert "x1*x2*x3*x4" in lines[0]


def test_invariant_verb(corpus):
    code, stdout, _ = run_cli("invariant", "--in", str(corpus / "diag4.mv"),
                              "--f", "x1")
    assert (code, stdout.strip()) == (0, "true")
    code, stdout, _ = run_cli("invariant", "--in", str(corpus / "diag4.mv"),
                              "--f", "x1 + x2")
    assert (code, stdout.strip()) == (1, "false")


def test_restrict_verb(corpus):
    code, stdout, _ = run_cli("restrict", "--in", str(corpus / "diag4.mv"),
                              "--coordinate", "x4")
    assert code == 0
    restricted = loads(stdout)
    assert restricted.table.coordinates == ("x1", "x2", "x3")
    assert restricted.integrable is True


def test_chart_verb(corpus):
    code, stdout, _ = run_cli("chart", "--in", str(corpus / "diag4.mv"),
                              "--target", "2")
    assert code == 0
    moved = loads(stdout)
    assert "x0" in moved.table.coordinates
    assert moved.integrable is True


def test_diagonal_pipeline(tmp_path):
    spec_file = tmp_path / "spec.json"
    code, _, _ = run_cli("diagonal", "--random", "4", "--seed", "7",
                         "--out", str(spec_file))
    assert code == 0
    struct_file = tmp_path / "diag.mv"
    code, _, _ = run_cli("diagonal", "--in", str(spec_file),
                         "--out", str(struct_file))
    assert code == 0
    code, stdout, _ = run_cli("jacobi", "--in", str(struct_file))
    assert (code, stdout.strip()) == (0, "0")
    # the same seed reproduces the same spec
    twin = tmp_path / "twin.json"
    run_cli("diagonal", "--random", "4", "--seed", "7", "--out", str(twin))
    assert twin.read_bytes() == spec_file.read_bytes()


def test_pfaffian_and_mu(corpus):
    code, stdout, _ = run_cli("pfaffian", "--in", str(corpus / "diag4.spec"))
    assert code == 0
    # 2*13 - 3*11 + 5*7 = 28
    assert stdout.strip() == "28"
    code, stdout, _ = run_cli("mu", "--in", str(corpus / "diag4.spec"))
    assert code == 0
    values = [int(line) for line in stdout.strip().splitlines()]
    assert len(values) == 4
    assert sum(values) == 0
    assert values[0] == 2 + 3 + 5


def test_logform_verb(corpus):
    code, stdout, _ = run_cli("logform", "--in", str(corpus / "diag5.spec"))
    assert code == 0
    residues = stdout.strip().splitlines()
    assert len(residues) == 5
    assert residues[0] == "1"
    code, _, _ = run_cli("logform", "--in", str(corpus / "diag4.spec"))
    assert code == 2  # even count is unusable input


def test_rigidity_verb(capsys):
    code, stdout, _ = run_cli("rigidity", "--dim", "5")
    assert code == 0
    assert "dimension: 10" in stdout
    assert "diagonal: true" in stdout
    for dim, bound in (("1", "at least 2"), ("13", "at most 12")):
        assert main(["rigidity", "--dim", dim]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and bound in captured.err


def test_rigidity_certifies_dimension_twelve(capsys):
    assert main(["rigidity", "--dim", "12"]) == 0
    assert capsys.readouterr().out == "dimension: 66\ndiagonal: true\n"


def test_a_rigidity_failure_report_honours_out(tmp_path, capsys,
                                              monkeypatch):
    from poissonkit import cli

    def broken(system):
        raise AssertionError("non-diagonal nullspace vector on unknowns "
                             "[(1, 1, 1, 2)]")

    monkeypatch.setattr(cli, "solve_rigidity", broken)
    report = tmp_path / "report.txt"
    assert main(["rigidity", "--dim", "3", "--out", str(report)]) == 1
    assert report.read_text() == "dimension: unresolved\ndiagonal: false\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("rigidity: non-diagonal nullspace vector on "
                            "unknowns [(1, 1, 1, 2)]\n")


# sha256 of `rigidity --dim N --basis-out` documents, taken from the
# elimination-based solver that preceded the support read-off.
RIGIDITY_BASIS_SHA256 = {
    2: "cc77a041ead41f6aba2fabe16889fd7e1132f629d2fbde3a980377b385628eea",
    3: "7a85ff5bfa8893e66d4a30b56a9fd468597b782d11eb3ac51c065f15f958ee82",
    4: "a17db7dd130f633332958a6ddf47707d2805b1631df7daa0408a3bc05e5ee7f0",
    5: "6ed93972de41821b7ea963895da2cc7f254cff8ee70b44f8097dc92dfaed8732",
    6: "4c49f45c1c550af0942e207621b3fc1828d415eb59601f76567082da36d6c18f",
    7: "ba82cb85e9c7827f01070c85576acea458a4bbd291bba0be87f05bb54512c322",
    8: "d73dd2fc70353d608090ef9343b24437bd0c801566a6b60b686fe62a6ab7d319",
    9: "cf454016443a4085fc4ba7645420e844ffe5f0294c5f49e3d46fb76c255576b1",
    10: "4b49bed4723246df981e2f3f4e80bd3d0528808ca5ad415f5fdc366747e23bb6",
    11: "f52f00784007dc7bdd3c53091cbf54bfd31f362b5b753e5df56fb9c5456662de",
    12: "190daa94570a6084b73d5e63a6c84baaae6af1801d3d69339c7e79e3ab2866ef",
}


def test_rigidity_output_is_byte_identical_for_every_dimension(tmp_path,
                                                               capsys):
    for dim, digest in RIGIDITY_BASIS_SHA256.items():
        path = tmp_path / f"basis{dim}.json"
        assert main(["rigidity", "--dim", str(dim),
                     "--basis-out", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (f"dimension: {dim * (dim - 1) // 2}\n"
                                f"diagonal: true\n")
        assert captured.err == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, dim


def test_symbolic_pfaffian_on_twelve_coordinates_is_byte_identical(tmp_path,
                                                                   capsys):
    """Pf of the symbolic 12-coordinate spec: 10,395 terms in 66
    parameters, whose printed order rests on the parameter part of the
    monomial order alone.  The digest was taken with tuple exponents."""
    spec = tmp_path / "sym12.spec"
    assert main(["diagonal", "--symbolic", "12", "--out", str(spec)]) == 0
    assert main(["pfaffian", "--in", str(spec)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7764aacb6c32df3cd9b7a7c3b6e3fedc9b931b8e03d3fb8d7f36ebacaa2c6bf8")


def test_simplex_verb():
    code, stdout, _ = run_cli("simplex", "--k", "3")
    assert code == 0
    assert "survivors: 1 of 35" in stdout
    assert "monomial: x0*x1*x2*x3" in stdout


def test_simplex_past_the_bound_exits_two_fast(capsys):
    start = time.perf_counter()
    assert main(["simplex", "--k", "11"]) == 2
    # unbounded, --k 11 ran 2.1 s and each further k four times longer
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: k must be at most 10\n")


def test_track_verb(corpus):
    code, stdout, _ = run_cli("track", "--family", str(corpus / "fam4.json"),
                              "--t", "0.05")
    assert code == 0
    record = json.loads(stdout)
    assert record["kind"] == "track"
    assert record["gamma"] == [[0.025, 0], [0, 0], [-0.1, 0], [0, 0]]
    # the point is exact: Pi_t and its curl vanish there
    assert [record[k] for k in ("residual", "jet0", "jet1",
                                "newton_iters")] == [0, 0, 0, 0]


@pytest.mark.parametrize("verb, flags, field", [
    # the first attempt goes to t, so `track` takes no step flag
    ("track", ["--t", "0.05", "--step", "0"], "unrecognized arguments"),
    ("track", ["--t", "0.05", "--step", "-1"], "unrecognized arguments"),
    ("track", ["--t", "0.05", "--step", "nan"], "unrecognized arguments"),
    ("track", ["--t", "0.05", "--step", "1e-300"], "unrecognized arguments"),
    ("track", ["--t", "1e308"], "gamma"),
    ("track", ["--t", "inf"], "t"),
    ("track", ["--t", "nan"], "t"),
    ("track", ["--t", "abc"], "argument --t"),
    ("chart", ["--target", "1", "--zero-name", "1x"], "argument --zero-name"),
    ("chart", ["--target", "1", "--zero-name", "i"], "argument --zero-name"),
    # the point is exact, so `track` takes no tolerance
    ("track", ["--t", "0.05", "--tol", "nan"], "unrecognized arguments"),
    ("track", ["--t", "0.05", "--tol", "inf"], "unrecognized arguments"),
    ("track", ["--t", "0.05", "--tol", "-1"], "unrecognized arguments"),
    ("jet", ["--point", "1,1,1,1", "--tol", "nan"], "tol"),
    ("jet", ["--point", "1,1,1,1", "--tol", "inf"], "tol"),
    ("jet", ["--point", "1,1,1,1", "--tol", "-1"], "tol"),
    ("jet", ["--point", "1,1,1,1", "--r", "-1"], "r"),
    ("jet", ["--point", "1,1,1,1", "--r", "-5"], "r"),
    ("curl", ["--unit", "0"], "--unit"),
    ("jet", ["--point", "nan,0,0,0"], "x1"),
    ("jet", ["--point", "1,-inf,0,0"], "x2"),
    ("jet", ["--point", "1,1,1,1", "--params", "x3=nan+1j"], "x3"),
], ids=["step-zero", "step-negative", "step-nan", "step-tiny", "t-huge",
        "t-inf", "t-nan", "t-text", "zero-name-digit", "zero-name-i",
        "track-tol-nan", "track-tol-inf", "track-tol-negative",
        "jet-tol-nan", "jet-tol-inf",
        "jet-tol-negative", "jet-r-negative", "jet-r-very-negative",
        "curl-unit-zero", "jet-point-nan", "jet-point-inf",
        "jet-params-nan"])
def test_unusable_flags_exit_two_naming_the_flag(verb, flags, field, corpus,
                                                 capsys):
    source = ["--family", str(corpus / "fam4.json")] if verb == "track" \
        else ["--in", str(corpus / "diag4.mv")]
    assert main([verb, *source, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    assert f"error: {field} " in last or f"error: {field}:" in last, last


def test_only_a_failed_check_exits_one(tmp_path, capsys):
    spec = tmp_path / "zero5.spec"
    spec.write_text(json.dumps({"kind": "diagonal-spec", "n": 5,
                                "entries": []}))
    assert main(["logform", "--in", str(spec)]) == 1
    assert capsys.readouterr().err == "logform: non-generic spec\n"


def test_a_track_at_t_zero_reports_the_point_the_path_puts_there(capsys):
    # fam4-mixed's path ends with x2 += t^2 - 1/5, so phi_0(0) is not the
    # origin
    family = os.path.join(GOLDEN_INPUTS, "fam4-mixed.json")
    assert main(["track", "--family", family, "--t", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["gamma"] == [[0, 0], [-0.2, 0], [0, 0],
                                                 [0, 0]]


def test_a_far_track_exits_zero_at_once(capsys):
    # t is read exactly, so no tolerance sits below the float residual of
    # a far point: fam4's image is linear in t
    family = os.path.join(GOLDEN_INPUTS, "fam4.json")
    start = time.perf_counter()
    assert main(["track", "--family", family, "--t", "1e100"]) == 0
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["gamma"] == [[5e99, 0], [0, 0],
                                                 [-2e100, 0], [0, 0]]


def test_a_far_track_goes_straight_to_t(corpus):
    # phi_100(0) = (50, 0, -200, 0), read exactly
    code, stdout, _ = run_cli("track", "--family", str(corpus / "fam4.json"),
                              "--t", "100")
    assert code == 0
    record = json.loads(stdout)
    assert record["newton_iters"] == 0
    assert record["gamma"] == [[50, 0], [0, 0], [-200, 0], [0, 0]]


@pytest.mark.parametrize("reverse, code, err", [
    (False, 0, ""),
    (True, 2, "error: an exponent or degree of a product reaches 32768\n"),
], ids=["shear-first", "translation-first"])
def test_a_steep_composed_family_tracks_or_is_refused_within_a_second(
        tmp_path, capsys, reverse, code, err):
    # x1 += x2^20, x2 += x3^20, x3 += x4^20, x4 += t^20 on fam4's base.
    # Shears first, phi_t(0) = (0, 0, 0, t^20), and `track` builds no
    # bivector; translation first, x1 = t^160000 passes the packed
    # layout's degree bound
    document = json.loads(open(os.path.join(GOLDEN_INPUTS, "fam4.json"),
                               encoding="utf-8").read())
    path = [{"kind": "shear", "coordinate": f"x{k}", "data": f"x{k + 1}^20"}
            for k in (1, 2, 3)]
    path.append({"kind": "translation", "coordinate": "x4", "data": "t^20"})
    document["path"] = path[::-1] if reverse else path
    family = tmp_path / "shear4.json"
    family.write_text(json.dumps(document))
    start = time.perf_counter()
    assert main(["track", "--family", str(family), "--t", "0.1"]) == code
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == err
    if not code:
        gamma = json.loads(captured.out)["gamma"]
        assert gamma == [[0, 0], [0, 0], [0, 0],
                         [float(Fraction(0.1) ** 20), 0]]


def test_jet_verb(corpus):
    code, stdout, _ = run_cli("jet", "--in", str(corpus / "diag4.mv"),
                              "--point", "0,0,0,0")
    assert (code, stdout.strip()) == (0, "2")
    code, stdout, _ = run_cli("jet", "--in", str(corpus / "diag4.mv"),
                              "--point", "1,1,0,0")
    assert stdout.strip() == "0"


def test_jet_overflow_exits_two_without_warnings(tmp_path):
    path = tmp_path / "steep.mv"
    path.write_text(_multivector_doc(terms=[
        {"coeff": "1", "exponents": {"x1": 20}, "indices": [0, 1]},
        {"coeff": "1", "exponents": {"x2": 1}, "indices": [0, 1]}]))
    code, stdout, stderr = run_cli("jet", "--in", str(path),
                                   "--point", "1e20,1")
    assert (code, stdout) == (2, "")
    assert stderr == ("error: the order-0 jet overflows double precision"
                      " at this point\n")
    code, stdout, _ = run_cli("jet", "--in", str(path), "--point", "1e15,1")
    assert (code, stdout) == (0, "0\n")


def test_total_degree_bound_exits_two(corpus):
    from poissonkit.polynomials import MAX_DEGREE

    code, stdout, stderr = run_cli(
        "bracket", "--in", str(corpus / "diag4.mv"),
        "--f", "((x1+x2+x3)^20)^20", "--g", "x3")
    assert (code, stdout) == (2, "")
    assert stderr == (f"error: degree 400 larger than {MAX_DEGREE}: '20'"
                      " at position 16\n")


def test_term_count_bound_exits_two(corpus, capsys):
    text = "(1+x1+x2+x3+x4)^8*(1+x1+x2+x3+x4)^9"
    assert main(["bracket", "--in", str(corpus / "diag4.mv"),
                 "--f", text, "--g", "x3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: up to 5985 terms, more than {MAX_TERMS}:"
                            " '*' at position 17\n")


def test_text_term_budget_exits_two(tmp_path, capsys):
    path = tmp_path / "diag5.mv"
    path.write_text(serialize(make_diagonal(
        numeric_spec(5, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]))))
    copy = "(x1+x2+x3+x4+x5)^8*(x1+x2+x3+x4+x5)^8"
    assert main(["hamiltonian", "--in", str(path),
                 "--f", " + ".join([copy] * 3)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: products and powers of up to 11670 terms in all, more than"
        f" {MAX_TEXT_TERMS}: '*' at position {len(copy) + 3 + copy.index('*')}\n")
    assert "Traceback" not in captured.err


def test_selftest_seed_sources():
    code, stdout, _ = run_cli("selftest", "--seed", "5", "--cases", "5")
    assert code == 0
    assert "seed: 5" in stdout
    assert "all suites passed" in stdout
    env = dict(os.environ, POISSON_SEED="11")
    proc = subprocess.run(
        [sys.executable, "-m", "poissonkit.cli", "selftest", "--cases", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "seed: 11" in proc.stdout


@pytest.mark.parametrize("argv", [["selftest", "--cases", "1"],
                                  ["diagonal", "--random", "2"]])
def test_a_bad_poisson_seed_is_named(argv, monkeypatch, capsys):
    monkeypatch.setenv("POISSON_SEED", "abc")
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: POISSON_SEED must be an integer, got 'abc'\n")


@pytest.mark.parametrize("argv, expected", [
    (["rank", "--in", os.path.join(GOLDEN_INPUTS, "diag4.mv"),
      "--point=-1,2,3,4"], "4\n"),
    (["bracket", "--in", os.path.join(GOLDEN_INPUTS, "diag4.mv"),
      "--f=-x1", "--g", "x2"], "-2*x1*x2\n"),
    (["track", "--family", os.path.join(GOLDEN_INPUTS, "fam4.json"),
      "--t=-0.05+0.05j"], '"t": [\n    -0.05,\n    0.05\n  ]'),
], ids=["rank-point", "bracket-f", "track-t"])
def test_a_flag_value_that_begins_with_a_minus_takes_the_equals_form(
        argv, expected, capsys):
    # argparse reads `--point -1,2,3,4` as two flags; `--point=-1,2,3,4`
    # is one flag with its value
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert expected in captured.out and captured.err == ""


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_refuses_fewer_than_one_case(cases, capsys):
    assert main(["selftest", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cases must be at least 1\n"


@pytest.mark.parametrize("argv, message", [
    (["diagonal", "--random", "1"],
     "n must be at least 2: mu_1 = 0 on one coordinate"),
    (["selftest", "--cases", str(MAX_CASES + 1)],
     f"--cases must be at most {MAX_CASES}"),
    (["bracket", "--in", os.path.join(GOLDEN_INPUTS, "diag4.mv"),
      "--f", "x1^\u00b2", "--g", "x2"],
     "unexpected character '\u00b2' at position 3"),
    (["track", "--family", os.path.join(GOLDEN_INPUTS, "fam4-mixed.json"),
      "--t", "1e300"],
     "gamma overflows double precision at t = (1e+300+0j)"),
    (["jet", "--in", os.path.join(GOLDEN_INPUTS, "diag4.mv"),
      "--point", "abc,1,1,1"],
     "x1 must be a number, not 'abc'"),
], ids=["diagonal-random-1", "selftest-cases", "superscript-exponent",
        "track-overflow", "jet-point-malformed"])
def test_a_refusal_is_one_error_line(argv, message):
    # no traceback, no numpy warning and nothing on stdout
    assert run_cli(*argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["selftest", "--seed", "\u0663"], "--seed", "\u0663"),
    (["selftest", "--seed", "1_0"], "--seed", "1_0"),
    (["degeneracy", "--in", os.path.join(GOLDEN_INPUTS, "diag4.mv"),
      "--order", "\u0662"], "--order", "\u0662"),
    (["rigidity", "--dim", "1_2"], "--dim", "1_2"),
    (["diagonal", "--random", " 4"], "--random", " 4"),
    (["simplex", "--k", "+3"], "--k", "+3"),
], ids=["seed-arabic-indic", "seed-underscore", "order-arabic-indic",
        "dim-underscore", "random-space", "k-plus"])
def test_an_integer_flag_is_ascii_digits(argv, flag, value):
    # argparse refuses the value before any verb runs
    code, stdout, stderr = run_cli(*argv)
    assert (code, stdout) == (2, "")
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1] == (f"poissonkit {argv[0]}: error: argument"
                                       f" {flag}: not an integer: {value!r}")


def test_an_integer_flag_past_the_digit_bound_is_too_long():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads integer literals of any length")
    for sign in ("", "-"):
        code, stdout, stderr = run_cli(
            "selftest", "--seed=" + sign + "1" * (limit + 1))
        assert (code, stdout) == (2, "")
        assert "Traceback" not in stderr and "_integer" not in stderr
        assert stderr.splitlines()[-1] == (
            f"poissonkit selftest: error: argument --seed: integer of "
            f"{limit + 1} digits is too long")


def test_a_poisson_seed_past_the_digit_bound_is_too_long(monkeypatch, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads integer literals of any length")
    for sign in ("", "-"):
        monkeypatch.setenv("POISSON_SEED", sign + "1" * (limit + 1))
        assert main(["selftest", "--cases", "1"]) == 2
        # one line naming the variable and the digit count, no digits echoed
        assert capsys.readouterr() == ("", f"error: POISSON_SEED: integer "
                                           f"of {limit + 1} digits is too long\n")


@pytest.mark.parametrize("verb, point, params, message", [
    ("rank", "0,1,1,1", "x1=1", "x1 is given twice"),
    ("rank", "x1=0,1,1,1,1", None, "x1 is given twice"),
    ("jet", "0,0,0,0,x1=1", None, "x1 is given twice"),
    ("jet", "1,1,1,1", "x1=0", "x1 is given twice"),
    # the value is checked before the name is found repeated
    ("jet", "1,1,1,1", "x3=nan+1j", "x3 must be finite, not 'nan+1j'"),
], ids=["rank-params", "rank-position", "jet-point", "jet-params",
        "jet-params-nan"])
def test_a_variable_given_twice_exits_two(verb, point, params, message):
    argv = [verb, "--in", os.path.join(GOLDEN_INPUTS, "diag4.mv"),
            "--point", point] + (["--params", params] if params else [])
    assert run_cli(*argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["\u0663", "1_0", "+7", "7 "])
def test_poisson_seed_is_ascii_digits(value):
    proc = subprocess.run(
        [sys.executable, "-m", "poissonkit.cli", "selftest", "--cases", "1"],
        capture_output=True, text=True, env=dict(os.environ, POISSON_SEED=value))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: POISSON_SEED must be an integer, got {value!r}\n")


def test_every_integer_flag_reads_one_rule(capsys):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {option: action.type for verb in subparsers.choices.values()
             for action in verb._actions for option in action.option_strings}
    assert int not in flags.values()
    assert sorted(option for option, kind in flags.items()
                  if kind is _integer) == [
        "--cases", "--dim", "--k", "--order", "--r", "--random", "--seed",
        "--symbolic", "--target"]
    # a minus sign is admitted, so range checks keep their own messages
    assert main(["selftest", "--seed=-3", "--cases", "1"]) == 0
    assert capsys.readouterr().out.startswith("seed: -3\n")


def test_diagonal_needs_a_source(capsys):
    assert main(["diagonal"]) == 2
    assert capsys.readouterr() == (
        "", "error: diagonal needs --in, --symbolic or --random\n")


def test_exit_code_two_on_bad_input(corpus, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    cases = [
        ("jacobi", "--in", str(tmp_path / "missing.mv")),
        ("parse", "--in", str(bad)),
        ("bracket", "--in", str(corpus / "diag4.mv"),
         "--f", "x1 +* x2", "--g", "x2"),
        ("rank", "--in", str(corpus / "diag4.mv"), "--point", "0,1"),
        ("degeneracy", "--in", str(corpus / "diag4.mv"), "--order", "3"),
        ("restrict", "--in", str(corpus / "diag4.mv"), "--coordinate", "x9"),
        ("nonsense-verb",),
    ]
    for argv in cases:
        code, _, stderr = run_cli(*argv)
        assert code == 2, f"{argv} gave {code}"


def test_integrable_flag_is_verified_on_load(corpus, tmp_path):
    # 1 xi1^xi2 + x1 xi3^xi4 is not Poisson: [Pi, Pi] = -2 xi1^xi2^xi3
    claimed = tmp_path / "claimed.mv"
    claimed.write_text(json.dumps({
        "kind": "multivector", "coordinates": ["x1", "x2", "x3", "x4"],
        "parameters": [], "degree": 2, "integrable": "true",
        "terms": [{"coeff": "1", "exponents": {}, "indices": [0, 1]},
                  {"coeff": "1", "exponents": {"x1": 1}, "indices": [2, 3]}]}))
    for argv in (("parse",), ("chart", "--target", "1"), ("jacobi",)):
        code, stdout, stderr = run_cli(argv[0], "--in", str(claimed),
                                       *argv[1:])
        assert (code, stdout) == (2, ""), argv
        assert "Traceback" not in stderr
        assert "claims integrable: true" in stderr
    doc = json.loads((corpus / "diag4.mv").read_text())
    doc["integrable"] = "false"
    denied = tmp_path / "denied.mv"
    denied.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli("parse", "--in", str(denied))
    assert (code, stdout) == (2, "")
    assert "claims integrable: false" in stderr


@pytest.mark.parametrize("claim", ['"yes"', "0", "null", "{}", "[]"])
def test_an_integrable_flag_of_another_value_exits_two(corpus, tmp_path,
                                                       claim):
    text = (corpus / "diag4.mv").read_text()
    assert '"integrable": "true"' in text
    path = tmp_path / "flag.mv"
    path.write_text(text.replace('"integrable": "true"',
                                 f'"integrable": {claim}'))
    code, stdout, stderr = run_cli("parse", "--in", str(path))
    assert (code, stdout) == (2, "")
    assert stderr == 'error: integrable must be "true", "false" or "unknown"\n'


def test_a_flag_past_the_bracket_budget_exits_two(tmp_path):
    # 708 distinct terms whose monomials hold all 13 coordinates: [Pi, Pi]
    # would take up to 1,002,528 term products
    names = [f"x{k}" for k in range(1, 14)]
    pairs = [[i, j] for i in range(13) for j in range(i + 1, 13)]
    terms = [{"coeff": "1", "indices": pairs[r % 78], "exponents": {
        name: 1 + (k == r % 13) + (k == r // 13 % 13) + r // 169 * (k == 0)
        for k, name in enumerate(names)}} for r in range(708)]
    path = tmp_path / "dense.mv"
    path.write_text(json.dumps({
        "kind": "multivector", "coordinates": names, "parameters": [],
        "degree": 2, "integrable": "true", "terms": terms}))
    code, stdout, stderr = run_cli("parse", "--in", str(path))
    assert (code, stdout) == (2, "")
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1].startswith("error: integrable: ")


def _dense_document(path):
    """The document above with `"integrable": "unknown"`."""
    names = [f"x{k}" for k in range(1, 14)]
    pairs = [[i, j] for i in range(13) for j in range(i + 1, 13)]
    terms = [{"coeff": "1", "indices": pairs[r % 78], "exponents": {
        name: 1 + (k == r % 13) + (k == r // 13 % 13) + r // 169 * (k == 0)
        for k, name in enumerate(names)}} for r in range(708)]
    path.write_text(json.dumps({
        "kind": "multivector", "coordinates": names, "parameters": [],
        "degree": 2, "integrable": "unknown", "terms": terms}))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (("parse",), "error: integrable: the Schouten bracket takes 1002528"),
    (("jacobi",), "error: integrable: the Schouten bracket takes 1002528"),
    (("chart", "--target", "0"), "error: integrable: the Schouten bracket"),
    (("schouten", "--with", "DENSE"),
     "error: the Schouten bracket takes 1002528"),
], ids=["parse", "jacobi", "chart", "schouten"])
def test_every_verb_that_brackets_meets_the_budget(tmp_path, argv, message):
    import time

    # "unknown" is checked at no load, so the bound is met in the verb:
    # computing [Pi, Pi] or [Pi, Pi'], or writing the integrable field
    path = _dense_document(tmp_path / "dense.mv")
    argv = [path if arg == "DENSE" else arg for arg in argv]
    start = time.perf_counter()
    code, stdout, stderr = run_cli(argv[0], "--in", path, *argv[1:])
    # the budget refuses before any product; unbounded, these ran 2 to 33 s
    assert time.perf_counter() - start < 10
    assert (code, stdout) == (2, "")
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1].startswith(message)


def test_repeated_records_past_a_literal_exit_two_fast(tmp_path, capsys):
    import time

    record = {"exponents": {"x1": 1}, "indices": [0, 1]}
    path = tmp_path / "grow.mv"
    path.write_text(json.dumps({
        "kind": "multivector", "coordinates": ["x1", "x2"], "degree": 2,
        "terms": [dict(record, coeff=f"1/{10 ** 3999 + r}")
                  for r in range(3)]}))
    start = time.perf_counter()
    assert main(["parse", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: coeff has a numerator or denominator "
                            "of more than 4300 digits\n")


def test_deep_nesting_exits_two_without_traceback(tmp_path):
    coeff = "(" * 3000 + "1" + ")" * 3000
    doc = {"kind": "multivector", "coordinates": ["x1", "x2"],
           "parameters": [], "degree": 2,
           "terms": [{"coeff": coeff, "exponents": {"x1": 1, "x2": 1},
                      "indices": [0, 1]}]}
    deep = tmp_path / "deep.mv"
    deep.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli("parse", "--in", str(deep))
    assert (code, stdout) == (2, "")
    assert "Traceback" not in stderr
    assert "nested deeper than 100" in stderr and "position 100" in stderr


def test_large_exponent_exits_two_without_traceback(corpus):
    from poissonkit.polynomials import MAX_EXPONENT

    code, stdout, stderr = run_cli(
        "bracket", "--in", str(corpus / "diag4.mv"),
        "--f", f"(x1 + x2)^{MAX_EXPONENT + 1}", "--g", "x3")
    assert (code, stdout) == (2, "")
    assert "Traceback" not in stderr
    assert f"exponent larger than {MAX_EXPONENT}" in stderr
    assert "position 10" in stderr


def test_long_integer_literal_exits_two_without_traceback(corpus):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads integer literals of any length")
    code, stdout, stderr = run_cli(
        "bracket", "--in", str(corpus / "diag4.mv"),
        "--f", "x1*" + "7" * (limit + 1), "--g", "x3")
    assert (code, stdout) == (2, "")
    assert "Traceback" not in stderr
    assert "too long at position 3" in stderr
    assert "set_int_max_str_digits" not in stderr


@pytest.mark.parametrize("verb, flag", [("hamiltonian", "--f"),
                                        ("curl", "--unit")])
def test_a_result_coefficient_past_a_literal_exits_two(verb, flag, corpus,
                                                       capsys):
    # a 4,000-digit literal squared: the output has no text form
    assert main([verb, "--in", str(corpus / "diag4.mv"),
                 flag, f"({'9' * 4000})^2*x1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a coefficient has a numerator or "
                            "denominator of more than 4300 digits\n")


def test_spec_entry_errors_surface(tmp_path):
    def spec_file(value):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "diagonal-spec", "n": 2, "entries": [
            {"i": 1, "j": 2, "value": value}]}))
        return str(path)

    code, _, stderr = run_cli("diagonal", "--in", spec_file("3/0"))
    assert code == 2
    assert "zero denominator" in stderr and "invalid variable" not in stderr
    # a bare identifier is a parameter name, but i is the imaginary unit
    code, stdout, _ = run_cli("diagonal", "--in", spec_file("l12"))
    assert code == 0 and json.loads(stdout)["parameters"] == ["l12"]
    code, stdout, _ = run_cli("diagonal", "--in", spec_file("i"))
    assert code == 0 and json.loads(stdout)["parameters"] == []


def test_main_returns_int_in_process(corpus):
    assert main(["jacobi", "--in", str(corpus / "diag4.mv")]) == 0
    assert main(["nonsense-verb"]) == 2


def _family_doc(parameter="t", data="1/2*t"):
    return json.dumps({
        "kind": "family", "parameter": parameter,
        "base": {"kind": "diagonal-spec", "n": 2,
                 "entries": [{"i": 1, "j": 2, "value": "3"}]},
        "path": [{"kind": "translation", "coordinate": "x1", "data": data}]})


def _family_path_doc(*path):
    doc = json.loads(_family_doc())
    doc["path"] = list(path)
    return json.dumps(doc)


def _spec_doc(value):
    return ('{"kind": "diagonal-spec", "n": 2, "entries": '
            '[{"i": 1, "j": 2, "value": %s}]}' % value)


def _multivector_doc(**changes):
    doc = {"kind": "multivector", "coordinates": ["x1", "x2"],
           "parameters": [], "degree": 2,
           "terms": [{"coeff": "1", "exponents": {"x1": 1, "x2": 1},
                      "indices": [0, 1]}]}
    doc.update(changes)
    return json.dumps(doc)


def _without(text, *path):
    """A document's text with the field at the end of `path` removed."""
    doc = json.loads(text)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    return json.dumps(doc)


@pytest.mark.parametrize("text, field", [
    ("[]", "document"),
    ('"x"', "document"),
    (_multivector_doc(terms=[{"coeff": "1", "exponents": [],
                              "indices": [0, 1]}]), "exponents"),
    (_multivector_doc(coordinates=[1, 2]), "coordinates"),
    (_multivector_doc(parameters=["t", 3]), "parameters"),
    (_multivector_doc().replace('"x2": 1}', '"x2": 1e400}'), "exponent"),
    (_multivector_doc().replace('"x2": 1}', '"x2": 1.5}'), "exponent"),
    (_multivector_doc(degree=2.5), "degree"),
    (_multivector_doc().replace('"x2": 1}', '"x2": 1000000}'), "term"),
    (_multivector_doc(terms=json.loads(_multivector_doc())["terms"]
                      * (MAX_TERMS + 1)), "terms"),
    ('{"kind": "diagonal-spec", "n": 1e400, "entries": []}', "n"),
    ('{"kind": "diagonal-spec", "n": 3, "entries": '
     '[{"i": 1.5, "j": 2, "value": "1"}]}', "i"),
    (_family_doc(parameter=1), "parameter"),
    (_family_doc(parameter=None), "parameter"),
    (_family_doc(parameter=[]), "parameter"),
    (_family_doc(parameter={}), "parameter"),
    (_family_doc(data=["t"]), "data"),
    (_multivector_doc(terms=[{"coeff": 5, "exponents": {"x1": 1, "x2": 1},
                              "indices": [0, 1]}]), "coeff"),
    (_family_path_doc(3), "path record"),
    (_family_path_doc({"kind": "translation", "coordinate": ["x1"],
                       "data": "t"}), "coordinate"),
    (_family_path_doc({"kind": "scaling", "scales": [1]}), "scales"),
    (_family_path_doc({"kind": "scaling", "scales": {"x1": True}}), "scale"),
    (_family_path_doc({"kind": "scaling", "scales": {"x1": None}}), "scale"),
    (_spec_doc("true"), "value"),
    (_spec_doc("0.1"), "value"),
    (_spec_doc("1e300"), "value"),
    (_multivector_doc(terms=[3]), "term record"),
    (_multivector_doc(terms=3), "terms"),
    (_multivector_doc(terms=[{"coeff": "1", "exponents": {"x1": 1},
                              "indices": 5}]), "indices"),
    ('{"kind": "diagonal-spec", "n": 2, "entries": [5]}', "spec entry"),
    (_family_path_doc().replace('"path": []', '"path": 3'), "path"),
    ('{"kind": "diagonal-spec", "n": %d, "entries": []}' % 10 ** 30, "n"),
    (_multivector_doc(coordinates=[f"x{k}" for k in range(1, 15)]),
     "coordinates"),
    ('{"kind": "diagonal-spec", "n": "2", "entries": []}', "n"),
    ('{"kind": "diagonal-spec", "n": 3, "entries": '
     '[{"i": true, "j": 2, "value": "1"}]}', "i"),
    (_multivector_doc(degree=True), "degree"),
    (_multivector_doc().replace('"x2": 1}', '"x2": true}'), "exponent"),
    (_multivector_doc(terms=[{"coeff": "1", "exponents": {"x1": 1, "x2": 1},
                              "indices": ["a", "b"]}]), "indices"),
    (_multivector_doc(terms=[{"coeff": "1", "exponents": {"x1": 1, "x2": 1},
                              "indices": [0.0, 1.0]}]), "indices"),
    (_multivector_doc(terms=[{"coeff": "1", "exponents": {"x1": 1, "x2": 1},
                              "indices": [True, 2]}]), "indices"),
    (_without(_multivector_doc(), "coordinates"), "coordinates"),
    (_without(_multivector_doc(), "degree"), "degree"),
    (_without(_multivector_doc(), "terms", 0, "coeff"), "coeff"),
    (_without(_spec_doc('"3"'), "n"), "n"),
    (_without(_spec_doc('"3"'), "entries", 0, "value"), "value"),
    (_without(_family_doc(), "path", 0, "kind"), "kind"),
], ids=["list", "string", "exponents-list", "coordinates-ints",
        "parameters-int", "exponent-overflow", "exponent-fraction",
        "degree-fraction", "term-degree", "term-count", "spec-n-overflow",
        "spec-i-fraction", "family-parameter-int", "family-parameter-null",
        "family-parameter-list", "family-parameter-object", "path-data-list",
        "coeff-int", "path-record-int", "path-coordinate-list",
        "path-scales-list", "path-scale-true", "path-scale-null",
        "spec-value-true", "spec-value-tenth", "spec-value-huge",
        "term-record-int", "terms-int", "indices-int", "spec-entry-int",
        "family-path-int", "spec-n-huge", "coordinates-past-bound",
        "spec-n-string", "spec-i-true", "degree-true", "exponent-true",
        "indices-strings", "indices-floats", "indices-true",
        "no-coordinates", "no-degree", "no-coeff", "no-spec-n",
        "no-entry-value", "no-path-kind"])
def test_malformed_documents_exit_two_naming_the_field(text, field, tmp_path,
                                                       capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["parse", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first = captured.err.splitlines()[0]
    assert first.startswith(f"error: {field} ") or \
        first.startswith(f"error: a {field} "), first


@pytest.mark.parametrize("argv, field", [
    (["diagonal", "--symbolic", "14"], "--symbolic"),
    (["diagonal", "--random", str(10 ** 30)], "--random"),
    (["diagonal", "--in", "SPEC"], "n"),
    (["mu", "--in", "SPEC"], "n"),
    (["logform", "--in", "SPEC"], "n"),
], ids=["symbolic", "random", "diagonal-in", "mu-in", "logform-in"])
def test_dimension_past_the_bound_exits_two(argv, field, tmp_path, capsys):
    spec = tmp_path / "huge.json"
    spec.write_text('{"kind": "diagonal-spec", "n": %d, "entries": []}'
                    % 10 ** 30)
    assert main([str(spec) if a == "SPEC" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be at most 13\n"


def test_dimension_at_the_bound_is_admitted(capsys):
    assert main(["diagonal", "--symbolic", "13"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 13
