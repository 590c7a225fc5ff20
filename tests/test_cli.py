"""Command line behavior: verbs, exit codes, canonical output."""

import json
import os
import subprocess
import sys

import pytest

from poissonkit import (DeformationFamily, DiagonalSpec, GaussRational,
                        loads, make_diagonal, save_path)
from poissonkit.cli import main


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
    save_path(str(root / "diag4.mv"), ps)
    save_path(str(root / "diag4.spec"), spec)
    save_path(str(root / "diag5.spec"),
              numeric_spec(5, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]))
    fam = DeformationFamily.build(spec, [("translation", "x1", "1/2*t"),
                                         ("translation", "x3", "-2*t")])
    save_path(str(root / "fam4.json"), fam)
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


def test_rigidity_verb():
    code, stdout, _ = run_cli("rigidity", "--dim", "5")
    assert code == 0
    assert "dimension: 10" in stdout
    assert "diagonal: true" in stdout


def test_simplex_verb():
    code, stdout, _ = run_cli("simplex", "--k", "3")
    assert code == 0
    assert "survivors: 1 of 35" in stdout
    assert "monomial: x0*x1*x2*x3" in stdout


def test_track_verb(corpus):
    code, stdout, _ = run_cli("track", "--family", str(corpus / "fam4.json"),
                              "--t", "0.05", "--tol", "1e-12")
    assert code == 0
    record = json.loads(stdout)
    assert record["kind"] == "track"
    gamma = [complex(re, im) for re, im in record["gamma"]]
    assert abs(gamma[0] - 0.025) <= 1e-8
    assert abs(gamma[2] + 0.1) <= 1e-8
    assert record["residual"] <= 1e-12


def test_jet_verb(corpus):
    code, stdout, _ = run_cli("jet", "--in", str(corpus / "diag4.mv"),
                              "--point", "0,0,0,0")
    assert (code, stdout.strip()) == (0, "2")
    code, stdout, _ = run_cli("jet", "--in", str(corpus / "diag4.mv"),
                              "--point", "1,1,0,0")
    assert stdout.strip() == "0"


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
