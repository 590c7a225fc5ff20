"""Write the golden CLI corpus: input documents and expected outputs.

    PYTHONPATH=src python tests/golden/regenerate.py [--force]

The inputs under `inputs/` are built with the library, and each case in
`expected.json` records the exit code, the exact stdout and the first
stderr line of one in-process `poissonkit.cli.main` call on them.
`tests/test_golden.py` replays every case, so any change to a verb's
output shows up as a failing case.  Existing files are only overwritten
with --force; a regenerated corpus is a change of expected output and
needs its reason stated with the change.

Every verb is covered.  An argument "@name" stands for the path of
inputs/name.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected.json"


def _spec(n, values):
    """A spec from entry texts in row order; a name other than i is a
    parameter."""
    from poissonkit import DiagonalSpec, parse_scalar

    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return DiagonalSpec(n, {
        pair: v if v.isidentifier() and v != "i" else parse_scalar(v)
        for pair, v in zip(pairs, map(str, values))})


def build_inputs() -> dict:
    """File name -> document text, built with the library."""
    import random

    from poissonkit import (DeformationFamily, DiagonalSpec, Multivector,
                            VariableTable, chart_extend, make_diagonal,
                            parse_polynomial, random_generic_spec, serialize)

    diag4 = _spec(4, [2, 3, 5, 7, 11, 13])
    qi4 = _spec(4, ["3/2+1/2*i", "-2/3", "i", "5/7-3*i", "1/4*i", "-7"])
    mixed4 = _spec(4, ["l12", "3/2+1/2*i", "a", "0", "-5", "l12"])
    docs = {
        "diag4.spec": diag4,
        "diag5.spec": _spec(5, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
        "qi4.spec": qi4,
        "qi5.spec": _spec(5, ["1/2", "i", "-3", "2/3-i", "5", "-1/4*i",
                              "7/3", "1+i", "-2", "3/5"]),
        "sym4.spec": DiagonalSpec.symbolic(4),
        "sym5.spec": DiagonalSpec.symbolic(5),
        "mixed4.spec": mixed4,
        "diag4.mv": make_diagonal(diag4),
        "qi4.mv": make_diagonal(qi4),
        "sym4.mv": make_diagonal(DiagonalSpec.symbolic(4)),
        "fam4.json": DeformationFamily.build(
            diag4, [("translation", "x1", "1/2*t"),
                    ("translation", "x3", "-2*t")]),
        "fam4-mixed.json": DeformationFamily.build(
            qi4, [("scaling", {"x2": "3/2", "x4": "-i"}),
                  ("shear", "x1", "(1/3+i)*t*x3^2"),
                  ("translation", "x2", "t^2 - 1/5")]),
    }
    table = VariableTable(("x1", "x2", "x3", "x4"))
    docs["bent4.mv"] = Multivector(table, 2, {
        (0, 1): parse_polynomial("1", table),
        (2, 3): parse_polynomial("x1", table),
        (0, 2): parse_polynomial("(1/2-i)*x2*x4^2", table)})
    for c in range(1, 5):
        docs[f"qi4-chart{c}.mv"] = chart_extend(make_diagonal(qi4), c)
    # a vector field and a trivector, for a bracket of mixed degree
    docs["vec4.mv"] = Multivector(table, 1, {
        (0,): parse_polynomial("x2*x3 - 1/2", table),
        (2,): parse_polynomial("(1+i)*x1^2*x4", table),
        (3,): parse_polynomial("x4", table)})
    docs["tri4.mv"] = Multivector(table, 3, {
        (0, 1, 2): parse_polynomial("x1*x4", table),
        (0, 2, 3): parse_polynomial("2/3*x2^2 + i*x3", table),
        (1, 2, 3): parse_polynomial("-x1*x2*x3", table)})
    # the generic diagonal structure of `diagonal --random 8 --seed 5`,
    # on P^8 and two of its other charts
    rand8 = make_diagonal(random_generic_spec(8, random.Random(5)))
    docs["rand8.mv"] = rand8
    for c in (3, 8):
        docs[f"rand8-chart{c}.mv"] = chart_extend(rand8, c)
    texts = {name: serialize(obj) for name, obj in docs.items()}
    texts["bad-coeff.mv"] = json.dumps({
        "kind": "multivector", "coordinates": ["x1", "x2"], "parameters": [],
        "degree": 2, "terms": [{"coeff": "3/0", "exponents": {"x1": 1},
                                "indices": [0, 1]}]}, indent=2) + "\n"
    texts["bad-kind.json"] = '{"kind": "matrix"}\n'
    return texts


def cases() -> list:
    """The argv of every case, in corpus order."""
    out = []
    docs = ["diag4.spec", "diag5.spec", "qi4.spec", "qi5.spec", "sym4.spec",
            "sym5.spec", "mixed4.spec", "diag4.mv", "qi4.mv", "sym4.mv",
            "bent4.mv", "fam4.json", "fam4-mixed.json", "bad-coeff.mv",
            "bad-kind.json"]
    out += [["parse", "--in", "@" + name] for name in docs]
    out += [["schouten", "--in", "@diag4.mv", "--with", "@diag4.mv"],
            ["schouten", "--in", "@qi4.mv", "--with", "@bent4.mv"],
            ["schouten", "--in", "@bent4.mv", "--with", "@bent4.mv"]]
    out += [["jacobi", "--in", "@" + name]
            for name in ("diag4.mv", "qi4.mv", "sym4.mv", "bent4.mv")]
    out += [["curl", "--in", "@qi4.mv"], ["curl", "--in", "@bent4.mv"],
            ["curl", "--in", "@sym4.mv"],
            ["curl", "--in", "@qi4.mv", "--unit", "1 + (2-i)*x1*x2"],
            ["curl", "--in", "@bent4.mv", "--unit", "3/4"]]
    out += [["bracket", "--in", "@diag4.mv", "--f", "x1", "--g", "x2"],
            ["bracket", "--in", "@qi4.mv", "--f", "x1^2 + 3/2*x3",
             "--g", "(1+i)*x2*x4"],
            ["bracket", "--in", "@sym4.mv", "--f", "x1*x2", "--g", "x3 - x4"],
            ["bracket", "--in", "@qi4.mv", "--f", "x1 +", "--g", "x2"]]
    out += [["hamiltonian", "--in", "@qi4.mv", "--f", "x1*x2 - i*x3^2"],
            ["hamiltonian", "--in", "@bent4.mv", "--f", "1/2*x4^3"]]
    out += [["degeneracy", "--in", "@diag4.mv", "--order", order]
            for order in ("0", "2", "3")]
    out += [["degeneracy", "--in", "@sym4.mv", "--order", "2"]]
    for c in range(5):
        name = "qi4.mv" if c == 0 else f"qi4-chart{c}.mv"
        out += [["degeneracy", "--in", "@" + name, "--order", "2"],
                ["jacobi", "--in", "@" + name]]
    out += [["rank", "--in", "@diag4.mv", "--point", "1,2,3,4"],
            ["rank", "--in", "@diag4.mv", "--point", "0,1,1,1"],
            ["rank", "--in", "@qi4.mv", "--point", "0,1/2,i,1"],
            ["rank", "--in", "@sym4.mv", "--point", "1,1,1,1",
             "--params", "l12=1,l13=2,l14=3,l23=4,l24=5,l34=6"],
            ["rank", "--in", "@diag4.mv", "--point", "0,1"]]
    out += [["restrict", "--in", "@qi4.mv", "--coordinate", "x2"],
            ["restrict", "--in", "@bent4.mv", "--coordinate", "x1"],
            ["restrict", "--in", "@qi4.mv", "--coordinate", "x9"]]
    out += [["invariant", "--in", "@qi4.mv", "--f", "x3"],
            ["invariant", "--in", "@qi4.mv", "--f", "x1 + x2"],
            ["invariant", "--in", "@sym4.mv", "--f", "x1*x4"]]
    out += [["chart", "--in", "@" + name, "--target", str(c)]
            for name in ("diag4.mv", "qi4.mv") for c in range(5)]
    out += [["chart", "--in", "@sym4.mv", "--target", "3",
             "--zero-name", "y0"],
            ["chart", "--in", "@bent4.mv", "--target", "1"],
            ["chart", "--in", "@qi4.mv", "--target", "5"]]
    out += [["diagonal", "--in", "@" + name]
            for name in ("diag4.spec", "diag5.spec", "qi4.spec", "qi5.spec",
                         "sym4.spec", "sym5.spec", "mixed4.spec")]
    out += [["diagonal", "--symbolic", "3"],
            ["diagonal", "--random", "4", "--seed", "7"],
            ["diagonal", "--in", "@diag4.mv"]]
    for verb in ("pfaffian", "mu", "logform"):
        out += [[verb, "--in", "@" + name]
                for name in ("diag4.spec", "diag5.spec", "qi4.spec",
                             "qi5.spec", "sym4.spec", "sym5.spec",
                             "mixed4.spec")]
    out += [["rigidity", "--dim", dim] for dim in ("2", "3", "4", "13")]
    out += [["simplex", "--k", k] for k in ("1", "2", "3")]
    out += [["jet", "--in", "@diag4.mv", "--point", "0,0,0,0"],
            ["jet", "--in", "@diag4.mv", "--point", "1,1,0,0"],
            ["jet", "--in", "@qi4.mv", "--point", "0.5,1,0,1", "--r", "2"],
            ["jet", "--in", "@sym4.mv", "--point", "0,0,1,1",
             "--params", "l12=1,l13=2,l14=3,l23=4,l24=5,l34=6"]]
    out += [["selftest", "--seed", "1", "--cases", "12"]]
    # P^8: every chart of one generic structure, and the bracket and
    # the top degeneracy order on two of its charts
    out += [["diagonal", "--random", "8", "--seed", "5"]]
    out += [["chart", "--in", "@rand8.mv", "--target", str(c)]
            for c in range(9)]
    for name in ("rand8-chart3.mv", "rand8-chart8.mv"):
        out += [["jacobi", "--in", "@" + name],
                ["degeneracy", "--in", "@" + name, "--order", "6"]]
    out += [["schouten", "--in", "@vec4.mv", "--with", "@tri4.mv"]]
    out += [["track", "--family", "@" + name, "--t=" + t]
            for name in ("fam4.json", "fam4-mixed.json")
            for t in ("0", "1", "-1.5", "0.05+0.05j")]
    out += [["track", "--family", "@fam4-mixed.json", "--t", "1e300"]]
    return out


def run(argv: list, inputs: Path = INPUTS) -> dict:
    """One in-process call: exit code, stdout and the first stderr line."""
    from poissonkit.cli import main

    argv = [str(inputs / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    return {"exit": code, "stdout": out.getvalue(),
            "stderr": lines[0] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing corpus")
    args = parser.parse_args(argv)
    if (EXPECTED.exists() or INPUTS.exists()) and not args.force:
        print(f"{EXPECTED.parent} already holds a corpus; "
              "pass --force to overwrite it", file=sys.stderr)
        return 1
    INPUTS.mkdir(exist_ok=True)
    for name, text in build_inputs().items():
        (INPUTS / name).write_text(text, encoding="utf-8")
    records = [dict(argv=argv, **run(argv)) for argv in cases()]
    EXPECTED.write_text(json.dumps(records, indent=1) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(records)} cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
