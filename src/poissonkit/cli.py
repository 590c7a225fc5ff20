"""Command line front end.

    poissonkit VERB [--in FILE] [--out FILE] [flags]

FILE arguments accept "-" for stdin/stdout.  Exit status is 0 when the
run succeeds and any checked property holds, 1 when a checked property
fails, and 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from math import comb

from . import documents
from .deform import DeformationFamily, jet_vanishing, track_degenerate_point
from .diagonal import (DiagonalSpec, curl_eigenvalues, log_annihilator,
                       make_diagonal, pfaffian, random_generic_spec)
from .multivectors import Multivector, curl, schouten
from .polynomials import (MAX_COORDINATES, VariableTable, format_polynomial,
                          parse_polynomial)
from .randomized import MAX_CASES, run_suites
from .rigidity import (MAX_DIM, diagonality_constraints,
                       simplex_multiplicity_filter, solve_rigidity)
from .structures import (CheckFailed, PoissonStructure, chart_extend,
                         degeneracy_ideal, hamiltonian, invariant_hypersurface,
                         jacobi_check, poisson_bracket, rank_at,
                         restrict_hyperplane)

DEFAULT_SEED = 20250815


# The class a verb asks `_load` for, and the name its message gives.
_KINDS = {Multivector: "multivector", PoissonStructure: "bivector",
          DiagonalSpec: "diagonal-spec", DeformationFamily: "family"}


def _load(path: str, kind=object):
    """The document at path ("-" for stdin), as a `kind`: a structure
    reads as its bivector, and a bivector reads as a structure."""
    obj = documents.loads(sys.stdin.read()) if path == "-" \
        else documents.load_path(path)
    if kind is Multivector and isinstance(obj, PoissonStructure):
        obj = obj.bivector
    elif kind is PoissonStructure and isinstance(obj, Multivector) \
            and obj.degree == 2:
        obj = PoissonStructure(obj)
    if not isinstance(obj, kind):
        raise ValueError(f"expected a {_KINDS[kind]} document")
    return obj


def _emit(text: str, path=None) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _lines(polys) -> str:
    return "".join(format_polynomial(p) + "\n" for p in polys)


# Each verb returns (text, exit code); `main` writes the text once.

def cmd_parse(args):
    return documents.serialize(_load(args.infile)), 0


def cmd_schouten(args):
    a = _load(args.infile, Multivector)
    b = _load(args.with_file, Multivector)
    return documents.serialize(schouten(a, b)), 0


def cmd_jacobi(args):
    obstruction = jacobi_check(_load(args.infile, PoissonStructure))
    if obstruction.is_zero():
        return "0\n", 0
    return documents.serialize(obstruction), 1


def cmd_curl(args):
    a = _load(args.infile, Multivector)
    unit = None if args.unit is None else parse_polynomial(args.unit, a.table)
    if unit is not None and unit.is_zero():
        raise ValueError("--unit must be nonzero")
    return documents.serialize(curl(a, unit)), 0


def cmd_bracket(args):
    ps = _load(args.infile, PoissonStructure)
    f = parse_polynomial(args.f, ps.table)
    g = parse_polynomial(args.g, ps.table)
    return _lines([poisson_bracket(ps, f, g)]), 0


def cmd_hamiltonian(args):
    ps = _load(args.infile, PoissonStructure)
    f = parse_polynomial(args.f, ps.table)
    return documents.serialize(hamiltonian(ps, f)), 0


def cmd_degeneracy(args):
    ps = _load(args.infile, PoissonStructure)
    return _lines(degeneracy_ideal(ps, args.order).generators), 0


def _point(args, table: VariableTable, float_syntax: bool = False) -> dict:
    point = documents.parse_assignments(args.point, table,
                                        float_syntax=float_syntax)
    params = documents.parse_assignments(args.params or "", table,
                                         names=table.parameters,
                                         float_syntax=float_syntax)
    twice = [name for name in params if name in point]
    if twice:
        raise ValueError(f"{twice[0]} is given twice")
    return {**point, **params}


def cmd_rank(args):
    ps = _load(args.infile, PoissonStructure)
    return f"{rank_at(ps, _point(args, ps.table))}\n", 0


def cmd_restrict(args):
    ps = _load(args.infile, PoissonStructure)
    return documents.serialize(restrict_hyperplane(ps, args.coordinate)), 0


def cmd_invariant(args):
    ps = _load(args.infile, PoissonStructure)
    holds = invariant_hypersurface(ps, parse_polynomial(args.f, ps.table))
    return ("true\n", 0) if holds else ("false\n", 1)


def cmd_chart(args):
    ps = _load(args.infile, PoissonStructure)
    return documents.serialize(chart_extend(ps, args.target,
                                            args.zero_name)), 0


def cmd_diagonal(args):
    for flag, n in (("--symbolic", args.symbolic), ("--random", args.random)):
        if n is not None and n > MAX_COORDINATES:
            raise ValueError(f"{flag} must be at most {MAX_COORDINATES}")
    if args.symbolic is not None:
        return documents.serialize(DiagonalSpec.symbolic(args.symbolic)), 0
    if args.random is not None:
        rng = random.Random(_resolve_seed(args.seed))
        return documents.serialize(random_generic_spec(args.random, rng)), 0
    if args.infile is None:
        raise ValueError("diagonal needs --in, --symbolic or --random")
    spec = _load(args.infile, DiagonalSpec)
    return documents.serialize(make_diagonal(spec)), 0


def cmd_pfaffian(args):
    spec = _load(args.infile, DiagonalSpec)
    return _lines([pfaffian(spec.lambda_matrix(spec.table()))]), 0


def cmd_mu(args):
    return _lines(curl_eigenvalues(_load(args.infile, DiagonalSpec))), 0


def cmd_logform(args):
    form = log_annihilator(_load(args.infile, DiagonalSpec))
    return _lines(form.residues), 0


def cmd_rigidity(args):
    if args.dim < 2:
        raise ValueError("--dim must be at least 2")
    if args.dim > MAX_DIM:
        raise ValueError(f"--dim must be at most {MAX_DIM}")
    system = diagonality_constraints(args.dim)
    try:
        dimension, basis = solve_rigidity(system)
    except AssertionError as exc:
        print(f"rigidity: {exc}", file=sys.stderr)
        return "dimension: unresolved\ndiagonal: false\n", 1
    if args.basis_out:
        docs = [documents.to_document(vector) for vector in basis]
        _emit(json.dumps(docs, indent=2) + "\n", args.basis_out)
    return (f"dimension: {dimension}\ndiagonal: true\n",
            0 if dimension == comb(args.dim, 2) else 1)


def cmd_simplex(args):
    result = simplex_multiplicity_filter(args.k)
    count = len(result.survivors)
    lines = [f"survivors: {count} of {result.total}\n"]
    for exps in result.survivors:
        mono = "*".join(f"x{v}" for v, e in enumerate(exps) if e)
        lines.append(f"monomial: {mono}\n")
    return "".join(lines), 0 if count == 1 else 1


def cmd_track(args):
    family = _load(args.family, DeformationFamily)
    result = track_degenerate_point(family, args.t)
    record = {
        "kind": "track",
        "t": [result.t.real, result.t.imag],
        "gamma": [[z.real, z.imag] for z in result.gamma],
        "residual": result.residual,
        "jet0": result.jet0,
        "jet1": result.jet1,
        "newton_iters": result.newton_iters,
    }
    return json.dumps(record, indent=2) + "\n", 0


def cmd_jet(args):
    ps = _load(args.infile, PoissonStructure)
    order = jet_vanishing(ps, _point(args, ps.table, float_syntax=True),
                          r=args.r)
    return (f">= {args.r + 1}" if order > args.r else str(order)) + "\n", 0


def _variable_name(text: str) -> str:
    """A --zero-name value: a name a variable table admits."""
    try:
        VariableTable((text,))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None
    return text


def _integer(text: str) -> int:
    """An integer flag or POISSON_SEED: ASCII digits after an optional
    minus, the rule and the digit bound of the parser's integer literals."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"integer of {len(text.lstrip('-'))} digits is too long") from None


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("POISSON_SEED")
    try:
        return DEFAULT_SEED if env is None else _integer(env)
    except argparse.ArgumentTypeError as exc:
        if str(exc).startswith("not an integer"):
            raise ValueError(
                f"POISSON_SEED must be an integer, got {env!r}") from None
        # digits past the bound: named by their count, not echoed
        raise ValueError(f"POISSON_SEED: {exc}") from None


def cmd_selftest(args):
    if args.cases < 1:
        raise ValueError("--cases must be at least 1")
    if args.cases > MAX_CASES:
        raise ValueError(f"--cases must be at most {MAX_CASES}")
    seed = _resolve_seed(args.seed)
    lines = [f"seed: {seed}\n"]
    failed = 0
    for name, cases, failures in run_suites(seed, cases=args.cases):
        failed += bool(failures)
        lines.append(f"FAIL {name}: {failures} of {cases}\n" if failures
                     else f"ok {name} ({cases} cases)\n")
    lines.append(f"{failed} suite(s) failed\n" if failed
                 else "all suites passed\n")
    return "".join(lines), 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonkit",
        description="Exact calculus for polynomial Poisson structures.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(name, handler, help_text, infile=True, out=True):
        p = sub.add_parser(name, help=help_text)
        if infile:
            p.add_argument("--in", dest="infile", required=True,
                           metavar="FILE", help="input document")
        if out:
            p.add_argument("--out", default=None, metavar="FILE",
                           help="write output here instead of stdout")
        p.set_defaults(handler=handler, out=None)
        return p

    verb("parse", cmd_parse, "read a document and reprint it canonically")

    p = verb("schouten", cmd_schouten, "bracket of two multivectors")
    p.add_argument("--with", dest="with_file", required=True, metavar="FILE")

    verb("jacobi", cmd_jacobi, "print the integrability obstruction")

    p = verb("curl", cmd_curl, "curl with respect to a volume form")
    p.add_argument("--unit", default=None, metavar="POLY",
                   help="volume coefficient u (default 1)")

    p = verb("bracket", cmd_bracket, "Poisson bracket of two polynomials")
    p.add_argument("--f", required=True, metavar="POLY")
    p.add_argument("--g", required=True, metavar="POLY")

    p = verb("hamiltonian", cmd_hamiltonian, "Hamiltonian vector field")
    p.add_argument("--f", required=True, metavar="POLY")

    p = verb("degeneracy", cmd_degeneracy, "degeneracy ideal generators")
    p.add_argument("--order", type=_integer, required=True,
                   help="even rank bound 2k")

    p = verb("rank", cmd_rank, "rank of the structure matrix at a point")
    p.add_argument("--point", required=True, metavar="CSV",
                   help="exact coordinate values, comma separated")
    p.add_argument("--params", default=None, metavar="CSV",
                   help="parameter values as name=value pairs")

    p = verb("restrict", cmd_restrict, "restrict to a coordinate hyperplane")
    p.add_argument("--coordinate", required=True, metavar="NAME")

    p = verb("invariant", cmd_invariant, "test invariance of a hypersurface")
    p.add_argument("--f", required=True, metavar="POLY")

    p = verb("chart", cmd_chart, "move a projective structure to another chart")
    p.add_argument("--target", type=_integer, required=True,
                   help="chart index in 0..n")
    p.add_argument("--zero-name", type=_variable_name, default="x0",
                   metavar="NAME",
                   help="label for the incoming coordinate")

    p = verb("diagonal", cmd_diagonal, "build or generate a diagonal structure",
             infile=False)
    p.add_argument("--in", dest="infile", default=None, metavar="FILE",
                   help="diagonal-spec document to build")
    p.add_argument("--symbolic", type=_integer, default=None, metavar="N",
                   help="emit the symbolic spec on N coordinates")
    p.add_argument("--random", type=_integer, default=None, metavar="N",
                   help="emit a random generic numeric spec")
    p.add_argument("--seed", type=_integer, default=None)

    verb("pfaffian", cmd_pfaffian, "Pfaffian of the coefficient matrix")
    verb("mu", cmd_mu, "curl eigenvalues of a diagonal spec")
    verb("logform", cmd_logform, "residues of the kernel log form")

    p = verb("rigidity", cmd_rigidity,
             "dimension and diagonality of the constrained bivector space",
             infile=False)
    p.add_argument("--dim", type=_integer, required=True, metavar="N")
    p.add_argument("--basis-out", default=None, metavar="FILE",
                   help="also write the certified basis as JSON")

    p = verb("simplex", cmd_simplex, "multiplicity filter on the k simplex",
             infile=False)
    p.add_argument("--k", type=_integer, required=True)

    p = verb("track", cmd_track, "track a degenerate point along a family",
             infile=False)
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--t", type=complex, required=True, metavar="VALUE",
                   help="parameter value, real or complex")

    p = verb("jet", cmd_jet, "least nonvanishing jet order at a point")
    p.add_argument("--point", required=True, metavar="CSV",
                   help="coordinate values, comma separated: decimal or "
                   "complex literals, each read exactly as its nearest double")
    p.add_argument("--params", default=None, metavar="CSV")
    p.add_argument("--r", type=_integer, default=3)

    p = verb("selftest", cmd_selftest, "run the randomized identity suites",
             infile=False, out=False)
    p.add_argument("--seed", type=_integer, default=None,
                   help="defaults to POISSON_SEED, then a fixed seed")
    p.add_argument("--cases", type=_integer, default=200)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text, code = args.handler(args)
        _emit(text, args.out)
        return code
    except CheckFailed as exc:
        # the one way a verb reports a well-posed check that fails
        print(f"{args.verb}: {exc}", file=sys.stderr)
        return 1
    except (OSError, KeyError, TypeError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
