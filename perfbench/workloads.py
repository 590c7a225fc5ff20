"""The five workloads as rounds of library calls, with their checks.

`build` makes a workload's inputs (this is what set-up time covers) and
`operations` lists one round: each Op has a `run` that calls poissonkit
and is timed, and a `check` that turns the result into plain data and
hands it to the oracles, untimed.  Library names are looked up through
the `pk` module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from collections import namedtuple

import poissonkit as pk
from poissonkit import cli as pk_cli
from poissonkit import randomized as pk_randomized

import inputs
import oracles

Op = namedtuple("Op", "label run check")


def _spec(n: int, entries: dict):
    return pk.DiagonalSpec(n, {key: pk.GaussRational(value)
                               for key, value in entries.items()})


def _family(n: int, entries: dict, steps: list):
    family = pk.DeformationFamily.build(
        _spec(n, entries), [inputs.step_descriptor(s) for s in steps])
    family.curl_field()
    return family


def _scalar(value) -> tuple:
    return (value.re, value.im)


def _exponents(poly) -> tuple:
    (exps,) = poly.terms
    return exps


def build(name: str, seed: int) -> dict:
    """Inputs for one workload; for cli, the documents' text."""
    if name == "projective_divisor":
        return {"specs": [(n, entries, _spec(n, entries))
                          for n, entries in inputs.projective_inputs(seed)]}
    if name == "rigidity":
        return {"dims": inputs.rigidity_inputs(seed)}
    if name == "track":
        return {"families": [(n, steps, _family(n, entries, steps))
                             for n, entries, steps in inputs.track_inputs(seed)]}
    if name == "identity_suites":
        return {"seed": seed}
    if name == "cli":
        data = inputs.cli_inputs(seed)
        n = inputs.CLI_SIZE
        spec = _spec(n, data["spec"])
        texts = {
            "spec.json": pk.serialize(spec),
            "bivector.json": pk.serialize(pk.make_diagonal(spec)),
            "family.json": pk.serialize(
                _family(n, data["base"], data["steps"])),
            "deep.json": inputs.deep_document(n),
        }
        return {"data": data, "texts": texts}
    raise ValueError(f"unknown workload {name!r}")


def _projective_ops(specs: list) -> list:
    ops = []
    built = {}
    expected = {}
    for s, (n, entries, spec) in enumerate(specs):
        for c in range(n + 1):
            def run(s=s, spec=spec, c=c):
                if c == 0:
                    built[s] = pk.make_diagonal(spec)
                chart = pk.chart_extend(built[s], c)
                return (chart, pk.jacobi_check(chart).is_zero(),
                        pk.degeneracy_divisor(chart))

            def check(result, s=s, n=n, entries=entries, c=c):
                chart, jacobi_zero, divisor = result
                if (s, c) not in expected:
                    expected[(s, c)] = oracles.expected_top_coefficient(
                        entries, n, c)
                verdict = {
                    "coordinates": chart.table.coordinates,
                    "jacobi_zero": jacobi_zero,
                    "power": divisor.power,
                    "generators": [{e: _scalar(v) for e, v in g.terms.items()}
                                   for g in divisor.generators],
                    "support": _exponents(divisor.support_product),
                    "gcd": _exponents(divisor.monomial_gcd),
                }
                return oracles.check_chart(verdict, expected[(s, c)], n, c)

            ops.append(Op(f"spec {s} (2n={n}) chart {c}", run, check))
    return ops


def _rigidity_ops(dims: list) -> list:
    ops = []
    for N in dims:
        def run(N=N):
            return pk.solve_rigidity(pk.diagonality_constraints(N))

        def check(result, N=N):
            dimension, basis = result
            plain = [(indices, {e: _scalar(v) for e, v in poly.terms.items()})
                     for vector in basis
                     for indices, poly in vector.terms.items()]
            return oracles.check_rigidity(N, dimension, plain)

        ops.append(Op(f"N={N}", run, check))
    return ops


def _track_ops(families: list) -> list:
    ops = []
    for f, (n, steps, family) in enumerate(families):
        for t in inputs.track_grid():
            def run(family=family, t=t):
                return pk.track_degenerate_point(family, t)

            def check(result, n=n, steps=steps, t=t):
                return oracles.check_track(
                    result.gamma, result.residual, result.jet0, result.jet1,
                    oracles.origin_image(steps, n, t), oracles.TRACK_TOL)

            ops.append(Op(f"family {f} t={t:.3f}", run, check))
    return ops


def _suite_ops(seed: int) -> list:
    ops = []
    for name, suite in pk_randomized.SUITES:
        for draw in range(inputs.SUITE_DRAWS):
            def run(suite=suite, rng_seed=f"{seed}:{name}:{draw}"):
                return suite(random.Random(rng_seed), inputs.SUITE_CASES)

            def check(failures, name=name):
                return oracles.check_suite(name, failures)

            ops.append(Op(f"{name} draw {draw}", run, check))
    return ops


def cli_in_process_ops(data: dict, docdir: str, bivector_text: str) -> list:
    """The cli round as in-process `main(argv)` calls, for the traced run."""
    ops = []
    for kind, argv, expect in inputs.cli_calls(data, docdir, bivector_text):
        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pk_cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result, kind=kind, expect=expect):
            return oracles.check_cli(kind, *result, expect)

        ops.append(Op(kind, run, check))
    return ops


def write_documents(texts: dict, docdir: str) -> None:
    for name, text in texts.items():
        with open(os.path.join(docdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def operations(name: str, built: dict, docdir: str = None) -> list:
    """One round of in-process operations for a workload."""
    if name == "projective_divisor":
        return _projective_ops(built["specs"])
    if name == "rigidity":
        return _rigidity_ops(built["dims"])
    if name == "track":
        return _track_ops(built["families"])
    if name == "identity_suites":
        return _suite_ops(built["seed"])
    if name == "cli":
        return cli_in_process_ops(built["data"], docdir,
                                  built["texts"]["bivector.json"])
    raise ValueError(f"unknown workload {name!r}")


def roundtrip_problems(texts: list) -> list:
    """Every emitted document must re-parse and re-serialize byte-exactly."""
    problems = []
    for text in texts:
        if pk.serialize(pk.loads(text)) != text:
            problems.append("document does not re-serialize byte-exactly: "
                            + text[:60].replace("\n", " "))
    return problems


def reference_operations(seed: int) -> list:
    """A miniature of every workload, traced after the workload's own
    round; a per-layer metric the workload leaves at zero is read from
    here, so no layer figure is a constant zero."""
    rng = random.Random(f"{seed}:reference")
    entries = inputs.projective_spec(rng, 4, inputs.PROJECTIVE_BOUND)
    base = inputs.family_base(rng, 4, inputs.TRACK_BOUND)
    steps = inputs.family_steps(rng, 4)
    spec = _spec(4, entries)
    name, suite = pk_randomized.SUITES[-1]

    def verb():
        with contextlib.redirect_stdout(io.StringIO()):
            pk_cli.main(["rigidity", "--dim", "3"])
        return pk.loads(pk.serialize(pk.make_diagonal(spec)))

    return [
        lambda: pk.degeneracy_divisor(pk.chart_extend(pk.make_diagonal(spec), 1)),
        lambda: pk.solve_rigidity(pk.diagonality_constraints(3)),
        lambda: pk.track_degenerate_point(_family(4, base, steps), 0.1),
        lambda: suite(random.Random(f"{seed}:{name}"), 5),
        verb,
    ]
