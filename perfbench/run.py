"""Benchmark for poissonkit: five workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs against the checkout's own src/ (the package need not be
installed).  With --trace 0 it times whole rounds of one workload's
operations for S seconds and prints the end-to-end metrics; with
--trace 1 it times untraced rounds for S seconds, then one traced
set-up and round, and prints the per-layer metrics and the tracing
overhead.  Operation times are each operation's best over the rounds,
scaled to the reference host speed by a calibration timed in the same
run.  The last line of stdout is one JSON object; a copy with the
Python version, commit, seed and resolved poissonkit.__file__ goes to
perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"

WORKLOADS = ("projective_divisor", "rigidity", "track", "identity_suites",
             "cli")
SETUP_REPEATS = 5
PROBE_REPEATS = 3
# Best time of calibrate() on the reference machine (README): operation
# times are scaled by this over the run's own best calibration time.
CALIBRATION_REFERENCE_S = 0.0045
# Best time of a bare `python -c pass` launch on the reference machine:
# cli calls, which are child processes, are scaled by this instead.
SPAWN_REFERENCE_S = 0.037
# Verbs whose stdout is a canonical document.
DOCUMENT_KINDS = {"diagonal-random", "diagonal-in", "chart", "parse"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate() -> float:
    """Best of five timings of a fixed pure-Python loop, with GC off so
    that the library's heap cannot slow it."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            acc = {}
            for i in range(40000):
                acc[i % 97] = acc.get(i % 97, 0) + i * i
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_setup(workload: str, seed: int, docdir=None) -> tuple:
    """Launch a fresh interpreter; seconds until its inputs are built."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    if docdir:
        cmd.append(str(docdir))
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or not line.startswith("ready "):
        fail(f"set-up of {workload} failed (exit {code})")
    return elapsed, line[len("ready "):].strip()


def run_rounds(ops: list, seconds: float, between) -> dict:
    """Whole rounds of `ops` until `seconds` have passed; `between()`
    runs after each round, untimed."""
    times = [[] for _ in ops]
    problems, failures, round_walls = [], [], []
    start = time.perf_counter()
    while not round_walls or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        for index, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                times[index].append(time.perf_counter() - t0)
                failures.append(f"{op.label}: {type(exc).__name__}")
                continue
            times[index].append(time.perf_counter() - t0)
            try:
                problems += op.check(result)
            except Exception as exc:  # an unreadable result is a wrong one
                problems.append(f"{op.label}: check raised {exc!r}")
        round_walls.append(time.perf_counter() - round_start)
        between()
    return {"times": times, "problems": problems, "failures": failures,
            "round_walls": round_walls}


def run_cli_rounds(calls: list, seconds: float, workdir: Path,
                   between) -> dict:
    """Whole rounds of CLI calls, one fresh `python -m poissonkit.cli` each.

    The parent keeps poissonkit unloaded while children run: a child's
    peak RSS as wait4 reports it starts from the parent's.
    """
    import oracles

    env = child_env()
    base = [sys.executable, "-m", "poissonkit.cli"]
    times = [[] for _ in calls]
    problems, failures, round_walls, spawns = [], [], [], []
    documents, first_outputs = [], {}
    peak_kb = 0
    start = time.perf_counter()
    with open(workdir / "stdout", "w+b") as out, \
            open(workdir / "stderr", "w+b") as err:
        while not round_walls or time.perf_counter() - start < seconds:
            round_start = time.perf_counter()
            for index, (kind, argv, expect) in enumerate(calls):
                for handle in (out, err):
                    handle.seek(0)
                    handle.truncate()
                t0 = time.perf_counter()
                proc = subprocess.Popen(base + argv, stdin=subprocess.DEVNULL,
                                        stdout=out, stderr=err, cwd=ROOT,
                                        env=env)
                _, status, usage = os.wait4(proc.pid, 0)
                times[index].append(time.perf_counter() - t0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                peak_kb = max(peak_kb, usage.ru_maxrss)
                out.seek(0)
                err.seek(0)
                stdout = out.read().decode("utf-8", "replace")
                stderr = err.read().decode("utf-8", "replace")
                if oracles.TRACEBACK in stderr:
                    failures.append(f"{kind}: exit {proc.returncode} with a "
                                    f"traceback ({stderr.strip().splitlines()[-1]})")
                    continue
                if index not in first_outputs:
                    first_outputs[index] = stdout
                    problems += oracles.check_cli(kind, proc.returncode,
                                                  stdout, stderr, expect)
                    if kind in DOCUMENT_KINDS and not proc.returncode:
                        documents.append(stdout)
                elif stdout != first_outputs[index]:
                    problems.append(f"{kind}: output changed between rounds")
            round_walls.append(time.perf_counter() - round_start)
            for _ in range(3):
                t0 = time.perf_counter()
                proc = subprocess.Popen([sys.executable, "-c", "pass"],
                                        stdin=subprocess.DEVNULL, cwd=ROOT,
                                        env=env)
                _, status, _ = os.wait4(proc.pid, 0)
                spawns.append(time.perf_counter() - t0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            between()
    return {"times": times, "problems": problems, "failures": failures,
            "round_walls": round_walls, "spawns": spawns, "peak_kb": peak_kb,
            "documents": documents}


def probe_children() -> dict:
    """Interpreter start and import cost, from fresh child processes."""
    env = child_env()
    bare, imports, numpy = [], [], []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env,
                       stdin=subprocess.DEVNULL)
        bare.append(time.perf_counter() - start)
        report = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import poissonkit"],
            check=True, env=env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True).stderr
        cumulative = {}
        for line in report.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        imports.append(cumulative["poissonkit"])
        numpy.append(cumulative["numpy"])
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imports),
            "cli.import_numpy_s": statistics.median(numpy)}


def layer_metrics(tracer) -> dict:
    """The per-layer metrics a tracer collected."""
    calls = tracer.sum_calls
    scalar = "scalars.GaussRational."
    poly = "polynomials.Polynomial."
    return {
        "scalars.self_s": tracer.self_s["scalars"],
        "scalars.mul_calls": calls([scalar + "__mul__", scalar + "__rmul__"]),
        "scalars.add_calls": calls([scalar + m for m in (
            "__add__", "__radd__", "__sub__", "__rsub__")]),
        "scalars.div_calls": calls([scalar + "__truediv__",
                                    scalar + "__rtruediv__"]),
        "scalars.fraction_news": tracer.counters["fraction_news"],
        "polynomials.self_s": tracer.self_s["polynomials"],
        "polynomials.init_calls": calls([poly + "__init__"]),
        "polynomials.mul_calls": calls([poly + "__mul__", poly + "__rmul__"]),
        "polynomials.term_products": tracer.counters["term_products"],
        "polynomials.peak_terms": tracer.peaks["terms"],
        "polynomials.reduce_mod_calls": calls(["polynomials.reduce_mod"]),
        "polynomials.reduce_mod_s": tracer.inclusive_s["polynomials.reduce_mod"],
        "polynomials.evaluate_float_calls": calls([poly + "evaluate_float"]),
        "polynomials.sorted_terms_calls": calls([poly + "sorted_terms"]),
        "polynomials.evaluate_float_s":
            tracer.inclusive_s["polynomials.evaluate_float"],
        "multivectors.self_s": tracer.self_s["multivectors"],
        "multivectors.wedge_calls": calls(["multivectors._SuperElement.wedge"]),
        "multivectors.schouten_calls": calls(["multivectors.schouten"]),
        "multivectors.contract_calls": calls(["multivectors.contract"]),
        "multivectors.curl_calls": calls(["multivectors.curl"]),
        "automorphisms.pushforward_s":
            tracer.inclusive_s["automorphisms.pushforward"],
        "structures.chart_extend_s": tracer.inclusive_s["structures.chart_extend"],
        "structures.jacobi_check_s": tracer.inclusive_s["structures.jacobi_check"],
        "structures.degeneracy_divisor_s":
            tracer.inclusive_s["structures.degeneracy_divisor"],
        "diagonal.make_diagonal_s": tracer.inclusive_s["diagonal.make_diagonal"],
        "rigidity.constraints_s": tracer.inclusive_s["rigidity.constraints"],
        "rigidity.solve_s": tracer.inclusive_s["rigidity.solve"],
        "rigidity.table_width": tracer.peaks["table_width"],
        "rigidity.rows": tracer.counters["rows"],
        "linalg.rref_s": tracer.inclusive_s["linalg.rref"],
        "linalg.pivots": tracer.counters["pivots"],
        "deform.family_setup_s": tracer.inclusive_s["deform.family_setup"],
        "deform.track_s": tracer.inclusive_s["deform.track"],
        "deform.newton_iters": tracer.counters["newton_iters"],
        "documents.serialize_s": tracer.inclusive_s["documents.serialize"],
        "documents.loads_s": tracer.inclusive_s["documents.loads"],
        "documents.bytes": tracer.counters["bytes"],
        "cli.verb_s": tracer.inclusive_s["cli.verb"],
    }


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(args, workdir: Path) -> tuple:
    """Run one workload; returns (output object, extra record fields)."""
    import inputs

    sys.path.insert(0, str(SRC))
    docdir = workdir if args.workload == "cli" else None
    setups = [time_setup(args.workload, args.seed, docdir)]
    pk_file = Path(setups[0][1]).resolve()
    if SRC.resolve() not in pk_file.parents:
        fail(f"poissonkit resolved to {pk_file}, outside {SRC}")

    calibrations = []

    def between():
        # The host's speed is sampled after every round.  Set-up samples
        # are spread over the run, one after each early round, so that
        # their median does not hang on one moment.
        calibrations.append(calibrate())
        if not args.trace and len(setups) < SETUP_REPEATS:
            setups.append(time_setup(args.workload, args.seed))

    if args.workload == "cli" and not args.trace:
        text = (workdir / "bivector.json").read_text(encoding="utf-8")
        calls = inputs.cli_calls(inputs.cli_inputs(args.seed), str(workdir), text)
        run = run_cli_rounds(calls, args.seconds, workdir, between)
        in_process = False
        peak_mb = run["peak_kb"] / 1024
        import workloads  # only now: see run_cli_rounds
        run["problems"] += workloads.roundtrip_problems(run["documents"])
    else:
        import workloads
        built = workloads.build(args.workload, args.seed)
        ops = workloads.operations(args.workload, built, str(workdir))
        run = run_rounds(ops, args.seconds, between)
        in_process = True
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.workload == "projective_divisor":
            run["problems"] += pfaffian_cross_check(built["specs"])
    while not args.trace and len(setups) < SETUP_REPEATS:
        between()
    record = {"poissonkit_file": str(pk_file),
              "setup_runs_s": [s for s, _ in setups]}

    rounds = len(run["round_walls"])
    attempted, failed = rounds * len(run["times"]), len(run["failures"])
    # The host's CPU speed drifts by tens of percent, within seconds and
    # for minutes at a time.  Each operation is scored by its best time
    # over the run's rounds.  Operation times are then scaled to the
    # reference host speed: in-process ones by the run's best calibration
    # time, cli calls by its best bare interpreter launch, since child
    # processes follow the calibration loop too loosely.  Set-up is not
    # scaled.
    best = [min(t) for t in run["times"]]
    if in_process:
        scale = CALIBRATION_REFERENCE_S / min(calibrations)
    else:
        scale = SPAWN_REFERENCE_S / min(run["spawns"])
    raw = {"setup_s": statistics.median(s for s, _ in setups),
           "ops_per_s": (attempted - failed) / rounds / sum(best),
           "op_p50_ms": statistics.median(best) * 1000}
    record.update({"rounds": rounds, "round_walls_s": run["round_walls"],
                   "best_op_s": best, "calibration_s": calibrations,
                   "spawn_s": run.get("spawns", []),
                   "host_scale": scale, "unscaled": raw,
                   "failures": run["failures"],
                   "problems": run["problems"][:20]})
    if args.trace:
        metrics = traced_metrics(args, workdir, record,
                                 statistics.median(run["round_walls"]))
    else:
        metrics = {
            "setup_s": raw["setup_s"],
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_ms": raw["op_p50_ms"] * scale,
            "peak_rss_mb": peak_mb,
        }
    unit = units()
    output = {
        "correct": not run["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }
    return output, record


def pfaffian_cross_check(specs: list) -> list:
    """Pf(M_c)^2 = det(M_c), with sympy's determinant, on every chart."""
    import sympy

    import oracles

    problems = []
    for n, entries, _ in specs:
        for c in range(n + 1):
            matrix = oracles.chart_matrix(entries, n, c)
            if oracles.pfaffian(matrix) ** 2 != sympy.Matrix(matrix).det():
                problems.append(f"2n={n} chart {c}: Pf^2 != det")
    return problems


def traced_metrics(args, workdir: Path, record: dict, untraced_round_s: float):
    """One traced set-up and round, then the reference round."""
    import tracing
    import workloads

    start = time.perf_counter()
    built = workloads.build(args.workload, args.seed)
    untraced = time.perf_counter() - start + untraced_round_s

    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        start = time.perf_counter()
        built = workloads.build(args.workload, args.seed)
        for op in workloads.operations(args.workload, built, str(workdir)):
            try:
                op.run()
            except Exception:  # counted as failed in the untraced rounds
                pass
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()

    reference = tracing.Tracer()
    reference.install([workloads])
    try:
        for op in workloads.reference_operations(args.seed):
            op()
    finally:
        reference.uninstall()

    values = layer_metrics(tracer)
    fallback = layer_metrics(reference)
    from_reference = sorted(k for k, v in values.items() if not v)
    for name in from_reference:
        values[name] = fallback[name]
    values.update(probe_children())
    values["trace.overhead_s"] = traced - untraced
    print(f"perfbench: tracing overhead {traced - untraced:.3f} s "
          f"(traced {traced:.3f} s, untraced {untraced:.3f} s)", file=sys.stderr)
    if from_reference:
        print("perfbench: from the reference round: " + ", ".join(from_reference),
              file=sys.stderr)
    record.update({"from_reference_round": from_reference,
                   "traced_s": traced, "untraced_s": untraced})
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    RESULTS.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans, "dropped": tracer.dropped_spans,
                   "calls": dict(tracer.calls)}, handle)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "poissonkit" / "__init__.py").is_file():
        fail(f"no poissonkit sources under {SRC}")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        output, record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    for line in sorted(set(record["failures"])) + record["problems"][:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "python": platform.python_version(), "commit": commit(),
                   "nproc": os.cpu_count(), "result": output})
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
