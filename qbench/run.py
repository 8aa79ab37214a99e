"""qpaths benchmark: one command, two workloads, checked outputs.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qpaths checkout; the package is used from src/
as it stands (nothing installed).  Each workload is a closed loop from
one process, one operation at a time, repeated in whole rounds of the
same operations for up to S seconds: a round starts only if one more
round, as long as the last, still ends within S (the first always
runs).  Every output is checked against the independent computations in
checks.py after its operation's timer stops.

--trace 0 prints the end-to-end metrics; --trace 1 first runs untraced
rounds for half the time, then wraps every layer's public functions
(spans.py) for the other half and prints per-layer self times and call
counts per round, plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import gen
from spans import Tracer

PROBE_EVERY_S = 1.5
OP_TIMEOUT_S = 150
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qpaths; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
TRACED = {
    "cli": ("main", "execute_query", "emit"),
    "scenario_io": ("parse", "validate"),
    "scenarios": ("built_in", "hardy_epsilon"),
    "measurement": ("build_network", "all_outcomes_probability", "sum_rule_report",
                    "product_rule_report", "conditional_reading_distribution"),
    "statespace": ("fourier_basis",),
    "pathsum": ("decompose", "amplitude_table"),
    "meter": ("mean_reading", "reading_amplitude", "weak_value", "weak_limit_convergence"),
    "oracle": ("verification_checks", "grid_mean_reading", "projective_joint"),
}
COUNTED = ("measurement.build_network", "measurement.all_outcomes_probability",
           "statespace.fourier_basis", "pathsum.decompose", "meter.mean_reading",
           "oracle.grid_mean_reading")
PER_LAYER_UNITS = {
    **{f"{layer}.{fn}.self_s": "s" for layer, fns in TRACED.items() for fn in fns},
    **{f"{name}.calls": "count" for name in COUNTED},
    "meter.mean_reading.calls_per_width": "calls/width",
    "trace_overhead_s": "s",
}


class Operation:
    """One unit of timed work.  execute() returns what check() needs."""

    widths = 0  # meter widths the operation asks for
    label = ""

    def execute(self):
        raise NotImplementedError

    def check(self, result, round_results) -> bool:
        """Raise checks.CheckError on a wrong output; False when the op failed."""
        raise NotImplementedError


# ------------------------------------------------------------- CLI operations

class Launcher:
    """Client of launcher.py: runs command lines from a small process."""

    def __init__(self, work: str):
        self.stdout = os.path.join(work, "stdout")
        self.stderr = os.path.join(work, "stderr")
        self.peak_kb = 0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: str, env: dict) -> int:
        request = {"argv": argv, "cwd": cwd, "env": env, "stdout": self.stdout,
                   "stderr": self.stderr, "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        return reply["code"]

    def output(self) -> str:
        with open(self.stdout, encoding="utf-8") as out:
            return out.read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class CliOp(Operation):
    """One `python -m qpaths ...` process started by the launcher, or, with no
    launcher, the same argv through qpaths.cli.main in this process."""

    def __init__(self, root: str, argv: list[str], fmt: str, check_json,
                 launcher: Launcher | None = None, expect: int = 0, widths: int = 0):
        self.root = root
        self.argv = argv + ["--format", fmt]
        self.fmt = fmt
        self.key = tuple(argv)  # the formats of one command line share it
        self.check_json = check_json
        self.launcher = launcher
        self.expect = expect
        self.widths = widths
        self.label = " ".join(os.path.basename(a) if a.endswith(".scn") else a
                              for a in self.argv)

    def execute(self):
        if self.launcher is None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = sys.modules["qpaths.cli"].main(list(self.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            return code, out.getvalue()
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        return self.launcher.run([sys.executable, "-m", "qpaths", *self.argv], self.root, env)

    def check(self, result, round_results) -> bool:
        code, out = result if self.launcher is None else (result, self.launcher.output())
        if code != self.expect:
            return False
        if self.expect != 0:
            return True
        what = " ".join(self.argv)
        if self.fmt == "json":
            tables = json.loads(out)
            self.check_json(tables)
            round_results[self.key] = tables
            return True
        reference = round_results.get(self.key)
        checks.require(reference is not None, f"{what}: no json run to compare with")
        parsed = checks.csv_tables(out) if self.fmt == "csv" else checks.text_tables(out)
        checks.same_cells(reference, parsed, what)
        return True


def builtin_ops(root: str, seed: int, paths: dict[str, str],
                launcher: Launcher | None) -> list[Operation]:
    params = gen.builtin_params(seed)
    with open(os.path.join(root, "src", "qpaths", "data", "hardy.scn"), encoding="utf-8") as fh:
        hardy_scn = fh.read()
    ops: list[Operation] = []
    for argv in gen.builtin_commands(params):
        widths = len(checks.option(argv, "--widths", "").split(",")) if argv[0] == "sweep-width" else 0
        check = lambda tables, argv=argv: checks.check_builtin(argv, tables, hardy_scn)
        for fmt in gen.FORMATS:
            ops.append(CliOp(root, argv, fmt, check, launcher, widths=widths))
    # documented outcome: exit 3, weak value undefined; counted failed until mended
    ops.append(CliOp(root, ["run", paths["near-orthogonal"]], "json", None, launcher,
                     expect=3))
    return ops


def scenario_ops(root: str, seed: int, paths: dict[str, str],
                 launcher: Launcher | None) -> list[Operation]:
    ops: list[Operation] = []
    for spec in gen.scenario_specs(seed):
        path = paths[spec.name]
        ref = checks.Reference(spec.labels, spec.initial, spec.finals, spec.observables)
        queries = [(kind, dict(args)) for kind, args in spec.queries]

        def check(tables, ref=ref, queries=queries):
            checks.require(len(tables) == len(queries), "run: one table per query")
            for (kind, args), table in zip(queries, tables):
                checks.check_query(ref, kind, args, table)

        widths = sum(1 if k == "mean-reading" else len(a["widths"].split(","))
                     for k, a in queries if k in ("mean-reading", "scan"))
        for fmt in gen.FORMATS:
            ops.append(CliOp(root, ["run", path], fmt, check, launcher, widths=widths))
    return ops


# ----------------------------------------------------------- meter operations

class MeterOp(Operation):
    """One library case: decompose, weak value, width sweep, pointer, network."""

    def __init__(self, qp, case: gen.MeterCase, objects):
        self.qp = qp
        self.case = case
        self.initial, self.final, self.observable = objects
        self.widths = len(case.ratios)
        self.label = case.label
        spread = float(case.eigenvalues.max() - case.eigenvalues.min())
        self.grid = gen.pointer_grid(case.eigenvalues, spread)

    def execute(self):
        qp = self.qp
        obs = self.observable
        dec = qp.decompose(self.initial, self.final)
        wv = qp.weak_value(dec, obs)
        widths = qp.scaled_widths(obs, self.case.ratios)
        means = [qp.mean_reading(dec, obs, qp.MeterModel(w)) for w in widths]
        errors = qp.weak_limit_convergence(dec, obs, widths)
        psi = qp.reading_amplitude(dec, obs, qp.MeterModel(obs.spread), self.grid)
        net = qp.build_network(self.initial, self.final, obs)
        dist = qp.conditional_reading_distribution(net)
        return dec, wv, means, errors, psi, net, dist

    def outputs(self, result) -> dict:
        """The results of execute() as plain values, in the form checks expects."""
        dec, wv, means, errors, psi, net, dist = result
        return {"amplitudes": dec.amplitudes, "weak": wv.complex_value, "means": means,
                "errors": errors, "grid": self.grid, "psi": psi, "distribution": dist,
                "classes": [(c.eigenvalue, c.members, c.amplitude) for c in net.classes]}

    def check(self, result, round_results) -> bool:
        checks.check_meter_case(self.case, self.outputs(result))
        return True


def build_meter_objects(qp, cases):
    out = []
    for case in cases:
        space = qp.StateSpace.of_dimension(case.dimension)
        out.append((qp.KetState(space, case.initial), qp.KetState(space, case.final),
                    qp.DiagonalObservable(space, case.eigenvalues)))
    return out


# ------------------------------------------------------------------ measuring

class SetupProbe:
    """setup_s samples, taken between operations all through the run.

    One sample is the wall time of `import qpaths` in a fresh interpreter,
    plus the time of build() when the workload builds its inputs as program
    objects.  A sample is taken before the first operation and then
    whenever PROBE_EVERY_S has passed since the last one, so the median
    spans the whole run, not one phase of the machine's speed at its start.
    """

    def __init__(self, root: str, build=None):
        self.root = root
        self.build = build
        self.samples: list[float] = []
        self.last = float("-inf")

    def between_operations(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.take()

    def take(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        seconds = float(proc.stdout.strip().splitlines()[-1])
        if self.build is not None:
            t0 = time.perf_counter()
            self.build()
            seconds += time.perf_counter() - t0
        self.samples.append(seconds)
        self.last = time.perf_counter()


class Tally:
    def __init__(self):
        self.failed = 0
        self.errors: list[str] = []
        self.op_seconds: list[float] = []


def run_rounds(ops: list[Operation], budget: float, tally: Tally,
               tracer: Tracer | None = None, probe: SetupProbe | None = None) -> list[float]:
    """Whole rounds of ops for up to budget seconds; returns round wall times.

    The budget includes the setup probes taken between operations."""
    start = last = time.perf_counter()
    rounds = []
    while True:
        round_results: dict = {}
        total = 0.0
        for op in ops:
            if probe is not None:
                probe.between_operations()
            op_id = len(tally.op_seconds)
            t0 = time.perf_counter()
            if tracer is None:
                result = _attempt(op)
            else:
                with tracer.operation(op_id):
                    result = _attempt(op)
            seconds = time.perf_counter() - t0
            total += seconds
            tally.op_seconds.append(seconds)
            if isinstance(result, Exception):
                tally.failed += 1
                continue
            try:
                if not op.check(result, round_results):
                    tally.failed += 1
            except checks.CheckError as exc:
                tally.errors.append(str(exc))
        rounds.append(total)
        now = time.perf_counter()
        if (now - start) + (now - last) > budget:
            return rounds
        last = now


def _attempt(op: Operation):
    try:
        return op.execute()
    except Exception as exc:  # an operation that raises is counted as failed
        return exc


def per_layer(tracer: Tracer, ops: list[Operation], rounds: int) -> dict[str, float]:
    self_s = tracer.self_times()
    calls = tracer.calls()
    out = {}
    for layer, fns in TRACED.items():
        for fn in fns:
            out[f"{layer}.{fn}.self_s"] = self_s.get(f"{layer}.{fn}", 0.0) / rounds
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0) / rounds
    # mean_reading calls per width requested, over the operations that request widths
    requested = sum(op.widths for op in ops) * rounds
    # operation ids count every operation of the run, in whole rounds
    asked = sum(1 for s in tracer.spans
                if s.name == "meter.mean_reading" and ops[s.op % len(ops)].widths)
    out["meter.mean_reading.calls_per_width"] = asked / requested if requested else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="qpaths benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qpaths", "__init__.py")):
        print("error: run from the root of a qpaths checkout (src/qpaths not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, ".qbench"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="inputs-", dir=os.path.join(root, ".qbench"))
    # the timed CLI runs start processes; the traced run calls cli.main in this process
    launcher = Launcher(work) if args.workload == "cli" and not args.trace else None
    try:
        return measure(args, root, work, launcher)
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: str, work: str, launcher: Launcher | None) -> int:
    import qpaths as qp
    import qpaths.cli  # noqa: F401  (in-process CLI operations call it)

    if args.workload == "cli":
        probe = SetupProbe(root)
        paths = gen.write_inputs(args.seed, work)
        ops = (builtin_ops(root, args.seed, paths, launcher)
               + scenario_ops(root, args.seed, paths, launcher))
    else:
        cases = gen.meter_cases(args.seed)
        probe = SetupProbe(root, lambda: build_meter_objects(qp, cases))
        objects = build_meter_objects(qp, cases)
        ops = [MeterOp(qp, case, obj) for case, obj in zip(cases, objects)]

    tally = Tally()
    if not args.trace:
        rounds = run_rounds(ops, args.seconds, tally, probe=probe)
        # peak of the processes doing the work: this one, or the CLI processes
        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if launcher is None
                   else launcher.peak_kb)
        metrics = {
            "setup_s": statistics.median(probe.samples),
            "wall_s": statistics.median(rounds),
            "op_p50_s": statistics.median(tally.op_seconds),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        rounds = run_rounds(ops, args.seconds / 2.0, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(ops, args.seconds / 2.0, tally, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, ops, len(traced))
        metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(rounds)
        units = PER_LAYER_UNITS
        tracer.write(os.path.join(root, ".qbench", f"spans-{args.workload}-seed{args.seed}.jsonl"))
        rounds += traced

    for message in tally.errors[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = len(tally.op_seconds)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations "
          f"({tally.failed} failed) in {attempted // len(ops)} rounds")
    print("round seconds: " + " ".join(f"{r:.4g}" for r in rounds))
    if not args.trace:
        print(f"setup_s over {len(probe.samples)} samples")
        for k, op in enumerate(ops):
            print(f"  median {statistics.median(tally.op_seconds[k::len(ops)]):8.4f} s  {op.label}")
        print(f"op_p50_s over {attempted} samples")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
