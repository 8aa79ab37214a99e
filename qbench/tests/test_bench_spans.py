import math
import os

import numpy as np

import gen
import run
from spans import ROOT, Tracer


def small_meter_op():
    import qpaths as qp
    case = gen.meter_cases(0)[0]  # n = 64
    return run.MeterOp(qp, case, run.build_meter_objects(qp, [case])[0])


def test_self_times_of_each_operation_add_up_to_its_root(root, tmp_path):
    import qpaths.cli  # noqa: F401
    ops = [small_meter_op(),
           run.CliOp(root, ["table2"], "json", None),
           run.CliOp(root, ["run", os.path.join(root, "src", "qpaths", "data", "hardy.scn")],
                     "csv", None)]
    tracer = Tracer()
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            with tracer.operation(op_id):
                op.execute()
    finally:
        tracer.uninstall()

    child = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    for op_id in range(len(ops)):
        members = [k for k, s in enumerate(tracer.spans) if s.op == op_id]
        roots = [k for k in members if tracer.spans[k].parent < 0]
        assert len(roots) == 1 and tracer.spans[roots[0]].name == ROOT
        assert len(members) > 1
        total_self = sum((tracer.spans[k].end - tracer.spans[k].start) - child[k]
                         for k in members)
        root_span = tracer.spans[roots[0]]
        assert math.isclose(total_self, root_span.end - root_span.start,
                            rel_tol=1e-9, abs_tol=1e-9)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.emit", "scenario_io.parse", "measurement.build_network",
            "meter.mean_reading", "pathsum.decompose"} <= names


def test_bindings_through_from_imports_are_wrapped_and_restored():
    import qpaths
    import qpaths.cli
    import qpaths.oracle
    originals = (qpaths.oracle.build_network, qpaths.cli.build_network, qpaths.decompose)
    tracer = Tracer()
    tracer.install()
    try:
        assert qpaths.oracle.build_network is not originals[0]
        assert qpaths.cli.build_network is qpaths.measurement.build_network
        assert qpaths.decompose is qpaths.pathsum.decompose
        qpaths.cli.main(["table2", "--format", "json"])  # prints to captured stdout
    finally:
        tracer.uninstall()
    assert (qpaths.oracle.build_network, qpaths.cli.build_network,
            qpaths.decompose) == originals
    assert any(s.name == "measurement.build_network" for s in tracer.spans)


def test_untraced_runs_after_uninstall_record_no_spans(root):
    import qpaths.cli
    tracer = Tracer()
    tracer.install()
    qpaths.cli.main(["table2", "--format", "json"])  # prints to captured stdout
    tracer.uninstall()
    recorded = len(tracer.spans)
    assert recorded > 0
    op = small_meter_op()
    tally = run.Tally()
    run.run_rounds([op, run.CliOp(root, ["table2"], "json", lambda tables: None)], 0.0, tally)
    assert len(tracer.spans) == recorded
    assert len(tally.op_seconds) == 2 and tally.failed == 0 and not tally.errors


def test_calls_per_width_counts_only_operations_that_ask_for_widths():
    op = small_meter_op()
    tracer = Tracer()
    tracer.install()
    try:
        tally = run.Tally()
        rounds = run.run_rounds([op], 0.0, tally, tracer)
    finally:
        tracer.uninstall()
    layer = run.per_layer(tracer, [op], len(rounds))
    assert layer["meter.mean_reading.calls"] == 2 * len(op.case.ratios)
    assert layer["meter.mean_reading.calls_per_width"] == 2.0
    assert np.isfinite(layer["meter.mean_reading.self_s"])
