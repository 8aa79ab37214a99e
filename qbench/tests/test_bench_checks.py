"""Every check accepts the program's real output and rejects a perturbed copy."""

import copy
import json
import os

import numpy as np
import pytest

import checks
import gen
import run

CHANGE = 1e-6  # relative change applied to one printed number


def bump(value):
    if isinstance(value, dict):
        return {"re": bump(value["re"]), "im": value["im"]}
    return value + CHANGE * (1.0 + abs(value))


def cli_json(root, argv):
    op = run.CliOp(root, argv, "json", None)
    code, out = op.execute()
    assert code == 0
    return json.loads(out)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    import qpaths.cli  # noqa: F401
    spec = gen.scenario_spec(np.random.default_rng(2), 64)
    path = tmp_path_factory.mktemp("scn") / "small.scn"
    path.write_text(spec.text)
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tables = cli_json(root, ["run", str(path)])
    ref = checks.Reference(spec.labels, spec.initial, spec.finals, spec.observables)
    return ref, [(k, dict(a)) for k, a in spec.queries], tables, str(path), root


def check_all(ref, queries, tables):
    for (kind, args), table in zip(queries, tables):
        checks.check_query(ref, kind, args, table)


# one (query kind, column) per printed quantity the checks cover
SCENARIO_CELLS = [
    ("amplitudes", "f00"), ("probabilities", "amplitude"), ("probabilities", "probability"),
    ("network", "eigenvalue"), ("network", "amplitude"), ("network", "probability"),
    ("network", "conditional"), ("weak", "complex_value"), ("weak", "reported"),
    ("mean-reading", "mean_reading"), ("mean-reading", "width"), ("scan", "mean_reading"),
    ("scan", "weak_value_error"), ("sum-rule", "PA"), ("sum-rule", "combined"),
]


def test_generated_scenario_passes(scenario):
    ref, queries, tables, _, _ = scenario
    check_all(ref, queries, tables)


@pytest.mark.parametrize("kind,column", SCENARIO_CELLS)
def test_perturbed_scenario_number_is_rejected(scenario, kind, column):
    ref, queries, tables, _, _ = scenario
    k = next(i for i, (q, _) in enumerate(queries) if q == kind)
    bad = copy.deepcopy(tables)
    row = bad[k]["rows"][-1]
    row[column] = bump(row[column])
    with pytest.raises(checks.CheckError):
        check_all(ref, queries, bad)


def test_wrong_partition_and_wrong_rule_verdicts_are_rejected(scenario):
    ref, queries, tables, _, _ = scenario
    k = next(i for i, (q, a) in enumerate(queries) if q == "network" and a["obs"] == "P0")
    bad = copy.deepcopy(tables)
    first, second = bad[k]["rows"][0], bad[k]["rows"][1]
    moved = first["paths"].split(" + ")
    first["paths"] = " + ".join(moved[1:])
    second["paths"] = second["paths"] + " + " + moved[0]
    with pytest.raises(checks.CheckError):
        check_all(ref, queries, bad)
    for kind in ("sum-rule", "product-rule"):
        k = next(i for i, (q, _) in enumerate(queries) if q == kind)
        bad = copy.deepcopy(tables)
        bad[k]["rows"][0]["holds"] = not bad[k]["rows"][0]["holds"]
        with pytest.raises(checks.CheckError):
            check_all(ref, queries, bad)


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_text_formats_must_print_the_json_numbers(scenario, fmt):
    _, _, tables, path, root = scenario
    op = run.CliOp(root, ["run", path], fmt, None)
    code, out = op.execute()
    assert code == 0
    parse = checks.csv_tables if fmt == "csv" else checks.text_tables
    checks.same_cells(tables, parse(out), fmt)
    bad = copy.deepcopy(tables)
    row = bad[3]["rows"][0]
    row["probability"] = bump(row["probability"])
    with pytest.raises(checks.CheckError):
        checks.same_cells(bad, parse(out), fmt)


BUILTIN = gen.builtin_commands(gen.builtin_params(0))


@pytest.mark.parametrize("argv", BUILTIN, ids=[" ".join(a[:3]) for a in BUILTIN])
def test_builtin_outputs_pass_and_a_perturbed_number_is_rejected(root, argv):
    import qpaths.cli  # noqa: F401
    with open(os.path.join(root, "src", "qpaths", "data", "hardy.scn")) as fh:
        hardy_scn = fh.read()
    tables = cli_json(root, argv)
    checks.check_builtin(argv, tables, hardy_scn)
    bad = copy.deepcopy(tables)
    table = bad[-1] if argv[0] != "verify" else bad[0]
    row = table["rows"][-1]
    if argv[0] == "verify":
        row["status"] = "fail"
    else:
        column = next(c for c in reversed(table["columns"])
                      if isinstance(row[c], (float, dict)) and not isinstance(row[c], bool))
        row[column] = bump(row[column])
    with pytest.raises(checks.CheckError):
        checks.check_builtin(argv, bad, hardy_scn)


def test_closed_forms_reject_a_consistent_but_wrong_answer():
    # the weak value recomputed from these vectors would agree with itself;
    # the closed form -1 still rejects a changed reported value
    table = {"title": "t", "columns": ["reported"], "rows": [{"reported": -1.0 + 1e-6}]}
    with pytest.raises(checks.CheckError):
        checks.check_closed_forms("hardy", ["weak"], "N(1-|1+)", table)
    with pytest.raises(checks.CheckError):
        checks.check_closed_forms("three-box", ["weak"], "P1", table)


@pytest.mark.parametrize("index", range(len(gen.METER_SPECTRA)),
                         ids=list(gen.METER_SPECTRA))
def test_meter_case_passes_and_each_perturbed_output_is_rejected(index):
    import qpaths as qp
    case = gen.meter_cases(0)[index]  # n = 64: the trapezoid check runs too
    op = run.MeterOp(qp, case, run.build_meter_objects(qp, [case])[0])
    out = op.outputs(op.execute())
    checks.check_meter_case(case, out)

    def perturbed(key, change):
        bad = dict(out)
        bad[key] = change(copy.deepcopy(out[key]))
        return bad

    def nudge_first(values):
        values = list(values)
        values[0] = bump(values[0])
        return values

    def first_class(classes):
        ev, members, amp = classes[0]
        return [(ev, members, bump(amp))] + classes[1:]

    def move_path(classes):
        (ev0, m0, a0), (ev1, m1, a1) = classes[0], classes[1]
        return [(ev0, m0[1:], a0), (ev1, tuple(m1) + (m0[0],), a1)] + classes[2:]

    changes = {
        "amplitudes": lambda a: a * (1 + CHANGE),
        "weak": bump,
        "means": nudge_first,
        "errors": nudge_first,
        "psi": lambda p: p * (1 + CHANGE),
        "classes": first_class,
        "distribution": lambda d: dict(zip(d, nudge_first(d.values()))),
    }
    for key, change in changes.items():
        with pytest.raises(checks.CheckError):
            checks.check_meter_case(case, perturbed(key, change))
    with pytest.raises(checks.CheckError):
        checks.check_meter_case(case, perturbed("classes", move_path))


def test_near_orthogonal_run_is_counted_failed_until_it_exits_3(root, tmp_path):
    import qpaths.cli  # noqa: F401
    ops = run.builtin_ops(root, 0, gen.write_inputs(0, str(tmp_path)), None)
    near = ops[-1]
    assert near.expect == 3
    code, out = near.execute()
    assert near.check((code, out), {}) == (code == 3)
    assert near.check((3, ""), {})
