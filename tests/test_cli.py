import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import qpaths
from _invariants import emitted
from qpaths.cli import QUERY_TABLES, Table, emit, main
from qpaths.scenario_io import QUERY_KINDS, load_path

DATA = Path(__file__).parent / "data"

TABLE1_CSV = """\
path,f,g,h,j,gamma
"1-,1+","(0.25, 0)","(0.25, 0)","(0.25, 0)","(0.25, 0)","(0, 0)"
"1-,2+","(-0.25, 0)","(-0.25, 0)","(0.25, 0)","(0.25, 0)","(0, 0)"
"2-,1+","(-0.25, 0)","(0.25, 0)","(-0.25, 0)","(0.25, 0)","(0, 0)"
"2-,2+","(0, 0)","(0, 0)","(0, 0)","(0, 0)","(0, 0)"
gamma,"(0, 0)","(0, 0)","(0, 0)","(0, 0)","(0.5, 0)"
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def shipped_path() -> str:
    return str(resources.files("qpaths") / "data" / "hardy.scn")


def test_table1_csv_golden(capsys):
    code, out, err = run_cli(capsys, "table1", "--format", "csv")
    assert code == 0
    assert out == TABLE1_CSV
    assert err == ""


def test_table1_human_format(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert out.startswith("path amplitudes (hardy)\n")
    assert "(-0.25, 0)" in out


def test_table2_rows(capsys):
    # every observable against every final: 8 x 5 rows under the header
    code, out, _ = run_cli(capsys, "table2", "--format", "csv")
    assert code == 0
    assert out.encode("utf-8") == (DATA / "table2.csv").read_bytes()


def test_weak_json_schema(capsys):
    code, out, _ = run_cli(capsys, "weak", "--scenario", "hardy", "--final", "f",
                           "--obs", "N(1-|1+)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = payload[0]["rows"][0]
    assert row["complex_value"] == {"re": -1.0, "im": 0.0}
    assert row["reported"] == -1.0
    assert payload[0]["columns"][-2:] == ["complex_value", "reported"]


def test_network_command(capsys):
    code, out, _ = run_cli(capsys, "network", "--scenario", "three-box",
                           "--final", "f", "--obs", "P2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eigenvalue,paths,multiplicity,amplitude,probability,conditional"
    assert lines[1].startswith("1,box2,1,")
    assert lines[1].endswith(",1")


def test_scan_epsilon_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "scan-epsilon", "--from", "1e-6", "--to", "1",
                           "--steps", "7", "--obs", "N(1+)", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 7
    for eps_text, _, reported_text in rows:
        eps = float(eps_text)
        reported = float(reported_text)
        target = 1.0 - 1.0 / eps
        assert abs(reported - target) <= 1e-9 * max(1.0, abs(target))


def test_sweep_width_errors_decrease(capsys):
    code, out, _ = run_cli(capsys, "sweep-width", "--final", "f",
                           "--obs", "N(1-|1+)", "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    errors = [float(row.split(",")[-1]) for row in rows]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-3


@pytest.mark.parametrize("ratio, expected", [
    ("1e-320", "0.2"),  # accurate limit: the conditional average
    ("1e308", "-1"),    # weak limit: the weak value
])
def test_sweep_width_at_float_limits(capsys, ratio, expected):
    code, out, err = run_cli(capsys, "sweep-width", "--final", "f",
                             "--obs", "N(1-|1+)", "--widths", ratio, "--format", "csv")
    assert code == 0
    assert err == ""
    assert out.splitlines()[1].split(",")[2] == expected


@pytest.mark.parametrize("width, expected", [("1e-320", "0.2"), ("1e308", "-1")])
def test_mean_reading_query_at_float_limits(tmp_path, capsys, width, expected):
    target = tmp_path / "limits.scn"
    target.write_text("dimension = 5\nbasis = a b c d e\n"
                      "state i = 1/2 1/2 1/2 0 1/2\nstate f = 1/2 -1/2 -1/2 1/2 0\n"
                      "observable A = 1 0 0 0 0\n"
                      f"query mean-reading final=f obs=A width={width}\n",
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(target), "--format", "csv")
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1].split(",")[-1] == expected


@pytest.mark.filterwarnings("error")
def test_weak_value_past_the_float_range_prints_as_infinite(tmp_path, capsys):
    # the exact weak value is 1e308 / (1 - sqrt(2)), about -2.4e308: defined, not
    # representable, so it prints as -inf (-Infinity in json) and the run exits 0
    target = tmp_path / "infinite.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = -i 1\n"
                      "state f = i 1/sqrt(2)\nobservable A = 0 1e308\n"
                      "query weak final=f obs=A\n", encoding="utf-8")
    outputs = {}
    for fmt in ("table", "csv", "json"):
        code, outputs[fmt], err = run_cli(capsys, "run", str(target), "--format", fmt)
        assert code == 0
        assert all(line.startswith("note: ") for line in err.splitlines())
    assert outputs["table"].splitlines()[-1].split() == ["scenario", "f", "A", "(-inf,",
                                                         "0)", "-inf"]
    assert outputs["csv"].splitlines()[-1] == 'scenario,f,A,"(-inf, 0)",-inf'
    row = json.loads(outputs["json"])[0]["rows"][0]
    assert row["complex_value"] == {"re": -math.inf, "im": 0.0}
    assert row["reported"] == -math.inf
    assert '"reported": -Infinity' in outputs["json"]


@pytest.mark.filterwarnings("error")
def test_large_finite_state_is_the_same_ray(tmp_path, capsys):
    outputs = []
    for final in ("1e200 -3e200", "1 -3"):
        target = tmp_path / "scale.scn"
        target.write_text("dimension = 2\nbasis = a b\nstate i = 1 1\n"
                          f"state f = {final}\nobservable A = 1 0\n"
                          "query amplitudes\nquery probabilities\n"
                          "query network final=f obs=A\nquery weak final=f obs=A\n",
                          encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(target), "--format", "csv")
        assert code == 0
        assert "declared norm inf" not in err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-1].split(",")[-1] == "-0.5"


@pytest.mark.parametrize("eigenvalues, query, column, message", [
    ("1e308 -1e308", "mean-reading final=f obs=A width=1", 28,
     "observable's eigenvalue spread exceeds the largest float; meter widths have no scale"),
    ("1e307 0", "scan final=f obs=A widths=0.01,100", 26,
     "width 100 times the eigenvalue spread 1e+307 is outside the float range"),
], ids=["spread", "widths"])
def test_meter_width_past_the_largest_float_is_rejected_where_declared(
        tmp_path, capsys, eigenvalues, query, column, message):
    target = tmp_path / "huge.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 1\nstate f = 1 -0.5\n"
                      f"observable A = {eigenvalues}\nquery {query}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: {target}: line 6, column {column}: {message}\n"


def test_mean_reading_near_the_largest_float_matches_the_weak_value(tmp_path, capsys):
    target = tmp_path / "huge.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 1\nstate f = 1 1\n"
                      "observable A = 1.5e308 1.4e308\n"
                      "query mean-reading final=f obs=A width=1\nquery weak final=f obs=A\n",
                      encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(target), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "f,A,1,1e+307,1.45e+308"
    assert lines[-1].split(",")[-1] == "1.45e+308"


def test_renormalization_note_reads_a_norm_past_the_largest_float(tmp_path, capsys):
    target = tmp_path / "huge.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1.5e308 1.5e308\n"
                      "state f = 1 0\nquery probabilities\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(target), "--format", "csv")
    assert code == 0
    assert err == (f"note: {target}: state 'i' renormalized "
                   "(declared norm 2.12132034356e+308)\n")
    assert out.splitlines()[-1] == 'f,"(0.707106781187, 0)",0.5'


@pytest.mark.filterwarnings("error")
def test_weak_value_at_huge_epsilon(capsys):
    code, out, err = run_cli(capsys, "weak", "--scenario", "hardy-epsilon",
                             "--epsilon", "1e200", "--final", "f", "--obs", "N(1+)",
                             "--format", "csv")
    assert code == 0
    assert err == ""
    assert out.splitlines()[1].split(",")[-1] == "1"  # 1 - 1/epsilon


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,status,max_deviation,tolerance"
    assert len(lines) == 40  # 39 checks + header
    assert all(",pass," in line for line in lines[1:])


def test_run_shipped_scenario(capsys):
    code, out, err = run_cli(capsys, "run", shipped_path(), "--format", "csv")
    assert code == 0
    assert "# path amplitudes (pair-interferometers)" in out
    assert '"1-,1+","(0.25, 0)","(0.25, 0)","(0.25, 0)","(0.25, 0)","(0, 0)"' in out
    assert "post-selected,0.0625,0.0625,0,false" in out
    assert "all-outcomes,0.25,0.25,0.5,true" in out
    assert err == ""


def test_run_reports_notes_on_stderr(tmp_path, capsys):
    target = tmp_path / "warn.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 2 0\nstate f = 1 0\n"
                      "state g = 1 1\nquery probabilities\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(target), "--format", "csv")
    assert code == 0
    assert "renormalized" in err
    assert "not orthogonal" in err
    assert "final,amplitude,probability" in out


def test_exit_code_unknown_names(capsys):
    code, _, err = run_cli(capsys, "weak", "--scenario", "bogus",
                           "--final", "f", "--obs", "P1")
    assert code == 2
    assert "unknown scenario" in err
    code, _, err = run_cli(capsys, "weak", "--scenario", "hardy",
                           "--final", "f", "--obs", "P9")
    assert code == 2
    assert "unknown observable" in err


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("dimension = 2\nbasis = a a\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "bad.scn: line 2, column 11" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/peculiar.scn")
    assert code == 2
    assert "peculiar.scn" in err


def test_exit_code_weak_value_undefined(tmp_path, capsys):
    target = tmp_path / "orth.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 0 1\n"
                      "observable A = 1 0\nquery weak final=f obs=A\n",
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(target))
    assert code == 3
    assert "amplitude is zero" in err


def test_exit_code_weak_value_below_rounding(tmp_path, capsys):
    # i = (1,1,1)/sqrt(3) against the k=1 Fourier final: |<f|i>| ~ 1.6e-16
    target = tmp_path / "near.scn"
    target.write_text("dimension = 3\nbasis = n0 n1 n2\n"
                      "state i = 1/sqrt(3) 1/sqrt(3) 1/sqrt(3)\n"
                      "state f = (0.5773502691896258, 0.0) "
                      "(-0.2886751345948128, -0.5000000000000001) "
                      "(-0.2886751345948132, 0.4999999999999999)\n"
                      "observable P0 = 1 0 0\nquery weak final=f obs=P0\n",
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(target), "--format", "csv")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "amplitude is zero" in err


def test_exit_code_product_rule_impossible_postselection(tmp_path, capsys):
    target = tmp_path / "prod.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 0 1\n"
                      "observable A = 1 0\nobservable B = 0 1\n"
                      "query product-rule final=f obs=A obs2=B\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(target))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_code_scan_epsilon_without_steps(capsys):
    code, out, err = run_cli(capsys, "scan-epsilon", "--obs", "N(1+)", "--from", "0.1",
                             "--to", "1", "--steps", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_code_scan_epsilon_to_infinity(capsys):
    code, out, err = run_cli(capsys, "scan-epsilon", "--obs", "N(1+)", "--from", "0.1",
                             "--to", "inf", "--steps", "3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "finite" in err


def test_exit_code_scan_epsilon_with_more_steps_than_memory(capsys):
    # 10**11 steps need 745 GiB, which no allocation grants; a count whose array
    # could fit would fill the machine's memory before it failed
    code, out, err = run_cli(capsys, "scan-epsilon", "--obs", "N(1+)", "--from", "1",
                             "--to", "2", "--steps", "100000000000")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: Unable to allocate ")


def test_exit_code_infinite_epsilon(capsys):
    code, out, err = run_cli(capsys, "weak", "--scenario", "hardy-epsilon",
                             "--epsilon", "inf", "--final", "f", "--obs", "N(1+)")
    assert code == 2
    assert out == ""
    assert err == "error: epsilon must be positive and finite\n"


def test_run_every_query_kind_csv_golden(capsys):
    # the csv, json and table goldens pin the bytes of every format
    scenario = DATA / "all_queries.scn"
    assert [q.kind for q in load_path(scenario).queries] == list(QUERY_KINDS)
    for fmt, golden in (("csv", "all_queries.csv"), ("json", "all_queries.json"),
                        ("table", "all_queries.txt")):
        code, out, err = run_cli(capsys, "run", str(scenario), "--format", fmt)
        assert code == 0
        assert out == (DATA / golden).read_text(encoding="utf-8"), fmt
        assert err == ""


class _Sink:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text: str) -> int:
        self.length += len(text)
        return len(text)


def test_json_emit_memory_is_bounded_by_output():
    # every format: emit holds no output text, only the row being written
    tables = [Table(title=f"synthetic {t}", columns=("path", "f", "g", "probability"),
                    rows=tuple((f"b{k}", complex(k / 7.0, -k / 3.0),
                                complex(1.0 / (k + 1), t), k / 11.0) for k in range(2000)))
              for t in range(4)]
    assert json.loads(emitted("json", tables))[3]["rows"][1999]["f"] == {
        "re": 285.571428571, "im": -666.333333333}
    for fmt in ("json", "csv", "table"):
        sink = _Sink()
        tracemalloc.start()
        try:
            emit(fmt, tables, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.length == len(emitted(fmt, tables)), fmt
        assert peak < sink.length / 2, fmt


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_failing_query_after_a_good_one_prints_nothing(tmp_path, capsys, fmt):
    # every query runs before the first byte is written
    target = tmp_path / "late.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 0 1\n"
                      "observable A = 1 0\nquery amplitudes\nquery weak final=f obs=A\n",
                      encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(target), "--format", fmt)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "amplitude is zero" in err


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_closed_pipe_ends_the_run_quietly(tmp_path, fmt):
    # 1 to 9 MB, by format: forty amplitude tables of 300 paths and 10 finals
    n = 300
    lines = [f"dimension = {n}", "basis = " + " ".join(f"p{k}" for k in range(n)),
             "state i = " + " ".join([f"1/sqrt({n})"] * n)]
    for j in range(10):
        lines.append(f"state f{j} = " + " ".join("1" if k == j else "0" for k in range(n)))
    lines += ["query amplitudes"] * 40
    target = tmp_path / "big.scn"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = str(Path(qpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "qpaths", "run", str(target),
                             "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert len(head) == 10
    assert err == ""


def test_every_query_kind_has_one_table():
    assert tuple(QUERY_TABLES) == QUERY_KINDS


def test_exit_code_meter_undefined(tmp_path, capsys):
    target = tmp_path / "meter.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 0 1\n"
                      "observable A = 1 0\nquery mean-reading final=f obs=A width=1\n",
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(target))
    assert code == 4
    assert "probability zero" in err


def test_scan_reports_undefined_weak_value_before_later_widths(tmp_path, capsys):
    # <f|i> = 0: the first mean reading is defined, the weak value is not,
    # and at the second width K rounds to 1 so the mean is undefined too
    target = tmp_path / "scan.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 1\nstate f = 1 -1\n"
                      "observable A = 1 0\nquery scan final=f obs=A widths=0.01,1e10\n",
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(target))
    assert code == 3
    assert "amplitude is zero" in err


def test_network_query_with_impossible_selection_shows_undefined(tmp_path, capsys):
    target = tmp_path / "net.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 0 1\n"
                      "observable A = 1 0\nquery network final=f obs=A\n",
                      encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(target), "--format", "csv")
    assert code == 0
    assert "undefined" in out


def test_determinism(capsys):
    _, first, _ = run_cli(capsys, "table2", "--format", "csv")
    _, second, _ = run_cli(capsys, "table2", "--format", "csv")
    assert first == second


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("widths, message", [
    ("inf", "widths must be a number, got 'inf'"),
    ("1,nan", "widths must be a number, got 'nan'"),
    ("1,x", "widths must be a number, got 'x'"),
    (",", "widths must be a comma-separated list"),
])
def test_widths_are_parsed_as_a_scan_query_parses_them(tmp_path, capsys, widths, message):
    # the same grammar and message on the command line as in a .scn file
    with pytest.raises(SystemExit) as err:
        main(["sweep-width", "--final", "f", "--obs", "N(1-|1+)", "--widths", widths])
    assert err.value.code == 2
    assert f"argument --widths: {message}" in capsys.readouterr().err
    target = tmp_path / "widths.scn"
    target.write_text("dimension = 2\nbasis = a b\nstate i = 1 1\nstate f = 1 0\n"
                      f"observable A = 1 0\nquery scan final=f obs=A widths={widths}\n",
                      encoding="utf-8")
    assert main(["run", str(target)]) == 2
    assert message in capsys.readouterr().err


WIDTH_SCN = ("dimension = 2\nbasis = a b\nstate i = 1 1\nstate f = 1 0.5\n"
             "observable A = 1 0\n")


@pytest.mark.parametrize("form, value", [
    ("0.25", 0.25), ("1e-3", 1e-3), ("1/4", 0.25), ("1/sqrt(2)", 1 / math.sqrt(2)),
    ("+.5", 0.5), ("5.", 5.0),
])
def test_width_literals_read_as_their_decimal_values(tmp_path, capsys, form, value):
    # width=, widths= and --widths read a real as a state value is read
    outputs = []
    for text in (form, repr(value)):
        target = tmp_path / "widths.scn"
        target.write_text(WIDTH_SCN + f"query mean-reading final=f obs=A width={text}\n"
                          f"query scan final=f obs=A widths=1,{text}\n", encoding="utf-8")
        run = run_cli(capsys, "run", str(target), "--format", "csv")
        sweep = run_cli(capsys, "sweep-width", "--final", "f", "--obs", "N(1-|1+)",
                        "--widths", text, "--format", "csv")
        assert run[0] == sweep[0] == 0
        outputs.append((run[1], sweep[1]))
    assert outputs[0] == outputs[1]
    assert f"f,A,{value:.12g},{value:.12g}," in outputs[0][0]


@pytest.mark.parametrize("text, message", [
    ("1_0", "{key} must be a number, got '1_0'"),
    ("\u0661", "{key} must be a number, got '\u0661'"),
    ("1e1_0", "{key} must be a number, got '1e1_0'"),
    ("inf", "{key} must be a number, got 'inf'"),
    ("nan", "{key} must be a number, got 'nan'"),
    ("0", "{key} must be positive, got '0'"),
    ("-1", "{key} must be positive, got '-1'"),
    ("1/0", "division by zero in '1/0'"),
    ("1e999", "literal '1e999' is not a finite number"),
], ids=["underscore", "arabic-indic", "exponent-underscore", "inf", "nan", "zero",
        "negative", "division-by-zero", "past-the-float-range"])
def test_bad_widths_are_rejected_alike_in_every_place(tmp_path, capsys, text, message):
    target = tmp_path / "widths.scn"
    for key, query, column in (("width", f"mean-reading final=f obs=A width={text}", 34),
                               ("widths", f"scan final=f obs=A widths=1,{text}", 26)):
        target.write_text(WIDTH_SCN + f"query {query}\n", encoding="utf-8")
        assert run_cli(capsys, "run", str(target)) == (
            2, "", f"error: {target}: line 6, column {column}: {message.format(key=key)}\n")
    with pytest.raises(SystemExit) as err:
        main(["sweep-width", "--final", "f", "--obs", "N(1-|1+)", "--widths", text])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --widths: {message.format(key='widths')}\n")


@pytest.mark.parametrize("text", [",1,,2,", "1,,2", ",,1", "1,", ",1", ","])
def test_empty_width_entries_are_rejected_alike_in_every_place(tmp_path, capsys, text):
    # no entry is dropped: "1,,2" is not the list 1, 2
    message = "widths must be a comma-separated list"
    target = tmp_path / "widths.scn"
    target.write_text(WIDTH_SCN + f"query scan final=f obs=A widths={text}\n",
                      encoding="utf-8")
    assert run_cli(capsys, "run", str(target)) == (
        2, "", f"error: {target}: line 6, column 26: {message}\n")
    with pytest.raises(SystemExit) as err:
        main(["sweep-width", "--final", "f", "--obs", "N(1-|1+)", f"--widths={text}"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --widths: {message}\n")


def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys):
    original = DATA / "all_queries.scn"
    marked = tmp_path / "all_queries.scn"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    for fmt in ("table", "csv", "json"):
        expected = run_cli(capsys, "run", str(original), "--format", fmt)
        assert run_cli(capsys, "run", str(marked), "--format", fmt)[:2] == expected[:2]
        assert expected[0] == 0
