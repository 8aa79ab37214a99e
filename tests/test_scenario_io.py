import math
import sys
from importlib import resources

import numpy as np
import pytest

from qpaths import (KetState, ScenarioParseError, hardy, load_path, parse, scenario_io,
                    serialize, statespace, validate)

MINIMAL = """\
dimension = 2
basis = up down
state i = 1/sqrt(2) 1/sqrt(2)
state f = 1 0
query probabilities
"""


def shipped_text() -> str:
    return (resources.files("qpaths") / "data" / "hardy.scn").read_text(encoding="utf-8")


def test_parse_minimal_document():
    doc = parse(MINIMAL)
    assert doc.dimension == 2
    assert doc.basis_names == ("up", "down")
    assert doc.initial_name == "i"
    assert doc.initial == (complex(1 / math.sqrt(2)), complex(1 / math.sqrt(2)))
    assert doc.finals == (("f", (1 + 0j, 0j)),)
    assert doc.queries[0].kind == "probabilities"
    assert doc.name is None


def test_parse_shipped_scenario_file():
    doc = parse(shipped_text())
    assert doc.name == "pair-interferometers"
    assert doc.dimension == 5
    assert doc.basis_names == ("1-,1+", "1-,2+", "2-,1+", "2-,2+", "gamma")
    assert doc.initial_name == "i"
    assert [name for name, _ in doc.finals] == ["f", "g", "h", "j", "gamma"]
    assert len(doc.observables) == 8
    assert len(doc.queries) == 8
    assert doc.queries[2].kind == "network"
    assert doc.queries[2].argument("obs") == "N(1-|1+)"


def test_validated_shipped_scenario_matches_built_in():
    sc = validate(parse(shipped_text()))
    built = hardy()
    assert sc.space == built.space
    assert np.array_equal(sc.initial.amplitudes, built.initial.amplitudes)
    for name in built.finals:
        assert np.array_equal(sc.final(name).amplitudes,
                              built.final(name).amplitudes)
    for name in built.observables:
        assert sc.observable(name) == built.observable(name)
    assert sc.notes == ()  # nothing to warn about


def test_number_literal_forms():
    doc = parse("""\
dimension = 8
basis = a b c d e f g h
state i = 0.25 2.5e-1 1/4 1/sqrt(16) -0.25 +0.25 .25 25e-2
state f = 1+2i -1-0.5i 0.5i i -i 1/2i (0.25, -0.75) 1/sqrt(2)i
query probabilities
""")
    quarter = 0.25
    assert doc.initial == (quarter, quarter, quarter, quarter,
                           -quarter, quarter, quarter, quarter)
    expected = (1 + 2j, -1 - 0.5j, 0.5j, 1j, -1j, 0.5j, 0.25 - 0.75j,
                complex(0.0, 1 / math.sqrt(2)))
    assert doc.finals[0][1] == expected


def test_rationals_are_exact_quotients_past_the_float_range():
    ten = "1" + "0" * 401 + "/1" + "0" * 400  # 10**401 / 10**400
    zeros = "0" * 5000 + "1/" + "0" * 5000 + "2"  # int() reads 4300 digits at most
    doc = parse(MINIMAL.replace("1/sqrt(2) 1/sqrt(2)", f"{ten} -{zeros}"))
    assert doc.initial == (10.0, -0.5)
    negative_zero = parse(MINIMAL.replace("1/sqrt(2) 1/sqrt(2)", "-0/5 1")).initial[0]
    assert math.copysign(1.0, negative_zero.real) == -1.0


def test_literals_past_the_float_range_are_rejected():
    surd = "1/sqrt(1" + "0" * 400 + ")"  # 1e-200, not 0
    for bad in (surd, "1" + "0" * 400 + "/sqrt(2)", "1" + "0" * 400 + "/3", "1e999"):
        quoted = repr(bad) if len(bad) <= 40 else f"{bad[:40]!r}... ({len(bad)} characters)"
        expect_error(MINIMAL.replace("1/sqrt(2) 1/sqrt(2)", f"1 {bad}"), 3, 13,
                     f"literal {quoted} is not a finite number")


def test_rational_past_the_digit_limit_is_rejected_by_name():
    # 10**limit / 10**(limit - 1) = 10 is finite, but int() does not read its numerator
    limit = sys.get_int_max_str_digits()
    bad = "1" + "0" * limit + "/1" + "0" * (limit - 1)
    with pytest.raises(ScenarioParseError) as err:
        parse(MINIMAL.replace("1/sqrt(2) 1/sqrt(2)", f"1 {bad}"))
    assert (err.value.line, err.value.column) == (3, 13)
    assert err.value.message == (f"literal {bad[:40]!r}... ({len(bad)} characters) has an "
                                 f"integer longer than int()'s limit of {limit} digits")


def test_dimension_past_the_digit_limit_is_rejected_by_name():
    limit = sys.get_int_max_str_digits()
    bad = "1" + "0" * limit
    with pytest.raises(ScenarioParseError) as err:
        parse(MINIMAL.replace("dimension = 2", f"dimension = {bad}"))
    assert (err.value.line, err.value.column) == (1, 13)
    assert err.value.message == (f"dimension {bad[:40]!r}... ({len(bad)} characters) is "
                                 f"longer than int()'s limit of {limit} digits")


def test_dimension_with_leading_zeros_past_the_digit_limit_reads_its_value():
    padded = "0" * sys.get_int_max_str_digits() + "2"
    assert parse(MINIMAL.replace("dimension = 2", f"dimension = {padded}")).dimension == 2


@pytest.mark.parametrize("bad, message", [
    ("(1, 2, 3{})", "bad complex pair {}"), ("1x{}", "bad real literal {}"),
    ("1/sqrt({})", "surd radicand must be positive in {}"), ("1/0{}", "division by zero in {}"),
], ids=["pair", "real", "surd", "zero"])
def test_rejected_literals_are_quoted_by_an_excerpt(bad, message):
    bad = bad.format("0" * 10_000)
    with pytest.raises(ScenarioParseError) as err:
        parse(MINIMAL.replace("1/sqrt(2) 1/sqrt(2)", f"1 {bad}"))
    assert message.format(f"{bad[:40]!r}... ({len(bad)} characters)") in err.value.message
    assert len(err.value.message) < 200


def test_comments_and_blank_lines_are_ignored():
    text = MINIMAL.replace("basis = up down",
                           "\n# a comment\nbasis = up down  # trailing")
    assert parse(text) == parse(MINIMAL)


def expect_error(text: str, line: int, column: int | None = None, needle: str = ""):
    with pytest.raises(ScenarioParseError) as err:
        validate(parse(text))
    assert err.value.line == line
    if column is not None:
        assert err.value.column == column
    if needle:
        assert needle in err.value.message


def test_error_unknown_section():
    expect_error("dimensions = 2\n", 1, 1, "unknown section")


def test_error_bad_dimension():
    expect_error("dimension = zero\n", 1, 13, "positive integer")
    expect_error("dimension = 0\n", 1, 13, "positive integer")


def test_error_basis_requires_dimension():
    expect_error("basis = a b\n", 1, 1, "requires a 'dimension'")


def test_error_wrong_label_count():
    expect_error("dimension = 3\nbasis = a b\n", 2, 1, "expected 3 basis labels")


def test_error_duplicate_basis_label():
    expect_error("dimension = 2\nbasis = a a\n", 2, 11, "duplicate basis label")


def test_error_state_before_basis():
    expect_error("dimension = 2\nstate i = 1 0\n", 2, 1, "requires 'dimension' and 'basis'")


def test_non_ascii_digits_are_rejected_where_they_stand():
    # \d would match them, and int() and float() would read them
    expect_error("dimension = \u0662\n", 1, 13, "dimension must be a positive integer")
    expect_error("dimension = 2\nbasis = a b\nstate i = \u0661 \u0660\n", 3, 11,
                 "bad real literal '\u0661'")
    expect_error("dimension = 2\nbasis = a b\nobservable P = \u0661 0\n", 3, 16,
                 "bad real literal '\u0661'")


def test_error_wrong_value_count():
    expect_error("dimension = 2\nbasis = a b\nstate i = 1 0 0\n", 3, 1,
                 "expected 2 values")


def test_error_bad_literal_position():
    expect_error("dimension = 2\nbasis = a b\nstate i = 1 oops\n", 3, 13,
                 "bad real literal")


def test_error_bad_complex_pair():
    expect_error("dimension = 2\nbasis = a b\nstate i = (1,2a) 0\n", 3, 11,
                 "bad complex pair")
    # an unclosed parenthesis swallows the rest of the line as one token
    expect_error("dimension = 2\nbasis = a b\nstate i = (1, 2 1 0\n", 3, 1,
                 "expected 2 values")


def test_error_duplicate_name():
    text = "dimension = 2\nbasis = a b\nstate i = 1 0\nstate i = 0 1\nquery probabilities\n"
    expect_error(text, 4, 7, "duplicate name")


def test_error_missing_equals():
    expect_error("dimension 2\n", 1, needle="expected '='")


def test_error_observable_rejects_complex():
    text = "dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 0 1\nobservable A = 1 2i\n"
    expect_error(text, 5, 18, "bad real literal")


def test_error_reserved_document_name():
    expect_error("name = hardy\n", 1, 8, "reserved")


def test_error_bad_document_name():
    expect_error("name = has space\n", 1, needle="exactly one name")
    expect_error("name = wei|rd\n", 1, 8, "bad scenario name")


def test_error_missing_sections():
    expect_error("# nothing\n", 1, needle="missing 'dimension'")
    expect_error("dimension = 2\nquery amplitudes\n", 2, 1, "missing 'basis' line")
    expect_error("dimension = 2\nbasis = a b\n", 2, needle="missing 'state'")
    expect_error("dimension = 2\nbasis = a b\nstate i = 1 0\n", 3,
                 needle="at least one final")
    expect_error("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 0 1\n", 4,
                 needle="at least one query")


@pytest.mark.parametrize("keyword, text, line", [
    ("name", "name = a\nname oops\n" + MINIMAL, 2),
    ("dimension", "dimension = 2\n" + MINIMAL.replace("dimension = 2", "dimension = x"), 2),
    ("basis", MINIMAL.replace("basis = up down", "basis = up down\nbasis"), 3),
])
def test_error_duplicate_section(keyword, text, line):
    # the repeated line is rejected as a repeat before its own rules are checked
    expect_error(text, line, 1, f"duplicate '{keyword}' line")


LONG = 100_000


@pytest.mark.parametrize("text, line, column, message", [
    pytest.param("k" * LONG + " = 2\n", 1, 1,
                 f"unknown section {'k' * 40!r}... ({LONG} characters) (expected name, "
                 "dimension, basis, state, observable, or query)", id="section-keyword"),
    pytest.param(f"dimension = 2\nbasis = a b\nstate {'s' * LONG} = 1\n", 3, 1,
                 f"expected 2 values for {'s' * 40!r}... ({LONG} characters), got 1",
                 id="state-name"),
    pytest.param("dimension = 1" + "0" * 3999 + "\nbasis = a b\n", 2, 1,
                 "expected 1" + "0" * 39 + "... (4000 characters) basis labels, got 2",
                 id="dimension"),
])
def test_error_lines_quote_a_long_token_by_an_excerpt(text, line, column, message):
    with pytest.raises(ScenarioParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)
    assert len(str(err.value).encode()) < 200


@pytest.mark.parametrize("text, line, column, message", [
    pytest.param("dimension = 2\nbasis = a=b c\n", 2, 9,
                 "basis label 'a=b' may not contain '='", id="basis-label"),
    pytest.param("dimension = 2\nbasis = a b\nstate i=j = 1 0\n", 3, 7,
                 "state name 'i=j' may not contain '='", id="state-name"),
    pytest.param("dimension = 2\nbasis = a b\nstate\n", 3, 1,
                 "'state' needs a name", id="no-state-name"),
])
def test_error_lines_for_malformed_names(text, line, column, message):
    with pytest.raises(ScenarioParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_error_unknown_query_kind():
    text = MINIMAL + "query destiny\n"
    expect_error(text, 6, 7, "unknown query kind")
    expect_error(MINIMAL + "query  # and nothing else\n", 6, 1,
                 "'query' needs a kind: one of amplitudes, probabilities, network, weak, "
                 "mean-reading, scan, sum-rule, product-rule")


def test_error_query_argument_shape():
    expect_error(MINIMAL + "query weak final f obs=A\n", 6, 12, "key=value")
    expect_error(MINIMAL + "query weak =f obs=A\n", 6, 12,
                 "query argument '=f' must look like key=value")
    expect_error(MINIMAL + "query weak final= obs=A\n", 6, 12,
                 "query argument 'final=' must look like key=value")
    expect_error(MINIMAL + "query weak final=f final=f obs=A\n", 6, 20, "duplicate query argument")


def test_error_query_unknown_references():
    expect_error(MINIMAL + "query weak final=zz obs=A\n", 6, 12, "unknown final state")
    text = MINIMAL + "query weak final=f obs=A\n"
    expect_error(text, 6, 20, "unknown observable")


def test_error_query_missing_required():
    expect_error(MINIMAL + "query weak final=f\n", 6, needle="requires argument 'obs'")
    expect_error(MINIMAL + "query amplitudes final=f\n", 6, 18, "does not take argument")


def test_rejected_widths_are_quoted_by_an_excerpt():
    base = ("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 1/sqrt(2) 1/sqrt(2)\n"
            "observable A = 1 0\n")
    for width, needle in (("x" + "9" * 10_000, "must be a number, got"),
                          ("-0." + "0" * 10_000 + "1", "must be positive, got")):
        excerpt = f"{width[:40]!r}... ({len(width)} characters)"
        expect_error(base + f"query mean-reading final=f obs=A width={width}\n", 6,
                     needle=f"width {needle} {excerpt}")


def test_error_query_numeric_arguments():
    base = ("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 1/sqrt(2) 1/sqrt(2)\n"
            "observable A = 1 0\n")
    expect_error(base + "query mean-reading final=f obs=A width=banana\n", 6,
                 needle="must be a number")
    expect_error(base + "query mean-reading final=f obs=A width=-2\n", 6,
                 needle="must be positive")
    expect_error(base + "query scan final=f obs=A widths=,\n", 6,
                 needle="comma-separated")


def test_error_query_spread_and_projector_checks():
    base = ("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 1/sqrt(2) 1/sqrt(2)\n"
            "observable FLAT = 2 2\nobservable A = 1 0\nobservable B = 1 0\n"
            "observable SCALED = 2 0\n")
    expect_error(base + "query mean-reading final=f obs=FLAT width=1\n", 9,
                 needle="zero eigenvalue spread")
    expect_error(base + "query sum-rule final=f obs=SCALED obs2=A\n", 9,
                 needle="projector")
    expect_error(base + "query sum-rule final=f obs=A obs2=B\n", 9,
                 needle="disjoint support")


def test_error_zero_norm_state():
    text = "dimension = 2\nbasis = a b\nstate i = 0 0\nstate f = 1 0\nquery probabilities\n"
    expect_error(text, 3, 7, "zero norm")


def test_positions_are_kept_for_state_names_only():
    doc = parse("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 0 1\n"
                "observable P = 1 0\nquery probabilities\n")
    assert doc.positions == {"i": (3, 7), "f": (4, 7)}


def test_only_an_exactly_zero_state_has_zero_norm():
    text = ("dimension = 2\nbasis = a b\nstate i = 1 0\nstate f = 1e-13 3e-13\n"
            "query probabilities\n")
    sc = validate(parse(text))
    assert sc.final("f").amplitudes == pytest.approx([0.1 ** 0.5, 0.9 ** 0.5], rel=1e-15)
    assert sc.notes == ("state 'f' renormalized (declared norm 3.16227766017e-13)",)


def test_every_rescaled_state_has_a_note():
    # the norm is 1 + 1.9e-11: beyond statespace.ATOL, so unit_scaled rescales it
    text = ("dimension = 2\nbasis = a b\nstate i = 0.7071067812 0.7071067812\n"
            "state f = 1 0\nquery probabilities\n")
    sc = validate(parse(text))
    declared = np.array([0.7071067812, 0.7071067812], dtype=complex)
    assert not np.array_equal(sc.initial.amplitudes, declared)
    assert sc.notes == ("state 'i' renormalized (declared norm 1.00000000002)",)


def test_validation_notes_for_renormalization_and_overlap():
    text = ("dimension = 2\nbasis = a b\nstate i = 2 0\nstate f = 1 0\n"
            "state g = 1 1\nquery probabilities\n")
    sc = validate(parse(text))
    assert any("renormalized" in note for note in sc.notes)
    assert any("not orthogonal" in note for note in sc.notes)
    assert statespace.unit_scaled(sc.initial.amplitudes)[1] == pytest.approx(1.0, abs=1e-15)


def test_validate_takes_each_state_norm_once(monkeypatch):
    calls = []
    unit_scaled = statespace.unit_scaled

    def counting_unit_scaled(values):
        calls.append(values.size)
        return unit_scaled(values)

    monkeypatch.setattr(scenario_io, "unit_scaled", counting_unit_scaled)
    monkeypatch.setattr(statespace, "unit_scaled", counting_unit_scaled)
    text = ("dimension = 2\nbasis = a b\nstate i = 2 0\nstate f = 1 0\n"
            "state g = 1e200 -1e200i\nquery probabilities\n")
    sc = validate(parse(text))
    assert calls == [2, 2, 2]
    monkeypatch.undo()
    assert sc.notes == ("state 'i' renormalized (declared norm 2)",
                        "state 'g' renormalized (declared norm 1.41421356237e+200)",
                        "final states 'f' and 'g' are not orthogonal (|overlap| = 0.707107)")
    for state, declared in ((sc.initial, [2, 0]), (sc.finals["f"], [1, 0]),
                            (sc.finals["g"], [1e200, -1e200j])):
        assert np.array_equal(state.amplitudes, KetState(sc.space, declared).amplitudes)


def test_default_scenario_name():
    assert validate(parse(MINIMAL)).name == "scenario"
    named = "name = demo.case\n" + MINIMAL
    assert validate(parse(named)).name == "demo.case"


def test_round_trip_shipped_file():
    doc = parse(shipped_text())
    again = parse(serialize(doc))
    assert again == doc


def test_round_trip_gnarly_document():
    text = """\
name = gnarly-1
dimension = 3
basis = x y z
state init = (0.1, -0.25) 1/sqrt(3) -2.5e-3i
state out = 1+1i -1-1i 0
observable OBS = 1 0 1
query weak final=out obs=OBS
query scan final=out obs=OBS widths=0.5,5,50
"""
    doc = parse(text)
    again = parse(serialize(doc))
    assert again == doc
    assert serialize(again) == serialize(doc)


def test_load_path(tmp_path):
    target = tmp_path / "mini.scn"
    target.write_text(MINIMAL, encoding="utf-8")
    assert load_path(target) == parse(MINIMAL)
    target.write_text("\ufeff" + MINIMAL, encoding="utf-8")  # a leading byte-order mark
    assert load_path(target) == parse(MINIMAL)
