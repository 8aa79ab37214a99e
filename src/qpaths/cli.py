"""Command-line frontend.

Subcommands run the built-in scenarios or a scenario file and emit
tables as aligned text (default), CSV, or JSON.  Every number in the
output is produced by exactly one library call; this layer only
formats.  Exit codes: 0 on success, 4 when `verify` finds a failure,
and otherwise the ``exit_code`` of the error raised (see errors.py).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import TextIO

from .errors import PostSelectionImpossible, QPathsError, ScenarioParseError
from .measurement import (build_network, conditional_reading_distribution,
                          product_rule_report, sum_rule_report)
from .meter import MeterModel, mean_reading, scaled_widths, weak_value
from .oracle import verification_checks
from .pathsum import amplitude_table, decompose
from .scenario_io import QUERY_ARGS, QUERY_VALUE_TYPES, QueryDirective, load_path, validate
from .scenarios import Scenario, built_in, epsilon_grid, hardy_epsilon


@dataclass(frozen=True)
class Table:
    """One titled grid of cells: float, complex, bool, int, str, or None."""

    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _real_text(x: float) -> str:
    return f"{float(x) + 0.0:.12g}"  # adding 0.0 turns -0.0 into 0.0


def _cell_text(cell) -> str:
    if cell is None:
        return "undefined"
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, complex):
        return f"({_real_text(cell.real)}, {_real_text(cell.imag)})"
    if isinstance(cell, float):
        return _real_text(cell)
    return str(cell)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_real(x: float) -> str:
    text = repr(float(_real_text(x)))
    return _JSON_NONFINITE.get(text, text)


def _json_cell(cell) -> str:
    """One row value as json.dumps(indent=2) writes it, 8 spaces deep."""
    if isinstance(cell, float):
        return _json_real(cell)
    if isinstance(cell, complex):
        return (f'{{\n          "re": {_json_real(cell.real)},\n'
                f'          "im": {_json_real(cell.imag)}\n        }}')
    if isinstance(cell, str):
        return _json_string(cell)
    if cell is None:
        return "null"
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, int):
        return int.__repr__(cell)
    return _json_string(str(cell))


def _write_json_table(t: Table, out: TextIO) -> None:
    """Write the table's object to out, a row at a time."""
    names = ",\n".join(f"      {_json_string(c)}" for c in t.columns)
    columns = f"[\n{names}\n    ]" if t.columns else "[]"
    out.write(f'  {{\n    "title": {_json_string(t.title)},\n'
              f'    "columns": {columns},\n    "rows": ')
    if not t.rows:
        out.write("[]\n  }")
        return
    # a repeated column is one key: first position, last value (as a dict)
    last = {c: k for k, c in enumerate(t.columns)}
    keys = [(f"        {_json_string(c)}: ", k) for c, k in last.items()]
    separator = "[\n"
    for row in t.rows:
        if keys:
            body = ",\n".join([key + _json_cell(row[k]) for key, k in keys])
            out.write(f"{separator}      {{\n{body}\n      }}")
        else:
            out.write(f"{separator}      {{}}")
        separator = ",\n"
    out.write("\n    ]\n  }")


def _write_table_lines(t: Table, out: TextIO) -> None:
    """Write the table as aligned text: one pass for the column widths, one to write."""
    widths = [len(c) for c in t.columns]
    for row in t.rows:
        widths = list(map(max, widths, map(len, map(_cell_text, row))))

    def line(texts) -> str:
        return "  ".join(text.ljust(w) for text, w in zip(texts, widths)).rstrip() + "\n"

    out.write(f"{t.title}\n{line(t.columns)}{'  '.join('-' * w for w in widths)}\n")
    for row in t.rows:
        out.write(line(map(_cell_text, row)))


def emit(fmt: str, tables: list[Table], out: TextIO) -> None:
    """Write tables deterministically to out in the requested format."""
    if fmt == "json":
        # the layout of json.dumps(payload, indent=2), written directly
        if not tables:
            out.write("[]\n")
            return
        for k, t in enumerate(tables):
            out.write(",\n" if k else "[\n")
            _write_json_table(t, out)
        out.write("\n]\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        for k, t in enumerate(tables):
            if len(tables) > 1:
                out.write(f"\n# {t.title}\n" if k else f"# {t.title}\n")
            writer.writerow(t.columns)
            for row in t.rows:
                writer.writerow([_cell_text(v) for v in row])
        return
    # aligned human-readable text; a run with no tables prints one empty line
    if not tables:
        out.write("\n")
    for k, t in enumerate(tables):
        if k:
            out.write("\n")
        _write_table_lines(t, out)


def amplitudes_table(scenario: Scenario) -> Table:
    values = amplitude_table(scenario.initial, scenario.finals)
    rows = tuple((label, *row) for label, row in zip(scenario.space.labels, values.tolist()))
    return Table(title=f"path amplitudes ({scenario.name})",
                 columns=("path", *scenario.finals),
                 rows=rows)


def probabilities_table(scenario: Scenario) -> Table:
    rows = []
    for name, fin in scenario.finals.items():
        amp = decompose(scenario.initial, fin).total_amplitude
        rows.append((name, complex(amp), float(abs(amp) ** 2)))
    return Table(title=f"transition probabilities ({scenario.name})",
                 columns=("final", "amplitude", "probability"),
                 rows=tuple(rows))


def network_table(scenario: Scenario, final_name: str, obs_name: str) -> Table:
    net = build_network(scenario.initial, scenario.final(final_name),
                        scenario.observable(obs_name))
    try:
        conditional = conditional_reading_distribution(net)
    except PostSelectionImpossible:
        conditional = None
    rows = []
    for cls, probability in zip(net.classes, net.probabilities.tolist()):
        paths = " + ".join(scenario.space.labels[k] for k in cls.members)
        rows.append((float(cls.eigenvalue), paths, len(cls.members),
                     complex(cls.amplitude), probability,
                     None if conditional is None else float(conditional[cls.eigenvalue])))
    return Table(title=f"pathway network ({scenario.name}, final {final_name}, "
                       f"observable {obs_name})",
                 columns=("eigenvalue", "paths", "multiplicity", "amplitude",
                          "probability", "conditional"),
                 rows=tuple(rows))


def weak_table(scenario: Scenario, final_name: str, obs_name: str) -> Table:
    dec = decompose(scenario.initial, scenario.final(final_name))
    result = weak_value(dec, scenario.observable(obs_name))
    row = (scenario.name, final_name, obs_name,
           complex(result.complex_value), float(result.reported))
    return Table(title=f"weak value ({scenario.name}, final {final_name}, "
                       f"observable {obs_name})",
                 columns=("scenario", "final", "observable", "complex_value", "reported"),
                 rows=(row,))


def mean_reading_table(scenario: Scenario, final_name: str, obs_name: str,
                       width_ratio: float) -> Table:
    obs = scenario.observable(obs_name)
    dec = decompose(scenario.initial, scenario.final(final_name))
    width = scaled_widths(obs, (width_ratio,))[0]
    mean = mean_reading(dec, obs, MeterModel(width))
    return Table(title=f"mean reading ({scenario.name}, final {final_name}, "
                       f"observable {obs_name})",
                 columns=("final", "observable", "width_ratio", "width", "mean_reading"),
                 rows=((final_name, obs_name, float(width_ratio), float(width),
                        float(mean)),))


def width_sweep_table(scenario: Scenario, final_name: str, obs_name: str,
                      ratios: tuple[float, ...]) -> Table:
    obs = scenario.observable(obs_name)
    dec = decompose(scenario.initial, scenario.final(final_name))
    widths = scaled_widths(obs, ratios)
    rows = []
    target = None
    for ratio, width in zip(ratios, widths):
        mean = mean_reading(dec, obs, MeterModel(width))
        if target is None:  # after the first mean, so the first error raised stays the same
            target = weak_value(dec, obs).reported
        rows.append((float(ratio), float(width), float(mean), float(abs(mean - target))))
    return Table(title=f"width sweep ({scenario.name}, final {final_name}, "
                       f"observable {obs_name})",
                 columns=("width_ratio", "width", "mean_reading", "weak_value_error"),
                 rows=tuple(rows))


def sum_rule_table(scenario: Scenario, final_name: str,
                   first_name: str, second_name: str) -> Table:
    report = sum_rule_report(scenario.initial, scenario.final(final_name),
                             scenario.observable(first_name),
                             scenario.observable(second_name))
    rows = (
        ("post-selected", float(report.joint_first), float(report.joint_second),
         float(report.joint_combined), bool(report.holds_postselected)),
        ("all-outcomes", float(report.all_outcomes_first),
         float(report.all_outcomes_second), float(report.all_outcomes_combined),
         bool(report.holds_all_outcomes)),
    )
    return Table(title=f"sum rule ({scenario.name}, final {final_name}, "
                       f"{first_name} + {second_name})",
                 columns=("setting", first_name, second_name, "combined", "holds"),
                 rows=rows)


def product_rule_table(scenario: Scenario, final_name: str,
                       first_name: str, second_name: str) -> Table:
    report = product_rule_report(scenario.initial, scenario.final(final_name),
                                 scenario.observable(first_name),
                                 scenario.observable(second_name))
    row = (report.certain_first, report.certain_second, report.certain_product,
           bool(report.holds))
    return Table(title=f"product rule ({scenario.name}, final {final_name}, "
                       f"{first_name} * {second_name})",
                 columns=(f"certain {first_name}", f"certain {second_name}",
                          "certain product", "holds"),
                 rows=(row,))


def table2_table(scenario: Scenario) -> Table:
    rows = []
    for obs_name, obs in scenario.observables.items():
        for final_name, fin in scenario.finals.items():
            net = build_network(scenario.initial, fin, obs)
            classes = " ".join(f"{_real_text(ev)}:{_real_text(p)}" for ev, p in
                               zip(obs.classes.values.tolist(), net.probabilities.tolist()))
            rows.append((obs_name, final_name, float(net.perturbed_probability), classes))
    return Table(title=f"measured transition probabilities ({scenario.name})",
                 columns=("observable", "final", "probability", "classes"),
                 rows=tuple(rows))


def verify_table() -> tuple[Table, int]:
    checks = verification_checks()
    rows = tuple((c.name, "pass" if c.passed else "fail",
                  float(c.deviation), float(c.tolerance)) for c in checks)
    table = Table(title="oracle verification",
                  columns=("check", "status", "max_deviation", "tolerance"),
                  rows=rows)
    return table, (0 if all(c.passed for c in checks) else 4)


def scan_epsilon_table(obs_name: str, final_name: str, start: float,
                       stop: float, steps: int) -> Table:
    rows = []
    for eps in epsilon_grid(start, stop, steps):
        scenario = hardy_epsilon(eps)
        dec = decompose(scenario.initial, scenario.final(final_name))
        result = weak_value(dec, scenario.observable(obs_name))
        rows.append((float(eps), complex(result.complex_value), float(result.reported)))
    return Table(title=f"weak value of {obs_name} versus epsilon (final {final_name})",
                 columns=("epsilon", "complex_value", "reported"),
                 rows=tuple(rows))


def _ratio_list(text: str) -> tuple[float, ...]:
    try:
        return QUERY_VALUE_TYPES["widths"](text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


QUERY_TABLES = {
    "amplitudes": amplitudes_table,
    "probabilities": probabilities_table,
    "network": network_table,
    "weak": weak_table,
    "mean-reading": mean_reading_table,
    "scan": width_sweep_table,
    "sum-rule": sum_rule_table,
    "product-rule": product_rule_table,
}


def execute_query(scenario: Scenario, q: QueryDirective) -> Table:
    """The kind's table, called with the query's arguments in QUERY_ARGS order."""
    values = (QUERY_VALUE_TYPES.get(key, str)(q.argument(key))
              for key in QUERY_ARGS[q.kind])
    return QUERY_TABLES[q.kind](scenario, *values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpaths",
        description="Path amplitudes, pathway networks, meters, and weak values "
                    "for pre- and post-selected systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "csv", "json"), default="table",
                       help="output format (default: aligned table)")

    def add_scenario(p, default=None):
        p.add_argument("--scenario", default=default, required=default is None,
                       help="built-in scenario name: three-box, hardy, hardy-epsilon")
        p.add_argument("--beta", type=float, default=0.5,
                       help="three-box path amplitude magnitude (default 0.5)")
        p.add_argument("--epsilon", type=float, default=0.5,
                       help="hardy-epsilon final-state parameter (default 0.5)")

    p = sub.add_parser("table1", help="path amplitudes of the built-in hardy scenario")
    add_format(p)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("table2", help="measured transition probabilities of hardy")
    add_format(p)
    p.set_defaults(handler=_cmd_table2)

    # network, weak and sweep-width run their query kind's table, as a .scn query does
    for kind, what in (("network", "pathway classes"), ("weak", "weak value")):
        p = sub.add_parser(kind, help=f"{what} for one final and observable")
        add_scenario(p)
        p.add_argument("--final", required=True)
        p.add_argument("--obs", required=True)
        add_format(p)
        p.set_defaults(handler=_cmd_query, kind=kind)

    p = sub.add_parser("scan-epsilon",
                       help="weak value versus epsilon in the hardy-epsilon family")
    p.add_argument("--from", dest="eps_from", type=float, required=True)
    p.add_argument("--to", dest="eps_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--final", default="f")
    add_format(p)
    p.set_defaults(handler=_cmd_scan_epsilon)

    p = sub.add_parser("sweep-width",
                       help="mean reading versus meter width (in eigenvalue-spread units)")
    add_scenario(p, default="hardy")
    p.add_argument("--final", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--widths", type=_ratio_list, default=(1.0, 10.0, 100.0),
                   help="comma-separated width ratios (default 1,10,100)")
    add_format(p)
    p.set_defaults(handler=_cmd_query, kind="scan")

    p = sub.add_parser("verify", help="cross-check both computation routes")
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("run", help="execute the queries of a scenario file")
    p.add_argument("file", help="path to a .scn scenario file")
    add_format(p)
    p.set_defaults(handler=_cmd_run)

    return parser


def _cmd_table1(args):
    return [amplitudes_table(built_in("hardy"))], 0


def _cmd_table2(args):
    return [table2_table(built_in("hardy"))], 0


def _cmd_query(args):
    scenario = built_in(args.scenario, beta=args.beta, epsilon=args.epsilon)
    values = (getattr(args, key) for key in QUERY_ARGS[args.kind])
    return [QUERY_TABLES[args.kind](scenario, *values)], 0


def _cmd_scan_epsilon(args):
    return [scan_epsilon_table(args.obs, args.final, args.eps_from,
                               args.eps_to, args.steps)], 0


def _cmd_verify(args):
    table, code = verify_table()
    return [table], code


def _cmd_run(args):
    doc = load_path(args.file)
    scenario = validate(doc)
    queries = doc.queries
    # the scenario holds its own arrays; the document's literals would only
    # stay alive through the query loop
    del doc
    for note in scenario.notes:
        print(f"note: {args.file}: {note}", file=sys.stderr)
    tables = [execute_query(scenario, q) for q in queries]
    return tables, 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tables, code = args.handler(args)
    except (QPathsError, OSError, ValueError, MemoryError) as exc:
        # only `run` parses a file, so a parse error always has one to name
        prefix = f"{args.file}: " if isinstance(exc, ScenarioParseError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    # every query has run, so a failed run has already returned with stdout empty
    try:
        emit(args.format, tables, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): send the unflushed rest to the null
        # device, so that the flush at interpreter exit does not fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no file descriptor, or closed
            return code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
