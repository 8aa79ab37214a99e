"""The README documents what the command line and scenario parser accept."""

import argparse
import ast
import importlib
import math
import operator
import re
import shlex
from pathlib import Path

import numpy as np

import qpaths
from qpaths.cli import build_parser, main
from qpaths.meter import CUTOFF, MAX_RANK, taylor_rank
from qpaths.scenario_io import QUERY_KINDS, parse

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_format_choices_match_the_parser():
    documented = re.search(r"--format \{([^}]*)\}", README).group(1).split(",")
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        fmt = next(a for a in sub._actions if a.dest == "format")
        assert list(fmt.choices) == documented, name


def test_readme_query_kinds_match_the_parser():
    sentence = re.search(r"Query kinds:(.*?)\.\s", README, re.DOTALL).group(1)
    documented = [name for name in re.findall(r"`([^`]+)`", sentence)
                  if not name.endswith("=")]
    assert documented == list(QUERY_KINDS)


def test_readme_number_literals_parse_to_their_python_values():
    sentence = re.search(r"Number literals:(.*?)Query kinds:", README, re.DOTALL).group(1)
    literals = re.findall(r"`([^`]+)`", sentence)
    assert len(literals) == 12
    for literal in literals:
        doc = parse(f"dimension = 1\nbasis = x\nstate i = {literal}\nstate f = 1\n"
                    "query probabilities\n")
        # Python spells i as 1j and 2i as 2j, and a pair as complex(re, im)
        python = re.sub(r"(?<![\d.])i", "1i", literal).replace("i", "j")
        value = eval(python, {"sqrt": math.sqrt})
        if isinstance(value, tuple):
            value = complex(*value)
        assert doc.initial[0] == value, literal


def test_readme_command_lines_exit_zero(capsys):
    block = re.search(r"## Command line\s+```sh\n(.*?)```", README, re.DOTALL).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) == 8
    for argv in lines:
        assert argv[0] == "qpaths"
        if argv[1:] == ["run", "myscenario.scn"]:
            continue  # names a file the reader writes
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_readme_library_block_runs_and_its_comments_hold():
    block = re.search(r"## Library\s+```python\n(.*?)```", README, re.DOTALL).group(1)
    assert set(re.findall(r"\bqp\.(\w+)", block)) <= set(qpaths.__all__)
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        got = eval(expression, namespace)
        want = ast.literal_eval(comment.strip())
        if isinstance(want, tuple):
            assert np.array_equal(got, want), line
        else:
            assert got == want, line
        checked += 1
    assert checked == 6


def test_readme_layer_bullets_name_what_exists():
    bullets = re.search(r"Layer by layer:\n(.*?)\n## ", README, re.DOTALL).group(1)
    for bullet in re.split(r"\n\* ", "\n" + bullets.strip())[1:]:
        head = re.match(r"`(\w+)`", bullet)
        module = importlib.import_module(f"qpaths.{head.group(1)}")
        for name in re.findall(r"`([A-Za-z]\w*(?:\.\w+)*)`", bullet[head.end():]):
            if "_" in name or "." in name:
                operator.attrgetter(name)(module)  # AttributeError once a name is gone


def test_readme_meter_bullet_figures_match_the_code():
    bullet = " ".join(re.search(r"\n\* `meter` —(.*?)\n\* ", README, re.DOTALL).group(1).split())

    def rank(spreads):
        """Taylor rank of a mean reading whose meter is this many spreads wide."""
        return taylor_rank(1.0 / (16.0 * spreads * spreads))

    wide = re.search(r"as wide as the spectrum keeps p = (\d+)", bullet).group(1)
    assert {rank(r) for r in (1.0, 10.0, 1e6)} == {int(wide)}
    spreads, narrow = re.search(r"a meter of ([\d.]+) spreads takes (\d+)", bullet).groups()
    assert rank(float(spreads)) == int(narrow)
    assert int(re.search(r"`MAX_RANK` = (\d+)", bullet).group(1)) == MAX_RANK
    # the narrowest meter the factored kernel takes, found by bisection on the rank
    low, high = 0.01, 1.0
    for _ in range(60):
        middle = 0.5 * (low + high)
        low, high = (middle, high) if rank(middle) > MAX_RANK else (low, middle)
    edge = re.search(r"narrower than about ([\d.]+) spreads", bullet).group(1)
    assert round(high, 2) == float(edge)
    # README spells CUTOFF as √(60 ln 2)
    reach = re.search(r"√8·√\(60 ln 2\) ≈ ([\d.]+) widths", bullet).group(1)
    assert round(math.sqrt(8.0) * CUTOFF, 1) == float(reach)
