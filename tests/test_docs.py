"""The README documents what the command line and scenario parser accept."""

import argparse
import re
from pathlib import Path

from qpaths.cli import build_parser
from qpaths.scenario_io import QUERY_KINDS

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
