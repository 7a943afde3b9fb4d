"""The report corpus (report_corpus.py): every pinned invocation reports
what its table row says, and no subcommand is left out of it."""

import argparse
import re
from pathlib import Path

import report_corpus

from omni import cli


def test_no_report_moved():
    table = report_corpus.TABLE.read_text().splitlines()
    assert report_corpus.moved(table, report_corpus.rows()) == []


def _subcommands():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def test_every_subcommand_has_a_row_that_exits_0():
    table = [line.split("\t") for line in report_corpus.TABLE.read_text().splitlines()]
    ok = {argv.partition(" ")[0] for _, code, argv in table if code == "0"}
    assert len(table) == len(report_corpus.ARGV)
    assert _subcommands() <= ok


def test_every_subcommand_is_in_the_readme_command_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"## CLI\n.*?```text\n(.*?)```", readme, re.S)
    assert {line.split()[0] for line in block.splitlines()} == _subcommands()
