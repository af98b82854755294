"""The north-star rule as a test: every pinned op prints the recorded bytes.

``report_corpus.json`` holds, for each op, the sha256 of its stdout and of
its stderr and its exit code, as ``record_report_corpus.py`` wrote them.  A
change that moves a report byte fails here, in the case named by the op.
Re-record only an op whose bytes a change intends to move.
"""

import json

import pytest

from qdouble import cli
from record_report_corpus import CORPUS, OPS, ROOT, SCENARIOS, run_op

RECORDED = json.loads(CORPUS.read_text())


def _check(argv):
    assert run_op(argv) == RECORDED[" ".join(argv)]


def test_corpus_covers_every_op():
    assert sorted(RECORDED) == sorted(" ".join(argv) for argv in OPS)


@pytest.mark.parametrize("argv", OPS, ids=[" ".join(argv) for argv in OPS])
def test_op_prints_the_recorded_bytes(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    _check(argv)


def test_a_one_character_change_fails_its_case(monkeypatch):
    """Negative control: the group report with one character changed."""
    monkeypatch.chdir(ROOT)
    argv = ("group", "--scenario", SCENARIOS[0])
    assert argv in OPS
    honest = cli.COMMANDS["group"]

    def altered(scenario, args):
        report = honest(scenario, args)
        report["subcommand"] = "groUp"
        return report

    monkeypatch.setitem(cli.COMMANDS, "group", altered)
    with pytest.raises(AssertionError):
        _check(argv)
