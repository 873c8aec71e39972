"""CLI output is byte-identical to the committed corpus (see cli_corpus.py)."""

from __future__ import annotations

import json

import cli_corpus
from posp import cli


def test_cli_output_matches_the_corpus(monkeypatch):
    monkeypatch.delenv("POSP_BUDGET", raising=False)
    expected = json.loads(cli_corpus.CORPUS.read_text())
    actual = cli_corpus.corpus(cli.main)
    assert sorted(actual) == sorted(expected)
    output = [run for run in expected if actual[run][0] != expected[run][0]]
    statistics = [run for run in expected if actual[run][1] != expected[run][1]]
    assert not output, f"{len(output)} runs changed exit code, stdout or stderr: {output[:10]}"
    assert not statistics, f"{len(statistics)} runs changed statistics: {statistics[:10]}"
