"""Golden test of the command line: stdout, stderr and exit code, byte for
byte, for ``table --format json`` at n=2..4, ``check`` on PASS and FAIL
cells, ``search-manipulation`` with and without a finding,
``solve-weights``, ``prop1`` and bad input that exits 2.

``golden_cli.json`` holds each case's argv and what it printed.
"""

import json
from pathlib import Path

import pytest

from proploc.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=[" ".join(case["argv"]) for case in GOLDEN["cases"]])
def test_cli_output_matches_golden(capsys, case):
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
