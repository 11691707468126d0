"""Golden test of the command line: stdout, stderr and exit code, byte for
byte, for ``table --format json`` at n=2..4, ``check`` on PASS and FAIL
cells, ``search-manipulation`` with and without a finding,
``solve-weights``, ``prop1``, bad input that exits 2, and ``run --format
json`` of a merged atom, a real-line mixture with the average, the median,
the continuous family (off and on a unanimous profile) and an expanded
discrete family. Then the other formats: ``run``, ``check`` and
``table`` as csv, and as markdown a manipulation finding and none found,
``solve-weights`` with alternates, unique and in conflict, ``prop1``,
``solve-weights`` side constraints on w_2 (unique, in conflict, and
refused on a base system that is not point-determined), a first row
shifted below 0 (its conflict named at W_1, not at W_0), the table with its
footnotes and star line, a ``check`` PASS with its detail and a FAIL with
its witness, and ``run`` of a lottery's atoms and of a continuous family.

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
