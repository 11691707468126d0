"""Catalog parity of the strategyproofness, manipulation-search and
anonymity sweeps against recorded verdicts.

``golden_sweep_verdicts.json`` holds the status of every cell for every
catalog mechanism at n=2..4, on the unit interval (grid 6) and the real line
(grid 4), as the earlier scalar engine decided them, plus the gain of every
manipulation found. Witnesses may differ from that engine's (a misreport now
lies on a breakpoint), so each FAIL witness is rechecked instead of compared.
"""

import json
from pathlib import Path

import pytest

from proploc import analysis, axioms
from proploc.core import MechanismError, Profile, as_mixture, format_point
from proploc.mechanisms import build_mechanism

GOLDEN = json.loads((Path(__file__).parent / "golden_sweep_verdicts.json").read_text())
CELLS = [cell.split() for cell in GOLDEN["cells"]]


def _run_cell(mechanism, dom, cell):
    if cell == ["search"]:
        finding = axioms.search_manipulation(mechanism, dom)
        return ("none" if finding is None else "found"), finding
    verdict = axioms.run_check(cell[0], mechanism, dom, cell[1])
    return verdict.status, verdict


@pytest.mark.parametrize(
    "row",
    GOLDEN["rows"],
    ids=[f"{r['domain']}-n{r['n']}-{r['mechanism']}" for r in GOLDEN["rows"]],
)
def test_sweep_verdicts_match_recorded_catalog(row):
    domain, n = row["domain"], row["n"]
    dom = axioms.CheckDomain(n=n, grid=GOLDEN["grids"][domain], domain=domain)
    statuses = []
    for cell in CELLS:
        try:
            mechanism = build_mechanism(row["mechanism"], n, domain)
            status, result = _run_cell(mechanism, dom, cell)
        except MechanismError as exc:
            statuses.append("error:" + type(exc).__name__)
            continue
        statuses.append(status)
        if status == axioms.FAIL:
            assert axioms.recheck_witness(mechanism, result), (cell, result)
        if status == "found":
            assert format_point(result.gain) == row["search_gain"]
            profile = Profile(domain, result.profile)
            truth = profile.locations[result.agent - 1]
            mixture = as_mixture(mechanism, n, domain)
            deviated = profile.replace(result.agent, result.misreport)
            assert analysis.expected_distance_to_point(mixture, profile, truth) == result.truthful_cost
            assert analysis.expected_distance_to_point(mixture, deviated, truth) == result.deviating_cost
    assert statuses == row["statuses"]
