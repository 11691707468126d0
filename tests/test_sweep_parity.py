"""Catalog golden test of strategyproofness, manipulation search, anonymity
and efficiency.

``golden_sweep_verdicts.json`` holds, for every catalog mechanism at n=2..4
on the unit interval (grid 6) and the real line (grid 4), the full
``AxiomVerdict.to_json()`` of strategyproofness, anonymity and efficiency in
the det, exp and universal variants, and the ``to_json()`` of the
manipulation search's finding (null when there is none); a cell that raises
holds its error type and message. Everything must match exactly; every FAIL
witness must also recheck, and every search gain is recomputed through
``analysis``.
"""

import json
from pathlib import Path

import pytest

from proploc import analysis, axioms
from proploc.core import MechanismError, Profile, as_mixture
from proploc.mechanisms import build_mechanism

GOLDEN = json.loads((Path(__file__).parent / "golden_sweep_verdicts.json").read_text())
CELLS = [cell.split() for cell in GOLDEN["cells"]]


def _check_finding(mechanism, domain, n, finding):
    profile = Profile(domain, finding.profile)
    truth = profile.locations[finding.agent - 1]
    mixture = as_mixture(mechanism, n, domain)
    deviated = profile.replace(finding.agent, finding.misreport)
    assert analysis.expected_distance_to_point(mixture, profile, truth) == finding.truthful_cost
    assert analysis.expected_distance_to_point(mixture, deviated, truth) == finding.deviating_cost
    assert finding.gain > 0


def _run_cell(mechanism_text, domain, n, dom, cell):
    mechanism = build_mechanism(mechanism_text, n, domain)
    if cell == ["search"]:
        finding = axioms.search_manipulation(mechanism, dom)
        if finding is None:
            return None
        _check_finding(mechanism, domain, n, finding)
        return finding.to_json()
    verdict = axioms.run_check(cell[0], mechanism, dom, cell[1])
    if verdict.failed:
        assert axioms.recheck_witness(mechanism, verdict), (cell, verdict)
    return verdict.to_json()


@pytest.mark.parametrize(
    "row",
    GOLDEN["rows"],
    ids=[f"{r['domain']}-n{r['n']}-{r['mechanism']}" for r in GOLDEN["rows"]],
)
def test_sweep_verdicts_match_recorded_catalog(row):
    domain, n = row["domain"], row["n"]
    dom = axioms.CheckDomain(n=n, grid=GOLDEN["grids"][domain], domain=domain)
    results = []
    for cell in CELLS:
        try:
            results.append(_run_cell(row["mechanism"], domain, n, dom, cell))
        except MechanismError as exc:
            results.append({"error": type(exc).__name__, "message": str(exc)})
    assert results == row["results"]
