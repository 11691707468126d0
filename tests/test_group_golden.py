"""Catalog golden test of the group-bound axioms: proportionality, Strong
Proportionality and SPF in the det, exp and universal variants.

``golden_group_verdicts.json`` holds the full ``AxiomVerdict.to_json()`` of
every cell (or the error type it raised) for every catalog mechanism at
n=2..4, on the unit interval (grid 6) and the real line (grid 4), as the
scalar ``Fraction`` loop decided them before proportionality and Strong
Proportionality moved onto the block sweep. Verdicts, witnesses and details
must match exactly, and every FAIL witness must recheck.
"""

import json
from pathlib import Path

import pytest

from proploc import axioms, sweep
from proploc.core import MechanismError
from proploc.mechanisms import build_mechanism

GOLDEN = json.loads((Path(__file__).parent / "golden_group_verdicts.json").read_text())
CELLS = [cell.split() for cell in GOLDEN["cells"]]


@pytest.mark.parametrize(
    "row",
    GOLDEN["rows"],
    ids=[f"{r['domain']}-n{r['n']}-{r['mechanism']}" for r in GOLDEN["rows"]],
)
def test_group_verdicts_match_golden_catalog(row):
    domain, n = row["domain"], row["n"]
    dom = axioms.CheckDomain(n=n, grid=GOLDEN["grids"][domain], domain=domain)
    verdicts = []
    for axiom, variant in CELLS:
        try:
            mechanism = build_mechanism(row["mechanism"], n, domain)
            verdict = axioms.run_check(axiom, mechanism, dom, variant)
        except MechanismError as exc:
            verdicts.append({"error": type(exc).__name__})
            continue
        verdicts.append(verdict.to_json())
        if verdict.failed:
            assert axioms.recheck_witness(mechanism, verdict), (axiom, variant, verdict)
    assert verdicts == row["verdicts"]


@pytest.mark.parametrize("domain", ["unit_interval", "real_line"])
def test_first_block_failures_price_no_numpy_block(domain, monkeypatch):
    """Random Rank's universal SPF and Strong Proportionality at n=4 fail in
    the sweep's first block, which runs in Python ints: with the block
    pricing of ``GroupSweep`` refused, both still FAIL with their golden
    witnesses, so no numpy block was priced."""

    def refuse(self, X):
        raise AssertionError("a numpy block was priced")

    monkeypatch.setattr(sweep.GroupSweep, "prices", refuse)
    row = next(r for r in GOLDEN["rows"] if (r["mechanism"], r["n"], r["domain"]) == ("random_rank", 4, domain))
    dom = axioms.CheckDomain(n=4, grid=GOLDEN["grids"][domain], domain=domain)
    mechanism = build_mechanism("random_rank", 4, domain)
    for axiom in ("spf", "strong_proportionality"):
        verdict = axioms.run_check(axiom, mechanism, dom, axioms.UNIVERSAL)
        assert verdict.failed
        assert verdict.to_json() == row["verdicts"][GOLDEN["cells"].index(f"{axiom} universal")]
