"""Proportionality is Strong Proportionality on the endpoint grid {0, 1}.

``axioms.check_proportionality`` runs Strong Proportionality's sweep and
exact hooks on ``axioms._endpoints(dom)``, the check domain at grid 1, and
keeps only its own det and exp rule. The reference below asks Strong
Proportionality's engine and exact path for the two-valued profiles over
the full grid's ends (0, 1) instead, as the checks once did. Random
mixtures of ``tests/test_rule_hooks.py`` on [0,1], at grids 1..6, must get
the same verdict bytes in every variant: det for each part alone, exp and
universal for the mixture. The explicit examples hold what derandomized
draws can miss: phantoms strictly inside [0,1], the family beside ranks and
unequal dictator shares, each at a grid whose first pair is not (0, 1).
"""

from dataclasses import replace

from hypothesis import example, given, strategies as st

from proploc import axioms
from proploc.core import ONE, UNIT_INTERVAL, ZERO, Average, Phantom, RankK, as_mixture
from proploc.mechanisms import format_mechanism

from test_rule_hooks import FAMILY, UNEQUAL_DICTATORS, UNIFORM, ends_grid, ends_profiles, mixtures

AVERAGE = "the average within every group's bound: every real profile"


def _verdict(variant, status, witness=None, detail=""):
    return axioms.AxiomVerdict(axioms.PROPORTIONALITY, variant, status, witness, detail).to_json()


def reference(mechanism, dom, variant):
    """Proportionality's verdict from Strong Proportionality's engine and
    exact path over the full grid's ends, with the rule's PASS detail."""
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    if variant == axioms.UNIVERSAL:
        parts = [(form, ONE) for form, _ in mixture.forms]
        if mixture.has_continuous:
            parts.append((RankK(dom.n), ONE))
        found = axioms._group_first(parts, dom, False, ends_grid, axioms._group_violation)
        if found is None:
            detail = AVERAGE if any(isinstance(form, Average) for form, _ in mixture.forms) else ""
            return _verdict(variant, axioms.PASS, detail=detail)
        index, witness, _ = found
        family = Phantom((ZERO,) * dom.n + (ONE,))
        part = mixture.components[index][0] if index < len(mixture.components) else family
        return _verdict(variant, axioms.FAIL, replace(witness, component=format_mechanism(part)))
    rule = axioms._slope_theorem(mixture, dom, True)
    if isinstance(rule, str):
        return _verdict(variant, axioms.PASS, detail=rule)
    if mixture.has_continuous:
        return _verdict(variant, *axioms._group_exact(mixture, dom, ends_profiles, axioms._group_violation))
    found = axioms._group_first(mixture.forms, dom, True, ends_grid, axioms._group_violation)
    return _verdict(variant, axioms.PASS) if found is None else _verdict(variant, axioms.FAIL, found[1])


@given(mixtures(UNIT_INTERVAL), st.integers(1, 6))
@example(UNIFORM, 5)
@example(FAMILY, 4)
@example(UNEQUAL_DICTATORS, 3)
def test_proportionality_on_the_endpoint_grid_matches_the_full_grids_ends(case, grid):
    mixture, dom = case
    dom = replace(dom, grid=grid)
    checks = [(mech, axioms.DET) for mech in dict.fromkeys(mech for mech, _ in mixture.components)]
    checks += [(mixture, axioms.EXP), (mixture, axioms.UNIVERSAL)]
    for mechanism, variant in checks:
        verdict = axioms.check_proportionality(mechanism, dom, variant)
        assert verdict.to_json() == reference(mechanism, dom, variant), (mechanism, variant)


def test_the_endpoint_domain_is_cached_and_the_hooks_are_shared():
    dom = axioms._endpoints(axioms.CheckDomain(3, 6))
    assert dom is axioms._endpoints(axioms.CheckDomain(3, 6))
    assert dom.points() == (0, 1)
    proportionality = axioms._HOOKS[axioms.PROPORTIONALITY]
    strong = axioms._HOOKS[axioms.STRONG_PROPORTIONALITY]
    assert proportionality[0] is strong[0] and proportionality[2] is strong[2]
