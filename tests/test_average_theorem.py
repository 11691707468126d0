"""The average's group-axiom theorem against exact costs and the sweep.

The ``Average`` meets SPF, proportionality and Strong Proportionality at
every real profile (the proof is in :mod:`proploc.axioms`), so those checks
decide an average part by theorem: a universal check sweeps only the other
parts, and a det or exp check of averages alone sweeps nothing. The tests
below hold the theorem to the exact costs of :mod:`proploc.analysis` on
random rational profiles, hold universal verdicts with an average part to
the sweep over every part, and assert that no average reaches the group
sweep.
"""

import re
from dataclasses import replace
from fractions import Fraction as F
from functools import partial
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from proploc import analysis, axioms, sweep
from proploc.core import ONE, REAL_LINE, UNIT_INTERVAL, Average, MechanismError, Profile, part_form
from proploc.mechanisms import build_mechanism, format_mechanism

from test_sp_theorem import mixtures

THEOREM = "the average within every group's bound: every real profile"
GROUP_AXIOMS = (axioms.PROPORTIONALITY, axioms.STRONG_PROPORTIONALITY, axioms.SPF)
VARIANTS = (axioms.DET, axioms.EXP, axioms.UNIVERSAL)


def _points(domain):
    if domain == UNIT_INTERVAL:
        return st.builds(F, st.integers(0, 12), st.sampled_from([1, 2, 3, 5, 12])).filter(lambda x: x <= 1)
    return st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7]))


@st.composite
def profiles(draw):
    """(domain, exact profile, the subsets to test): every subset at
    n <= 6, a drawn sample of them at n = 7, 8."""
    domain = draw(st.sampled_from([UNIT_INTERVAL, REAL_LINE]))
    n = draw(st.integers(2, 8))
    locations = tuple(draw(st.lists(_points(domain), min_size=n, max_size=n)))
    if n <= 6:
        subsets = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
    else:
        subsets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1).map(sorted), min_size=1, max_size=24))
    return Profile(domain, locations), subsets


def _average_costs(profile):
    return [analysis.expected_distance_to_point(Average(), profile, x) for x in profile.locations]


@given(profiles())
def test_average_cost_never_exceeds_a_subset_bound(case):
    profile, subsets = case
    n, X = profile.n, profile.locations
    spread = max(X) - min(X)
    costs = _average_costs(profile)
    for subset in subsets:
        inner = max(X[j] for j in subset) - min(X[j] for j in subset)
        bound = F((n - len(subset)) * spread + n * inner, n)
        assert all(costs[j] <= bound for j in subset), (X, subset)


@given(
    st.sampled_from([UNIT_INTERVAL, REAL_LINE]).flatmap(
        lambda domain: st.tuples(
            st.just(domain),
            st.lists(_points(domain), min_size=2, max_size=2, unique=True).map(sorted),
            st.integers(2, 8).flatmap(lambda n: st.lists(st.booleans(), min_size=n, max_size=n)),
        )
    )
)
def test_average_cost_equals_each_group_bound_on_two_valued_profiles(case):
    domain, (low, high), pattern = case
    profile = Profile(domain, tuple(high if bit else low for bit in pattern))
    n = profile.n
    for cost, x in zip(_average_costs(profile), profile.locations):
        size = profile.locations.count(x)
        assert cost == F(n - size, n) * (high - low)


FIRSTS = {
    axioms.PROPORTIONALITY: partial(
        axioms._group_first,
        profiles=partial(axioms._two_valued_grid, ends_only=True),
        violation=axioms._group_violation,
    ),
    axioms.STRONG_PROPORTIONALITY: partial(
        axioms._group_first,
        profiles=partial(axioms._two_valued_grid, ends_only=False),
        violation=axioms._group_violation,
    ),
    axioms.SPF: partial(axioms._group_first, profiles=sweep.sweep_profiles, violation=axioms._spf_violation),
    axioms.STRATEGYPROOFNESS: axioms._sp_first,
}


def _swept(axiom, mixture, dom):
    """The universal verdict of the sweep over every part, average included."""
    mechs = [mech for mech, _ in mixture.components]
    found = FIRSTS[axiom]([(part_form(mech, dom.n, dom.domain), ONE) for mech in mechs], dom, False)
    if found is None:
        detail = "" if axiom == axioms.STRATEGYPROOFNESS else THEOREM
        return axioms.AxiomVerdict(axiom, axioms.UNIVERSAL, axioms.PASS, detail=detail).to_json()
    index, witness, _ = found
    witness = replace(witness, component=format_mechanism(mechs[index]))
    return axioms.AxiomVerdict(axiom, axioms.UNIVERSAL, axioms.FAIL, witness).to_json()


@given(st.sampled_from([UNIT_INTERVAL, REAL_LINE]).flatmap(lambda domain: mixtures(domain, average=True)))
@example((build_mechanism("avg_or_rr:p=1/2", 3, UNIT_INTERVAL), axioms.CheckDomain(n=3, grid=2)))
@example((build_mechanism("avg_or_rr:p=3/5", 2, REAL_LINE), axioms.CheckDomain(n=2, grid=2, domain=REAL_LINE)))
def test_universal_verdicts_with_an_average_match_the_full_sweep(case):
    """A universal group check drops the average and keeps every FAIL of
    the sweep over all parts; universal strategyproofness, which the
    average can fail, still sweeps it."""
    mixture, dom = case
    axioms_here = FIRSTS if dom.domain == UNIT_INTERVAL else [a for a in FIRSTS if a != axioms.PROPORTIONALITY]
    for axiom in axioms_here:
        try:
            expected = _swept(axiom, mixture, dom)
        except MechanismError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                axioms.run_check(axiom, mixture, dom, axioms.UNIVERSAL)
            continue
        assert axioms.run_check(axiom, mixture, dom, axioms.UNIVERSAL).to_json() == expected, axiom


@pytest.fixture
def no_average_sweep(monkeypatch):
    """The group sweep raises when asked to sweep an average part."""
    engine = sweep.GroupSweep

    def guarded(scaled, profiles, combine):
        if scaled.averages:
            raise AssertionError("an average part reached the group sweep")
        return engine(scaled, profiles, combine)

    monkeypatch.setattr(sweep, "GroupSweep", guarded)
    monkeypatch.setattr(axioms, "GroupSweep", guarded)


@pytest.mark.parametrize("domain, grid", [(UNIT_INTERVAL, 6), (REAL_LINE, 8)])
@pytest.mark.parametrize("n", [2, 4, 9])
def test_average_group_checks_pass_without_a_sweep(no_average_sweep, domain, grid, n):
    dom = axioms.CheckDomain(n=n, grid=grid, domain=domain)
    for axiom in GROUP_AXIOMS if domain == UNIT_INTERVAL else GROUP_AXIOMS[1:]:
        for variant in VARIANTS:
            verdict = axioms.run_check(axiom, Average(), dom, variant)
            assert (verdict.status, verdict.witness, verdict.detail) == (axioms.PASS, None, THEOREM)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, REAL_LINE])
def test_average_or_random_rank_fails_universally_on_its_rank_part(no_average_sweep, domain):
    dom = axioms.CheckDomain(n=4, grid=8, domain=domain)
    mixture = build_mechanism("avg_or_rr:p=1/2", 4, domain)
    for axiom in GROUP_AXIOMS if domain == UNIT_INTERVAL else GROUP_AXIOMS[1:]:
        verdict = axioms.run_check(axiom, mixture, dom, axioms.UNIVERSAL)
        assert verdict.failed and verdict.witness.component == "rank:k=1"
        assert axioms.recheck_witness(mixture, verdict)
