"""Differential tests: the block sweep engine against a plain rational loop.

Random finite mixtures of rank, dictator, phantom and average mechanisms
are checked by the engine and by a loop over the same profiles and
candidate misreports that prices every report with
``analysis.expected_distance_to_point``. Verdicts, first witnesses and the
largest manipulation gain must agree. Proportionality and Strong
Proportionality are checked the same way, against a loop over the
two-valued profiles and their groups.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from proploc import analysis, axioms, sweep
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    Infinite,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    grid_points,
    mechanism_is_anonymous,
)
from proploc.mechanisms import format_mechanism
from proploc.sweep import SpSweep


def _finite_phantoms(mechs):
    return sorted(
        {y for mech in mechs if isinstance(mech, Phantom) for y in mech.phantoms if not isinstance(y, Infinite)}
    )


def _reference_instances(mechs, dom):
    """(profile, agent, report) in the engine's order: profiles, agents
    (an anonymous sweep skips an agent repeating the previous report), then
    the sorted breakpoint candidates."""
    points = grid_points(dom.domain, dom.grid)
    anonymous = all(mechanism_is_anonymous(mech) for mech in mechs)
    has_avg = any(isinstance(mech, Average) for mech in mechs)
    fixed = [points[0], points[-1], *_finite_phantoms(mechs)]
    if dom.domain == REAL_LINE:
        fixed += [points[0] - 1, points[-1] + 1]
    profiles = combinations_with_replacement(points, dom.n) if anonymous else product(points, repeat=dom.n)
    for X in profiles:
        for i, true in enumerate(X):
            if anonymous and i and X[i - 1] == true:
                continue
            candidates = fixed + list(X)
            if has_avg:
                balance = dom.n * true - (sum(X) - true)
                inside = dom.domain == REAL_LINE or 0 <= balance <= 1
                candidates.append(balance if inside else true)
            for report in sorted(candidates):
                yield X, i, report


def _costs(mechanism, X, i, report, domain):
    profile = Profile(domain, X)
    truthful = analysis.expected_distance_to_point(mechanism, profile, X[i])
    deviating = analysis.expected_distance_to_point(mechanism, profile.replace(i + 1, report), X[i])
    return truthful, deviating


def _reference_first(mechanism, mechs, dom):
    for X, i, report in _reference_instances(mechs, dom):
        truthful, deviating = _costs(mechanism, X, i, report, dom.domain)
        if deviating < truthful:
            return X, i + 1, report, deviating, truthful
    return None


def _witness_key(witness):
    return witness.profile, witness.agent, witness.misreport, witness.lhs, witness.bound


fractions = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def mixtures(draw, domain):
    n = draw(st.integers(2, 3))
    grid = draw(st.integers(1, 4 if domain == UNIT_INTERVAL else 2))

    def phantom():
        if domain == UNIT_INTERVAL:
            values = [min(v, F(1)) for v in draw(st.lists(fractions, min_size=n + 1, max_size=n + 1))]
            return Phantom(tuple(sorted(values)))
        neg = draw(st.integers(0, n))
        pos = draw(st.integers(0, n - neg))
        middle = draw(st.lists(fractions.map(lambda v: v - 3), min_size=n + 1 - neg - pos, max_size=n + 1 - neg - pos))
        return Phantom((NEG_INF,) * neg + tuple(sorted(middle)) + (POS_INF,) * pos)

    kinds = draw(st.lists(st.sampled_from(["rank", "dict", "phantom", "avg"]), min_size=1, max_size=3))
    mechs = []
    for kind in kinds:
        if kind == "rank":
            mechs.append(RankK(draw(st.integers(1, n))))
        elif kind == "dict":
            mechs.append(Dictator(draw(st.integers(1, n))))
        elif kind == "phantom":
            mechs.append(phantom())
        else:
            mechs.append(Average())
    raw = draw(st.lists(st.integers(1, 5), min_size=len(mechs), max_size=len(mechs)))
    weights = [F(w, sum(raw)) for w in raw]
    mixture = RandomizedMechanism(n, domain, tuple(zip(mechs, weights)))
    return mixture, axioms.CheckDomain(n=n, grid=grid, domain=domain)


domains = st.sampled_from([UNIT_INTERVAL, REAL_LINE])


@given(domains.flatmap(mixtures))
def test_sp_in_expectation_matches_plain_loop(case):
    mixture, dom = case
    mechs = mixture.component_mechanisms()
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.EXP)
    expected = _reference_first(mixture, mechs, dom)
    if expected is None:
        assert verdict.passed
    else:
        assert verdict.failed
        assert _witness_key(verdict.witness) == expected
        assert axioms.recheck_witness(mixture, verdict)


@given(domains.flatmap(mixtures))
def test_universal_sp_matches_plain_loop(case):
    mixture, dom = case
    mechs = mixture.component_mechanisms()
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.UNIVERSAL)
    for mech in mechs:
        expected = _reference_first(mech, mechs, dom)
        if expected is not None:
            assert verdict.failed
            assert verdict.witness.component == format_mechanism(mech)
            assert _witness_key(verdict.witness) == expected
            assert axioms.recheck_witness(mixture, verdict)
            return
    assert verdict.passed


def _reference_best(mechanism, mechs, dom):
    """The first instance of the largest gain, or None if no gain."""
    best = None
    for X, i, report in _reference_instances(mechs, dom):
        truthful, deviating = _costs(mechanism, X, i, report, dom.domain)
        if truthful - deviating > (best[0] if best else 0):
            best = truthful - deviating, X, i + 1, report
    return best


@given(domains.flatmap(mixtures))
def test_search_matches_plain_loop_maximum(case):
    mixture, dom = case
    finding = axioms.search_manipulation(mixture, dom)
    expected = _reference_best(mixture, mixture.component_mechanisms(), dom)
    if expected is None:
        assert finding is None
    else:
        assert (finding.gain, finding.profile, finding.agent, finding.misreport) == expected


@given(domains.flatmap(mixtures))
def test_tiny_blocks_keep_order_and_ties(case):
    """With a few profiles per block, the cross-block reductions (first
    failing component, strictly larger gain) give the same answers."""
    mixture, dom = case
    mechs = mixture.component_mechanisms()
    with mock.patch.object(sweep, "BLOCK_ELEMENTS", 64):
        verdict = axioms.check_strategyproofness(mixture, dom, axioms.EXP)
        universal = axioms.check_strategyproofness(mixture, dom, axioms.UNIVERSAL)
        finding = axioms.search_manipulation(mixture, dom)
    assert (verdict.witness and _witness_key(verdict.witness)) == _reference_first(mixture, mechs, dom)
    first = next(
        ((mech, found) for mech in mechs if (found := _reference_first(mech, mechs, dom))), None
    )
    if first is None:
        assert universal.passed
    else:
        assert universal.witness.component == format_mechanism(first[0])
        assert _witness_key(universal.witness) == first[1]
    expected = _reference_best(mixture, mechs, dom)
    assert (finding and (finding.gain, finding.profile, finding.agent, finding.misreport)) == expected


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, REAL_LINE])
def test_large_denominators_take_python_int_path_and_agree(domain):
    """A phantom with a 61-bit denominator pushes scaled costs past 2^62, so
    the engine runs on Python ints; verdicts and witnesses still agree."""
    q = 2**61 - 1  # prime, so the common denominator is q times the grid's
    y = F(q // 3, q)
    vector = (F(0), y, F(1)) if domain == UNIT_INTERVAL else (NEG_INF, y, POS_INF)
    mechs = (Phantom(vector), Average())
    mixture = RandomizedMechanism(2, domain, tuple(zip(mechs, (F(2, 3), F(1, 3)))))
    dom = axioms.CheckDomain(n=2, grid=2, domain=domain)
    scaled = axioms._Scaled(mixture.components, dom.n, dom.domain, dom.grid)
    assert SpSweep(scaled, combine=True).dtype is object
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.EXP)
    expected = _reference_first(mixture, mechs, dom)
    assert verdict.failed and expected is not None
    assert _witness_key(verdict.witness) == expected
    assert axioms.recheck_witness(mixture, verdict)
    universal = axioms.check_strategyproofness(mixture, dom, axioms.UNIVERSAL)
    assert universal.witness.component == "average"
    assert _witness_key(universal.witness) == _reference_first(Average(), mechs, dom)
    finding = axioms.search_manipulation(mixture, dom)
    expected = _reference_best(mixture, mechs, dom)
    assert (finding.gain, finding.profile, finding.agent, finding.misreport) == expected


@pytest.mark.parametrize(
    "domain, mechs",
    [
        (UNIT_INTERVAL, (Dictator(3), RankK(1), Average())),
        (UNIT_INTERVAL, (Dictator(1), Phantom((F(0), F(1, 3), F(1, 2), F(1))), RankK(2))),
        (REAL_LINE, (Dictator(2), Phantom((NEG_INF, F(-1, 2), F(7), POS_INF)), Average())),
        (REAL_LINE, (RankK(3), Phantom((NEG_INF, NEG_INF, NEG_INF, F(1, 3))), Average())),
    ],
)
def test_block_costs_match_scalar_engine(domain, mechs):
    """Every (profile, agent, candidate) cost of the block engine equals the
    scalar ``_Scaled.cost``, on ordered profiles whose other reports come
    unsorted and on report multisets."""
    mixture = RandomizedMechanism(3, domain, tuple((mech, F(1, 3)) for mech in mechs))
    scaled = axioms._Scaled(mixture.components, 3, domain, 2)
    sweep = SpSweep(scaled, combine=True)
    checked = 0
    for X in sweep.blocks():
        prof, agent, candidates, deviating, truthful = sweep.costs(X, sweep.count)
        for row, (p, i) in enumerate(zip(prof, agent)):
            x_list = [int(v) for v in X[p]]
            assert truthful[0, row] == scaled.cost(x_list, sorted(x_list), x_list[i])
            for column, report in enumerate(candidates[row]):
                moved = x_list[:i] + [int(report)] + x_list[i + 1 :]
                assert deviating[0, row, column] == scaled.cost(moved, sorted(moved), x_list[i])
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# Proportionality and Strong Proportionality: the two-valued group sweep
# ---------------------------------------------------------------------------


def _reference_group_first(mechanism, dom, values, anonymous):
    """(profile, agent, group, lhs, bound) of the first group member whose
    expected distance exceeds (n - s)/n of the gap: pairs low < high of
    ``values`` in order, their profiles (multisets if anonymous), then the
    low group's members and the high group's."""
    n = dom.n
    for a, low in enumerate(values):
        for high in values[a + 1 :]:
            pair = (low, high)
            profiles = combinations_with_replacement(pair, n) if anonymous else product(pair, repeat=n)
            for X in profiles:
                for side in pair:
                    group = tuple(i + 1 for i, x in enumerate(X) if x == side)
                    bound = F(n - len(group), n) * (high - low)
                    for agent in group:
                        lhs = analysis.expected_distance_to_point(mechanism, Profile(dom.domain, X), side)
                        if lhs > bound:
                            return X, agent, group, lhs, bound
    return None


def _group_key(witness):
    return witness.profile, witness.agent, witness.group, witness.lhs, witness.bound


def _expected_group(axiom, variant, mixture, dom):
    """(component, first instance) the plain loop finds, or None."""
    points = grid_points(dom.domain, dom.grid)
    values = (points[0], points[-1]) if axiom == axioms.PROPORTIONALITY else points
    mechs = mixture.component_mechanisms()
    if variant == axioms.EXP:
        anonymous = all(mechanism_is_anonymous(mech) for mech in mechs)
        found = _reference_group_first(mixture, dom, values, anonymous)
        return found and (None, found)
    for mech in mechs:
        found = _reference_group_first(mech, dom, values, mechanism_is_anonymous(mech))
        if found is not None:
            return format_mechanism(mech), found
    return None


def _assert_group_verdicts_match(mixture, dom):
    axes = [axioms.STRONG_PROPORTIONALITY]
    if dom.domain == UNIT_INTERVAL:
        axes.append(axioms.PROPORTIONALITY)
    for axiom in axes:
        for variant in (axioms.EXP, axioms.UNIVERSAL):
            verdict = axioms.run_check(axiom, mixture, dom, variant)
            expected = _expected_group(axiom, variant, mixture, dom)
            if expected is None:
                assert verdict.passed, (axiom, variant, verdict)
            else:
                assert verdict.failed, (axiom, variant, expected)
                assert verdict.witness.component == expected[0]
                assert _group_key(verdict.witness) == expected[1]
                assert axioms.recheck_witness(mixture, verdict)


@given(domains.flatmap(mixtures))
def test_group_sweep_matches_plain_loop(case):
    _assert_group_verdicts_match(*case)


@given(domains.flatmap(mixtures))
def test_group_sweep_tiny_blocks_keep_order(case):
    """With a profile or two per block, the first failing component and its
    first instance across blocks are the same."""
    with mock.patch.object(sweep, "BLOCK_ELEMENTS", 64):
        _assert_group_verdicts_match(*case)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, REAL_LINE])
def test_group_sweep_large_denominators_take_python_int_path(domain):
    """A 61-bit phantom denominator pushes the scaled values past the int64
    bound, so the group sweep runs on Python ints; verdicts agree."""
    q = 2**61 - 1
    y = F(q // 3, q)
    vector = (F(0), y, F(1)) if domain == UNIT_INTERVAL else (NEG_INF, y, POS_INF)
    mechs = (Phantom(vector), Average(), RankK(1))
    mixture = RandomizedMechanism(2, domain, tuple(zip(mechs, (F(1, 2), F(1, 4), F(1, 4)))))
    dom = axioms.CheckDomain(n=2, grid=2, domain=domain)
    scaled = axioms._Scaled(mixture.components, dom.n, dom.domain, dom.grid)
    assert sweep.GroupSweep(scaled, scaled.grid_ints, combine=True).dtype is object
    _assert_group_verdicts_match(mixture, dom)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, REAL_LINE])
def test_universal_failure_past_the_first_run_of_components(domain):
    """Universal checks stack the support in runs of 8, 32, ... components;
    a component failing only in a later run is still found, with its own
    witness."""
    dom = axioms.CheckDomain(n=2, grid=2, domain=domain)
    mechs = (Average(),) * 9 + (Dictator(1),)
    mixture = RandomizedMechanism(2, domain, tuple((mech, F(1, 10)) for mech in mechs))
    verdict = axioms.check_strong_proportionality(mixture, dom, axioms.UNIVERSAL)
    assert verdict.witness.component == "dictator:i=1"
    _assert_group_verdicts_match(mixture, dom)
    mechs = (RankK(1),) * 9 + (Average(),)
    mixture = RandomizedMechanism(2, domain, tuple((mech, F(1, 10)) for mech in mechs))
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.UNIVERSAL)
    assert verdict.witness.component == "average"
    assert _witness_key(verdict.witness) == _reference_first(Average(), mechs, dom)
