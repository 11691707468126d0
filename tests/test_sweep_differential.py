"""Differential tests: the block sweep engine against a plain rational loop.

Random finite mixtures of rank, dictator, phantom and average mechanisms
are checked by the engine and by a loop over the same profiles and
candidate misreports that prices every report with
``analysis.expected_distance_to_point``. Verdicts, first witnesses and the
largest manipulation gain must agree. Proportionality and Strong
Proportionality are checked the same way, against a loop over the
two-valued profiles and their groups, and SPF against a loop over every
profile's subsets. Every axiom's universal verdict must reduce to its
components' deterministic verdicts, and every verdict must survive the
reflection x -> 1 - x of the unit interval.
"""

import json
import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proploc import analysis, axioms, sweep
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    Infinite,
    Median,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
    as_mixture,
    evaluate,
    grid_points,
    mechanism_is_anonymous,
    part_form,
)
from proploc.mechanisms import build_mechanism, format_mechanism
from proploc.sweep import Scaled, SpSweep


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

# Two mixtures that fail strategyproofness in expectation, and have their
# largest gain, only off the profiles through the grid's lowest point. The
# first commutes with translation, but on [0,1] a misreport shifted with its
# profile can leave the domain; the second's phantom at -1 does not commute
# with translation. So both keep every profile in a misreport sweep.
UNIT_OFF_ANCHOR = (
    RandomizedMechanism(2, UNIT_INTERVAL, ((RankK(1), F(1, 2)), (Average(), F(1, 2)))),
    axioms.CheckDomain(n=2, grid=2),
)
REAL_OFF_ANCHOR = (
    RandomizedMechanism(
        2, REAL_LINE, ((Phantom((NEG_INF, NEG_INF, F(-1))), F(1, 2)), (RankK(1), F(1, 4)), (Average(), F(1, 4)))
    ),
    axioms.CheckDomain(n=2, grid=1, domain=REAL_LINE),
)


@given(domains.flatmap(mixtures))
@example(UNIT_OFF_ANCHOR)
@example(REAL_OFF_ANCHOR)
def test_sp_in_expectation_matches_plain_loop(case):
    mixture, dom = case
    mechs = [mech for mech, _ in mixture.components]
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.EXP)
    expected = _reference_first(mixture, mechs, dom)
    if expected is None:
        assert verdict.passed
    else:
        assert verdict.failed
        assert _witness_key(verdict.witness) == expected
        assert axioms.recheck_witness(mixture, verdict)


@given(domains.flatmap(mixtures))
@example(UNIT_OFF_ANCHOR)
@example(REAL_OFF_ANCHOR)
def test_universal_sp_matches_plain_loop(case):
    """Each component is tried at its own breakpoints only, as when checked
    alone."""
    mixture, dom = case
    mechs = [mech for mech, _ in mixture.components]
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.UNIVERSAL)
    for mech in mechs:
        expected = _reference_first(mech, [mech], dom)
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
@example(UNIT_OFF_ANCHOR)
@example(REAL_OFF_ANCHOR)
def test_search_matches_plain_loop_maximum(case):
    mixture, dom = case
    finding = axioms.search_manipulation(mixture, dom)
    expected = _reference_best(mixture, [mech for mech, _ in mixture.components], dom)
    if expected is None:
        assert finding is None
    else:
        assert (finding.gain, finding.profile, finding.agent, finding.misreport) == expected


@pytest.mark.parametrize("case", [UNIT_OFF_ANCHOR, REAL_OFF_ANCHOR], ids=["unit", "real-phantom"])
def test_misreport_sweeps_keep_every_profile_where_translation_breaks(case):
    """Both mixtures above fail, and have their largest gain, on a profile
    without the grid's lowest point: a sweep of the profiles through it
    would miss that witness."""
    mixture, dom = case
    low = grid_points(dom.domain, dom.grid)[0]
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.EXP)
    finding = axioms.search_manipulation(mixture, dom)
    assert low not in verdict.witness.profile and low not in finding.profile


@pytest.mark.parametrize("n, grid", [(2, 3), (3, 2), (4, 1)])
@pytest.mark.parametrize("combine", [True, False])
def test_sp_sweep_counts_one_multiset_per_translation_orbit(n, grid, combine):
    """On the real line a label-free mixture that commutes with translation
    sweeps the C(P + n - 2, n - 1) multisets through the lowest of the
    grid's P points, per part and combined. A finite phantom, or the unit
    interval, keeps all C(P + n - 1, n) of them."""

    def swept(mechanism, domain):
        mixture = as_mixture(mechanism, n, domain)
        scaled = Scaled(mixture.forms, n, domain, grid)
        return sum(len(X) for X in SpSweep(scaled, combine).blocks())

    P = 2 * grid + 1
    assert swept(build_mechanism("avg_or_rr:p=1/2", n, REAL_LINE), REAL_LINE) == math.comb(P + n - 2, n - 1)
    phantom = Phantom((NEG_INF,) * n + (F(-1),))
    with_phantom = RandomizedMechanism(n, REAL_LINE, ((phantom, F(1, 2)), (Average(), F(1, 2))))
    assert swept(with_phantom, REAL_LINE) == math.comb(P + n - 1, n)
    P = grid + 1
    assert swept(build_mechanism("avg_or_rr:p=1/2", n, UNIT_INTERVAL), UNIT_INTERVAL) == math.comb(P + n - 1, n)


@given(domains.flatmap(mixtures))
def test_tiny_blocks_keep_order_and_ties(case):
    """With a few profiles per block, the cross-block reductions (first
    failing component, strictly larger gain) give the same answers, in the
    SP sweep and in the stacked SPF sweep."""
    mixture, dom = case
    mechs = [mech for mech, _ in mixture.components]
    with mock.patch.object(sweep, "BLOCK_ELEMENTS", 64):
        verdict = axioms.check_strategyproofness(mixture, dom, axioms.EXP)
        universal = axioms.check_strategyproofness(mixture, dom, axioms.UNIVERSAL)
        finding = axioms.search_manipulation(mixture, dom)
        _assert_spf_matches_plain_loop(mixture, dom, axioms.EXP)
        _assert_spf_matches_plain_loop(mixture, dom, axioms.UNIVERSAL)
    assert (verdict.witness and _witness_key(verdict.witness)) == _reference_first(mixture, mechs, dom)
    first = next(
        ((mech, found) for mech in mechs if (found := _reference_first(mech, [mech], dom))), None
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
    the engine runs on Python ints; verdicts and witnesses still agree, SPF's
    included."""
    q = 2**61 - 1  # prime, so the common denominator is q times the grid's
    y = F(q // 3, q)
    vector = (F(0), y, F(1)) if domain == UNIT_INTERVAL else (NEG_INF, y, POS_INF)
    mechs = (Phantom(vector), Average())
    mixture = RandomizedMechanism(2, domain, tuple(zip(mechs, (F(2, 3), F(1, 3)))))
    dom = axioms.CheckDomain(n=2, grid=2, domain=domain)
    scaled = Scaled(mixture.components, dom.n, dom.domain, dom.grid)
    assert SpSweep(scaled, combine=True).dtype is object
    for combine in (True, False):
        assert sweep.GroupSweep(scaled, sweep.sweep_profiles(scaled, combine), combine).dtype is object
    for variant in (axioms.EXP, axioms.UNIVERSAL):
        _assert_spf_matches_plain_loop(mixture, dom, variant)
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.EXP)
    expected = _reference_first(mixture, mechs, dom)
    assert verdict.failed and expected is not None
    assert _witness_key(verdict.witness) == expected
    assert axioms.recheck_witness(mixture, verdict)
    universal = axioms.check_strategyproofness(mixture, dom, axioms.UNIVERSAL)
    assert universal.witness.component == "average"
    assert _witness_key(universal.witness) == _reference_first(Average(), [Average()], dom)
    finding = axioms.search_manipulation(mixture, dom)
    expected = _reference_best(mixture, mechs, dom)
    assert (finding.gain, finding.profile, finding.agent, finding.misreport) == expected


def test_universal_sp_ignores_other_components_phantoms():
    """A universal sweep tries the average's breakpoints only (no other part
    can gain alone): the average beside a phantom part at -3 and -5/2 fails
    with the misreport -2 it fails with alone, not at the other part's
    phantom -5/2."""
    mechs = (Phantom((F(-3), F(-5, 2), POS_INF)), Average())
    mixture = RandomizedMechanism(2, REAL_LINE, tuple((mech, F(1, 2)) for mech in mechs))
    dom = axioms.CheckDomain(n=2, grid=1, domain=REAL_LINE)
    universal = axioms.check_strategyproofness(mixture, dom, axioms.UNIVERSAL)
    alone = axioms.check_strategyproofness(Average(), dom, axioms.DET)
    found = universal.witness
    assert (found.component, found.misreport, found.lhs) == ("average", -2, 0)
    witness = replace(alone.witness, component="average")
    assert universal == replace(alone, variant=axioms.UNIVERSAL, witness=witness)


def test_first_failure_keeps_the_earliest_component():
    """The first hit in (component, block, row) order: a later block's hit
    replaces the one found only if its component is earlier, and once
    component 0 fails no further block is read."""
    hits = [None, (2, "a"), (1, "b"), None, (3, "c"), (1, "d"), (0, "e"), (0, "f")]
    read = []

    def blocks():
        for index in range(len(hits)):
            read.append(index)
            yield index

    assert sweep.first_failure(blocks(), hits.__getitem__) == (0, "e")
    assert read == list(range(7))
    # Without a hit in component 0 every block is read; ties keep the first.
    assert sweep.first_failure(iter(hits[:6]), lambda hit: hit) == (1, "b")
    assert sweep.first_failure(iter(range(3)), lambda block: None) is None


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
    """Every (profile, agent, candidate) cost of the block engine equals
    ``analysis.expected_distance_to_point``, the path ``recheck_witness``
    takes, on ordered profiles whose other reports come unsorted and on
    report multisets."""
    mixture = RandomizedMechanism(3, domain, tuple((mech, F(1, 3)) for mech in mechs))
    scaled = Scaled(mixture.components, 3, domain, 2)
    sweep = SpSweep(scaled, combine=True)

    def price(reports, true):
        profile = Profile(domain, tuple(scaled.to_frac(v) for v in reports))
        return analysis.expected_distance_to_point(mixture, profile, scaled.to_frac(true))

    checked = 0
    for X in sweep.blocks():
        prof, agent, candidates, deviating, truthful = sweep.costs(X)
        for row, (p, i) in enumerate(zip(prof, agent)):
            x_list = [int(v) for v in X[p]]
            assert scaled.cost_frac(truthful[0, row]) == price(x_list, x_list[i])
            for column, report in enumerate(candidates[row]):
                moved = x_list[:i] + [int(report)] + x_list[i + 1 :]
                assert scaled.cost_frac(deviating[0, row, column]) == price(moved, x_list[i])
                checked += 1
    assert checked > 100


@st.composite
def order_statistic_cases(draw):
    """(rows, per-part phantoms, pad, positions): sorted rows of width 1..6,
    0..6 phantoms per part, and 1-D or 2-D positions anywhere in a merged
    row, the sentinel padding at its top end included."""
    width, pad = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    values = st.integers(-9, 9)
    row = st.lists(values, min_size=width, max_size=width).map(sorted)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    phantoms = draw(st.lists(st.lists(values, max_size=pad).map(sorted), min_size=1, max_size=3))
    index = st.integers(0, width + pad - 1)
    k = draw(st.sampled_from([None, 1, 2, 3]))
    each = index if k is None else st.lists(index, min_size=k, max_size=k)
    positions = draw(st.lists(each, min_size=len(phantoms), max_size=len(phantoms)))
    return rows, phantoms, pad, positions


@given(order_statistic_cases(), st.sampled_from([np.int64, object]))
def test_order_statistics_match_sorted(case, dtype):
    """Entry positions[c] of each row merged with part c's phantoms, padded
    with a sentinel above every value, is the same entry of Python's
    ``sorted`` of that merge; on Python ints past 2^63 too."""
    rows, phantoms, pad, positions = case
    shift = 2**70 if dtype is object else 0
    sentinel = 10 + shift
    padded = [[y + shift for y in fins] + [sentinel] * (pad - len(fins)) for fins in phantoms]
    got = sweep.order_statistics(
        np.array([[x + shift for x in row] for row in rows], dtype=dtype),
        np.array(padded, dtype=dtype).reshape(len(phantoms), pad),
        np.array(positions, dtype=np.intp),
    )
    assert got.shape == (*np.shape(positions), len(rows))
    for c, fins in enumerate(padded):
        for r, row in enumerate(rows):
            merged = sorted([*(x + shift for x in row), *fins])
            for at in np.ndindex(np.shape(positions[c])):
                assert got[(c, *at, r)] == merged[np.array(positions[c])[at]]


@pytest.mark.parametrize("limit", [256, 1024])
@pytest.mark.parametrize(
    "domain, mechs",
    [
        (UNIT_INTERVAL, (Phantom((F(1, 7), F(2, 7), F(3, 7))), Phantom((F(0), F(4, 5), F(1))), Average())),
        (REAL_LINE, (Dictator(2), Phantom((NEG_INF, F(-1, 2), F(7))), RankK(1))),
        (REAL_LINE, (RankK(3), Phantom((NEG_INF, F(-5, 2), F(1, 3), F(5, 3))), Average())),
    ],
)
def test_block_temporaries_fit_block_elements(domain, mechs, limit):
    """Every block's candidate and cost arrays, every ``spf_fails`` mask
    and every merged array of ``order_statistics`` hold at most
    BLOCK_ELEMENTS elements, in every block sweep (two-valued and SPF), per
    part and combined."""
    n = len(mechs[1].phantoms) - 1
    mixture = RandomizedMechanism(n, domain, tuple((mech, F(1, 3)) for mech in mechs))
    with mock.patch.object(sweep, "BLOCK_ELEMENTS", limit):
        scaled = Scaled(mixture.components, n, domain, 4)
        for combine in (False, True):
            sp = SpSweep(scaled, combine)
            two_valued = sweep.two_valued_profiles(scaled.grid_ints, n, scaled.anonymous(combine))
            group = sweep.GroupSweep(scaled, two_valued, combine)
            spf = sweep.GroupSweep(scaled, sweep.sweep_profiles(scaled, combine), combine)
            with mock.patch.object(sweep, "order_statistics", wraps=sweep.order_statistics) as kernel:
                for X in sp.blocks():
                    _, _, candidates, deviating, _ = sp.costs(X)
                    assert max(candidates.size, deviating.size) <= limit
                for swept in (group, spf):
                    for X in swept.blocks():
                        true, cost = swept.prices(X)
                        assert sweep.spf_fails(true, cost, scaled.wden).size <= limit
            assert kernel.call_count > 2
            for (rows, phantoms, _), _ in kernel.call_args_list:
                assert len(phantoms) * len(rows) * (rows.shape[1] + phantoms.shape[1]) <= limit


@given(domains.flatmap(mixtures), st.booleans(), st.data())
def test_scaled_layout_matches_the_exact_path(case, with_median, data):
    """Each part of ``Scaled``'s by-kind layout outputs what ``core.evaluate``
    gives on a random grid profile: a rank or phantom part its position in
    the sorted reports and finite phantoms, a dictator its agent's report.
    Every part is laid out once, and the block engine's pricing step
    prices every report as ``analysis.expected_distance_to_point`` does."""
    mixture, dom = case
    n = dom.n
    if with_median:
        halves = tuple((mech, weight / 2) for mech, weight in mixture.components)
        mixture = RandomizedMechanism(n, dom.domain, halves + ((Median(), F(1, 2)),))
    mechs = [mech for mech, _ in mixture.components]
    scaled = Scaled(mixture.forms, n, dom.domain, dom.grid)
    X = data.draw(st.lists(st.sampled_from(scaled.grid_ints), min_size=n, max_size=n))
    profile = Profile(dom.domain, tuple(scaled.to_frac(v) for v in X))
    for c, fins, position in scaled.ranked:
        assert scaled.to_frac(sorted([*X, *fins])[position]) == evaluate(mechs[c], profile)
    for c, j in scaled.dictators:
        assert isinstance(mechs[c], Dictator)
        assert scaled.to_frac(X[j]) == evaluate(mechs[c], profile)
    assert all(isinstance(mechs[c], Average) for c in scaled.averages)
    laid_out = [c for c, _, _ in scaled.ranked] + [c for c, _ in scaled.dictators] + list(scaled.averages)
    assert sorted(laid_out) == list(range(len(mechs))) == list(range(len(scaled.u)))
    group = sweep.GroupSweep(scaled, [X], combine=True)
    true, cost = group.prices(np.array([X], dtype=group.dtype))
    for x, price in zip(true[0], cost[0, 0]):
        expected = analysis.expected_distance_to_point(mixture, profile, scaled.to_frac(int(x)))
        assert scaled.cost_frac(int(price)) == expected


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
    mechs = [mech for mech, _ in mixture.components]
    if variant == axioms.EXP:
        anonymous = all(mechanism_is_anonymous(mech) for mech in mechs)
        found = _reference_group_first(mixture, dom, values, anonymous)
        return found and (None, found)
    for mech in mechs:
        found = _reference_group_first(mech, dom, values, mechanism_is_anonymous(mech))
        if found is not None:
            return format_mechanism(mech), found
    return None


def _assert_group_verdicts_match(mixture, dom, variants=(axioms.EXP, axioms.UNIVERSAL)):
    axes = [axioms.STRONG_PROPORTIONALITY]
    if dom.domain == UNIT_INTERVAL:
        axes.append(axioms.PROPORTIONALITY)
    for axiom in axes:
        for variant in variants:
            verdict = axioms.run_check(axiom, mixture, dom, variant)
            expected = _expected_group(axiom, variant, mixture, dom)
            if expected is None and verdict.failed:
                # The slope rule fails in expectation what no grid pair shows:
                # its witness rechecks and lies off the grid.
                assert variant == axioms.EXP and axioms.recheck_witness(mixture, verdict), (axiom, verdict)
                assert not set(verdict.witness.profile) <= set(dom.points()), (axiom, verdict)
            elif expected is None:
                assert verdict.passed, (axiom, variant, verdict)
            else:
                assert verdict.failed, (axiom, variant, expected)
                assert verdict.witness.component == expected[0]
                assert _group_key(verdict.witness) == expected[1]
                assert axioms.recheck_witness(mixture, verdict)


@given(domains.flatmap(mixtures))
def test_group_sweep_matches_plain_loop(case):
    _assert_group_verdicts_match(*case)


@st.composite
def family_mixtures(draw):
    """The uniform phantom family on [0,1] beside 0-2 finite parts (rank,
    dictator, phantom, average), n = 2..4."""
    n = draw(st.integers(2, 4))
    grid = draw(st.integers(1, 4))
    build = {
        "rank": lambda: RankK(draw(st.integers(1, n))),
        "dict": lambda: Dictator(draw(st.integers(1, n))),
        "avg": Average,
        "phantom": lambda: Phantom(tuple(sorted(
            min(v, F(1)) for v in draw(st.lists(fractions, min_size=n + 1, max_size=n + 1))))),
    }
    mechs = [build[kind]() for kind in draw(st.lists(st.sampled_from(sorted(build)), max_size=2))]
    raw = draw(st.lists(st.integers(1, 5), min_size=len(mechs) + 1, max_size=len(mechs) + 1))
    total = sum(raw)
    mixture = RandomizedMechanism(
        n, UNIT_INTERVAL, tuple((mech, F(w, total)) for mech, w in zip(mechs, raw)),
        continuous_weight=F(raw[-1], total),
    )
    return mixture, axioms.CheckDomain(n=n, grid=grid)


@settings(deadline=None)
@given(family_mixtures())
def test_group_exact_path_matches_plain_loop(case):
    """In expectation, a mixture with the continuous family takes the exact
    path: ``Fraction`` prices from the closed forms, walked by the same
    group rule as the engine's failing row, at scale 1/n. Its verdicts and
    first witnesses are the plain loop's. (Its universal verdicts are
    checked in ``test_axioms``.)"""
    _assert_group_verdicts_match(*case, variants=(axioms.EXP,))


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
    scaled = Scaled(mixture.components, dom.n, dom.domain, dom.grid)
    two_valued = sweep.two_valued_profiles(scaled.grid_ints, dom.n, scaled.anonymous(True))
    assert sweep.GroupSweep(scaled, two_valued, combine=True).dtype is object
    _assert_group_verdicts_match(mixture, dom)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, REAL_LINE])
def test_universal_failure_after_nine_passing_components(domain):
    """A universal check sweeps the support components in order; the first
    to fail, here the tenth behind nine that pass, is found with its own
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


# ---------------------------------------------------------------------------
# SPF: per-profile prices and the window test
# ---------------------------------------------------------------------------


def _reference_spf_first(mechanism, dom, anonymous):
    """(profile, agent, group, lhs, bound) of the first subset member whose
    expected distance exceeds R(n - |S|)/n + r: profiles (multisets if
    anonymous), every subset by size and then lexicographically, members
    in order. A member's expected distance depends only on its location, so
    it is priced once per location."""
    n = dom.n
    points = grid_points(dom.domain, dom.grid)
    for X in combinations_with_replacement(points, n) if anonymous else product(points, repeat=n):
        profile = Profile(dom.domain, X)
        lhs = {x: analysis.expected_distance_to_point(mechanism, profile, x) for x in set(X)}
        spread = max(X) - min(X)
        for size in range(1, n + 1):
            for subset in combinations(range(n), size):
                values = [X[j] for j in subset]
                bound = F(n - size, n) * spread + max(values) - min(values)
                for j in subset:
                    if lhs[X[j]] > bound:
                        return X, j + 1, tuple(j + 1 for j in subset), lhs[X[j]], bound
    return None


def _assert_spf_matches_plain_loop(mechanism, dom, variant):
    """The verdict's status and witness bytes are those of the plain loop
    over every grid profile."""
    verdict = axioms.check_spf(mechanism, dom, variant)
    if variant == axioms.UNIVERSAL:
        mechs = [mech for mech, _ in mechanism.components]
    else:
        mechs = [mechanism]
    for mech in mechs:
        components = [mech for mech, _ in mech.components] if isinstance(mech, RandomizedMechanism) else [mech]
        anonymous = all(mechanism_is_anonymous(part) for part in components)
        expected = _reference_spf_first(mech, dom, anonymous)
        if expected is not None:
            assert verdict.failed, (variant, expected)
            X, agent, group, lhs, bound = expected
            component = format_mechanism(mech) if variant == axioms.UNIVERSAL else None
            witness = axioms.Witness(X, dom.domain, agent=agent, group=group, component=component, lhs=lhs, bound=bound)
            assert json.dumps(verdict.witness.to_json()) == json.dumps(witness.to_json())
            assert axioms.recheck_witness(mechanism, verdict)
            return
    assert verdict.passed, (variant, verdict)


@st.composite
def spf_mixtures(draw, domain):
    """Mixtures on which translation matters: up to 4 agents, unit grids up
    to 6 and real windows up to 3. Parts that commute with x -> x + t (ranks,
    dictators, the average, ``median``, phantom vectors of the domain's ends,
    constants among them on [0,1]) are drawn beside parts that do not
    (interior finite phantoms, ``uniform_phantom``)."""
    unit = domain == UNIT_INTERVAL
    n = draw(st.integers(2, 4))
    grid = draw(st.integers(1, 6 if unit else 3))
    low, high = (F(0), F(1)) if unit else (NEG_INF, POS_INF)

    def ends():
        k = draw(st.integers(0, n + 1) if unit else st.integers(1, n))
        return Phantom((low,) * k + (high,) * (n + 1 - k))

    def interior():
        neg = draw(st.integers(0, n))
        pos = draw(st.integers(0, n - neg))
        width = n + 1 - neg - pos
        middle = draw(st.lists(fractions.map(lambda v: v / 6 if unit else v - 3), min_size=width, max_size=width))
        return Phantom((low,) * neg + tuple(sorted(middle)) + (high,) * pos)

    build = {
        "rank": lambda: RankK(draw(st.integers(1, n))),
        "dict": lambda: Dictator(draw(st.integers(1, n))),
        "avg": Average,
        "median": Median,
        "ends": ends,
        "interior": interior,
        "uniform": UniformPhantom,
    }
    kinds = draw(st.lists(st.sampled_from(sorted(build) if unit else sorted(set(build) - {"uniform"})),
                          min_size=1, max_size=3))
    mechs = [build[kind]() for kind in kinds]
    raw = draw(st.lists(st.integers(1, 5), min_size=len(mechs), max_size=len(mechs)))
    mixture = RandomizedMechanism(n, domain, tuple((mech, F(w, sum(raw))) for mech, w in zip(mechs, raw)))
    return mixture, axioms.CheckDomain(n=n, grid=grid, domain=domain)


@settings(max_examples=60, deadline=None)
@given(domains.flatmap(spf_mixtures))
def test_spf_matches_plain_loop(case):
    """Det (each component), exp and universal SPF verdicts and first
    witnesses agree with a plain loop over every grid profile and subset,
    translation-equivariant or not."""
    mixture, dom = case
    for mech, _ in mixture.components:
        _assert_spf_matches_plain_loop(mech, dom, axioms.DET)
    _assert_spf_matches_plain_loop(mixture, dom, axioms.EXP)
    _assert_spf_matches_plain_loop(mixture, dom, axioms.UNIVERSAL)


@pytest.mark.parametrize(
    "domain, spec",
    [
        (UNIT_INTERVAL, "random_rank"),
        (UNIT_INTERVAL, "avg_or_rr:p=1/2"),
        (UNIT_INTERVAL, "median"),
        (UNIT_INTERVAL, "uniform_phantom"),
        (UNIT_INTERVAL, "random_phantom"),
        (REAL_LINE, "random_rank"),
        (REAL_LINE, "avg_or_rr:p=1/2"),
        (REAL_LINE, "median"),
    ],
)
def test_spf_at_six_agents_every_subset(domain, spec):
    """At n=6 every subset is checked, the whole group of six included; a
    continuous family takes the exact path."""
    dom = axioms.CheckDomain(n=6, grid=2, domain=domain)
    mechanism = build_mechanism(spec, 6, domain)
    if not isinstance(mechanism, RandomizedMechanism):
        variants = [axioms.DET]
    elif mechanism.has_continuous:
        variants = [axioms.EXP]
    else:
        variants = [axioms.EXP, axioms.UNIVERSAL]
    for variant in variants:
        _assert_spf_matches_plain_loop(mechanism, dom, variant)


@pytest.mark.parametrize("anonymous", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("values", [(0,), (0, 1), (-3, -1, 0, 2), tuple(range(0, 42, 6)), tuple(range(-8, 9))])
def test_anchored_profiles_are_the_full_sweep_through_its_lowest_point(values, n, anonymous):
    """The reduced SPF enumeration is exactly the full one filtered to the
    profiles that contain the lowest grid point, in the same order."""
    full = list(sweep.grid_profiles(values, n, anonymous))
    assert list(sweep.anchored_profiles(values, n, anonymous)) == [X for X in full if values[0] in X]


@pytest.mark.parametrize("anonymous", [True, False])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("values", [(0, 1), (-3, -1, 0, 2), tuple(range(0, 42, 6))])
def test_anchored_two_valued_profiles_are_the_pairs_from_the_lowest_point(values, n, anonymous):
    """The anchored two-valued enumeration is the full one's prefix over the
    pairs whose low value is the lowest grid point, every pattern of each."""
    full = list(sweep.two_valued_profiles(values, n, anonymous))
    patterns = len(list(sweep.grid_profiles((0, 1), n, anonymous)))
    assert list(sweep.two_valued_profiles(values, n, anonymous, anchored=True)) == full[: (len(values) - 1) * patterns]


@pytest.mark.parametrize(
    "domain, grid, parts, variant, profile",
    [
        (UNIT_INTERVAL, 1, ((Phantom((F(0), F(1, 2), F(1, 2))), F(1)),), axioms.DET, (F(1), F(1))),
        (UNIT_INTERVAL, 1, ((Average(), F(1, 2)), (Phantom((F(0), F(1, 2), F(1, 2))), F(1, 2))), axioms.UNIVERSAL,
         (F(1), F(1))),
        (UNIT_INTERVAL, 2, ((RankK(1), F(1, 2)), (Phantom((F(0),) * 3), F(1, 2))), axioms.EXP, (F(1, 2), F(1, 2))),
        (REAL_LINE, 1, ((RankK(1), F(1, 2)), (Phantom((NEG_INF, NEG_INF, F(0))), F(1, 2))), axioms.EXP,
         (F(1), F(1))),
    ],
    ids=["interior-phantom", "interior-phantom-universal", "constant-zero", "real-finite-phantom"],
)
def test_parts_that_do_not_commute_with_translation_keep_the_full_sweep(domain, grid, parts, variant, profile):
    """An interior finite phantom or a constant can meet SPF on every profile
    through the grid's lowest point and fail above it, so such a mixture is
    swept in full: its first witness lies off that point."""
    mixture = RandomizedMechanism(2, domain, parts)
    mechanism = parts[0][0] if variant == axioms.DET else mixture
    dom = axioms.CheckDomain(n=2, grid=grid, domain=domain)
    assert axioms.check_spf(mechanism, dom, variant).witness.profile == profile
    _assert_spf_matches_plain_loop(mechanism, dom, variant)


@pytest.mark.parametrize(
    "domain, mech, equivariant",
    [
        (UNIT_INTERVAL, RankK(2), True),
        (UNIT_INTERVAL, Dictator(3), True),
        (UNIT_INTERVAL, Average(), True),
        (UNIT_INTERVAL, Median(), True),
        (UNIT_INTERVAL, Phantom((F(0), F(1), F(1), F(1))), True),
        (UNIT_INTERVAL, Phantom((F(0), F(0), F(0), F(1))), True),
        (UNIT_INTERVAL, Phantom((F(0),) * 4), False),
        (UNIT_INTERVAL, Phantom((F(1),) * 4), False),
        (UNIT_INTERVAL, Phantom((F(0), F(1, 2), F(1), F(1))), False),
        (UNIT_INTERVAL, UniformPhantom(), False),
        (REAL_LINE, Median(), True),
        (REAL_LINE, Phantom((NEG_INF, POS_INF, POS_INF, POS_INF)), True),
        (REAL_LINE, Phantom((NEG_INF, F(0), POS_INF, POS_INF)), False),
    ],
)
def test_translation_equivariance_is_read_off_the_form(domain, mech, equivariant):
    """Only parts whose output is always a report commute with x -> x + t:
    on [0,1] a phantom vector of 0s and 1s with both present, on the real
    line one of infinities; a vector of 0s alone (or 1s) is a constant."""
    scaled = Scaled([(part_form(m, 3, domain), F(1, 2)) for m in (mech, RankK(1))], 3, domain, 4)
    assert scaled.translation_equivariant is equivariant


@settings(max_examples=400)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            st.lists(st.just(0) | st.integers(0, 8 * n), min_size=n, max_size=n),
        )
    ),
    st.integers(1, 3),
)
def test_spf_window_test_matches_every_subset(case, scale):
    """The O(n) window rule of ``sweep.spf_fails`` says a profile fails
    exactly when some member of some subset S is priced above
    scale * ((n - |S|) * R + n * r), the definition in
    ``axioms._spf_violation``, on int64 arrays and on the ``Fraction``
    object arrays of the exact path. Costs lean to 0, so profiles with one
    priced agent, whose every window must be tried, come up often."""
    xs, costs = case
    xs.sort()
    n, spread = len(xs), xs[-1] - xs[0]
    expected = any(
        costs[j] > scale * ((n - size) * spread + n * (xs[subset[-1]] - xs[subset[0]]))
        for size in range(1, n + 1)
        for subset in combinations(range(n), size)
        for j in subset
    )
    true = np.array([xs], dtype=np.int64)
    assert bool(sweep.spf_fails(true, np.array([costs]), scale).any()) == expected
    # The exact path's form: prices, reports and scale as Fractions over a
    # common denominator, which divides out of both sides.
    true = np.array([[F(x, 6) for x in xs]], dtype=object)
    prices = np.array([[F(c, 6 * n) for c in costs]], dtype=object)
    assert bool(sweep.spf_fails(true, prices, F(scale, n)).any()) == expected


def _group_bound(X, true, scale):
    """The group bound of the two-valued block sweep, as it was computed
    before ``spf_fails`` took its place: slot j (of ``true``, each profile
    of X sorted) holds a member of the low group (the first s slots) or of
    the high group, and its bound is scale * (n - s) * (high - low) for its
    group of size s, the other group's size times the gap."""
    n = X.shape[1]
    low, high = true[:, :1], true[:, -1:]
    lows = (X == low).sum(axis=1, keepdims=True)
    others = np.where(np.arange(n) < lows, n - lows, lows)
    return others * (scale * (high - low))


@settings(max_examples=400)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.integers(1, 5),
                st.lists(st.booleans(), min_size=n, max_size=n),
                st.lists(st.just(0) | st.integers(0, 8 * n), min_size=n, max_size=n),
            ),
            min_size=1,
            max_size=3,
        )
    ),
    st.booleans(),
    st.integers(1, 3),
)
def test_spf_rule_is_the_group_bound_on_two_valued_profiles(rows, multiset, scale):
    """On a block of two-valued profiles (low < high, ordered or multiset
    patterns, unanimous ones included) ``spf_fails`` marks exactly the slots
    whose cost exceeds scale * (n - s) * (high - low), s the slot's group
    size: the lemma in its docstring, on int64 arrays and on the
    ``Fraction`` object arrays of the exact path."""
    n = len(rows[0][2])
    X = np.array([[low + step * bit for bit in (sorted(bits) if multiset else bits)] for low, step, bits, _ in rows])
    true = np.sort(X, axis=1)
    cost = np.array([costs for *_, costs in rows])
    expected = cost > _group_bound(X, true, scale)
    assert (sweep.spf_fails(true, cost, scale) == expected).all()
    # The exact path's form: reports, prices and scale as Fractions over a
    # common denominator, which divides out of both sides.
    exact = np.vectorize(lambda v: F(int(v), 6), otypes=[object])
    prices = np.vectorize(lambda c: F(int(c), 6 * n), otypes=[object])(cost)
    assert (sweep.spf_fails(exact(true), prices, F(scale, n)) == expected).all()
    assert ((prices > _group_bound(exact(X), exact(true), F(scale, n))) == expected).all()


# ---------------------------------------------------------------------------
# The variant laws every axiom obeys
# ---------------------------------------------------------------------------


@given(domains.flatmap(mixtures))
def test_universal_reduces_to_the_first_component_failing_det(case):
    """The universal verdict is the DET verdict of the first component whose
    DET check fails, labelled with that component; every earlier component
    passes DET; and a universal PASS implies a PASS in expectation
    (efficiency has no in-expectation variant)."""
    mixture, dom = case
    for axiom in axioms.AXIOMS:
        if axiom == axioms.PROPORTIONALITY and dom.domain != UNIT_INTERVAL:
            continue
        universal = axioms.run_check(axiom, mixture, dom, axioms.UNIVERSAL)
        for mech, _ in mixture.components:
            det = axioms.run_check(axiom, mech, dom, axioms.DET)
            if det.failed:
                witness = replace(det.witness, component=format_mechanism(mech))
                assert universal == replace(det, variant=axioms.UNIVERSAL, witness=witness)
                break
            assert det.passed
        else:
            assert universal.passed, (axiom, universal)
            if axiom != axioms.EFFICIENCY:
                assert axioms.run_check(axiom, mixture, dom, axioms.EXP).passed, axiom


# ---------------------------------------------------------------------------
# Metamorphic law: reflection of the unit interval
# ---------------------------------------------------------------------------


def _reflect(mech, n):
    """The mechanism whose output on 1 - X is 1 minus ``mech``'s on X."""
    if isinstance(mech, RankK):
        return RankK(n - mech.k + 1)
    if isinstance(mech, Phantom):
        return Phantom(tuple(1 - y for y in reversed(mech.phantoms)))
    return mech  # dictators and the average


@given(mixtures(UNIT_INTERVAL))
def test_reflection_keeps_every_verdict(case):
    """x -> 1 - x maps the unit grid onto itself, RankK(k) to RankK(n-k+1),
    a phantom vector to its reversed complement, and keeps dictators and
    the average: every axiom's det, exp and universal status is the same,
    and every FAIL witness rechecks on its own side."""
    mixture, dom = case
    n = dom.n
    mirrored = RandomizedMechanism(n, UNIT_INTERVAL, tuple((_reflect(mech, n), w) for mech, w in mixture.components))
    cells = [(mech, _reflect(mech, n), axioms.DET) for mech, _ in mixture.components]
    cells += [(mixture, mirrored, axioms.EXP), (mixture, mirrored, axioms.UNIVERSAL)]
    for axiom in axioms.AXIOMS:
        for original, image, variant in cells:
            if axiom == axioms.EFFICIENCY and variant == axioms.EXP:
                continue
            verdicts = [axioms.run_check(axiom, mech, dom, variant) for mech in (original, image)]
            assert verdicts[0].status == verdicts[1].status, (axiom, variant, verdicts)
            for mech, verdict in zip((original, image), verdicts):
                if verdict.failed:
                    assert axioms.recheck_witness(mech, verdict), (axiom, variant, verdict)
