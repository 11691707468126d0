"""Axiom checkers: verdicts, witnesses, and cross-validation sweeps."""

import re
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, strategies as st

import proploc.axioms as ax
from proploc.analysis import expected_distance_to_point, expected_facility_location
from proploc.axioms import CheckDomain
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    DomainMismatchError,
    Infinite,
    MechanismError,
    Median,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
    evaluate,
    format_point,
    grid_points,
    parse_point,
)
from proploc.mechanisms import (
    average_or_random_rank,
    build_mechanism,
    format_mechanism,
    random_dictator,
    random_phantom,
    random_rank,
)
from proploc.axioms import recheck_witness, search_manipulation


# ---------------------------------------------------------------------------
# anonymity
# ---------------------------------------------------------------------------


def test_median_is_anonymous():
    assert ax.check_anonymity(Median(), CheckDomain(n=3, grid=3)).passed


def test_continuous_family_with_a_dictator_fails_anonymity_in_expectation():
    """The finite dictators decide, the family ignoring labels; the
    witness's expected locations include the continuous family's, from the
    closed forms."""
    mixture = RandomizedMechanism(
        2, UNIT_INTERVAL, ((Dictator(1), F(1, 3)),), F(2, 3)
    )
    verdict = ax.check_anonymity(mixture, CheckDomain(n=2, grid=2), ax.EXP)
    assert verdict.failed and verdict.witness.component is None
    assert recheck_witness(mixture, verdict)


def test_dictator_fails_anonymity_with_a_swap_witness():
    verdict = ax.check_anonymity(Dictator(1), CheckDomain(n=2, grid=2))
    assert verdict.failed
    witness = verdict.witness
    assert witness.permutation == (2, 1)
    assert witness.lhs != witness.bound
    assert recheck_witness(Dictator(1), verdict)


def test_random_dictator_anonymity_variants():
    dom = CheckDomain(n=3, grid=4)
    mix = random_dictator(3)
    universal = ax.check_anonymity(mix, dom, ax.UNIVERSAL)
    assert universal.failed
    assert universal.witness.component.startswith("dictator")
    assert recheck_witness(mix, universal)
    assert ax.check_anonymity(mix, dom, ax.EXP).passed


def test_transpositions_agree_with_all_permutations():
    """The adjacent-swap sweep decides as a loop over every permutation of
    every ordered grid profile does."""
    dom = CheckDomain(n=3, grid=2)
    skewed = RandomizedMechanism(3, UNIT_INTERVAL, ((Dictator(1), F(2, 3)), (Dictator(2), F(1, 3))))
    cases = [(Median(), ax.DET), (Dictator(2), ax.DET), (RankK(1), ax.DET)]
    cases += [(random_dictator(3), ax.EXP), (skewed, ax.EXP)]
    for mechanism, variant in cases:
        swaps = ax.check_anonymity(mechanism, dom, variant)
        moved = any(
            expected_facility_location(mechanism, Profile(dom.domain, tuple(locs[p] for p in perm)))
            != expected_facility_location(mechanism, Profile(dom.domain, locs))
            for locs in product(grid_points(dom.domain, dom.grid), repeat=dom.n)
            for perm in permutations(range(dom.n))
        )
        assert swaps.status == (ax.FAIL if moved else ax.PASS)
        if swaps.failed:
            assert recheck_witness(mechanism, swaps)


def test_anonymity_det_variant_rejects_mixtures():
    with pytest.raises(MechanismError):
        ax.check_anonymity(random_rank(3), CheckDomain(n=3, grid=2), ax.DET)


# ---------------------------------------------------------------------------
# strategyproofness
# ---------------------------------------------------------------------------


def test_phantom_mechanisms_are_strategyproof():
    dom = CheckDomain(n=3, grid=4)
    for mechanism in (
        Median(),
        UniformPhantom(),
        RankK(2),
        Phantom((F(0), F(1, 3), F(1, 2), F(1))),
    ):
        assert ax.check_strategyproofness(mechanism, dom).passed


def test_average_is_manipulable():
    verdict = ax.check_strategyproofness(Average(), CheckDomain(n=2, grid=2))
    assert verdict.failed
    assert recheck_witness(Average(), verdict)


def test_rank_mixture_is_universally_strategyproof():
    dom = CheckDomain(n=3, grid=6)
    assert ax.check_strategyproofness(random_rank(3), dom, ax.UNIVERSAL).passed
    assert ax.check_strategyproofness(random_rank(3), dom, ax.EXP).passed


def test_average_mixture_boundary():
    for p in (F(0), F(1, 4), F(1, 2)):
        dom = CheckDomain(n=3, grid=8)
        mix = average_or_random_rank(p, 3)
        assert ax.check_strategyproofness(mix, dom, ax.EXP).passed
    for p in (F(51, 100), F(3, 5), F(1)):
        dom = CheckDomain(n=2, grid=10)
        mix = average_or_random_rank(p, 2)
        verdict = ax.check_strategyproofness(mix, dom, ax.EXP)
        assert verdict.failed
        assert recheck_witness(mix, verdict)


def test_average_mixture_universal_fails_via_average_component():
    dom = CheckDomain(n=3, grid=4)
    mix = average_or_random_rank(F(1, 2), 3)
    verdict = ax.check_strategyproofness(mix, dom, ax.UNIVERSAL)
    assert verdict.failed
    assert verdict.witness.component == "average"
    assert recheck_witness(mix, verdict)


def test_strategyproofness_det_variant_rejects_mixtures():
    with pytest.raises(MechanismError):
        ax.check_strategyproofness(random_rank(2), CheckDomain(n=2, grid=2), ax.DET)


def _with_family(n, mech, weight):
    return RandomizedMechanism(
        n, UNIT_INTERVAL, ((mech, weight),), 1 - weight
    )


@pytest.mark.parametrize(
    "mixture",
    [
        random_phantom(2),
        random_phantom(3),
        random_phantom(4),
        _with_family(3, RankK(1), F(1, 2)),
        _with_family(3, Median(), F(1, 3)),
        _with_family(3, Phantom((0, F(1, 4), F(1, 2), 1)), F(1, 2)),
    ],
    ids=["random_phantom-2", "random_phantom-3", "random_phantom-4", "rank1", "median", "phantom"],
)
def test_continuous_family_strategyproofness_agrees_with_the_sweep(mixture):
    """Phantom-class parts plus the family pass in expectation over the
    whole domain, with no sweep; universally the finite parts are swept
    and the family passes by theorem, on every grid. The sweep of the
    family's realisations themselves is the oracle below."""
    verdict = ax.check_strategyproofness(mixture, CheckDomain(n=mixture.n, grid=4), ax.EXP)
    assert verdict.passed and verdict.witness is None
    assert "every real misreport" in verdict.detail
    for grid in range(2, 7):
        dom = CheckDomain(n=mixture.n, grid=grid)
        verdict = ax.check_strategyproofness(mixture, dom, ax.UNIVERSAL)
        assert verdict.passed
        assert "each phantom realisation" in verdict.detail and "sampled" not in verdict.detail


def _assert_realisation_passes(interior, dom):
    """The deterministic sweeps of one realisation of the uniform family,
    phantoms pinned at 0 and 1, pass strategyproofness, anonymity and
    efficiency: what the universal variants take from the theorem."""
    phantom = Phantom((F(0),) + tuple(interior) + (F(1),))
    for check in (ax.check_strategyproofness, ax.check_anonymity, ax.check_efficiency):
        verdict = check(phantom, dom, ax.DET)
        assert verdict.passed, (check.__name__, phantom, verdict)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_uniform_family_realisations_pass_on_every_grid(n):
    """Every realisation the universal variants used to sample, on support
    grids 2..6, swept on the matching location grid."""
    for grid in range(2, 7):
        dom = CheckDomain(n=n, grid=grid)
        for interior in combinations_with_replacement(grid_points(UNIT_INTERVAL, grid), n - 1):
            _assert_realisation_passes(interior, dom)


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.sampled_from([97, 101, 360]).flatmap(lambda q: st.builds(F, st.integers(0, q), st.just(q))),
                min_size=n - 1,
                max_size=n - 1,
            ).map(sorted),
            st.lists(st.builds(F, st.integers(0, 12), st.just(12)), min_size=n, max_size=n),
            st.permutations(range(n)),
            st.integers(2, 5),
        )
    )
)
def test_off_grid_realisations_pass_the_sweeps(case):
    """Realisations with off-grid interior phantoms (denominators such as
    97) pass the same deterministic sweeps, and relabelling a profile never
    moves their output."""
    interior, locations, perm, grid = case
    n = len(perm)
    _assert_realisation_passes(interior, CheckDomain(n=n, grid=grid))
    phantom = Phantom((F(0),) + tuple(interior) + (F(1),))
    relabelled = tuple(locations[p] for p in perm)
    assert evaluate(phantom, Profile.unit(*relabelled)) == evaluate(phantom, Profile.unit(*locations))


def test_universal_checks_still_sweep_the_finite_parts():
    """With the family decided by theorem, a failing finite part still
    fails the universal check, named in the witness."""
    dom = CheckDomain(n=3, grid=4)
    mixture = _with_family(3, Average(), F(1, 2))
    verdict = ax.check_strategyproofness(mixture, dom, ax.UNIVERSAL)
    assert verdict.failed and verdict.witness.component == "average"
    assert recheck_witness(mixture, verdict)
    mixture = _with_family(3, Dictator(1), F(1, 2))
    verdict = ax.check_anonymity(mixture, dom, ax.UNIVERSAL)
    assert verdict.failed and verdict.witness.component == "dictator:i=1"
    assert recheck_witness(mixture, verdict)


GROUP_CHECKS = (ax.check_proportionality, ax.check_strong_proportionality, ax.check_spf)
SP_THEOREM = "every component a generalized median: every profile, every real misreport"


@pytest.mark.parametrize("check", GROUP_CHECKS, ids=lambda check: check.__name__)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_phantom_universal_group_axioms_fail_on_the_lowest_realisation(n, check):
    """The group axioms have no family theorem: the family enters as its
    realisation with every interior phantom at 0, which leaves the lone
    agent at 1 too far."""
    mixture = random_phantom(n)
    for grid in (1, 6):
        verdict = check(mixture, CheckDomain(n=n, grid=grid), ax.UNIVERSAL)
        assert verdict.failed and verdict.detail == ""
        assert verdict.witness.component == format_mechanism(Phantom((F(0),) * n + (F(1),)))
        assert recheck_witness(mixture, verdict)


def _finite_parts(n):
    points = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3, 6])).filter(lambda x: x <= 1)
    return st.lists(
        st.one_of(
            st.builds(RankK, st.integers(1, n + 1)),
            st.builds(Dictator, st.integers(1, n)),
            st.just(Average()),
            st.just(Median()),
            st.lists(points, min_size=n + 1, max_size=n + 1).map(lambda ys: Phantom(tuple(sorted(ys)))),
        ),
        max_size=3,
    )


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 6), st.integers(1, 6), _finite_parts(n))
    )
)
def test_group_axioms_universal_verdict_matches_the_sampled_support(case):
    """A group axiom's universal verdict on a mixture with the family is the
    first failing deterministic verdict over the finite parts, then every
    sorted interior phantom vector on a support grid m, the family's sample:
    the lone realisation the check sweeps decides as the whole sample would.
    A mixture with an invalid part cannot be built: the first such part's
    det error, in order, is the constructor's."""
    n, grid, m, parts = case
    dom = CheckDomain(n=n, grid=grid)
    weight = F(1, len(parts) + 1)
    components = tuple((mech, weight) for mech in parts)
    for mech in parts:
        try:
            ax.check_spf(mech, dom, ax.DET)
        except MechanismError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                RandomizedMechanism(n, UNIT_INTERVAL, components, weight)
            return
    mixture = RandomizedMechanism(n, UNIT_INTERVAL, components, weight)
    support = [*parts, *(Phantom((F(0),) + interior + (F(1),))
                         for interior in combinations_with_replacement(grid_points(UNIT_INTERVAL, m), n - 1))]
    for check in GROUP_CHECKS:
        expected = None
        for mech in support:
            verdict = check(mech, dom, ax.DET)
            if verdict.failed:
                witness = replace(verdict.witness, component=format_mechanism(mech))
                expected = ax.AxiomVerdict(verdict.axiom, ax.UNIVERSAL, ax.FAIL, witness, verdict.detail)
                break
        assert expected is not None
        assert check(mixture, dom, ax.UNIVERSAL).to_json() == expected.to_json()


@pytest.mark.parametrize(
    "mech, message",
    [
        (Average(), "undecided for a continuous family mixed with an average"),
        (Dictator(1), None),
        (RankK(5), "out of range"),
    ],
    ids=["average", "dictator", "rank-past-n"],
)
def test_continuous_family_strategyproofness_raises_without_a_pass(mech, message):
    """An average leaves the rule undecided, and a malformed part cannot be
    built beside the family. A dictator is a generalized median, so beside
    the family it passes by theorem and nothing manipulates it."""
    dom = CheckDomain(n=3, grid=4)
    if message is None:
        mixture = _with_family(3, mech, F(1, 2))
        verdict = ax.check_strategyproofness(mixture, dom, ax.EXP)
        assert (verdict.status, verdict.detail) == (ax.PASS, SP_THEOREM)
        assert ax.search_manipulation(mixture, dom) is None
        return
    for run in (ax.check_strategyproofness, ax.search_manipulation):
        with pytest.raises(MechanismError, match=message):
            run(_with_family(3, mech, F(1, 2)), dom, *([ax.EXP] if run is ax.check_strategyproofness else []))


def _dense_report_check(mechanism, n, profile_grid, report_grid=60):
    """Brute-force cross-check: candidate misreports from a dense grid only."""
    reports = [F(j, report_grid) for j in range(report_grid + 1)]
    for locs in combinations_with_replacement(
        [F(j, profile_grid) for j in range(profile_grid + 1)], n
    ):
        profile = Profile(UNIT_INTERVAL, locs)
        for agent in range(1, n + 1):
            truth = locs[agent - 1]
            truthful = expected_distance_to_point(mechanism, profile, truth)
            for report in reports:
                deviating = expected_distance_to_point(
                    mechanism, profile.replace(agent, report), truth
                )
                if deviating < truthful:
                    return False
    return True


@pytest.mark.parametrize(
    "mechanism",
    [
        Median(),
        UniformPhantom(),
        RankK(1),
        random_rank(3),
        random_dictator(3),
        average_or_random_rank(F(1, 2), 3),
        average_or_random_rank(F(3, 5), 3),
    ],
    ids=lambda m: type(m).__name__ if not hasattr(m, "components") else "mix",
)
def test_breakpoint_sweep_agrees_with_dense_grid(mechanism):
    dom = CheckDomain(n=3, grid=4)
    variant = ax.EXP if hasattr(mechanism, "components") else ax.DET
    fast = ax.check_strategyproofness(mechanism, dom, variant)
    dense = _dense_report_check(mechanism, 3, profile_grid=4)
    assert fast.passed == dense


# ---------------------------------------------------------------------------
# efficiency
# ---------------------------------------------------------------------------


def test_rank_mechanisms_are_efficient():
    dom = CheckDomain(n=3, grid=4)
    assert ax.check_efficiency(RankK(2), dom).passed
    assert ax.check_efficiency(Average(), dom).passed


def test_constant_phantom_vector_fails_unanimity():
    dom = CheckDomain(n=2, grid=2)
    mechanism = Phantom((F(1, 2), F(1, 2), F(1, 2)))
    verdict = ax.check_efficiency(mechanism, dom)
    assert verdict.failed
    assert verdict.witness.lhs == F(1, 2)
    assert recheck_witness(mechanism, verdict)


def test_rank_mixture_is_expost_efficient():
    dom = CheckDomain(n=3, grid=4)
    assert ax.check_efficiency(random_rank(3), dom, ax.UNIVERSAL).passed
    assert ax.check_efficiency(random_phantom(3), dom, ax.UNIVERSAL).passed


def test_efficiency_has_no_expectation_variant():
    with pytest.raises(MechanismError):
        ax.check_efficiency(random_rank(2), CheckDomain(n=2, grid=2), ax.EXP)


@pytest.mark.parametrize(
    "value, profile, side",
    [(F(1, 2), ["0", "0"], "above the rightmost report"), (F(0), ["1/2", "1/2"], "below the leftmost report")],
)
def test_efficiency_failure_names_its_side_and_component(value, profile, side):
    dom = CheckDomain(n=2, grid=2)
    phantom = Phantom((value,) * 3)
    witness = {"profile": profile, "lhs": format_point(value), "bound": profile[0]}
    assert ax.check_efficiency(phantom, dom).to_json() == {
        "axiom": "efficiency", "variant": "det", "status": "fail", "witness": witness, "detail": side
    }
    mixture = RandomizedMechanism(2, UNIT_INTERVAL, ((RankK(1), F(1, 2)), (phantom, F(1, 2))))
    verdict = ax.check_efficiency(mixture, dom, ax.UNIVERSAL)
    assert verdict.to_json() == {
        "axiom": "efficiency",
        "variant": "universal",
        "status": "fail",
        "witness": {**witness, "component": format_mechanism(phantom)},
        "detail": side,
    }
    assert recheck_witness(mixture, verdict)


@pytest.mark.parametrize(
    "phantoms, profile, lhs, side",
    [
        (("-100", "0", "+inf"), ["-101", "-101"], "-100", "above the rightmost report"),
        (("-inf", "0", "19/2"), ["11", "11"], "19/2", "below the leftmost report"),
        (("-15/2", "0", "9"), ["-9", "-9"], "-15/2", "above the rightmost report"),
    ],
)
def test_real_line_phantom_with_a_finite_end_fails_efficiency_off_the_grid(phantoms, profile, lhs, side):
    """No grid profile in the window [-4, 4] moves the output past the
    reports, yet a phantom vector with a finite end is not efficient: with
    every report just beyond that end the output is the end itself."""
    dom = CheckDomain(n=2, grid=4, domain=REAL_LINE)
    phantom = Phantom(tuple(parse_point(y) for y in phantoms))
    witness = {"profile": profile, "lhs": lhs, "bound": profile[0]}
    verdict = ax.check_efficiency(phantom, dom)
    assert verdict.to_json() == {
        "axiom": "efficiency", "variant": "det", "status": "fail", "witness": witness, "detail": side
    }
    assert recheck_witness(phantom, verdict)
    mixture = RandomizedMechanism(2, REAL_LINE, ((RankK(1), F(1, 2)), (phantom, F(1, 2))))
    verdict = ax.check_efficiency(mixture, dom, ax.UNIVERSAL)
    assert verdict.to_json() == {
        "axiom": "efficiency",
        "variant": "universal",
        "status": "fail",
        "witness": {**witness, "component": format_mechanism(phantom)},
        "detail": side,
    }
    assert recheck_witness(mixture, verdict)


def test_real_line_phantom_with_infinite_ends_stays_efficient():
    dom = CheckDomain(n=2, grid=4, domain=REAL_LINE)
    assert ax.check_efficiency(Phantom((parse_point("-inf"), F(-100), parse_point("+inf"))), dom).passed
    assert ax.check_efficiency(Median(), dom).passed


@pytest.mark.parametrize("check", [ax.check_strong_proportionality, ax.check_spf])
def test_a_new_infinity_checks_as_the_singleton(check):
    """A phantom vector built with its own ``Infinite(-1)`` and
    ``Infinite(1)`` gets the verdict of the vector of ``NEG_INF`` and
    ``POS_INF``: the engine places a phantom part by its -inf entries."""
    dom = CheckDomain(n=2, grid=2, domain=REAL_LINE)
    built = Phantom((Infinite(-1), F(0), Infinite(1)))
    verdict = check(built, dom)
    assert verdict == check(Phantom((NEG_INF, F(0), POS_INF)), dom)
    assert verdict.failed and verdict.witness.profile == (F(-2), F(-1))
    assert (verdict.witness.lhs, verdict.witness.bound) == (F(1), F(1, 2))
    assert recheck_witness(built, verdict)
    assert built.phantoms[0] is NEG_INF and built.phantoms[-1] is POS_INF


def test_unknown_variants_are_errors_for_every_axiom():
    dom = CheckDomain(n=3, grid=2)
    for axiom in ax.AXIOMS:
        message = "unknown variant 'bogus'"
        if axiom == ax.EFFICIENCY:
            message = "efficiency has deterministic and universal variants only"
        for mechanism in (Median(), random_rank(3)):
            with pytest.raises(MechanismError) as error:
                ax.run_check(axiom, mechanism, dom, "bogus")
            assert str(error.value) == message


@pytest.mark.parametrize("phantoms", [("-1", "1/2", "2"), ("0", "1/2", "3/2"), ("-inf", "1/2", "1")])
def test_unit_interval_checks_reject_phantoms_outside_it(phantoms):
    """Every axiom, in every variant, rejects a phantom outside [0,1] with
    the error ``evaluate`` raises, instead of a verdict whose witness
    cannot be rechecked; a mixture holding one cannot be built."""
    dom = CheckDomain(n=2, grid=2)
    phantom = Phantom(tuple(parse_point(y) for y in phantoms))
    message = "unit-interval profiles need finite phantoms in [0,1]"
    with pytest.raises(DomainMismatchError) as error:
        evaluate(phantom, Profile.unit(0, 1))
    assert str(error.value) == message
    for axiom in ax.AXIOMS:
        for variant in (ax.DET, ax.UNIVERSAL):
            with pytest.raises(DomainMismatchError) as error:
                ax.run_check(axiom, phantom, dom, variant)
            assert str(error.value) == message
    # Wherever the phantom stands, and whether or not a part before it
    # fails an axiom, the constructor raises its error.
    for first in (RankK(1), Dictator(1)):
        for components in (((phantom, F(1, 2)), (first, F(1, 2))), ((first, F(1, 2)), (phantom, F(1, 2)))):
            with pytest.raises(DomainMismatchError) as error:
                RandomizedMechanism(2, UNIT_INTERVAL, components)
            assert str(error.value) == message


# ---------------------------------------------------------------------------
# proportionality family
# ---------------------------------------------------------------------------


def test_median_fails_proportionality_on_the_majority_profile():
    verdict = ax.check_proportionality(Median(), CheckDomain(n=3, grid=2))
    assert verdict.failed
    witness = verdict.witness
    assert witness.profile == (F(0), F(0), F(1))
    assert witness.lhs == F(1) and witness.bound == F(2, 3)
    assert recheck_witness(Median(), verdict)


@pytest.mark.parametrize(
    "axiom, group, bound",
    [
        # Random Rank at n=3 passes Strong Proportionality in expectation:
        # agent 1 of (0, 0, 1/2) pays 1/6, its group's bound (1/3 of the gap).
        (ax.STRONG_PROPORTIONALITY, (1, 2), F(0)),
        (ax.STRONG_PROPORTIONALITY, (1, 2), F(1, 6)),
        (ax.STRONG_PROPORTIONALITY, (1,), F(0)),
        (ax.STRONG_PROPORTIONALITY, (3,), F(0)),
        (ax.STRONG_PROPORTIONALITY, (1, 2, 3), F(0)),
        (ax.PROPORTIONALITY, (1, 2), F(0)),
        (ax.SPF, (1,), F(0)),
        (ax.SPF, (1,), F(1, 3)),
        (ax.SPF, (3,), F(0)),
        (ax.SPF, (1, 1), F(0)),
        (ax.SPF, (0, 1), F(0)),
        (ax.SPF, (1, 4), F(0)),
        (ax.SPF, (), F(0)),
        (ax.SPF, None, F(0)),
    ],
)
def test_recheck_rejects_a_forged_group_witness(axiom, group, bound):
    """A group witness's bound is recomputed from its profile and group: a
    stored bound below the true one, a group without the agent, a group
    that is not every agent at its location, a profile off {0, 1} for
    proportionality, or a malformed group never rechecks."""
    mechanism = random_rank(3)
    profile = (F(0), F(0), F(1, 2))
    lhs = expected_distance_to_point(mechanism, Profile(UNIT_INTERVAL, profile), F(0))
    assert lhs == F(1, 6)
    witness = ax.Witness(profile, UNIT_INTERVAL, agent=1, group=group, lhs=lhs, bound=bound)
    assert not recheck_witness(mechanism, ax.AxiomVerdict(axiom, ax.EXP, ax.FAIL, witness))


@pytest.mark.parametrize("bound, rechecks", [(F(0), True), (F(7), False), (F(1, 2), False)])
def test_recheck_compares_an_efficiency_witness_bound(bound, rechecks):
    """phantom:[1/2,1/2,1] at n=2, grid 2 outputs 1/2 at (0, 0), above the
    reported range: its witness's bound is that range's end, 0, and an
    edited bound never rechecks."""
    mechanism = Phantom((F(1, 2), F(1, 2), F(1)))
    verdict = ax.check_efficiency(mechanism, CheckDomain(n=2, grid=2))
    assert verdict.witness.to_json() == {"profile": ["0", "0"], "lhs": "1/2", "bound": "0"}
    edited = replace(verdict, witness=replace(verdict.witness, bound=bound))
    assert recheck_witness(mechanism, edited) is rechecks


def test_recheck_takes_strong_proportionality_witnesses_on_two_valued_profiles_only():
    """Agent 1 of (0, 1/2, 1) pays 1 under the third agent's dictatorship,
    above its SPF bound 2/3: an SPF witness, but no Strong Proportionality
    one, since the profile takes three values."""
    three = ax.Witness((F(0), F(1, 2), F(1)), UNIT_INTERVAL, agent=1, group=(1,), lhs=F(1), bound=F(2, 3))
    for axiom, rechecks in ((ax.SPF, True), (ax.STRONG_PROPORTIONALITY, False)):
        assert recheck_witness(Dictator(3), ax.AxiomVerdict(axiom, ax.DET, ax.FAIL, three)) is rechecks


def test_recheck_prices_an_spf_group_with_its_inner_range():
    """Agents 1 and 2 of (0, 1/2, 1) span 1/2, so their SPF bound is
    ((3 - 2) * 1 + 3 * 1/2)/3 = 5/6, and agent 1 pays 1 under the third
    agent's dictatorship: a true witness only with the inner range priced."""
    pair = ax.Witness((F(0), F(1, 2), F(1)), UNIT_INTERVAL, agent=1, group=(1, 2), lhs=F(1), bound=F(5, 6))
    assert recheck_witness(Dictator(3), ax.AxiomVerdict(ax.SPF, ax.DET, ax.FAIL, pair))
    assert not recheck_witness(Dictator(3), ax.AxiomVerdict(ax.SPF, ax.DET, ax.FAIL, replace(pair, bound=F(1, 3))))


def test_recheck_rejects_a_witness_that_shows_no_violation():
    """Stored quantities that reproduce exactly but show no violation: the
    median's agent 2 of (0, 1) reporting 1/2 still pays 1 (zero gain), and
    swapping the two agents leaves its output at 0."""
    median, profile = Median(), (F(0), F(1))
    zero_gain = ax.Witness(profile, UNIT_INTERVAL, agent=2, misreport=F(1, 2), lhs=F(1), bound=F(1))
    same_output = ax.Witness(profile, UNIT_INTERVAL, permutation=(2, 1), lhs=F(0), bound=F(0))
    assert not recheck_witness(median, ax.AxiomVerdict(ax.STRATEGYPROOFNESS, ax.DET, ax.FAIL, zero_gain))
    assert not recheck_witness(median, ax.AxiomVerdict(ax.ANONYMITY, ax.DET, ax.FAIL, same_output))


def test_recheck_of_a_pass_is_an_error():
    """A PASS carries no witness, so there is nothing to recheck."""
    verdict = ax.check_anonymity(Median(), CheckDomain(n=2, grid=2))
    assert verdict.passed
    with pytest.raises(MechanismError, match="verdict carries no witness"):
        recheck_witness(Median(), verdict)


def test_uniform_phantom_is_proportional():
    for n in range(2, 7):
        verdict = ax.check_proportionality(UniformPhantom(), CheckDomain(n=n, grid=2))
        assert verdict.passed


def test_random_phantom_is_proportional_in_expectation():
    for n in range(2, 7):
        dom = CheckDomain(n=n, grid=2)
        assert ax.check_proportionality(random_phantom(n), dom, ax.EXP).passed


def test_proportionality_needs_the_unit_interval():
    with pytest.raises(DomainMismatchError):
        ax.check_proportionality(Median(), CheckDomain(n=2, grid=2, domain=REAL_LINE))


def test_rank_mixture_strong_proportionality_exact():
    for n in (2, 3, 4, 5):
        dom = CheckDomain(n=n, grid=12 if n <= 3 else 6)
        assert ax.check_strong_proportionality(random_rank(n), dom, ax.EXP).passed


def test_uniform_phantom_fails_strong_proportionality():
    dom = CheckDomain(n=2, grid=4)
    verdict = ax.check_strong_proportionality(UniformPhantom(), dom)
    assert verdict.failed
    assert recheck_witness(UniformPhantom(), verdict)
    # the half-gap profile violates too: output 1/2 against a 1/4 bound
    profile = Profile.unit(0, F(1, 2))
    assert evaluate(UniformPhantom(), profile) == F(1, 2)
    assert F(1, 2) - 0 > F(1, 2) * F(1, 2)


def test_median_fails_strong_proportionality():
    verdict = ax.check_strong_proportionality(Median(), CheckDomain(n=2, grid=4))
    assert verdict.failed
    assert recheck_witness(Median(), verdict)


def test_random_phantom_fails_strong_proportionality_in_expectation():
    dom = CheckDomain(n=3, grid=4)
    verdict = ax.check_strong_proportionality(random_phantom(3), dom, ax.EXP)
    assert verdict.failed
    assert recheck_witness(random_phantom(3), verdict)
    # the wide two-group profile fails with a comfortable margin
    wide = expected_distance_to_point(
        random_phantom(3), Profile.unit(F(1, 4), F(1, 4), F(3, 4)), F(3, 4)
    )
    assert wide == F(35, 96) > F(1, 3)


def test_maximal_groups_are_the_binding_case():
    # checking every sub-group of each co-located set agrees with the
    # maximal-group sweep: the bound only loosens as the group shrinks
    dom = CheckDomain(n=3, grid=2)
    for mechanism in (Median(), UniformPhantom(), random_rank(3)):
        variant = ax.EXP if hasattr(mechanism, "components") else ax.DET
        maximal = ax.check_strong_proportionality(mechanism, dom, variant)
        violated = False
        points = dom.points()
        for low_i, low in enumerate(points):
            for high in points[low_i + 1 :]:
                for size_low in range(0, 4):
                    locs = (low,) * size_low + (high,) * (3 - size_low)
                    profile = Profile(UNIT_INTERVAL, locs)
                    groups = {}
                    for index, loc in enumerate(locs):
                        groups.setdefault(loc, []).append(index)
                    for loc, members in groups.items():
                        for size in range(1, len(members) + 1):
                            for subset in combinations(members, size):
                                bound = F(3 - size, 3) * (high - low)
                                lhs = expected_distance_to_point(
                                    mechanism, profile, loc
                                )
                                if lhs > bound:
                                    violated = True
        assert maximal.failed == violated


def test_rank_mixture_satisfies_group_range_fairness():
    dom = CheckDomain(n=3, grid=6)
    assert ax.check_spf(random_rank(3), dom, ax.EXP).passed


def test_median_group_range_fairness_fails_only_at_extremes():
    # the spread-out profile stays within its bound...
    profile = Profile.unit(0, F(1, 2), 1)
    out = evaluate(Median(), profile)
    assert abs(F(1) - out) == F(1, 2) <= F(1) * F(2, 3)
    # ...but the full sweep still finds endpoint violations
    verdict = ax.check_spf(Median(), CheckDomain(n=3, grid=2))
    assert verdict.failed
    assert recheck_witness(Median(), verdict)


@pytest.mark.parametrize(
    "grid, top, lhs, bound",
    [(1, F(1), F(2, 7), F(1, 7)), (2, F(1, 2), F(1, 7), F(1, 14))],
    ids=["grid1", "grid2"],
)
def test_spf_checks_groups_of_six_of_seven_agents(grid, top, lhs, bound):
    """A 7-agent rank mixture whose only violations sit in a group of six:
    the co-located agents 1..6 expect 2/7 of the range where the bound
    allows 1/7 of it. SPF covers every subset, so it fails there."""
    weights = ((1, 2), (3, 1), (4, 1), (5, 1), (7, 2))
    mixture = RandomizedMechanism(7, UNIT_INTERVAL, tuple((RankK(k), F(w, 7)) for k, w in weights))
    verdict = ax.check_spf(mixture, CheckDomain(n=7, grid=grid), ax.EXP)
    assert verdict.failed
    witness = verdict.witness
    assert witness.profile == (F(0),) * 6 + (top,)
    assert (witness.agent, witness.group) == (1, (1, 2, 3, 4, 5, 6))
    assert (witness.lhs, witness.bound) == (lhs, bound)
    assert recheck_witness(mixture, verdict)


def _spf_violated(mechanism, profile) -> bool:
    """Whether some member of some subset S of the agents expects a distance
    above R(n - |S|)/n + r, priced on the plain rational path."""
    xs, n = profile.locations, profile.n
    spread = max(xs) - min(xs)
    price = {x: expected_distance_to_point(mechanism, profile, x) for x in set(xs)}
    return any(
        price[xs[j]] > F(n - size, n) * spread + max(xs[i] for i in subset) - min(xs[i] for i in subset)
        for size in range(1, n + 1)
        for subset in combinations(range(n), size)
        for j in subset
    )


def _translation(data, profile, domain):
    """A real shift t that keeps ``profile`` in the domain."""
    if domain == REAL_LINE:
        return data.draw(st.fractions(-5, 5, max_denominator=12))
    return data.draw(st.fractions(-min(profile), 1 - max(profile), max_denominator=12))


@given(
    st.sampled_from([UNIT_INTERVAL, REAL_LINE]),
    st.sampled_from([random_rank, random_dictator]),
    st.integers(2, 4),
    st.data(),
)
def test_equivariant_spf_pass_covers_off_grid_translates(domain, build, n, data):
    """Random Rank and Random Dictatorship commute with translation, so
    their SPF PASS holds on every real translate of a grid profile that
    stays in the domain, off the grid included."""
    mechanism = build(n, domain)
    dom = CheckDomain(n=n, grid=3, domain=domain)
    assert ax.check_spf(mechanism, dom, ax.EXP).passed
    X = data.draw(st.lists(st.sampled_from(dom.points()), min_size=n, max_size=n))
    t = _translation(data, X, domain)
    assert not _spf_violated(mechanism, Profile(domain, tuple(x + t for x in X)))


@pytest.mark.parametrize(
    "spec, n, grid, domain, variant",
    [
        ("median", 3, 4, UNIT_INTERVAL, ax.DET),
        ("rank:k=1", 3, 3, REAL_LINE, ax.DET),
        ("avg_or_rr:p=1/2", 4, 3, REAL_LINE, ax.UNIVERSAL),
        ("random_dictator", 3, 4, UNIT_INTERVAL, ax.UNIVERSAL),
    ],
)
@given(data=st.data())
def test_equivariant_spf_witness_fails_on_every_translate(spec, n, grid, domain, variant, data):
    """A FAIL witness of a translation-equivariant mechanism, shifted by any
    real t that keeps it in the domain, still violates with the same cost
    and bound."""
    mechanism = build_mechanism(spec, n, domain)
    witness = ax.check_spf(mechanism, CheckDomain(n=n, grid=grid, domain=domain), variant).witness
    target = build_mechanism(witness.component, n, domain) if witness.component else mechanism
    t = _translation(data, witness.profile, domain)
    shifted = Profile(domain, tuple(x + t for x in witness.profile))
    members = [shifted.locations[i - 1] for i in witness.group]
    spread = max(shifted.locations) - min(shifted.locations)
    bound = F(n - len(members), n) * spread + max(members) - min(members)
    lhs = expected_distance_to_point(target, shifted, shifted.locations[witness.agent - 1])
    assert (lhs, bound) == (witness.lhs, witness.bound)
    assert lhs > bound
    assert _spf_violated(target, shifted)


def test_unanimous_profiles_force_exact_placement():
    # spread zero forces the facility onto the common location
    dom = CheckDomain(n=3, grid=2)
    verdict = ax.check_spf(random_rank(3), dom, ax.EXP)
    assert verdict.passed
    profile = Profile.unit(F(1, 2), F(1, 2), F(1, 2))
    assert expected_distance_to_point(random_rank(3), profile, F(1, 2)) == 0


# ---------------------------------------------------------------------------
# manipulation search
# ---------------------------------------------------------------------------


def test_search_manipulation_maximizes_the_gain():
    mix = average_or_random_rank(F(3, 5), 2)
    finding = search_manipulation(mix, CheckDomain(n=2, grid=10))
    assert finding is not None
    # exact enumeration oracle: the best gain on this grid
    best = F(0)
    points = [F(j, 10) for j in range(11)]
    for locs in combinations_with_replacement(points, 2):
        profile = Profile(UNIT_INTERVAL, locs)
        for agent in (1, 2):
            truth = locs[agent - 1]
            truthful = expected_distance_to_point(mix, profile, truth)
            for report in points:
                deviating = expected_distance_to_point(
                    mix, profile.replace(agent, report), truth
                )
                best = max(best, truthful - deviating)
    assert finding.gain >= best > 0
    assert finding.truthful_cost - finding.deviating_cost == finding.gain


def test_search_manipulation_finds_nothing_for_truthful_mechanisms():
    assert search_manipulation(random_rank(3), CheckDomain(n=3, grid=8)) is None
    assert search_manipulation(Dictator(1), CheckDomain(n=2, grid=6)) is None
    assert search_manipulation(random_phantom(3), CheckDomain(n=3, grid=4)) is None


# ---------------------------------------------------------------------------
# implication structure and dispatch
# ---------------------------------------------------------------------------


def test_implication_chain_across_the_catalog():
    catalog = [
        random_rank(3),
        random_dictator(3),
        random_phantom(3),
        average_or_random_rank(F(1, 2), 3),
        average_or_random_rank(F(3, 5), 3),
        Median(),
        UniformPhantom(),
    ]
    dom = CheckDomain(n=3, grid=4)
    for mechanism in catalog:
        randomized = hasattr(mechanism, "components")
        variant = ax.EXP if randomized else ax.DET
        spf = ax.check_spf(mechanism, dom, variant)
        strong = ax.check_strong_proportionality(mechanism, dom, variant)
        prop = ax.check_proportionality(mechanism, dom, variant)
        if spf.passed:
            assert strong.passed
        if strong.passed:
            assert prop.passed
        if randomized:
            for axiom in (ax.ANONYMITY, ax.STRATEGYPROOFNESS):
                universal = ax.run_check(axiom, mechanism, dom, ax.UNIVERSAL)
                exp = ax.run_check(axiom, mechanism, dom, ax.EXP)
                if universal.passed:
                    assert exp.passed


def test_run_check_dispatch_and_unknown_axiom():
    dom = CheckDomain(n=2, grid=2)
    assert ax.run_check(ax.ANONYMITY, Median(), dom).passed
    with pytest.raises(MechanismError):
        ax.run_check("karma", Median(), dom)


def test_verdict_serialization_shape():
    mix = average_or_random_rank(F(3, 5), 2)
    verdict = ax.check_strategyproofness(mix, CheckDomain(n=2, grid=10), ax.EXP)
    data = verdict.to_json()
    assert data["axiom"] == "strategyproofness"
    assert data["status"] == "fail"
    witness = data["witness"]
    assert set(witness["misreport"]) == {"agent", "to"}
    assert isinstance(witness["lhs"], str) and isinstance(witness["bound"], str)
