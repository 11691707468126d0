"""Closed forms, the weight solver, certificates, and the float cross-checks."""

import math
import re
from bisect import bisect_left
from fractions import Fraction as F
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import proploc.analysis as an
import proploc.axioms as ax
from float_oracle import oracle_point_distance, order_stat_mc
from proploc.core import (
    DomainMismatchError,
    MechanismError,
    Profile,
    REAL_LINE,
    RandomizedMechanism,
    RankK,
    UNIT_INTERVAL,
    ZERO,
)
from proploc.mechanisms import average_or_random_rank, random_phantom, random_rank


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def test_order_stat_means_are_uniformly_spaced():
    for n in range(2, 11):
        for i in range(1, n):
            assert an.order_stat_mean(n - 1, i) == F(i, n)
    assert an.order_stat_mean(1, 1) == F(1, 2)
    assert an.order_stat_mean(3, 2) == F(1, 2)
    assert an.order_stat_mean(4, 1) == F(1, 5)


def test_order_stat_mean_validation():
    with pytest.raises(MechanismError):
        an.order_stat_mean(3, 4)
    with pytest.raises(MechanismError):
        an.order_stat_mean(3, 0)


def test_order_stat_monte_carlo_agrees():
    mean, three_se = order_stat_mc(4, 1, samples=200_000, seed=5)
    assert abs(mean - 0.2) <= three_se
    mean, three_se = order_stat_mc(1, 1, samples=200_000, seed=6)
    assert abs(mean - 0.5) <= three_se


# ---------------------------------------------------------------------------
# continuous-family closed forms
# ---------------------------------------------------------------------------


def _beta_moment_oracle(n, i, low, high):
    """Independent oracle: clamp the i-th of n-1 uniform order statistics.

    Uses the density (n-1)! / ((i-1)! (n-1-i)!) t^(i-1) (1-t)^(n-1-i),
    integrating term by term after a binomial expansion; no code shared
    with the piecewise-CDF implementation under test.
    """
    draws = n - 1
    scale = F(math.factorial(draws), math.factorial(i - 1) * math.factorial(draws - i))

    def cdf_terms(upper, moment):
        # integral of t^(i-1+moment) (1-t)^(draws-i) from 0 to upper
        total = F(0)
        for s in range(draws - i + 1):
            power = i - 1 + moment + s
            total += (
                F(math.comb(draws - i, s) * (-1) ** s, power + 1) * upper ** (power + 1)
            )
        return total * scale

    prob_below = cdf_terms(low, 0)
    prob_above = 1 - cdf_terms(high, 0)
    middle = cdf_terms(high, 1) - cdf_terms(low, 1)
    return low * prob_below + middle + high * prob_above


def test_two_valued_profiles_match_the_clamp_oracle():
    for n in (2, 3, 4, 5):
        mechanism = random_phantom(n)
        for low, high in ((F(0), F(1)), (F(1, 4), F(3, 4)), (F(1, 6), F(5, 6))):
            for high_count in range(1, n):
                locs = (low,) * (n - high_count) + (high,) * high_count
                profile = Profile(UNIT_INTERVAL, locs)
                clamp_mean = _beta_moment_oracle(n, high_count, low, high)
                assert an.expected_facility_location(mechanism, profile) == clamp_mean
                assert an.expected_distance_to_point(
                    mechanism, profile, high
                ) == high - clamp_mean


def test_wide_two_group_profile_expected_distance():
    profile = Profile.unit(F(1, 4), F(1, 4), F(3, 4))
    assert an.uniform_family_expected_distance(profile, F(3, 4)) == F(35, 96)
    assert F(35, 96) > F(2, 3) * F(1, 2)  # exceeds the group bound


def test_unanimous_profile_pins_the_facility():
    profile = Profile.unit(F(2, 5), F(2, 5))
    assert an.uniform_family_expected_distance(profile, F(2, 5)) == 0
    assert an.uniform_family_expected_location(profile) == F(2, 5)


def test_endpoint_profiles_match_order_stat_means():
    for n in (2, 3, 4, 6):
        for ones in range(1, n):
            locs = (F(0),) * (n - ones) + (F(1),) * ones
            profile = Profile(UNIT_INTERVAL, locs)
            assert an.uniform_family_expected_location(profile) == F(ones, n)


def test_mixture_expectations_combine_finite_and_continuous_parts():
    mechanism = average_or_random_rank(F(1, 2), 3)
    profile = Profile.unit(0, 0, F(1, 3))
    assert an.expected_facility_location(mechanism, profile) == F(1, 9)
    assert an.expected_distance_to_point(mechanism, profile, ZERO) == F(1, 9)
    distances = an.expected_agent_distances(mechanism, profile)
    assert distances[0] == distances[1] == F(1, 9)


# ---------------------------------------------------------------------------
# the cumulative-integral kernel against a piecewise Fraction reference
# ---------------------------------------------------------------------------


def _reference_pieces(profile):
    """(lo, hi, coeffs) pieces of the facility CDF over [0,1], the
    polynomial in ascending coefficients on each open interval."""
    n, agents = profile.n, sorted(profile.locations)
    breaks = sorted({F(0), F(1), *agents})
    return [
        (lo, hi, an._upper_cdf_coeffs(n - 1, n - sum(1 for x in agents if x <= lo)))
        for lo, hi in zip(breaks, breaks[1:])
    ]


def _reference_integral(pieces, a, b):
    """Integral of the CDF over [a, b], piece by piece with Fraction powers."""
    total = F(0)
    for lo, hi, coeffs in pieces:
        left, right = max(lo, a), min(hi, b)
        if left < right:
            total += sum(F(c, p + 1) * (right ** (p + 1) - left ** (p + 1)) for p, c in enumerate(coeffs))
    return total


def _reference_location(profile):
    return 1 - _reference_integral(_reference_pieces(profile), F(0), F(1))


def _reference_distance(profile, point):
    pieces = _reference_pieces(profile)
    return _reference_integral(pieces, F(0), point) + (1 - point) - _reference_integral(pieces, point, F(1))


@st.composite
def _family_cases(draw):
    """A unit-interval profile of n = 2..9 agents on one denominator, and
    points off it on another: ties, the ends 0 and 1 and co-located
    profiles come from drawing the agents out of a small pool."""
    denominators = st.sampled_from([1, 2, 6, 97, 360, 2**61 - 1])
    n, d, e = draw(st.integers(2, 9)), draw(denominators), draw(denominators)
    pool = draw(st.lists(st.integers(0, d), min_size=1, max_size=4)) + [0, d]
    agents = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    points = draw(st.lists(st.integers(0, e), max_size=3))
    return Profile.unit(*(F(a, d) for a in agents)), [F(p, e) for p in points]


@given(_family_cases())
@settings(max_examples=200)
def test_kernel_matches_the_piecewise_reference(case):
    profile, points = case
    mechanism = random_phantom(profile.n)
    location = _reference_location(profile)
    agents = tuple(_reference_distance(profile, x) for x in profile.locations)
    assert an.uniform_family_expected_location(profile) == location
    assert an.expected_facility_location(mechanism, profile) == location
    assert an.expected_agent_distances(mechanism, profile) == agents
    for x in [*profile.locations, F(0), F(1), *points]:
        assert an.uniform_family_expected_distance(profile, x) == _reference_distance(profile, x)
        assert an.expected_distance_to_point(mechanism, profile, x) == _reference_distance(profile, x)


def test_kernel_on_co_located_and_endpoint_profiles():
    for n in range(2, 10):
        for where in (F(0), F(1), F(5, 97)):
            profile = Profile(UNIT_INTERVAL, (where,) * n)
            assert an.uniform_family_expected_location(profile) == where
            assert an.expected_agent_distances(random_phantom(n), profile) == (F(0),) * n
            assert an.uniform_family_expected_distance(profile, F(1, 2)) == abs(F(1, 2) - where)


def test_kernel_inside_a_mixture_with_finite_components():
    """1/2 RankK(1) + 1/2 uniform family: the finite part adds its
    distances to the kernel's, agent by agent and at points off the profile."""
    for locations in ((F(0), F(1, 3), F(1)), (F(1, 97), F(1, 97), F(359, 360), F(1, 2))):
        n = len(locations)
        profile = Profile(UNIT_INTERVAL, locations)
        mixture = RandomizedMechanism(
            n, UNIT_INTERVAL, ((RankK(1), F(1, 2)),), continuous_weight=F(1, 2)
        )
        top = max(locations)
        assert an.expected_facility_location(mixture, profile) == (top + _reference_location(profile)) / 2
        points = (*locations, F(0), F(1), F(2, 7))
        expected = [(abs(x - top) + _reference_distance(profile, x)) / 2 for x in points]
        assert an.expected_agent_distances(mixture, profile) == tuple(expected[:n])
        assert [an.expected_distance_to_point(mixture, profile, x) for x in points] == expected


def test_kernel_keeps_its_errors():
    profile = Profile.unit(F(1, 3), F(1, 2))
    with pytest.raises(DomainMismatchError, match=r"reference point must lie in \[0,1\]"):
        an.uniform_family_expected_distance(profile, F(3, 2))
    real = Profile(REAL_LINE, (F(-1), F(2)))
    with pytest.raises(DomainMismatchError, match=r"lives on \[0,1\]"):
        an.uniform_family_expected_location(real)
    with pytest.raises(MechanismError, match="mechanism built for n=3, used with n=2"):
        an.expected_agent_distances(random_phantom(3), profile)


# ---------------------------------------------------------------------------
# rank-mixture phantom marginals
# ---------------------------------------------------------------------------


def test_rank_mixture_marginals():
    for n in range(2, 9):
        marginals = an.rank_phantom_marginals(random_rank(n))
        assert [m.index for m in marginals] == list(range(1, n))
        for m in marginals:
            assert m.prob_top == F(m.index, n)
            assert m.prob_bottom == F(n - m.index, n)
            assert m.top_label == "1" and m.bottom_label == "0"


def test_rank_mixture_marginals_on_the_real_line():
    marginals = an.rank_phantom_marginals(random_rank(3, REAL_LINE))
    assert [m.prob_top for m in marginals] == [F(1, 3), F(2, 3)]
    assert marginals[0].top_label == "+inf"
    assert marginals[0].bottom_label == "-inf"


def test_degenerate_rank_mixture_marginal():
    mix = RandomizedMechanism(2, UNIT_INTERVAL, ((RankK(1), F(1)),))
    (marginal,) = an.rank_phantom_marginals(mix)
    assert marginal.prob_top == 1  # forced high phantom: group fairness must fail
    verdict = ax.check_strong_proportionality(mix, ax.CheckDomain(n=2, grid=4), ax.EXP)
    assert verdict.failed


def test_marginals_reject_interior_phantoms_and_averages():
    with pytest.raises(MechanismError):
        an.rank_phantom_marginals(average_or_random_rank(F(1, 2), 3))
    from proploc.core import Phantom

    mix = RandomizedMechanism(
        2, UNIT_INTERVAL, ((Phantom((F(0), F(1, 2), F(1))), F(1)),)
    )
    with pytest.raises(MechanismError):
        an.rank_phantom_marginals(mix)


def test_marginals_telescope_one_rank_step_at_a_time():
    for n in range(2, 9):
        marginals = an.rank_phantom_marginals(random_rank(n))
        bottoms = [F(1)] + [m.prob_bottom for m in marginals] + [F(0)]
        for step in range(n):
            assert bottoms[step] - bottoms[step + 1] == F(1, n)


# ---------------------------------------------------------------------------
# rank-weight solving
# ---------------------------------------------------------------------------


def test_two_agent_weights_solved_by_hand():
    # the only constraints are w_1 <= 1/2 and w_1 >= 1/2 with w_1 + w_2 = 1
    result = an.solve_rank_weights(2)
    assert result.status == "unique"
    assert result.weights == (F(1, 2), F(1, 2))


def test_uniform_weights_are_unique_up_to_six_agents():
    for n in range(2, 7):
        result = an.solve_rank_weights(n)
        assert result.status == "unique"
        assert result.weights == tuple(F(1, n) for _ in range(n))


def test_single_constraint_perturbations_break_the_solution():
    for n in range(2, 7):
        count = len(an.rank_weight_constraints(n).constraints)
        for index in range(count):
            for delta in (F(1, 100), F(-1, 100)):
                result = an.solve_rank_weights(n, perturb=(index, delta))
                assert result.status in ("infeasible", "non_unique")
                if result.status == "non_unique":
                    first, second = result.alternates
                    assert first != second
                    assert sum(first) == sum(second) == 1


def test_pinning_the_first_weight_to_zero_is_infeasible():
    result = an.solve_rank_weights(3, extra=(("eq", 1, F(0)),))
    assert result.status == "infeasible"
    assert result.conflict


def test_solved_weights_feed_back_into_a_fair_mixture():
    for n in (2, 3, 4):
        result = an.solve_rank_weights(n)
        mix = RandomizedMechanism(
            n,
            UNIT_INTERVAL,
            tuple((RankK(k + 1), w) for k, w in enumerate(result.weights)),
        )
        dom = ax.CheckDomain(n=n, grid=6)
        assert ax.check_strong_proportionality(mix, dom, ax.EXP).passed


def test_constraint_system_serialization():
    system = an.rank_weight_constraints(3, grid=4)
    data = system.to_json()
    assert data["n"] == 3
    assert all(c["multiplicity"] >= 1 for c in data["constraints"])


# ---------------------------------------------------------------------------
# deterministic impossibility certificates
# ---------------------------------------------------------------------------


def test_default_certificate_uses_the_midpoint_pair():
    cert = an.prop1_infeasibility()
    assert cert.first.forced == F(1, 4)
    assert cert.second.forced == F(1, 2)
    assert cert.manipulation is not None
    assert cert.manipulation["misreport"] == "1"
    assert an.prop1_grid_sweep(cert, 40) == 0


def test_single_placement_is_satisfiable():
    placement = an.ForcedPlacement(F(1, 2))
    triple = an.find_phantom_vector((placement,))
    assert triple is not None
    # the constant vector at the forced output works too
    constant = (F(1, 4), F(1, 4), F(1, 4))
    assert an.find_phantom_vector((placement,), constant) == constant


def test_interior_pair_is_infeasible():
    cert = an.prop1_infeasibility((F(1, 3), F(2, 3)))
    assert cert.first.report == F(1, 3)
    assert an.prop1_grid_sweep(cert, 24) == 0


def test_grid_sweep_rejects_an_empty_grid():
    cert = an.prop1_infeasibility()
    for grid in (0, -1):
        with pytest.raises(MechanismError, match="grid parameter must be >= 1"):
            an.prop1_grid_sweep(cert, grid)
    # the coarsest grid {0, 1} still holds no vector for the default pair
    assert an.prop1_grid_sweep(cert, 1) == 0


@given(st.integers(1, 12).flatmap(lambda a: st.tuples(st.just(a), st.integers(a, 12))))
@example((6, 12))  # the default certificate's reports (1/2, 1)
@example((4, 4))  # equal reports are one placement, which a vector meets
def test_representative_candidates_decide_every_grid_triple(pair):
    """``_phantom_candidates`` is exhaustive. With reports in twelfths and
    step 1/(4 * lcm of their denominators), the grid holds every candidate;
    each grid triple meets the placements exactly when its representative
    does (each phantom snapped to its breakpoint or to the midpoint of its
    containing interval), that representative is a candidate triple, and
    so the candidate search finds a vector exactly when the grid scan does.
    Distinct reports never admit one (each forced output needs a phantom of
    its own, and the third cannot sit on both sides), so equal reports are
    the admitting case."""
    a, b = pair
    reports = (F(a, 12), F(b, 12))
    placements = tuple(an.ForcedPlacement(t) for t in reports)
    step = 4 * math.lcm(*(t.denominator for t in reports))
    grid = tuple(F(j, step) for j in range(step + 1))
    candidates = set(an._phantom_candidates(placements))
    assert candidates <= set(grid)
    breaks = sorted({ZERO, F(1), *(v for p in placements for v in (p.report, p.forced))})
    snap = {}
    for j, y in enumerate(grid):
        at = bisect_left(breaks, y)
        snap[j] = j if breaks[at] == y else int((breaks[at - 1] + breaks[at]) / 2 * step)
        assert grid[snap[j]] in candidates
    hits = {tuple(int(y * step) for y in triple) for triple in an._phantom_triples(placements, grid)}
    for triple in combinations_with_replacement(range(step + 1), 3):
        assert (triple in hits) == (tuple(snap[j] for j in triple) in hits)
    assert (an.find_phantom_vector(placements) is None) == (not hits)
    assert (a == b) == bool(hits)


def test_certificate_input_validation():
    with pytest.raises(MechanismError):
        an.prop1_infeasibility((F(1, 2),))
    with pytest.raises(MechanismError):
        an.prop1_infeasibility((F(1, 2), F(3, 2)))
    with pytest.raises(MechanismError):
        an.prop1_infeasibility((F(1, 2), F(1, 2)))


def test_certificate_serialization():
    data = an.prop1_infeasibility().to_json()
    assert data["instances"][0]["forced_output"] == "1/4"
    assert data["vectors_checked"] > 0


# ---------------------------------------------------------------------------
# float cross-checks (tests/float_oracle.py)
# ---------------------------------------------------------------------------


def test_quadrature_matches_closed_forms():
    mechanism = random_phantom(3)
    profile = Profile.unit(F(1, 4), F(1, 4), F(3, 4))
    exact = float(an.uniform_family_expected_distance(profile, F(3, 4)))
    estimate = oracle_point_distance(
        mechanism, profile, F(3, 4), mode="quadrature", tol=1e-8
    )
    assert abs(estimate.value - exact) <= estimate.error <= 1e-6


def test_monte_carlo_matches_closed_forms():
    mechanism = random_phantom(3)
    profile = Profile.unit(0, F(1, 2), F(5, 6))
    exact = float(an.uniform_family_expected_distance(profile, F(1, 2)))
    estimate = oracle_point_distance(
        mechanism, profile, F(1, 2), mode="monte_carlo", samples=400_000, seed=3
    )
    assert abs(estimate.value - exact) <= estimate.error
    assert estimate.seed == 3


def test_package_source_is_exact_only():
    """The package decides every verdict exactly: no module names ``float``
    or draws numpy random numbers, and ``analysis`` does not import numpy.
    The float reference lives in ``tests/float_oracle.py``."""
    package = Path(an.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        assert not re.search(r"\bfloat\b", source), path.name
        assert "np.random" not in source, path.name
    assert "numpy" not in (package / "analysis.py").read_text()


def test_oracle_requires_a_continuous_family():
    with pytest.raises(MechanismError):
        oracle_point_distance(random_rank(3), Profile.unit(0, 0, 1), F(0))
    with pytest.raises(MechanismError):
        oracle_point_distance(
            random_phantom(3), Profile.unit(0, 0, 1), F(0), mode="sorcery"
        )

