"""Mechanism catalog constructors and spec-string parsing."""

import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from proploc.core import (
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    ExpansionLimitError,
    MechanismError,
    NEG_INF,
    OutcomeDistribution,
    POS_INF,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    evaluate,
    mechanism_is_anonymous,
    outcome_distribution,
)
from proploc import mechanisms
from proploc.mechanisms import (
    average_or_random_rank,
    build_mechanism,
    format_mechanism,
    iid_phantom,
    random_dictator,
    random_phantom,
    random_rank,
)
from proploc.analysis import expected_distance_to_point, expected_facility_location


def test_random_rank_weights_and_components():
    mix = random_rank(3)
    assert [w for _, w in mix.components] == [F(1, 3)] * 3
    assert [m.k for m, _ in mix.components] == [1, 2, 3]


def test_random_rank_worked_example():
    dist = outcome_distribution(random_rank(3), Profile.unit(0, 0, F(1, 3)))
    assert dict(dist.atoms) == {F(0): F(2, 3), F(1, 3): F(1, 3)}
    assert dist.expected_location() == F(1, 9)


def test_random_rank_on_the_real_line():
    dist = outcome_distribution(random_rank(2, REAL_LINE), Profile.line(-5, 7))
    # both rank components evaluated by brute force: min and max
    assert dict(dist.atoms) == {F(-5): F(1, 2), F(7): F(1, 2)}


def test_rank_components_never_output_infinity_on_the_line():
    mix = random_rank(3, REAL_LINE)
    for locs in product([F(-2), F(0), F(3)], repeat=3):
        profile = Profile(REAL_LINE, locs)
        for mech, _ in mix.components:
            assert evaluate(mech, profile) in locs


def test_random_dictator_matches_random_rank_distributions():
    grid = [F(j, 4) for j in range(5)]
    for locs in combinations_with_replacement(grid, 3):
        profile = Profile(UNIT_INTERVAL, locs)
        lhs = outcome_distribution(random_dictator(3), profile)
        rhs = outcome_distribution(random_rank(3), profile)
        assert lhs == rhs


def test_random_dictator_components_are_not_anonymous():
    mix = random_dictator(3)
    assert all(not mechanism_is_anonymous(m) for m, _ in mix.components)


def test_average_mixture_validation_and_degenerate_weights():
    with pytest.raises(MechanismError):
        average_or_random_rank(F(6, 5), 3)
    pure_rank = average_or_random_rank(F(0), 3)
    assert pure_rank.components == random_rank(3).components
    pure_average = average_or_random_rank(F(1), 3)
    assert [type(m) for m, _ in pure_average.components] == [Average]


def test_average_mixture_worked_example():
    mix = average_or_random_rank(F(1, 2), 3)
    dist = outcome_distribution(mix, Profile.unit(0, 0, F(1, 3)))
    assert dict(dist.atoms) == {F(0): F(1, 3), F(1, 3): F(1, 6), F(1, 9): F(1, 2)}


def test_average_mixture_exact_costs_for_a_profitable_misreport():
    # frozen by exact enumeration over the three outcome atoms per report
    mix = average_or_random_rank(F(3, 5), 2)
    profile = Profile.unit(F(2, 5), 1)
    truthful = expected_distance_to_point(mix, profile, F(2, 5))
    assert truthful == F(3, 10)
    deviating = expected_distance_to_point(
        mix, profile.replace(1, F(3, 10)), F(2, 5)
    )
    assert deviating == F(29, 100)
    assert deviating < truthful


def test_average_mixture_group_distances_on_two_valued_profiles():
    # each co-located group's expected distance is exactly (n-s)/n * gap
    for n in (2, 3, 4):
        mix = average_or_random_rank(F(1, 2), n)
        points = [F(j, 4) for j in range(5)]
        for low_i, low in enumerate(points):
            for high in points[low_i + 1 :]:
                for size_low in range(1, n):
                    locs = (low,) * size_low + (high,) * (n - size_low)
                    profile = Profile(UNIT_INTERVAL, locs)
                    gap = high - low
                    low_dist = expected_distance_to_point(mix, profile, low)
                    high_dist = expected_distance_to_point(mix, profile, high)
                    assert low_dist == F(n - size_low, n) * gap
                    assert high_dist == F(size_low, n) * gap


def test_random_phantom_basics():
    mix = random_phantom(3)
    assert mix.has_continuous and (mix.components, mix.continuous_weight) == ((), 1)
    profile = Profile.unit(F(1, 2), F(1, 2), F(1, 2))
    assert outcome_distribution(mix, profile).atoms == ((F(1, 2), F(1)),)
    with pytest.raises(MechanismError):
        build_mechanism("random_phantom", 3, REAL_LINE)


def test_random_phantom_endpoint_profiles_land_on_the_share():
    for n in (2, 3, 4, 5):
        mix = random_phantom(n)
        for ones in range(n + 1):
            locs = (F(0),) * (n - ones) + (F(1),) * ones
            profile = Profile(UNIT_INTERVAL, locs)
            assert expected_facility_location(mix, profile) == F(ones, n)


def test_iid_phantom_point_mass():
    mix = iid_phantom(((F(1, 2), F(1)),), 2)
    assert mix.components == ((Phantom((F(0), F(1, 2), F(1))), F(1)),)


def test_iid_phantom_two_atom_expansion_merges_multisets():
    mix = iid_phantom(((F(0), F(1, 2)), (F(1), F(1, 2))), 3)
    got = {m.phantoms: w for m, w in mix.components}
    assert got == {
        (F(0), F(0), F(0), F(1)): F(1, 4),
        (F(0), F(0), F(1), F(1)): F(1, 2),
        (F(0), F(1), F(1), F(1)): F(1, 4),
    }


def test_iid_phantom_checks_its_law_before_n():
    with pytest.raises(MechanismError, match="atom probabilities sum to 1/2, expected 1"):
        iid_phantom(((F(1, 2), F(1, 2)),), 1)
    with pytest.raises(MechanismError, match=r"phantom atoms must lie in \[0,1\]"):
        iid_phantom(((F(2), F(1)),), 1)
    with pytest.raises(MechanismError, match="need n >= 2"):
        iid_phantom(((F(1, 2), F(1)),), 1)


def test_iid_phantom_expansion_cap():
    atoms = tuple((F(j, 10), F(1, 10)) for j in range(10))
    with pytest.raises(ExpansionLimitError, match="needs 24310 components, cap is 10000"):
        iid_phantom(atoms, 9)


# Every catalog spec in canonical form; iid_phantom expands to a plain
# mixture, so it is checked on its own.
CATALOG_SPECS = [
    "random_rank",
    "random_dictator",
    "random_phantom",
    "median",
    "uniform_phantom",
    "average",
    "avg_or_rr:p=1/2",
    "rank:k=2",
    "dictator:i=1",
    "phantom:[0,1/2,1]",
    "phantom:[-inf,0,+inf]",
]
IID_SPEC = 'iid_phantom:{"atoms":[["1/2","1"]]}'


def test_spec_string_round_trips():
    for n, domain in product([2, 3, 4], [UNIT_INTERVAL, REAL_LINE]):
        for text in CATALOG_SPECS:
            if (domain == UNIT_INTERVAL and "inf" in text) or (domain == REAL_LINE and text == "random_phantom"):
                continue
            built = build_mechanism(text, n, domain)
            spec = format_mechanism(built)
            assert build_mechanism(spec, n, domain) == built
            assert spec == text
        built = build_mechanism(IID_SPEC, n)
        assert built == iid_phantom(((F(1, 2), F(1)),), n)
        assert format_mechanism(built) == "mixture"


_points = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(
    st.one_of(
        st.integers(1, 6).map(RankK),
        st.integers(1, 6).map(Dictator),
        st.lists(_points | st.sampled_from([NEG_INF, POS_INF]), min_size=1, max_size=6).map(
            lambda ys: Phantom(tuple(sorted(ys)))
        ),
    )
)
def test_deterministic_mechanisms_round_trip(mechanism):
    assert build_mechanism(format_mechanism(mechanism), 3, REAL_LINE) == mechanism


def test_spec_string_accepts_bare_keys():
    bare = build_mechanism('iid_phantom:{atoms:[["1/2","1"]]}', 2)
    assert bare == build_mechanism(IID_SPEC, 2)
    assert bare == iid_phantom(((F(1, 2), F(1)),), 2)


# One invalid finite phantom law per fault, with the message it reads.
INVALID_IID_LAWS = {
    "iid-phantom-zero-weight": (
        'iid_phantom:{atoms:[[0,"1/2"],[1,"1/2"],["1/2",0]]}', "atom probabilities must be positive"),
    "iid-phantom-outside-unit-interval": (
        'iid_phantom:{atoms:[[0,"1/2"],["3/2","1/2"]]}', "phantom atoms must lie in [0,1]"),
    "iid-phantom-repeated-location": (
        'iid_phantom:{atoms:[[0,"1/2"],[0,"1/2"]]}', "atom locations must be distinct"),
    "iid-phantom-weights-not-summing-to-1": (
        'iid_phantom:{atoms:[[0,"1/2"],[1,"1/3"]]}', "atom probabilities sum to 5/6, expected 1"),
}


def test_spec_string_errors():
    cases = [
        ("mystery", UNIT_INTERVAL, "unknown mechanism spec 'mystery'"),
        ("rank", UNIT_INTERVAL, "unknown mechanism spec 'rank'"),
        ("median:k=1", UNIT_INTERVAL, "unknown mechanism spec 'median:k=1'"),
        ("avg_or_rr:q=1/2", UNIT_INTERVAL, "expected avg_or_rr:p=<rational>, got 'avg_or_rr:q=1/2'"),
        ("rank:k=x", UNIT_INTERVAL, "expected rank:k=<int>, got 'rank:k=x'"),
        ("dictator:i=", UNIT_INTERVAL, "expected dictator:i=<int>, got 'dictator:i='"),
        ("phantom:0,1,1", UNIT_INTERVAL, "expected phantom:[...], got 'phantom:0,1,1'"),
        (
            "iid_phantom:{atoms:",
            UNIT_INTERVAL,
            "cannot parse 'iid_phantom:{atoms:': Expecting value: line 1 column 10 (char 9)",
        ),
        ("random_phantom", REAL_LINE, "random phantom is defined on [0,1] only"),
        (IID_SPEC, REAL_LINE, "i.i.d. phantom is defined on [0,1] only"),
        *((spec, UNIT_INTERVAL, message) for spec, message in INVALID_IID_LAWS.values()),
    ]
    for text, domain, message in cases:
        with pytest.raises(MechanismError) as raised:
            build_mechanism(text, 3, domain)
        assert str(raised.value) == message


def test_format_mechanism_rejects_other_objects():
    for obj in (object(), "rank:k=2", OutcomeDistribution(((F(1, 2), F(1)),))):
        with pytest.raises(MechanismError):
            format_mechanism(obj)


def test_format_mechanism_names_the_catalog():
    assert format_mechanism(random_rank(3)) == "random_rank"
    assert format_mechanism(random_dictator(3)) == "random_dictator"
    assert format_mechanism(random_phantom(3)) == "random_phantom"
    assert format_mechanism(average_or_random_rank(F(1, 2), 3)) == "avg_or_rr:p=1/2"
    assert format_mechanism(RankK(2)) == "rank:k=2"
    assert format_mechanism(Dictator(1)) == "dictator:i=1"


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, REAL_LINE])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_catalog_mixture_formats_to_its_spec(n, domain):
    specs = ["random_rank", "random_dictator", "avg_or_rr:p=1/2", "avg_or_rr:p=3/5", "avg_or_rr:p=1"]
    if domain == UNIT_INTERVAL:
        specs.append("random_phantom")
    for spec in specs:
        assert format_mechanism(build_mechanism(spec, n, domain)) == spec


def test_format_mechanism_names_only_mixtures_it_builds_back():
    """Other weights over the catalog's components are a plain mixture: no
    catalog name builds them back."""
    ranks = RandomizedMechanism(3, UNIT_INTERVAL, ((RankK(1), F(2, 3)), (RankK(2), F(1, 3))))
    assert format_mechanism(ranks) == "mixture"
    assert build_mechanism("random_rank", 3) != ranks
    half = RandomizedMechanism(2, UNIT_INTERVAL, ((Average(), F(1, 2)), (RankK(1), F(1, 2))))
    assert format_mechanism(half) == "mixture"
    assert build_mechanism("avg_or_rr:p=1/2", 2) != half
    expanded = iid_phantom(((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))), 3)
    assert format_mechanism(expanded) == "mixture"


# One spec per catalog name: the bare name, or a body for a parametric one.
SPEC_BODIES = {"rank": "k=1", "dictator": "i=2", "phantom": "[0,1/2,1]", "avg_or_rr": "p=1/3",
               "iid_phantom": '{atoms:[["1/2","1"]]}'}


def test_build_mechanism_respects_domain():
    """Every catalog name builds a mixture for the (n, domain) it is asked
    for, or raises; a deterministic mechanism carries no domain."""
    for (name, (_, param, _)), domain, n in product(mechanisms._CATALOG.items(), [UNIT_INTERVAL, REAL_LINE], [2, 3]):
        spec = f"{name}:{SPEC_BODIES[name]}" if param else name
        try:
            built = build_mechanism(spec, n, domain)
        except MechanismError:
            continue
        if isinstance(built, RandomizedMechanism):
            assert (built.n, built.domain) == (n, domain), spec
    assert build_mechanism("random_rank", 3, REAL_LINE).domain == REAL_LINE


def test_random_profiles_rank_equals_dictator_distribution():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 5)
        locs = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n))
        profile = Profile(REAL_LINE, locs)
        lhs = outcome_distribution(random_dictator(n, REAL_LINE), profile)
        rhs = outcome_distribution(random_rank(n, REAL_LINE), profile)
        assert lhs == rhs
