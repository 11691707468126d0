"""Core value types, mechanism evaluation, and outcome lotteries."""

import json
import operator
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    ContinuousFamilyError,
    Dictator,
    DomainMismatchError,
    Infinite,
    MechanismError,
    Median,
    OutcomeDistribution,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
    as_mixture,
    evaluate,
    format_point,
    grid_points,
    mechanism_is_anonymous,
    outcome_distribution,
    outcome_lottery,
    parse_point,
)
from proploc.mechanisms import random_rank

from phantom_forms import PhantomFormError, to_phantom_form


def brute_force_median(values):
    """Independent oracle: sort and take the middle of an odd-length list."""
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


# ---------------------------------------------------------------------------
# points and profiles
# ---------------------------------------------------------------------------


def test_parse_and_format_points():
    assert parse_point("3/4") == F(3, 4)
    assert parse_point("-2") == F(-2)
    assert parse_point("0.5") == F(1, 2)
    assert parse_point("+inf") is POS_INF
    assert parse_point("-inf") is NEG_INF
    assert format_point(F(3, 4)) == "3/4"
    assert format_point(F(2)) == "2"
    assert format_point(POS_INF) == "+inf"
    with pytest.raises(MechanismError):
        parse_point("one third")


def test_infinite_ordering_and_no_arithmetic():
    assert NEG_INF < F(-1000) < F(1000) < POS_INF
    assert NEG_INF < POS_INF
    assert sorted([POS_INF, F(0), NEG_INF, F(1, 2)]) == [NEG_INF, F(0), F(1, 2), POS_INF]
    with pytest.raises(TypeError):
        POS_INF + F(1)
    with pytest.raises(TypeError):
        F(1) - NEG_INF


@pytest.mark.parametrize("infinity", [NEG_INF, POS_INF], ids=repr)
def test_infinite_compares_both_ways_with_rationals_and_infinities(infinity):
    """Each comparison, from either side, against a Fraction, an int and the
    other infinity; an infinity equals only itself, and a str is no
    point."""
    below = infinity.sign < 0
    expected = (below, below, not below, not below)
    for other in (F(-7, 3), 5, Infinite(-infinity.sign)):
        assert (infinity < other, infinity <= other, infinity > other, infinity >= other) == expected
        assert (other > infinity, other >= infinity, other < infinity, other <= infinity) == expected
    same = Infinite(infinity.sign)
    assert (infinity < same, infinity <= same, infinity > same, infinity >= same) == (False, True, False, True)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(infinity, "1")
        with pytest.raises(TypeError):
            compare("1", infinity)


def test_profile_validation():
    profile = Profile.unit(0, "1/3", F(3, 4))
    assert profile.n == 3
    assert profile.locations == (F(0), F(1, 3), F(3, 4))
    with pytest.raises(MechanismError):
        Profile.unit(0)  # one agent is not enough
    with pytest.raises(DomainMismatchError):
        Profile.unit(0, 2)
    Profile.line(-5, 7)  # fine on the real line
    with pytest.raises(DomainMismatchError):
        Profile("circle", (F(0), F(1)))


def test_profile_json_round_trip():
    profile = Profile.unit(0, "1/3", "3/4")
    data = profile.to_json()
    assert data == {"domain": "unit_interval", "locations": ["0", "1/3", "3/4"]}
    assert Profile.from_json(json.dumps(data)) == profile


@pytest.mark.parametrize("locations", ["01", [False, True], [0, True], {"0": 1, "1": 2}])
def test_profile_json_rejects_strings_and_booleans(locations):
    """A string is not a list of locations, and a JSON boolean is not a
    number: neither may be read as the profile (0, 1)."""
    with pytest.raises(MechanismError):
        Profile.from_json({"domain": "unit_interval", "locations": locations})


def test_profile_replace():
    profile = Profile.unit(0, F(1, 3))
    assert profile.replace(2, F(1, 2)).locations == (F(0), F(1, 2))
    assert profile.locations == (F(0), F(1, 3))


def test_grid_points():
    assert grid_points(UNIT_INTERVAL, 2) == (F(0), F(1, 2), F(1))
    assert grid_points(REAL_LINE, 2) == (F(-2), F(-1), F(0), F(1), F(2))


# ---------------------------------------------------------------------------
# deterministic evaluation
# ---------------------------------------------------------------------------


def test_median_on_majority_profile():
    assert evaluate(Median(), Profile.unit(0, 0, 1)) == 0


def test_rank_is_kth_largest():
    profile = Profile.unit(0, 0, F(1, 3))
    assert evaluate(RankK(1), profile) == F(1, 3)
    assert evaluate(RankK(2), profile) == 0
    assert evaluate(RankK(3), profile) == 0


def test_phantom_median_matches_brute_force():
    profile = Profile.unit(0, 1)
    phantom = Phantom((F(0), F(1, 2), F(1)))
    expected = brute_force_median([F(0), F(1), F(0), F(1, 2), F(1)])
    assert expected == F(1, 2)
    assert evaluate(phantom, profile) == expected


def test_dictator_and_average():
    profile = Profile.unit(F(1, 4), F(3, 4))
    assert evaluate(Dictator(2), profile) == F(3, 4)
    assert evaluate(Average(), profile) == F(1, 2)


def test_evaluate_errors():
    profile = Profile.unit(0, 1)
    with pytest.raises(MechanismError):
        evaluate(Phantom((F(0), F(1))), profile)  # needs n+1 phantoms
    with pytest.raises(DomainMismatchError):
        evaluate(Phantom((NEG_INF, F(0), POS_INF)), profile)
    with pytest.raises(MechanismError):
        evaluate(RankK(3), profile)
    with pytest.raises(MechanismError):
        evaluate(Dictator(5), profile)


def test_all_infinite_phantoms_have_no_finite_median():
    profile = Profile.line(0, 1)
    with pytest.raises(MechanismError):
        evaluate(Phantom((POS_INF, POS_INF, POS_INF)), profile)


# ---------------------------------------------------------------------------
# phantom forms
# ---------------------------------------------------------------------------


def test_rank_phantom_form_matches_direct_rank_on_grid():
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    for k in (1, 2, 3):
        phantom = to_phantom_form(RankK(k), 3)
        for locs in product(grid, repeat=3):
            profile = Profile(UNIT_INTERVAL, locs)
            assert evaluate(phantom, profile) == evaluate(RankK(k), profile)


def test_rank_phantom_form_on_real_line_selects_max():
    phantom = to_phantom_form(RankK(1), 2, REAL_LINE)
    assert phantom.phantoms == (NEG_INF, POS_INF, POS_INF)
    profile = Profile.line(-5, 7)
    assert evaluate(phantom, profile) == 7
    assert evaluate(RankK(1), profile) == 7


def test_uniform_phantom_form():
    assert to_phantom_form(UniformPhantom(), 2).phantoms == (F(0), F(1, 2), F(1))
    with pytest.raises(DomainMismatchError):
        to_phantom_form(UniformPhantom(), 2, REAL_LINE)


def test_uniform_phantom_meets_endpoint_group_bounds_for_two_agents():
    # every 0/1 profile lands on the mean of the reports
    for locs in product((F(0), F(1)), repeat=2):
        profile = Profile(UNIT_INTERVAL, locs)
        assert evaluate(UniformPhantom(), profile) == F(sum(locs), 2)


def test_median_phantom_form_is_leftmost_median():
    for n in (2, 3, 4, 5):
        phantom = to_phantom_form(Median(), n)
        grid = [F(0), F(1, 3), F(2, 3), F(1)]
        for locs in product(grid, repeat=n):
            profile = Profile(UNIT_INTERVAL, locs)
            assert evaluate(phantom, profile) == sorted(locs)[(n - 1) // 2]


def test_non_phantom_mechanisms_raise():
    with pytest.raises(PhantomFormError):
        to_phantom_form(Dictator(1), 3)
    with pytest.raises(PhantomFormError):
        to_phantom_form(Average(), 3)


def test_phantom_vector_must_be_sorted():
    with pytest.raises(MechanismError):
        Phantom((F(1), F(0), F(1)))


def test_phantom_evaluation_is_monotone_in_each_report():
    grid = [F(j, 4) for j in range(5)]
    phantom = Phantom((F(0), F(1, 3), F(2, 3), F(1)))
    for locs in product(grid, repeat=3):
        base = evaluate(phantom, Profile(UNIT_INTERVAL, locs))
        for agent in range(3):
            for bump in grid:
                if bump <= locs[agent]:
                    continue
                moved = list(locs)
                moved[agent] = bump
                assert evaluate(phantom, Profile(UNIT_INTERVAL, tuple(moved))) >= base


def test_endpoint_phantoms_keep_output_in_report_range():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 5)
        interior = sorted(F(rng.randint(0, 12), 12) for _ in range(n - 1))
        phantom = Phantom((F(0), *interior, F(1)))
        locs = tuple(F(rng.randint(0, 24), 24) for _ in range(n))
        out = evaluate(phantom, Profile(UNIT_INTERVAL, locs))
        assert min(locs) <= out <= max(locs)


# ---------------------------------------------------------------------------
# mixtures and outcome lotteries
# ---------------------------------------------------------------------------


def test_mixture_weight_validation():
    with pytest.raises(MechanismError):
        RandomizedMechanism(2, UNIT_INTERVAL, ((RankK(1), F(1, 2)),))
    with pytest.raises(MechanismError):
        RandomizedMechanism(
            2, UNIT_INTERVAL, ((RankK(1), F(1, 2)), (RankK(2), F(0))),
        )
    with pytest.raises(DomainMismatchError):
        RandomizedMechanism(
            2, REAL_LINE, (), continuous_weight=F(1)
        )


def test_a_mixture_keeps_the_normal_forms_of_its_parts():
    """The forms are derived at construction, beside the weights; they are
    no argument, and equality, hashing and repr go by the parts as given."""
    parts = ((Median(), F(1, 2)), (UniformPhantom(), F(1, 4)))
    mixture = RandomizedMechanism(3, UNIT_INTERVAL, parts, F(1, 4))
    assert mixture.components == parts and mixture.has_continuous
    assert mixture.forms == ((RankK(2), F(1, 2)), (Phantom((F(0), F(1, 3), F(2, 3), F(1))), F(1, 4)))
    assert mixture == RandomizedMechanism(3, UNIT_INTERVAL, parts, F(1, 4))
    assert hash(mixture) == hash(RandomizedMechanism(3, UNIT_INTERVAL, parts, F(1, 4)))
    assert "forms" not in repr(mixture)
    with pytest.raises(TypeError):
        RandomizedMechanism(3, UNIT_INTERVAL, parts, F(1, 4), forms=())
    finite = RandomizedMechanism(3, UNIT_INTERVAL, ((Median(), F(1)),))
    assert not finite.has_continuous and finite.continuous_weight == 0


def test_rank_mixture_atoms_are_the_report_multiset():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 5)
        locs = tuple(F(rng.randint(0, 8), 8) for _ in range(n))
        dist = outcome_distribution(random_rank(n), Profile(UNIT_INTERVAL, locs))
        expected = {}
        for x in locs:
            expected[x] = expected.get(x, 0) + F(1, n)
        assert dict(dist.atoms) == expected


def test_unanimous_profiles_collapse_to_a_point():
    profile = Profile.unit(F(2, 5), F(2, 5), F(2, 5))
    dist = outcome_distribution(random_rank(3), profile)
    assert dist.atoms == ((F(2, 5), F(1)),)
    continuous = RandomizedMechanism(
        3, UNIT_INTERVAL, (), continuous_weight=F(1)
    )
    assert outcome_distribution(continuous, profile).atoms == ((F(2, 5), F(1)),)


def test_continuous_family_refuses_finite_atoms():
    continuous = RandomizedMechanism(
        3, UNIT_INTERVAL, (), continuous_weight=F(1)
    )
    with pytest.raises(ContinuousFamilyError):
        outcome_distribution(continuous, Profile.unit(0, 0, 1))


def test_outcome_distribution_validates_its_atoms():
    with pytest.raises(MechanismError):
        OutcomeDistribution(((F(0), F(1, 2)),))


def test_outcome_distributions_with_the_same_atoms_are_equal_and_hash_equal():
    """Equality and the hash go by the merged atoms, whatever the pairs'
    order or repeats; no other type compares equal. Random Rank at
    (0, 0, 1/2) puts ranks 2 and 3 both at 0."""
    direct = OutcomeDistribution([(F(1, 2), F(1, 3)), (F(0), F(2, 3))])
    reordered = OutcomeDistribution([(F(0), F(2, 3)), (F(1, 2), F(1, 3))])
    lottery, family = outcome_lottery(random_rank(3), Profile(UNIT_INTERVAL, (F(0), F(0), F(1, 2))))
    assert family == 0
    assert direct == reordered == lottery
    assert hash(direct) == hash(reordered) == hash(lottery)
    assert not direct == object()
    assert direct != object()


@pytest.mark.parametrize(
    "mechanism, domain",
    [
        (Median(), UNIT_INTERVAL),
        (RankK(1), REAL_LINE),
        (Dictator(2), UNIT_INTERVAL),
        (Average(), REAL_LINE),
        (UniformPhantom(), UNIT_INTERVAL),
        (Phantom((F(0), F(1, 2), F(1, 2), F(1))), UNIT_INTERVAL),
    ],
)
def test_a_deterministic_lottery_is_its_one_part_mixtures(mechanism, domain):
    profile = Profile(domain, (F(0), F(1, 3), F(1)))
    lottery, family = outcome_lottery(mechanism, profile)
    assert (lottery, family) == outcome_lottery(as_mixture(mechanism, 3, domain), profile)
    assert lottery == OutcomeDistribution([(evaluate(mechanism, profile), F(1))])


@pytest.mark.parametrize(
    "mechanism, domain",
    [
        (RankK(4), UNIT_INTERVAL),
        (Dictator(4), REAL_LINE),
        (Phantom((F(0), F(1))), UNIT_INTERVAL),
        (UniformPhantom(), REAL_LINE),
        ("median", UNIT_INTERVAL),
    ],
)
def test_a_bad_deterministic_part_raises_what_evaluate_raises(mechanism, domain):
    profile = Profile(domain, (F(0), F(1, 3), F(1)))
    with pytest.raises(MechanismError) as expected:
        evaluate(mechanism, profile)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        outcome_lottery(mechanism, profile)


def test_expected_distance_examples():
    fig = OutcomeDistribution(((F(0), F(2, 3)), (F(1, 3), F(1, 3))))
    assert fig.expected_distance(F(0)) == F(1, 9)
    assert fig.expected_location() == F(1, 9)
    point = OutcomeDistribution(((F(2, 5), F(1)),))
    assert point.expected_distance(F(2, 5)) == 0
    coin = OutcomeDistribution(((F(0), F(1, 2)), (F(1), F(1, 2))))
    # direct sum over atoms as the oracle
    expected = F(1, 2) * F(1, 4) + F(1, 2) * F(3, 4)
    assert expected == F(1, 2)
    assert coin.expected_distance(F(1, 4)) == expected


def test_outcome_distribution_json_round_trip():
    dist = OutcomeDistribution(((F(0), F(2, 3)), (F(1, 3), F(1, 3))))
    data = dist.to_json()
    assert data == {"atoms": [{"x": "0", "p": "2/3"}, {"x": "1/3", "p": "1/3"}]}
    assert OutcomeDistribution.from_json(json.dumps(data)) == dist


def test_outcome_distribution_from_json_validates_like_the_constructor():
    """A JSON lottery is outside input: a repeated location or a zero weight
    is refused, as the constructor refuses it, not merged or dropped."""
    data = {"atoms": [{"x": "0", "p": "1/2"}, {"x": "0", "p": "1/2"}, {"x": "1", "p": "0"}]}
    with pytest.raises(MechanismError):
        OutcomeDistribution.from_json(json.dumps(data))
    with pytest.raises(MechanismError):
        OutcomeDistribution.from_json({"atoms": [{"x": "0", "p": "1"}, {"x": "1", "p": "0"}]})


def test_anonymous_kind_flags():
    assert mechanism_is_anonymous(Median())
    assert mechanism_is_anonymous(Average())
    assert not mechanism_is_anonymous(Dictator(1))
