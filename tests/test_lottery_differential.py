"""Differential test of the finite lottery against a plain loop.

``core`` prices a mixture's outcomes as one lottery: every point by a
bisect into running sums of mass and moment; a phantom part's output is
the n-th of its reports and phantoms in one sorted list. The oracle here sorts each component's reports and finite
phantoms on its own, counts the -inf phantoms, and sums p * |a - x| over
the atoms directly. The two must agree exactly, on both domains, with tied reports,
repeated phantoms and phantoms at +-inf, and they must fail the same way on
the same bad input.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from proploc import analysis
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    DomainMismatchError,
    Dictator,
    IIDPhantomSpec,
    Infinite,
    MechanismError,
    Median,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
    evaluate,
    outcome_distribution,
)

UNIT_POOL = (F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1))
LINE_POOL = (F(-3), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2))


# ---------------------------------------------------------------------------
# the plain loop
# ---------------------------------------------------------------------------


def oracle_location(mech, reports):
    """The component's output from its own sort of reports and phantoms."""
    n = len(reports)
    if isinstance(mech, RankK):
        return sorted(reports)[n - mech.k]
    if isinstance(mech, Median):
        return sorted(reports)[(n - 1) // 2]
    if isinstance(mech, Dictator):
        return reports[mech.agent - 1]
    if isinstance(mech, Average):
        return sum(reports) / n
    phantoms = (
        [F(j, n) for j in range(n + 1)] if isinstance(mech, UniformPhantom) else list(mech.phantoms)
    )
    below = sum(1 for y in phantoms if y == NEG_INF)
    merged = sorted(list(reports) + [y for y in phantoms if not isinstance(y, Infinite)])
    return merged[n - below]


def oracle_atoms(components, reports):
    atoms = {}
    for mech, weight in components:
        loc = oracle_location(mech, reports)
        atoms[loc] = atoms.get(loc, 0) + weight
    return sorted(atoms.items())


def oracle_distance(atoms, point):
    return sum(p * abs(a - point) for a, p in atoms)


# ---------------------------------------------------------------------------
# random mixtures
# ---------------------------------------------------------------------------


def phantom_vectors(domain, n):
    values = st.sampled_from(UNIT_POOL if domain == UNIT_INTERVAL else LINE_POOL + (NEG_INF, POS_INF))
    vectors = st.lists(values, min_size=n + 1, max_size=n + 1).map(sorted)
    if domain == REAL_LINE:  # an all-infinite vector has no finite median
        vectors = vectors.filter(lambda ys: not all(isinstance(y, Infinite) and y == ys[0] for y in ys))
    return vectors.map(lambda ys: Phantom(tuple(ys)))


def components(domain, n):
    kinds = [
        st.integers(1, n).map(RankK),
        st.integers(1, n).map(Dictator),
        st.just(Median()),
        st.just(Average()),
        phantom_vectors(domain, n),
    ]
    if domain == UNIT_INTERVAL:
        kinds.append(st.just(UniformPhantom()))
    return st.one_of(kinds)


@st.composite
def cases(draw):
    """(mixture, profile, continuous weight): 1-5 weighted components and,
    on the unit interval, sometimes a uniform phantom family."""
    domain = draw(st.sampled_from((UNIT_INTERVAL, REAL_LINE)))
    n = draw(st.integers(2, 6))
    pool = UNIT_POOL if domain == UNIT_INTERVAL else LINE_POOL
    reports = tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    mechs = draw(st.lists(components(domain, n), min_size=1, max_size=5))
    raw = draw(st.lists(st.integers(1, 6), min_size=len(mechs), max_size=len(mechs)))
    family = domain == UNIT_INTERVAL and draw(st.booleans())
    total = sum(raw) + (draw(st.integers(1, 6)) if family else 0)
    parts = tuple((mech, F(w, total)) for mech, w in zip(mechs, raw))
    weight = 1 - sum(w for _, w in parts)
    mixture = RandomizedMechanism(
        n, domain, parts,
        continuous=IIDPhantomSpec() if family else None,
        continuous_weight=weight if family else 0,
    )
    return mixture, Profile(domain, reports), weight


def off_profile_points(profile):
    """Points between, beyond and on the reports."""
    xs = sorted(set(profile.locations))
    points = [*xs, *((a + b) / 2 for a, b in zip(xs, xs[1:]))]
    if profile.domain == REAL_LINE:
        points += [xs[0] - 1, xs[-1] + F(7, 3)]
    else:
        points += [F(0), F(1), F(1, 7)]
    return points


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------


@settings(max_examples=300)
@given(cases())
def test_lottery_matches_the_plain_loop(case):
    mixture, profile, family_weight = case
    reports = profile.locations
    for mech, _ in mixture.components:
        assert evaluate(mech, profile) == oracle_location(mech, reports)
    atoms = oracle_atoms(mixture.components, reports)
    location = sum(p * a for a, p in atoms)
    points = off_profile_points(profile)
    if not mixture.has_continuous:
        dist = outcome_distribution(mixture, profile)
        assert list(dist.atoms) == atoms
        assert dist.expected_location() == location
        for x in points:
            assert dist.expected_distance(x) == oracle_distance(atoms, x)
    else:
        location += family_weight * analysis.uniform_family_expected_location(profile)

    def distance(x):
        d = oracle_distance(atoms, x)
        if mixture.has_continuous:
            d += family_weight * analysis.uniform_family_expected_distance(profile, x)
        return d

    agents = tuple(distance(x) for x in reports)
    assert analysis.expected_facility_location(mixture, profile) == location
    assert analysis.expected_agent_distances(mixture, profile) == agents
    assert analysis.expected_location_and_agent_distances(mixture, profile) == (location, agents)
    for x in points:
        assert analysis.expected_distance_to_point(mixture, profile, x) == distance(x)


@given(cases())
def test_each_component_alone_matches_the_plain_loop(case):
    """A deterministic mechanism is a one-atom lottery priced directly."""
    mixture, profile, _ = case
    for mech, _ in mixture.components:
        loc = oracle_location(mech, profile.locations)
        dist = outcome_distribution(mech, profile)
        assert dist.atoms == ((loc, 1),)
        assert analysis.expected_facility_location(mech, profile) == loc
        assert analysis.expected_agent_distances(mech, profile) == tuple(
            abs(x - loc) for x in profile.locations
        )
        for x in off_profile_points(profile):
            assert dist.expected_distance(x) == abs(x - loc)
            assert analysis.expected_distance_to_point(mech, profile, x) == abs(x - loc)


# ---------------------------------------------------------------------------
# error parity
# ---------------------------------------------------------------------------

UNIT_PAIR = Profile.unit(0, 1)
LINE_PAIR = Profile.line(0, 1)
ENTRY_POINTS = {
    "evaluate": evaluate,
    "outcome_distribution": outcome_distribution,
    "expected_facility_location": analysis.expected_facility_location,
    "expected_agent_distances": analysis.expected_agent_distances,
    "expected_distance_to_point": lambda m, p: analysis.expected_distance_to_point(m, p, F(1, 3)),
    "expected_location_and_agent_distances": analysis.expected_location_and_agent_distances,
}
ERROR_CASES = [
    ("rank k > n", RankK(3), UNIT_PAIR, MechanismError, "rank 3 out of range for n=2"),
    ("phantom length", Phantom((F(0), F(1))), UNIT_PAIR, MechanismError,
     "phantom vector has 2 entries, expected 3"),
    ("phantom outside [0,1]", Phantom((F(0), F(3, 2), F(2))), UNIT_PAIR, DomainMismatchError,
     "unit-interval profiles need finite phantoms in [0,1]"),
    ("infinite phantom on [0,1]", Phantom((NEG_INF, F(0), POS_INF)), UNIT_PAIR, DomainMismatchError,
     "unit-interval profiles need finite phantoms in [0,1]"),
    ("all -inf", Phantom((NEG_INF,) * 3), LINE_PAIR, MechanismError,
     "median of reports and phantoms is not finite"),
    ("all +inf", Phantom((POS_INF,) * 3), LINE_PAIR, MechanismError,
     "median of reports and phantoms is not finite"),
    ("mixed bad rank", RandomizedMechanism(2, UNIT_INTERVAL, ((RankK(1), F(1, 2)), (RankK(3), F(1, 2)))),
     UNIT_PAIR, MechanismError, "rank 3 out of range for n=2"),
]


@pytest.mark.parametrize(
    "name, case",
    [
        (name, case)
        for case in ERROR_CASES
        for name in ENTRY_POINTS
        if name != "evaluate" or not isinstance(case[1], RandomizedMechanism)
    ],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_bad_input_fails_as_before(name, case):
    _, mechanism, profile, error, message = case
    with pytest.raises(error) as caught:
        ENTRY_POINTS[name](mechanism, profile)
    assert type(caught.value) is error
    assert str(caught.value) == message


WRONG_N = RandomizedMechanism(3, UNIT_INTERVAL, ((RankK(1), F(1)),))
WRONG_DOMAIN = RandomizedMechanism(2, REAL_LINE, ((RankK(1), F(1)),))
DISCRETE_FAMILY = RandomizedMechanism(
    2, UNIT_INTERVAL, ((RankK(1), F(1, 2)),),
    continuous=IIDPhantomSpec(((F(1, 2), F(1)),)), continuous_weight=F(1, 2),
)
ANALYSIS = [name for name in ENTRY_POINTS if name not in ("evaluate", "outcome_distribution")]
MIXTURE_CASES = [
    ("outcome_distribution", WRONG_N, MechanismError, "mechanism built for n=3, profile has n=2"),
    ("outcome_distribution", WRONG_DOMAIN, DomainMismatchError,
     "mechanism domain real_line vs profile domain unit_interval"),
    *((name, WRONG_N, MechanismError, "mechanism built for n=3, got n=2") for name in ANALYSIS),
    *((name, WRONG_DOMAIN, DomainMismatchError, "mechanism and profile domains differ") for name in ANALYSIS),
    *((name, DISCRETE_FAMILY, MechanismError, "expand discrete phantom families before evaluating")
      for name in ANALYSIS),
]


@pytest.mark.parametrize("name, mechanism, error, message", MIXTURE_CASES)
def test_a_mixture_for_another_profile_fails_as_before(name, mechanism, error, message):
    with pytest.raises(error) as caught:
        ENTRY_POINTS[name](mechanism, UNIT_PAIR)
    assert type(caught.value) is error
    assert str(caught.value) == message
