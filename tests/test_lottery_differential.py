"""Differential test of the finite lottery against a plain loop.

``core`` prices a mixture's outcomes as one lottery: every point by a
bisect into running sums of mass and moment. It reads every part off one
sorted copy of the reports, a phantom part as entry n, from 0, of that
copy merged with its phantoms, and sorts nothing for dictators and the
average. The oracle here sorts each component's reports and finite
phantoms on its own, counts the -inf phantoms, and sums p * |a - x| over
the atoms directly. The two must agree exactly, on both domains, with tied reports,
repeated phantoms and phantoms at +-inf, and they must fail the same way on
the same bad input. So must every axiom check and manipulation search of
a deterministic mechanism, and a mixture with an invalid part must fail to
be built with the same error: all of them read a part through
``core.part_form``, whose normal form must give the oracle's location and
the part's own det verdicts. The expected location, read off the merged
atoms' total moment, must equal the plain sum over the pairs as given, a
location repeated or not.
"""

import json
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from proploc import analysis, axioms, core, sweep
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    DomainMismatchError,
    Dictator,
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
    part_form,
)
from proploc.mechanisms import build_mechanism

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


def _case(profile, *mechs):
    """(mixture, profile, 0) of equally weighted parts and no family."""
    parts = tuple((mech, F(1, len(mechs))) for mech in mechs)
    return RandomizedMechanism(profile.n, profile.domain, parts), profile, F(0)


@settings(max_examples=300)
@given(cases())
# The merge read at its edges, which random draws can miss: a report tied
# with a phantom; +-inf phantoms on the real line; n=2 beside the uniform
# phantoms, the median and both ranks; every report below the lowest
# phantom, and every report above the highest; a mixture that sorts nothing.
@example(_case(Profile.unit(F(1, 4), F(1, 2), F(1, 2)), Phantom((F(0), F(1, 2), F(1, 2), F(1))),
               Phantom((F(0), F(1, 3), F(1, 2), F(1)))))
@example(_case(Profile.line(F(-3), F(1, 3), F(5, 2)), Phantom((NEG_INF, F(-1), POS_INF, POS_INF)),
               Phantom((NEG_INF, NEG_INF, F(1), POS_INF)), RankK(3)))
@example(_case(Profile.unit(F(3, 4), F(1, 6)), UniformPhantom(), Median(), RankK(1), RankK(2),
               Phantom((F(0), F(1, 3), F(1)))))
@example(_case(Profile.unit(F(1, 4), F(0), F(1, 6)), Phantom((F(1, 3), F(1, 2), F(2, 3), F(3, 4)))))
@example(_case(Profile.line(F(5, 2), F(1), F(1, 3)), Phantom((NEG_INF, F(-3), F(-1), F(0)))))
@example(_case(Profile.line(F(1), F(-3), F(1, 3)), Dictator(1), Dictator(3), Average()))
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


def plain_expected_location(pairs):
    """The expected location as one pass over the pairs, each location
    however often it repeats."""
    return sum(weight * loc for loc, weight in pairs)


@st.composite
def repeated_pairs(draw):
    """1-8 (location, weight) pairs from a domain's pool of 3, so most
    lotteries repeat a location, with positive weights of any total."""
    pool = draw(st.sampled_from((UNIT_POOL, LINE_POOL)))
    locations = st.sampled_from(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)))
    weights = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)
    return tuple(draw(st.lists(st.tuples(locations, weights), min_size=1, max_size=8)))


@given(repeated_pairs(), st.booleans())
@example(((F(1, 2), F(1, 3)), (F(1, 2), F(1, 3)), (F(0), F(1, 3))), False)
@example(((F(-1), F(1, 4)), (F(5, 2), F(1, 2)), (F(-1), F(1, 4))), True)
def test_expected_location_is_the_plain_sum_over_repeated_pairs(pairs, priced):
    """The expected location read off the merged atoms' total moment is the
    plain sum over the pairs as given, whether or not a distance has
    already built the sorted table."""
    dist = core.OutcomeDistribution._of(pairs)
    if priced:
        dist.expected_distance(pairs[0][0])
    assert dist.expected_location() == plain_expected_location(pairs)


@given(cases())
def test_a_mixture_lottery_expected_location_is_the_plain_sum(case):
    """The same on a mixture's lottery, whose pairs repeat a location
    wherever parts agree, beside the family's weight or not."""
    mixture, profile, _ = case
    lottery, _ = core.outcome_lottery(mixture, profile)
    assert lottery.expected_location() == plain_expected_location(lottery.pairs)


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
]
# Mixtures with an invalid part, as (n, domain, components, family weight).
INVALID_MIXTURES = [
    ("mixed bad rank", (2, UNIT_INTERVAL, ((RankK(1), F(1, 2)), (RankK(3), F(1, 2)))),
     MechanismError, "rank 3 out of range for n=2"),
    ("bad rank before uniform on the line",
     (2, REAL_LINE, ((RankK(3), F(1, 2)), (UniformPhantom(), F(1, 2)))),
     MechanismError, "rank 3 out of range for n=2"),
    ("uniform on the line after a valid rank", (2, REAL_LINE, ((RankK(1), F(1, 2)), (UniformPhantom(), F(1, 2)))),
     DomainMismatchError, "uniform phantoms are defined on [0,1] only"),
    ("bad dictator beside the family", (3, UNIT_INTERVAL, ((Dictator(4), F(1, 2)),), F(1, 2)),
     MechanismError, "dictator 4 out of range for n=3"),
    ("short phantom before a bad rank", (3, UNIT_INTERVAL, ((Phantom((F(0), F(1))), F(1, 2)), (RankK(4), F(1, 2)))),
     MechanismError, "phantom vector has 2 entries, expected 4"),
]


@pytest.mark.parametrize(
    "name, case",
    [(name, case) for case in ERROR_CASES for name in ENTRY_POINTS],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_bad_input_fails_as_before(name, case):
    _, mechanism, profile, error, message = case
    with pytest.raises(error) as caught:
        ENTRY_POINTS[name](mechanism, profile)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("case", INVALID_MIXTURES, ids=lambda case: case[0])
def test_a_mixture_with_an_invalid_part_cannot_be_built(case):
    """The constructor raises the first invalid part's error, in component
    order, so no reader of a built mixture meets an invalid part."""
    _, args, error, message = case
    with pytest.raises(error) as caught:
        RandomizedMechanism(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message


def _checks(mechanism, dom):
    """(name, call) of every check of the invalid deterministic
    ``mechanism`` that must meet it: each axiom's det and universal
    variants, and manipulation search. Proportionality is an endpoint axiom
    and raises on the real line before it reads a part."""
    for axiom in axioms.AXIOMS:
        if axiom == axioms.PROPORTIONALITY and dom.domain == REAL_LINE:
            continue
        for variant in (axioms.DET, axioms.UNIVERSAL):
            yield f"{axiom} {variant}", partial(axioms.run_check, axiom, mechanism, dom, variant)
    yield "search_manipulation", lambda: axioms.search_manipulation(mechanism, dom)


@pytest.mark.parametrize("case", ERROR_CASES, ids=lambda case: case[0])
def test_every_check_fails_as_the_lottery_does(case):
    """An invalid part names the same error on every path, as in
    ``evaluate`` and the ``expected_*`` helpers."""
    _, mechanism, profile, error, message = case
    dom = axioms.CheckDomain(n=profile.n, grid=2, domain=profile.domain)
    for name, run in _checks(mechanism, dom):
        with pytest.raises(MechanismError) as caught:
            run()
        assert (type(caught.value), str(caught.value)) == (error, message), name


BUILT = [
    "random_rank",
    "random_dictator",
    "avg_or_rr:p=3/5",
    "random_phantom",
    'iid_phantom:{atoms:[["1/4","1/2"],["3/4","1/2"]]}',
    "mixture",
]


@pytest.mark.parametrize("spec", BUILT)
def test_no_reader_of_a_built_mixture_normalises_its_parts_again(spec, monkeypatch):
    """The constructor is the one call of ``part_form`` on a mixture's
    parts: lotteries, expectations, every check (a FAIL's witness too) and
    manipulation search read the forms it keeps. ``mixture`` fails
    anonymity in expectation, Random Dictatorship universally."""
    if spec == "mixture":
        mixture = RandomizedMechanism(3, UNIT_INTERVAL, ((Dictator(1), F(1, 2)), (Median(), F(1, 2))))
    else:
        mixture = build_mechanism(spec, 3)
    profile, dom = Profile.unit(0, F(1, 3), 1), axioms.CheckDomain(n=3, grid=3)
    calls = []
    for module in (core, analysis, axioms, sweep):
        if hasattr(module, "part_form"):
            monkeypatch.setattr(module, "part_form", lambda *args: calls.append(args))
    analysis.expected_location_and_agent_distances(mixture, profile)
    analysis.expected_distance_to_point(mixture, profile, F(1, 2))
    for axiom in axioms.AXIOMS:
        for variant in (axioms.EXP, axioms.UNIVERSAL):
            if (axiom, variant) != (axioms.EFFICIENCY, axioms.EXP):
                axioms.run_check(axiom, mixture, dom, variant)
    if not mixture.has_continuous:
        outcome_distribution(mixture, profile)
    axioms.search_manipulation(mixture, dom)
    if spec == "random_rank":
        analysis.rank_phantom_marginals(mixture)
    assert calls == []


WRONG_N = RandomizedMechanism(3, UNIT_INTERVAL, ((RankK(1), F(1)),))
WRONG_DOMAIN = RandomizedMechanism(2, REAL_LINE, ((RankK(1), F(1)),))
# One error per way a mixture fails to fit the caller's (n, domain), raised
# alike by every entry point that takes a mixture and a profile or check domain.
MIXTURE_CASES = [
    ("wrong n", WRONG_N, MechanismError, "mechanism built for n=3, used with n=2"),
    ("wrong domain", WRONG_DOMAIN, DomainMismatchError, "mechanism built for real_line, used on unit_interval"),
]
UNIT_DOM = axioms.CheckDomain(n=2, grid=2)
# Each entry point's calls: ``run_check`` once per axiom and variant.
MIXTURE_ENTRY_POINTS = {
    **{name: [call] for name, call in ENTRY_POINTS.items() if name != "evaluate"},
    "run_check": [
        lambda m, p, axiom=axiom, variant=variant: axioms.run_check(axiom, m, UNIT_DOM, variant)
        for axiom in axioms.AXIOMS
        for variant in (axioms.DET, axioms.EXP, axioms.UNIVERSAL)
    ],
    "search_manipulation": [lambda m, p: axioms.search_manipulation(m, UNIT_DOM)],
}


@pytest.mark.parametrize("name", MIXTURE_ENTRY_POINTS)
@pytest.mark.parametrize("case", MIXTURE_CASES, ids=lambda case: case[0])
def test_a_mixture_for_another_profile_fails_as_before(case, name):
    """``core.as_mixture`` is the one fit check: every entry point raises its
    error before it reads a part or a variant."""
    _, mechanism, error, message = case
    for call in MIXTURE_ENTRY_POINTS[name]:
        with pytest.raises(error) as caught:
            call(mechanism, UNIT_PAIR)
        assert type(caught.value) is error
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# the normal form
# ---------------------------------------------------------------------------


def _ends(domain):
    return (F(0), F(1)) if domain == UNIT_INTERVAL else (NEG_INF, POS_INF)


@st.composite
def normal_form_cases(draw):
    """(part, n, domain, profiles): a rank, the median, the uniform phantoms
    or a phantom vector, either of the domain's ends alone (a rank, or on
    [0,1] a constant) or with interior entries too; and a few profiles."""
    domain = draw(st.sampled_from((UNIT_INTERVAL, REAL_LINE)))
    n = draw(st.integers(2, 6))
    low, high = _ends(domain)
    pool = UNIT_POOL if domain == UNIT_INTERVAL else LINE_POOL
    ends = st.sampled_from((low, high))
    entries = ends if draw(st.booleans()) else ends | st.sampled_from(pool)
    vector = st.lists(entries, min_size=n + 1, max_size=n + 1).map(sorted)
    if domain == REAL_LINE:  # an all-infinite vector has no finite median
        vector = vector.filter(lambda ys: not all(y == ys[0] for y in ys) or not isinstance(ys[0], Infinite))
    kinds = [st.integers(1, n).map(RankK), st.just(Median()), vector.map(lambda ys: Phantom(tuple(ys)))]
    if domain == UNIT_INTERVAL:
        kinds.append(st.just(UniformPhantom()))
    profile = st.lists(st.sampled_from(pool), min_size=n, max_size=n).map(tuple)
    return draw(st.one_of(kinds)), n, domain, draw(st.lists(profile, min_size=1, max_size=4))


def _det(axiom, mech, dom):
    """The det verdict's JSON bytes, or the error's type and message."""
    try:
        return json.dumps(axioms.run_check(axiom, mech, dom, axioms.DET).to_json())
    except MechanismError as error:
        return type(error).__name__, str(error)


UNIT_PROFILES = ((F(0), F(1, 6)), (F(1, 6), F(1, 2)), (F(1, 4), F(3, 4)))
LINE_PROFILES = ((F(-3), F(-1)), (F(1), F(5, 2)), (F(-1), F(1)))


@settings(max_examples=60)
@given(normal_form_cases())
# A constant on [0,1], whose Strong Proportionality det FAILs at (0, 1/6);
# a vector of ends, one low; on the real line a finite phantom between the
# infinities, and a finite low end; the uniform vector.
@example((Phantom((F(0), F(0), F(0))), 2, UNIT_INTERVAL, UNIT_PROFILES))
@example((Phantom((F(0), F(1), F(1))), 2, UNIT_INTERVAL, UNIT_PROFILES))
@example((Phantom((NEG_INF, F(0), POS_INF)), 2, REAL_LINE, LINE_PROFILES))
@example((Phantom((F(0), POS_INF, POS_INF)), 2, REAL_LINE, LINE_PROFILES))
@example((UniformPhantom(), 2, UNIT_INTERVAL, UNIT_PROFILES))
def test_the_normal_form_reads_and_checks_as_the_part(case):
    """``part_form`` gives a rank exactly for a rank, the median and a vector
    of both domain ends, with k its low ends; the form outputs the oracle's
    location, and every det check reads the same bytes off the form as off
    the part."""
    part, n, domain, profiles = case
    form = part_form(part, n, domain)
    ys = part.phantoms if isinstance(part, Phantom) else ()
    low, high = _ends(domain)
    if isinstance(part, (RankK, Median)) or ys and low in ys and high in ys and set(ys) <= {low, high}:
        assert isinstance(form, RankK)
        assert not ys or form.k == ys.count(low)
    else:
        assert isinstance(form, Phantom)
    for reports in profiles:
        assert oracle_location(form, reports) == oracle_location(part, reports)
        assert evaluate(part, Profile(domain, reports)) == oracle_location(part, reports)
    dom = axioms.CheckDomain(n=n, grid=6 if domain == UNIT_INTERVAL else 2, domain=domain)
    for axiom in axioms.AXIOMS:
        assert _det(axiom, form, dom) == _det(axiom, part, dom), axiom
    if part == Phantom((F(0), F(0), F(0))):
        verdict = axioms.run_check(axioms.STRONG_PROPORTIONALITY, part, dom)
        assert verdict.failed and verdict.witness.profile == (F(0), F(1, 6))
