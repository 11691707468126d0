"""The exact rules of the det and exp checks against the grid sweeps.

Three rules decide a det or exp check on the whole domain (the proofs are
in :mod:`proploc.axioms`): the slope rule (Strong Proportionality), its
integral over [0, 1] (proportionality) and the window theorem
(strategyproofness of an ``Average`` beside ranks). Random mixtures of
ranks, the ``Average``, equal and unequal dictators, phantom vectors with
denominators 2, 3, 5 and 7 (mostly with the domain's ends outside) and the
uniform family, on both domains, must get:

- the grid sweep's verdict and witness whenever the sweep fails, and the
  sweep's verdict outright when some part's outer phantoms lie inside the
  domain, where no rule applies;
- for Strong Proportionality, the verdict of a plain loop over the pairs of
  every phantom, the domain's ends and, with the family, each step cut in n
  (one step past the outer phantoms on the real line): the whole domain;
- a FAIL that the grid misses with a witness that rechecks off the grid.

The explicit examples pin what derandomized draws can miss: each fails a
mutant of the rules (a count of s phantoms in place of s + 1, the dictator
term dropped, ``>`` in place of ``>=`` at p = 1/2, a part whose outer
phantoms lie inside the domain taken as unanimous, a phantom inside the
domain ignored where the high-end mass is right). Three first witnesses
are pinned as bytes: the exact path's ordered sweep beside unequal
dictators, and the real line's off-grid steps unbounded below and above.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from proploc import axioms
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    Infinite,
    Median,
    MechanismError,
    Phantom,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
    as_mixture,
)
from proploc.mechanisms import build_mechanism
from proploc.sweep import two_valued_profiles

from phantom_forms import to_phantom_form
from test_rule_hooks import ends_grid, ends_profiles
from test_sweep_differential import _reference_group_first

SLOPE = "the slope P(facility > t) at each group's bound throughout the domain: every real pair"
INTEGRAL = "the integral of P(facility > t) at each group's bound: every 0/1 profile"
WINDOW = ("the rank windows tile the line, each rank weighing at least the average over n: "
          "every profile, every real misreport")
AVERAGE = "the average within every group's bound: every real profile"


def _ends(domain):
    return (F(0), F(1)) if domain == UNIT_INTERVAL else (NEG_INF, POS_INF)


@st.composite
def cases(draw, domain, det=False, average=False):
    """(mechanism, check domain, variant): one deterministic part for det,
    else a mixture of 1-4 kinds at random integer weights (equal dictators
    are one kind, every agent's dictator at the same weight, and so are
    equal ranks), with an ``Average`` when ``average`` is set."""
    n = draw(st.integers(2, 4))
    dom = axioms.CheckDomain(n=n, grid=draw(st.integers(1, 4)), domain=domain)
    low, high = _ends(domain)

    def vector():
        d = draw(st.sampled_from([2, 3, 5, 7]))
        span = (0, d) if domain == UNIT_INTERVAL else (-2 * d, 2 * d)
        values = sorted(draw(st.lists(st.builds(F, st.integers(*span), st.just(d)), min_size=n + 1, max_size=n + 1)))
        if draw(st.integers(0, 4)):  # mostly unanimous
            values[0], values[-1] = low, high
        return Phantom(tuple(values))

    build = {
        "rank": lambda: [RankK(draw(st.integers(1, n)))],
        "ranks": lambda: [RankK(k) for k in range(1, n + 1)],
        "average": lambda: [Average()],
        "dictator": lambda: [Dictator(draw(st.integers(1, n)))],
        "dictators": lambda: [Dictator(i) for i in range(1, n + 1)],
        "phantom": lambda: [vector()],
        "median": lambda: [Median()],
    }
    if domain == UNIT_INTERVAL:
        build["uniform"] = lambda: [UniformPhantom()]
    if det:
        kind = "average" if average else draw(st.sampled_from(sorted(set(build) - {"dictators", "ranks"})))
        return build[kind]()[0], dom, axioms.DET
    kinds = draw(st.lists(st.sampled_from(sorted(build) + (["family"] if domain == UNIT_INTERVAL else [])),
                          min_size=0 if average else 1, max_size=4))
    if average:
        kinds.append("average")
    components, family = [], 0
    for kind in kinds:
        raw = draw(st.integers(1, 5))
        if kind == "family":
            family += raw
        else:
            components += [(mech, raw) for mech in build[kind]()]
    total = sum(raw for _, raw in components) + family
    mixture = RandomizedMechanism(
        n, domain, tuple((mech, F(raw, total)) for mech, raw in components),
        continuous_weight=F(family, total),
    )
    return mixture, dom, axioms.EXP


def both(**kwargs):
    return st.sampled_from([UNIT_INTERVAL, REAL_LINE]).flatmap(lambda domain: st.one_of(
        cases(domain, det=True, **kwargs), cases(domain, **kwargs)))


def _unanimous(mixture, dom):
    """Whether every rank, median or phantom part starts and ends with the
    domain's ends."""
    low, high = _ends(dom.domain)
    for mech, _ in mixture.components:
        if not isinstance(mech, (Average, Dictator)):
            phantoms = to_phantom_form(mech, dom.n, dom.domain).phantoms
            if (phantoms[0], phantoms[-1]) != (low, high):
                return False
    return True


def _swept(axiom, mechanism, dom, variant):
    """Today's grid sweep of a det or exp group check: the engine for a
    finite mixture, the exact path with the family."""
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    ends_only = axiom == axioms.PROPORTIONALITY
    if mixture.has_continuous:
        profiles = ends_profiles if ends_only else two_valued_profiles
        status, witness, _ = axioms._group_exact(mixture, dom, profiles, axioms._group_violation)
        return axioms.AxiomVerdict(axiom, variant, status, witness)
    found = axioms._group_first(
        mixture.forms, dom, True,
        profiles=ends_grid if ends_only else axioms._two_valued_grid, violation=axioms._group_violation,
    )
    if found is None:
        return axioms.AxiomVerdict(axiom, variant, axioms.PASS)
    return axioms.AxiomVerdict(axiom, variant, axioms.FAIL, found[1])


def _whole_domain_values(mixture, dom):
    """Every finite phantom and the domain's ends (on the real line one
    step past the outer phantoms instead, or 0 and 1), each step cut in n
    when the family is present: between neighbours H_S - share is a
    polynomial of degree below n, so the pairs of these values show every
    failing step."""
    low, high = _ends(dom.domain)
    values = {y for mech, _ in mixture.components if not isinstance(mech, (Average, Dictator))
              for y in to_phantom_form(mech, dom.n, dom.domain).phantoms if not isinstance(y, Infinite)}
    if dom.domain == UNIT_INTERVAL:
        values |= {low, high}
    else:
        values = values | {min(values) - 1, max(values) + 1} if values else {F(0), F(1)}
    values = sorted(values)
    if mixture.has_continuous:
        values = sorted({a + (b - a) * j / dom.n for a, b in zip(values, values[1:]) for j in range(dom.n + 1)})
    return values


def _assert_grid_consistent(verdict, swept, mechanism, dom):
    """A FAIL the grid shows keeps the sweep's witness; one it misses
    rechecks off the grid; a PASS is the sweep's too."""
    if swept.failed:
        assert (verdict.status, verdict.witness) == (swept.status, swept.witness)
    elif verdict.failed:
        assert axioms.recheck_witness(mechanism, verdict)
        assert not set(verdict.witness.profile) <= set(dom.points())


NON_UNANIMOUS = RandomizedMechanism(2, UNIT_INTERVAL, ((RankK(1), F(1, 2)), (Phantom((0, 0, F(1, 2))), F(1, 2))))
# Unanimous, with the high-end mass of Random Rank at n=2 but a phantom inside
# the domain: H_S steps at 1/2, so it fails at (0, 1), lhs 3/4 > bound 1/2.
INSIDE = RandomizedMechanism(2, UNIT_INTERVAL, ((RankK(1), F(1, 2)), (Phantom((0, F(1, 2), 1)), F(1, 2))))


@given(both())
@example((build_mechanism("random_rank", 3), axioms.CheckDomain(n=3, grid=2), axioms.EXP))
@example((build_mechanism("random_dictator", 3, REAL_LINE), axioms.CheckDomain(n=3, grid=2, domain=REAL_LINE),
          axioms.EXP))
@example((NON_UNANIMOUS, axioms.CheckDomain(n=2, grid=2), axioms.EXP))
@example((UniformPhantom(), axioms.CheckDomain(n=2, grid=1), axioms.DET))
@example((build_mechanism("random_phantom", 2), axioms.CheckDomain(n=2, grid=1), axioms.EXP))
@example((INSIDE, axioms.CheckDomain(n=2, grid=1), axioms.EXP))
def test_slope_rule_decides_strong_proportionality_on_the_whole_domain(case):
    mechanism, dom, variant = case
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    verdict = axioms.check_strong_proportionality(mechanism, dom, variant)
    swept = _swept(axioms.STRONG_PROPORTIONALITY, mechanism, dom, variant)
    _assert_grid_consistent(verdict, swept, mechanism, dom)
    if not _unanimous(mixture, dom):
        assert verdict == swept
        return
    anonymous = not any(isinstance(mech, Dictator) for mech, _ in mixture.components)
    whole = _reference_group_first(mixture, dom, _whole_domain_values(mixture, dom), anonymous)
    assert verdict.passed == (whole is None)
    if verdict.passed:
        assert verdict.detail in (SLOPE, AVERAGE)


@given(cases(UNIT_INTERVAL, det=True) | cases(UNIT_INTERVAL))
@example((build_mechanism("random_rank", 3), axioms.CheckDomain(n=3, grid=2), axioms.EXP))
@example((build_mechanism("random_dictator", 3), axioms.CheckDomain(n=3, grid=2), axioms.EXP))
@example((NON_UNANIMOUS, axioms.CheckDomain(n=2, grid=2), axioms.EXP))
def test_integral_rule_decides_proportionality(case):
    """Proportionality looks only at {0, 1}^n, which every grid holds, so
    the sweep is exact: the rule must give its verdict and witness."""
    mechanism, dom, variant = case
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    verdict = axioms.check_proportionality(mechanism, dom, variant)
    swept = _swept(axioms.PROPORTIONALITY, mechanism, dom, variant)
    assert (verdict.status, verdict.witness) == (swept.status, swept.witness)
    if verdict.passed:
        assert verdict.detail in ((INTEGRAL, AVERAGE) if _unanimous(mixture, dom) else ("",))


def _window_holds(mixture, dom):
    """n * w_k >= a for every rank k, a the averages' weight and w_k the
    weight of the parts outputting the k-th largest report."""
    low, high = _ends(dom.domain)
    ranks = [F(0)] * dom.n
    for mech, weight in mixture.components:
        if not isinstance(mech, (Average, Dictator)):
            phantoms = to_phantom_form(mech, dom.n, dom.domain).phantoms
            if set(phantoms) <= {low, high} and low in phantoms and high in phantoms:
                ranks[phantoms.count(low) - 1] += weight
    average = sum(weight for mech, weight in mixture.components if isinstance(mech, Average))
    return all(dom.n * weight >= average for weight in ranks)


@given(both(average=True))
@example((build_mechanism("avg_or_rr:p=1/2", 3), axioms.CheckDomain(n=3, grid=2), axioms.EXP))
@example((build_mechanism("avg_or_rr:p=1/2", 2, REAL_LINE), axioms.CheckDomain(n=2, grid=2, domain=REAL_LINE),
          axioms.EXP))
@example((build_mechanism("avg_or_rr:p=3/5", 2), axioms.CheckDomain(n=2, grid=4), axioms.EXP))
def test_window_theorem_matches_the_sweep(case):
    """When every rank weighs at least the average over n the check passes
    by the window theorem and the sweep finds no gain; otherwise it is the
    sweep's verdict (beside the family, undecided)."""
    mechanism, dom, variant = case
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    holds = any(isinstance(mech, Average) for mech, _ in mixture.components) and _window_holds(mixture, dom)
    if mixture.has_continuous and not holds:
        with pytest.raises(MechanismError, match="undecided"):
            axioms.check_strategyproofness(mechanism, dom, variant)
        return
    verdict = axioms.check_strategyproofness(mechanism, dom, variant)
    if holds:
        assert (verdict.status, verdict.witness, verdict.detail) == (axioms.PASS, None, WINDOW)
        assert axioms.search_manipulation(mechanism, dom) is None
    if mixture.has_continuous:
        return
    found = axioms._sp_first(mixture.forms, dom, True)
    if holds:
        assert found is None
    else:
        assert (verdict.status, verdict.witness, verdict.detail) == (
            (axioms.PASS, None, "") if found is None else (axioms.FAIL, found[1], ""))


@given(both() | both(average=True), st.sampled_from([2, 3]))
def test_refining_the_grid_never_turns_a_fail_into_a_pass(case, factor):
    """Every point of grid m is a point of grid k*m (on the real line its
    window grows), so a FAIL at m stays a FAIL at k*m."""
    mechanism, dom, variant = case
    fine = axioms.CheckDomain(n=dom.n, grid=factor * dom.grid, domain=dom.domain)
    axes = [axioms.STRONG_PROPORTIONALITY, axioms.STRATEGYPROOFNESS]
    if dom.domain == UNIT_INTERVAL:
        axes.append(axioms.PROPORTIONALITY)
    for axiom in axes:
        try:
            coarse = axioms.run_check(axiom, mechanism, dom, variant)
        except MechanismError:
            continue
        if coarse.failed:
            assert axioms.run_check(axiom, mechanism, fine, variant).failed, axiom


def test_uniform_phantom_fails_strong_proportionality_off_grid_one():
    """The grid-1 pair (0, 1) passes: on it the low agent pays 1/2, its
    bound. The phantom at 1/2 is a step, and the profile (0, 1/2) on the
    first step costs the low agent 1/2 > 1/4."""
    dom = axioms.CheckDomain(n=2, grid=1)
    assert _swept(axioms.STRONG_PROPORTIONALITY, UniformPhantom(), dom, axioms.DET).passed
    verdict = axioms.check_strong_proportionality(UniformPhantom(), dom, axioms.DET)
    assert verdict.failed
    assert verdict.witness.to_json() == {"profile": ["0", "1/2"], "group": [1], "agent": 1, "lhs": "1/2",
                                         "bound": "1/4"}
    assert axioms.recheck_witness(UniformPhantom(), verdict)


def test_a_family_beside_unequal_dictators_sweeps_ordered_pairs():
    """1/3 dictator:i=1 + 2/3 of the family reads agent labels, so the exact
    path sweeps ordered patterns: its first witness (1/2, 0) comes before
    (0, 1), the first that a multiset sweep would meet."""
    mixture = RandomizedMechanism(2, UNIT_INTERVAL, ((Dictator(1), F(1, 3)),), continuous_weight=F(2, 3))
    verdict = axioms.check_strong_proportionality(mixture, axioms.CheckDomain(n=2, grid=2), axioms.EXP)
    assert verdict.witness.to_json() == {"profile": ["1/2", "0"], "group": [2], "agent": 2, "lhs": "5/12",
                                         "bound": "1/4"}
    assert axioms.recheck_witness(mixture, verdict)


def test_an_unbounded_real_line_step_starts_one_unit_past_its_end():
    """1/2 rank:k=1 + 1/2 phantom:[-inf,-5,+inf] at n=2 meets every grid-1
    pair on the real line, and fails on its first step (-inf, -5), which the
    off-grid witness takes from -6."""
    mixture = RandomizedMechanism(2, REAL_LINE, ((RankK(1), F(1, 2)), (Phantom((NEG_INF, -5, POS_INF)), F(1, 2))))
    dom = axioms.CheckDomain(n=2, grid=1, domain=REAL_LINE)
    assert _swept(axioms.STRONG_PROPORTIONALITY, mixture, dom, axioms.EXP).passed
    verdict = axioms.check_strong_proportionality(mixture, dom, axioms.EXP)
    assert verdict.witness.to_json() == {"profile": ["-6", "-5"], "group": [1], "agent": 1, "lhs": "1", "bound": "1/2"}
    assert axioms.recheck_witness(mixture, verdict)


def test_an_upper_unbounded_real_line_step_ends_one_unit_past_its_start():
    """1/2 rank:k=2 + 1/2 phantom:[-inf,3,+inf] at n=2 meets every grid-1
    pair on the real line, and fails on its last step (3, +inf), which the
    off-grid witness takes to 4: at (3, 4) agent 2 pays 1 > 1/2."""
    mixture = RandomizedMechanism(2, REAL_LINE, ((RankK(2), F(1, 2)), (Phantom((NEG_INF, 3, POS_INF)), F(1, 2))))
    dom = axioms.CheckDomain(n=2, grid=1, domain=REAL_LINE)
    assert _swept(axioms.STRONG_PROPORTIONALITY, mixture, dom, axioms.EXP).passed
    verdict = axioms.check_strong_proportionality(mixture, dom, axioms.EXP)
    assert verdict.witness.to_json() == {"profile": ["3", "4"], "group": [2], "agent": 2, "lhs": "1", "bound": "1/2"}
    assert axioms.recheck_witness(mixture, verdict)


@pytest.fixture
def no_sweep(monkeypatch):
    """The group and strategyproofness sweeps raise if they are built."""

    def refuse(*args, **kwargs):
        raise AssertionError("a rule-decided check reached a sweep")

    for name in ("GroupSweep", "SpSweep"):
        monkeypatch.setattr(axioms, name, refuse)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, REAL_LINE])
@pytest.mark.parametrize("n", [2, 5, 9])
def test_rule_decided_cells_sweep_nothing(no_sweep, domain, n):
    dom = axioms.CheckDomain(n=n, grid=12, domain=domain)
    specs = ["random_rank", "random_dictator", "avg_or_rr:p=1/2", "avg_or_rr:p=3/5"]
    for spec in specs:
        mixture = build_mechanism(spec, n, domain)
        assert axioms.check_strong_proportionality(mixture, dom, axioms.EXP).detail == SLOPE
        if domain == UNIT_INTERVAL:
            assert axioms.check_proportionality(mixture, dom, axioms.EXP).detail == INTEGRAL
    mixture = build_mechanism("avg_or_rr:p=1/2", n, domain)
    assert axioms.check_strategyproofness(mixture, dom, axioms.EXP).detail == WINDOW
    assert axioms.search_manipulation(mixture, dom) is None
