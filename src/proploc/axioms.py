"""Exact deciders for the fairness and incentive axioms.

Each checker decides a finite check domain and returns a pass, or an exact
counterexample witness that re-verifies on its own. Enumeration order is
deterministic (lexicographic over components, profiles, agents, then
candidate reports), so the first failure reported is stable across runs.

Every axiom has the same variants, defined once in :func:`_decide`:

- ``det``: a deterministic mechanism satisfies the axiom (a randomized
  mechanism is an error);
- ``exp``: a mixture satisfies it in expectation, its weighted components
  swept as one mechanism;
- ``universal``: every support component satisfies it on its own, in order,
  and a failure names the first that does not (universal truthfulness and
  anonymity, ex-post efficiency and fairness).

Each axiom declares its hooks once, in one table (``_HOOKS``) that
:func:`_decide` reads: its grid sweep, its det and exp rule, its exact path
for a continuous family and the parts a universal check covers by theorem.
Where each argument lives:

- strategyproofness by the generalized-median and window theorems:
  :func:`_sp_theorem`;
- proportionality and Strong Proportionality by the slope rule:
  :func:`_slope_theorem`, :func:`_first_pair` for the grid witness of a
  FAIL of ranks, dictators and averages, and :func:`_off_grid` for a FAIL
  the grid misses;
- the group axioms of an ``Average``: :func:`_average_theorem`;
- the uniform family's realisation that fails the group axioms:
  :func:`_decide`;
- efficiency and anonymity in closed form: :func:`_efficiency_first` and
  :func:`_anonymity_first`;
- the engine of :mod:`proploc.sweep`: label-free orbits in
  :func:`~proploc.sweep.label_free`, translation anchoring in
  :func:`~proploc.sweep.sweep_profiles`, and the SPF window lemma, which
  is also the group bound on two-valued profiles, in
  :func:`~proploc.sweep.spf_fails`.

A continuous family's exact hooks (:func:`_two_valued_exact` and
:func:`_spf_exact`) list the same profiles, and :func:`_exact` prices them
with ``Fraction`` distances from :mod:`proploc.analysis` and walks them
with the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations

import numpy as np

from . import analysis
from .core import (
    NEG_INF,
    ONE,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    DomainMismatchError,
    Infinite,
    MechanismError,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    ZERO,
    as_mixture,
    evaluate,
    format_point,
    grid_points,
    outcome_pairs,
)
from .mechanisms import build_mechanism, format_mechanism
from .sweep import (
    GroupSweep,
    Scaled,
    SpSweep,
    dictator_shares,
    grid_profiles,
    label_free,
    last_labelled,
    spf_fails,
    sweep_profiles,
    two_valued_profiles,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

DET = "det"
EXP = "exp"
UNIVERSAL = "universal"

ANONYMITY = "anonymity"
STRATEGYPROOFNESS = "strategyproofness"
EFFICIENCY = "efficiency"
PROPORTIONALITY = "proportionality"
STRONG_PROPORTIONALITY = "strong_proportionality"
SPF = "spf"


@dataclass(frozen=True)
class CheckDomain:
    """Finite verification domain: n agents on a location grid.

    On the unit interval the grid is {0, 1/grid, ..., 1}; on the real line
    it is the integer window {-grid, ..., grid}. No check reads
    ``support_grid`` (>= 1 when set); it remains only for
    ``bench/workloads.swept_profiles`` and goes when that function does.
    """

    n: int
    grid: int = 6
    domain: str = UNIT_INTERVAL
    support_grid: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise MechanismError("check domains need n >= 2")
        if self.grid < 1:
            raise MechanismError("grid parameter must be >= 1")
        if self.support_grid is not None and self.support_grid < 1:
            raise MechanismError("support grid must be >= 1")
        if self.domain not in (UNIT_INTERVAL, REAL_LINE):
            raise DomainMismatchError(f"unknown domain {self.domain!r}")

    def points(self) -> tuple[Fraction, ...]:
        return grid_points(self.domain, self.grid)


@dataclass(frozen=True)
class Witness:
    """Exact re-checkable failure instance."""

    profile: tuple[Fraction, ...]
    domain: str
    agent: int | None = None
    group: tuple[int, ...] | None = None
    misreport: Fraction | None = None
    permutation: tuple[int, ...] | None = None
    component: str | None = None
    lhs: Fraction | None = None
    bound: Fraction | None = None

    def as_profile(self) -> Profile:
        return Profile(self.domain, self.profile)

    def to_json(self) -> dict:
        data: dict = {"profile": [format_point(x) for x in self.profile]}
        if self.group is not None:
            data["group"] = list(self.group)
        if self.misreport is not None:
            data["misreport"] = {"agent": self.agent, "to": format_point(self.misreport)}
        elif self.agent is not None:
            data["agent"] = self.agent
        if self.permutation is not None:
            data["permutation"] = list(self.permutation)
        if self.component is not None:
            data["component"] = self.component
        if self.lhs is not None:
            data["lhs"] = format_point(self.lhs)
        if self.bound is not None:
            data["bound"] = format_point(self.bound)
        return data


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    variant: str
    status: str
    witness: Witness | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def to_json(self) -> dict:
        data = {"axiom": self.axiom, "variant": self.variant, "status": self.status}
        if self.witness is not None:
            data["witness"] = self.witness.to_json()
        if self.detail:
            data["detail"] = self.detail
        return data


def _witness(scaled: Scaled, X, lhs: int, bound: int, **fields) -> Witness:
    """The exact witness of a scaled profile X, lhs and bound at the cost scale."""
    profile = tuple(scaled.to_frac(v) for v in X)
    return Witness(profile, scaled.domain, lhs=scaled.cost_frac(lhs), bound=scaled.cost_frac(bound), **fields)


# Stands for the uniform phantom family in a universal check's list of parts.
_FAMILY = object()


def _decide(axiom, mechanism, dom: CheckDomain, variant):
    """Decide ``axiom`` in ``variant``: the one place the variants are
    defined (see the module docstring), by the axiom's hooks in
    ``_HOOKS[axiom] = (sweep, rule, exact, covered)``.

    ``sweep(components, dom, combine)`` walks the grid over (mechanism,
    weight) pairs in the normal form of :func:`proploc.core.part_form`,
    which the mixture keeps from its construction (``forms``): (component
    index, witness, failure detail) of the first violation, or None. With
    ``combine`` the components form one mixture (det and exp); without it
    each is checked alone (universal), and the verdict names the failing
    component. ``rule(mixture, dom)``, if any, is the det and exp rule: the
    detail of a PASS on the whole domain, None when it cannot tell, or, for
    a FAIL, a function of ``grid`` returning the verdict's (status,
    witness, detail), where ``grid()`` gives the grid's first witness
    (``sweep``, or ``exact`` with the family). Where the rule proves which
    grid profile is that witness, the function prices that one profile and
    sweeps nothing; otherwise it sweeps, and answers off the grid only when
    the grid shows none. ``exact(mixture, dom)`` is the in-expectation rule
    for a mixture with a continuous family, as (status, witness, detail);
    without it there is no exp variant.
    ``covered`` maps a part's normal-form class, or ``_FAMILY``, to the
    detail of the PASS a universal check gives a part that meets the axiom
    at every profile: a part that never fails is never the first to fail,
    so a universal check sweeps only the other parts, stacked, each at
    weight 1, and its verdict is the full sweep's. Every realisation of the
    uniform family is a generalized median with phantoms at 0 and 1, so it
    meets strategyproofness, anonymity and efficiency. An uncovered family
    is swept as its realisation with every interior phantom at 0, which
    outputs the lowest report (rank n): on the profile with one agent at 1
    and the rest at 0 the lone agent pays 1 > (n - 1)/n, so it fails every
    group axiom at every n and grid, as do, by continuity, the realisations
    with interior phantoms in (0, eps), and the FAIL does not rest on a null
    set (``tests/test_axioms.py::
    test_random_phantom_universal_group_axioms_fail_on_the_lowest_realisation``).
    A failing part's witness names the part as given, not its normal form.

    A mixture's fit (n, domain) is checked first, then the variant. A
    deterministic mechanism is wrapped as a mixture, which checks its part,
    only after that.
    """
    sweep, rule, exact, covered = _HOOKS[axiom]
    if isinstance(mechanism, RandomizedMechanism):
        as_mixture(mechanism, dom.n, dom.domain)
        if variant == DET:
            raise MechanismError("deterministic variant needs a deterministic mechanism")
    if variant not in ((DET, EXP, UNIVERSAL) if exact else (DET, UNIVERSAL)):
        if exact is None:
            raise MechanismError(f"{axiom} has deterministic and universal variants only")
        raise MechanismError(f"unknown variant {variant!r}")
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    if variant == UNIVERSAL:
        parts = [(mech, form) for (mech, _), (form, _) in zip(mixture.components, mixture.forms)]
        if mixture.has_continuous:
            parts.append((_FAMILY, RankK(dom.n)))
        details = [covered.get(_FAMILY if part is _FAMILY else type(form)) for part, form in parts]
        swept = [pair for pair, detail in zip(parts, details) if detail is None]
        found = sweep([(form, ONE) for _, form in swept], dom, False) if swept else None
        if found is None:
            return AxiomVerdict(axiom, variant, PASS, None, next(filter(None, details), ""))
        index, witness, failure = found
        part = swept[index][0]
        if part is _FAMILY:
            part = Phantom((ZERO,) * dom.n + (ONE,))
        return AxiomVerdict(axiom, variant, FAIL, replace(witness, component=format_mechanism(part)), failure)
    decided = rule(mixture, dom) if rule else None
    if isinstance(decided, str):
        return AxiomVerdict(axiom, variant, PASS, None, decided)

    def grid():
        if mixture.has_continuous:
            return exact(mixture, dom)
        found = sweep(mixture.forms, dom, True)
        return (PASS, None, "") if found is None else (FAIL, *found[1:])

    return AxiomVerdict(axiom, variant, *(decided(grid) if decided else grid()))


def _ends(domain: str):
    """The domain's ends, which a unanimous phantom vector starts and ends with."""
    return (ZERO, ONE) if domain == UNIT_INTERVAL else (NEG_INF, POS_INF)


# ---------------------------------------------------------------------------
# Strategyproofness
# ---------------------------------------------------------------------------


def _sp_theorem(mixture, dom: CheckDomain):
    """The PASS detail a det or exp mixture earns by theorem, else None.

    The generalized-median theorem: every part but an ``Average``, and
    every realisation of the uniform family, is a generalized median
    (Moulin, Public Choice 1980). With the other reports fixed it outputs
    clip(r, lo, hi) of the agent's report r (see
    :class:`proploc.sweep.SpSweep`), nearest the agent's true point at r =
    that point, so any lottery over such parts is strategyproof at every
    profile and for every real misreport (``tests/test_sp_theorem.py::
    test_average_free_mixtures_pass_by_theorem_and_the_sweep_agrees``).

    The window theorem: beside averages of weight a, so is a mixture whose
    every rank k (a ``RankK`` among its forms, the median and every vector
    of the domain's ends among them) weighs w_k >= a/n; AverageOrRR exactly
    when p <= 1/2. Fix the other reports. Each rank outputs
    clip(r, lo_k, hi_k) for a window between consecutive other reports,
    and the n windows tile the line. Moving the report from the true point
    x to r raises rank k's cost by the length of [x, r] within its window,
    raises no generalized median's cost, and cuts the average's by at most
    |r - x|/n, so the cost rises by at least
    sum_k w_k |[x, r] within window k| - a |r - x|/n >= 0
    (``tests/test_exact_rules.py::test_window_theorem_matches_the_sweep``).
    """
    forms = mixture.forms
    if not any(isinstance(mech, Average) for mech, _ in forms):
        return "every component a generalized median: every profile, every real misreport"
    wden = math.lcm(*(weight.denominator for _, weight in forms))
    average, ranks = 0, [0] * mixture.n
    for mech, weight in forms:
        u = weight.numerator * (wden // weight.denominator)
        if isinstance(mech, Average):
            average += u
        elif isinstance(mech, RankK):
            ranks[mech.k - 1] += u
    if all(mixture.n * u >= average for u in ranks):
        return ("the rank windows tile the line, each rank weighing at least the average over n: "
                "every profile, every real misreport")
    return None


def _sp_first(components, dom: CheckDomain, combine: bool):
    """(component index, witness, "") of the first profitable misreport, or None."""
    scaled = Scaled(components, dom.n, dom.domain, dom.grid)
    hit = SpSweep(scaled, combine).first_violation()
    if hit is None:
        return None
    X, i, report, deviating, truthful = hit[1]
    return hit[0], _witness(scaled, X, deviating, truthful, agent=i + 1, misreport=scaled.to_frac(report)), ""


_SP_UNDECIDED = "in-expectation strategyproofness is undecided for a continuous family mixed with an average"


def _sp_exact(mixture, dom: CheckDomain):
    """A continuous family beside an average: undecided, an error."""
    raise MechanismError(_SP_UNDECIDED)


def check_strategyproofness(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """No agent can cut its (expected) distance by misreporting.

    A det or exp check that :func:`_sp_theorem` covers passes at every
    profile and for every real misreport. Other mixtures, and the finite
    parts of every universal check, are swept over every breakpoint
    misreport (:class:`proploc.sweep.SpSweep`); beside a continuous family
    an ``Average`` is an error.
    """
    return _decide(STRATEGYPROOFNESS, mechanism, dom, variant)


@dataclass(frozen=True)
class ManipulationFinding:
    profile: tuple[Fraction, ...]
    domain: str
    agent: int
    misreport: Fraction
    truthful_cost: Fraction
    deviating_cost: Fraction

    @property
    def gain(self) -> Fraction:
        return self.truthful_cost - self.deviating_cost

    def to_json(self) -> dict:
        return {
            "profile": [format_point(x) for x in self.profile],
            "agent": self.agent,
            "misreport": format_point(self.misreport),
            "truthful_cost": format_point(self.truthful_cost),
            "deviating_cost": format_point(self.deviating_cost),
            "gain": format_point(self.gain),
        }


def search_manipulation(mechanism, dom: CheckDomain) -> ManipulationFinding | None:
    """Largest exact expected-cost reduction over the check domain, if any.

    The misreports are the breakpoints of the strategyproofness sweep, so
    the gain is the largest over every real misreport. Ties go to the
    lexicographically first instance; returns None when no profitable
    misreport exists, or when :func:`_sp_theorem` rules one out.
    """
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    if _sp_theorem(mixture, dom) is not None:
        return None
    if mixture.has_continuous:
        raise MechanismError(_SP_UNDECIDED)
    scaled = Scaled(mixture.forms, dom.n, dom.domain, dom.grid)
    best = SpSweep(scaled, combine=True).best_gain()
    if best is None:
        return None
    X, i, report, deviating, truthful = best
    return ManipulationFinding(
        profile=tuple(scaled.to_frac(v) for v in X),
        domain=scaled.domain,
        agent=i + 1,
        misreport=scaled.to_frac(report),
        truthful_cost=scaled.cost_frac(truthful),
        deviating_cost=scaled.cost_frac(deviating),
    )


# ---------------------------------------------------------------------------
# Anonymity
# ---------------------------------------------------------------------------


def _anonymity_first(components, dom: CheckDomain, combine: bool, mixture=None):
    """(component index, witness, "") of the first (ordered grid profile,
    adjacent swap) whose relabelling moves the output, or None. With
    ``combine`` the whole mixture is component 0 (the expected location).

    Only dictators read labels, so with no dictator part nothing fails:
    swapping agents j and j + 1 (from 0) moves the output by
    (w_j - w_{j+1}) * (x_{j+1} - x_j), for w_j the weight of agent j's
    dictator. So the first failing profile, in lexicographic
    order, has every agent at the lowest grid point but agent j + 1, at the
    next one, for the largest j with w_j != w_{j+1}, the last agent whose
    weight differs from agent n's (:func:`proploc.sweep.last_labelled`),
    and its first moving swap is that of j. The witness's expected
    locations are those of the failing component, or with ``combine`` of
    the weighted components, read off their normal forms by
    :func:`proploc.core.outcome_pairs`, the lottery :func:`recheck_witness`
    prices; a ``mixture`` with a continuous family is priced by the closed
    forms of :mod:`proploc.analysis` instead."""
    n = dom.n
    first = next((c for c, (mech, _) in enumerate(components) if isinstance(mech, Dictator)), None)
    if first is None:
        return None
    # Alone, a dictator part puts all its weight on one of n >= 2 agents, so
    # a universal check fails at its first one.
    index, parts = (0, components) if combine else (first, [(components[first][0], ONE)])
    j = last_labelled(dictator_shares(parts, n))
    if j is None:
        return None
    perm = (*range(j), j + 1, j, *range(j + 2, n))
    low, second = dom.points()[:2]
    profile = (low,) * (j + 1) + (second,) + (low,) * (n - j - 2)

    def price(order):
        reordered = Profile(dom.domain, tuple(profile[p] for p in order))
        if mixture is not None:
            return analysis.expected_facility_location(mixture, reordered)
        return sum(weight * x for x, weight in outcome_pairs(parts, reordered))

    lhs, bound = price(perm), price(range(n))
    permutation = tuple(p + 1 for p in perm)
    return index, Witness(profile, dom.domain, permutation=permutation, lhs=lhs, bound=bound), ""


def _anonymity_exact(mixture, dom: CheckDomain):
    """Anonymity in expectation beside a continuous family, which ignores
    labels: the finite dictators' first failure, priced in closed form."""
    found = _anonymity_first(mixture.forms, dom, True, mixture=mixture)
    return (PASS, None, "") if found is None else (FAIL, found[1], "")


def check_anonymity(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """Output (or expected output) is invariant under relabelling agents.

    Adjacent transpositions generate every permutation, so the check asks
    those, over every ordered grid profile. Only dictator parts read agent
    labels, so their weights decide it in closed form (see
    :func:`_anonymity_first`); a continuous family draws its phantoms
    i.i.d. and ignores labels, so in expectation a mixture with one is
    decided by its finite dictators.
    """
    return _decide(ANONYMITY, mechanism, dom, variant)


# ---------------------------------------------------------------------------
# Efficiency
# ---------------------------------------------------------------------------


def _efficiency_first(components, dom: CheckDomain, combine: bool):
    """(component index, witness, side) of the first grid profile, in
    multiset order, whose output leaves the reported range, or None; each
    component is checked alone, ``combine`` holding only the one
    deterministic mechanism.

    Rank, dictator and average outputs never leave the range. A phantom
    part with lowest and highest phantoms y_0 and y_n leaves it exactly when
    every report lies below y_0 (the output is y_0) or above y_n (the
    output is y_n). So the first failing profile is unanimous: at the
    lowest grid point when y_0 lies above it, else at the first grid point
    above y_n. On the real line a finite end the grid does not expose fails
    off the grid: with every report at floor(y_0) - 1 (or ceil(y_n) + 1)
    the output is that end."""
    points = dom.points()
    for index, (mech, _) in enumerate(components):
        if not isinstance(mech, Phantom):
            continue
        low, high = mech.phantoms[0], mech.phantoms[-1]
        beyond = [x for x in points if x > high]
        if low > points[0]:
            report, out = points[0], low
        elif beyond:
            report, out = beyond[0], high
        elif dom.domain == REAL_LINE and not isinstance(low, Infinite):
            report, out = Fraction(math.floor(low) - 1), low
        elif dom.domain == REAL_LINE and not isinstance(high, Infinite):
            report, out = Fraction(math.ceil(high) + 1), high
        else:
            continue
        side = "above the rightmost report" if out > report else "below the leftmost report"
        return index, Witness((report,) * dom.n, dom.domain, lhs=out, bound=report), side
    return None


def check_efficiency(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """Output stays within the reported range; the universal variant asks
    it of every support component (ex-post efficiency). A phantom vector is
    efficient if and only if its ends are the domain's, so on the real line
    a finite end fails even where no grid profile shows it."""
    return _decide(EFFICIENCY, mechanism, dom, variant)


# ---------------------------------------------------------------------------
# Group fairness: proportionality family
# ---------------------------------------------------------------------------


def _exact(mixture, dom: CheckDomain, profiles, violation):
    """The group axioms' in-expectation rule for a continuous family: the
    first ``violation(locations, price, 1/n)`` over ``profiles``, as (agent,
    group, lhs, bound), where ``price(x)`` is the expected distance of an
    agent at location x, every agent priced in one call to the exact closed
    forms of :mod:`proploc.analysis`. The family draws its phantoms i.i.d.
    and ignores agent labels, so the hooks that walk the grid
    (:func:`_two_valued_exact`, :func:`_spf_exact`) list multisets where the
    finite components do (:func:`proploc.sweep.label_free`).
    """
    scale = Fraction(1, dom.n)
    for locations in profiles:
        distances = analysis.expected_agent_distances(mixture, Profile(dom.domain, locations))
        found = violation(locations, dict(zip(locations, distances)).__getitem__, scale)
        if found is not None:
            agent, group, lhs, bound = found
            witness = Witness(
                profile=locations,
                domain=dom.domain,
                agent=agent,
                group=group,
                lhs=lhs,
                bound=bound,
            )
            return FAIL, witness, ""
    return PASS, None, ""


# The group axioms' universal coverage: an ``Average`` part meets all three
# at every real profile (see _average_theorem).
_AVERAGE = {Average: "the average within every group's bound: every real profile"}


def _average_theorem(mixture, dom: CheckDomain):
    """The PASS detail of a group axiom for a det or exp mixture of
    averages alone, else None.

    The ``Average`` meets SPF, proportionality and Strong Proportionality
    at every real profile, for every n, on both domains. Let m be the mean
    of a profile of range R. For a subset S holding agent i, with inner
    range r,

        |x_i - m| = |sum_j (x_i - x_j)| / n <= ((|S| - 1) r + (n - |S|) R) / n
                  <= ((n - |S|) R + n r) / n,

    as the other members of S lie within r of x_i and the rest within R:
    SPF's bound. On a two-valued profile with s agents at low and the rest
    a gap above, m = low + (n - s)/n * gap, so each group pays exactly its
    bound. A bound on an expected distance is linear in the lottery, so a
    mixture of averages meets it too (``tests/test_average_theorem.py::
    test_average_cost_never_exceeds_a_subset_bound``).
    """
    if not mixture.has_continuous and all(isinstance(mech, Average) for mech, _ in mixture.forms):
        return _AVERAGE[Average]
    return None


def _slope_theorem(mixture, dom: CheckDomain, ends_only: bool):
    """The det and exp rule of Strong Proportionality, or with
    ``ends_only`` of proportionality: :func:`_average_theorem`, then the
    slope rule on integers over the weights' common denominator, in time
    linear in n and the phantoms. It reads only unanimous parts: an
    ``Average``, a dictator, the uniform family, a rank, or a phantom
    vector whose outer phantoms are the domain's ends; any other part
    leaves the check to the sweep (None).

    Put the s agents of a group S at low and the rest at high. A unanimous
    vector with sorted phantoms y_0..y_n outputs clip(y_{n-s}, low, high):
    for low < t < high, the n - s high reports and the phantoms above t
    number n + 1 or more exactly when y_{n-s} > t. So with a the averages'
    weight and H_S(t) = P(facility > t) from the other parts, summing the
    vectors with y_{n-s} > t, the family's P(U > t) for U its (n - s)-th
    uniform, and the dictators of the agents outside S, the low group pays
    a (n - s)/n gap + integral_low^high H_S and the high group
    a s/n gap + (1 - a) gap - integral_low^high H_S. Both bounds hold
    exactly when the integral is (1 - a)(n - s)/n gap, for every real pair
    exactly when H_S is (1 - a)(n - s)/n throughout the domain: no y_{n-s}
    strictly inside it (H_S steps there), no family (P(U > t) falls on
    (0, 1)), and the right constant. Proportionality asks it of the pair
    (0, 1) alone: sum w y_{n-s} + w_family (n - s)/n + the dictators =
    (1 - a)(n - s)/n. Unanimous profiles pass at once.

    A FAIL names the first S to miss in the sweep's (product) pattern
    order. Let j be the last agent whose share differs from agent n's, d
    (:func:`proploc.sweep.last_labelled`). A pattern
    whose high agents all follow j comes before any with j high, and its
    agents hold d, so the first to miss is 0...01...1 for the least size
    i <= n - 1 - j with ``misses(i, i * d)``. If none does, the next
    pattern, j alone high, misses: one agent meets the rule for at most one
    dictator weight, and i = 1 passed with d. With no such j, i runs over
    1..n - 1 (``tests/test_exact_rules.py::
    test_slope_rule_decides_strong_proportionality_on_the_whole_domain``).

    With ranks, dictators and averages alone (no y_i inside the domain, no
    family) every H_S is constant inside it, so a pattern that misses the
    rule fails at every pair and one that meets it passes at every pair.
    The sweep takes the pairs outer and the patterns inner
    (:func:`proploc.sweep.two_valued_profiles`), so its first witness is
    the grid's first pair with that pattern (:func:`_first_pair`).
    Otherwise the FAIL is swept for its grid witness, and
    :func:`_off_grid` gives one where the grid shows none.
    """
    detail = _average_theorem(mixture, dom)
    if detail:
        return detail
    n, forms = dom.n, mixture.forms
    low, high = _ends(dom.domain)
    # Weights as integers over their common denominator wden. A vector's y_i
    # is low below its count of low ends and high from index n + 1 - (its
    # count of high ends) on, k for a rank k: the high mass is a running sum.
    wden = math.lcm(mixture.continuous_weight.denominator, *(w.denominator for _, w in forms))
    average, shares, rises, inside = 0, [0] * n, [0] * (n + 1), [[] for _ in range(n)]
    for mech, weight in forms:
        u = weight.numerator * (wden // weight.denominator)
        if isinstance(mech, Average):
            average += u
        elif isinstance(mech, Dictator):
            shares[mech.agent - 1] += u
        elif isinstance(mech, RankK):
            rises[mech.k] += u
        elif mech.phantoms[0] != low or mech.phantoms[-1] != high:
            return None
        else:
            ys = mech.phantoms
            lows, highs = ys.count(low), ys.count(high)
            rises[n + 1 - highs] += u
            for i in range(lows, n + 1 - highs):
                inside[i].append((u, ys[i]))
    high_mass = list(accumulate(rises))
    family = mixture.continuous_weight.numerator * (wden // mixture.continuous_weight.denominator)

    def misses(i, dictators):
        """Whether a group of n - i agents misses the rule, the agents
        outside it holding ``dictators`` of dictator weight."""
        mass = high_mass[i] + dictators
        if ends_only:
            return n * (mass + sum(u * y for u, y in inside[i])) + family * i != (wden - average) * i
        return family or inside[i] or n * mass != (wden - average) * i

    j, d = last_labelled(shares), shares[-1]
    i = next((i for i in range(1, n if j is None else n - j) if misses(i, i * d)), None)
    if i is not None:
        pattern = (0,) * (n - i) + (1,) * i
    elif j is not None:
        i, pattern = 1, (0,) * j + (1,) + (0,) * (n - 1 - j)
    elif ends_only:
        return "the integral of P(facility > t) at each group's bound: every 0/1 profile"
    else:
        return "the slope P(facility > t) at each group's bound throughout the domain: every real pair"
    if not family and not any(inside):
        return partial(_first_pair, mixture, dom, pattern, ends_only)
    steps = [low, high] if ends_only else [low, *sorted({y for _, y in inside[i]}), high]
    return partial(_off_grid, mixture, dom, pattern, steps)


def _first_pair(mixture, dom: CheckDomain, pattern, ends_only: bool, grid):
    """(status, witness, detail) of a slope-rule FAIL of ranks, dictators
    and averages: the pattern on the grid's first pair ((0, 1) for
    proportionality), the sweep's first witness (see :func:`_slope_theorem`),
    priced exactly on that one profile. ``grid`` is never swept."""
    low, high = _two_valued_values(dom.points(), ends_only)[:2]
    profile = tuple(high if bit else low for bit in pattern)
    return _exact(mixture, dom, [profile], _group_violation)


def _off_grid(mixture, dom: CheckDomain, pattern, steps, grid):
    """(status, witness, detail) of a slope-rule FAIL: the grid's first
    witness, ``grid()``, or where the grid shows none, the first two-valued
    profile, the pattern's zeros at a step's left end and its ones at left +
    j (right - left)/n for j = n..1, steps in order, where a group exceeds
    its bound, priced exactly. On a step where H_S - (1 - a)(n - s)/n is
    not 0, its integral from the left end is a nonzero polynomial of degree
    at most n, 0 there, so one of those n points shows the violation. A
    step unbounded on the real line is taken one unit past its finite end
    ((0, 1) if it has none)."""
    found = grid()
    if found[0] != PASS:
        return found
    n = dom.n
    profiles = []
    for left, right in zip(steps, steps[1:]):
        if isinstance(left, Infinite):
            left = ZERO if isinstance(right, Infinite) else right - 1
        if isinstance(right, Infinite):
            right = left + 1
        profiles += [tuple(left + (right - left) * j / n if bit else left for bit in pattern) for j in range(n, 0, -1)]
    return _exact(mixture, dom, profiles, _group_violation)


def _group_first(components, dom: CheckDomain, combine: bool, profiles, violation):
    """(component index, witness, "") of the first violation of a group
    axiom, or None. :class:`proploc.sweep.GroupSweep` sweeps
    ``profiles(scaled, combine)`` and finds the first failing (component,
    profile) by :func:`proploc.sweep.spf_fails`; only that row goes to
    ``violation(X, price, wden)``, with the engine's prices at the cost
    scale wden * n * D, for the first witness."""
    scaled = Scaled(components, dom.n, dom.domain, dom.grid)
    hit = GroupSweep(scaled, profiles(scaled, combine), combine).first_violation()
    if hit is None:
        return None
    X, prices = hit[1]
    agent, group, cost, bound = violation(X, prices.__getitem__, scaled.wden)
    return hit[0], _witness(scaled, X, cost, bound, agent=agent, group=group), ""


def _two_valued_values(points, ends_only: bool):
    """The values two-valued profiles take: the grid's ends (proportionality,
    where they are 0 and 1) or every grid point (Strong Proportionality)."""
    return (points[0], points[-1]) if ends_only else points


def _two_valued_grid(scaled: Scaled, combine: bool, ends_only: bool):
    """The engine's two-valued profiles, in check order."""
    values = _two_valued_values(scaled.grid_ints, ends_only)
    return two_valued_profiles(values, scaled.n, scaled.anonymous(combine))


def _two_valued_exact(mixture, dom: CheckDomain, ends_only: bool):
    """The exact path over the engine's profiles, in the same order."""
    values = _two_valued_values(dom.points(), ends_only)
    anonymous = label_free(mixture.forms, dom.n, True)
    return _exact(mixture, dom, two_valued_profiles(values, dom.n, anonymous), _group_violation)


def _group_violation(X, price, scale):
    """(agent, group, cost, bound) of the first co-located group on the
    two-valued profile X, the low group before the high one, whose price
    exceeds scale * (n - s) * gap for its size s, or None. A group's
    members share one location and so one price: the first member names
    it. Both paths call it, the engine at scale wden and the exact path at
    1/n; on a profile that :func:`proploc.sweep.spf_fails` fails it names
    the slot that rule marks first."""
    n = len(X)
    gap = max(X) - min(X)
    for side in sorted(set(X)):
        group = tuple(i + 1 for i, x in enumerate(X) if x == side)
        bound = scale * (n - len(group)) * gap
        if price(side) > bound:
            return group[0], group, price(side), bound
    return None


def check_proportionality(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """On endpoint profiles, each co-located group of size s sits within
    (n-s)/n of the facility (in expectation for the exp variant).

    This is the Strong Proportionality check (see
    :func:`check_strong_proportionality`) over the single pair (0, 1).
    """
    if dom.domain != UNIT_INTERVAL:
        raise DomainMismatchError("proportionality is an endpoint axiom on [0,1]")
    return _decide(PROPORTIONALITY, mechanism, dom, variant)


def check_strong_proportionality(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """On every two-valued profile, each co-located group of size s sits
    within (n-s)/n of the gap (equivalently: the facility lands on the
    group-weighted average).

    The profiles are those of :func:`proploc.sweep.two_valued_profiles`
    over the grid, decided by SPF's block rule
    (:func:`proploc.sweep.spf_fails`), the low group before the high one
    (:func:`_group_violation`). A det or exp check of unanimous parts is
    decided for every real pair by :func:`_slope_theorem`. A FAIL of ranks,
    dictators and averages names its first grid witness; any other FAIL is
    swept for it.
    """
    return _decide(STRONG_PROPORTIONALITY, mechanism, dom, variant)


def _spf_violation(X, price, scale):
    """(agent, group, cost, bound) of the first SPF violation on profile X.

    The instances are every subset S of the agents, by size and then
    lexicographically, each member in order. A member at x violates when
    price(x) > scale * ((n - |S|) * R + n * r), for the profile's range R
    and the subset's inner range r. Both paths call it only on a profile
    that :func:`proploc.sweep.spf_fails` fails, for the first witness.
    """
    n = len(X)
    spread = max(X) - min(X)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            values = [X[j] for j in subset]
            bound = scale * ((n - size) * spread + n * (max(values) - min(values)))
            for j in subset:
                if price(X[j]) > bound:
                    return j + 1, tuple(j + 1 for j in subset), price(X[j]), bound


def _spf_exact_violation(locations, price, scale):
    """The exact path's SPF violation on one profile, or None: the engine's
    rule, :func:`proploc.sweep.spf_fails`, on the sorted profile and each
    price / scale as integers over one denominator, then the subset walk."""
    true = sorted(locations)
    values = true + [price(x) / scale for x in true]
    den = math.lcm(*(v.denominator for v in values))
    true, cost = np.array([v.numerator * (den // v.denominator) for v in values], dtype=object).reshape(2, 1, -1)
    if spf_fails(true, cost, 1).any():
        return _spf_violation(locations, price, scale)
    return None


def _spf_exact(mixture, dom: CheckDomain):
    """The exact path of SPF over every grid profile, in the engine's order."""
    profiles = grid_profiles(dom.points(), dom.n, label_free(mixture.forms, dom.n, True))
    return _exact(mixture, dom, profiles, _spf_exact_violation)


def check_spf(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """Every subset S of agents with inner range r, on a profile of range
    R, keeps each member within R(n-|S|)/n + r (the Proportional Fairness of
    Aziz, Lam, Lee and Walsh, WINE 2022).

    Each profile of :func:`proploc.sweep.sweep_profiles` is decided by the
    O(n) window rule of :func:`proploc.sweep.spf_fails`; only the first
    failing profile walks its subsets for the witness
    (:func:`_spf_violation`). A continuous family takes the exact path, on
    the same rule.
    """
    return _decide(SPF, mechanism, dom, variant)


# ---------------------------------------------------------------------------
# Dispatch and witness re-verification
# ---------------------------------------------------------------------------

# Each axiom's hooks for _decide, declared once: (sweep, rule, exact, covered).
_HOOKS = {
    ANONYMITY: (_anonymity_first, None, _anonymity_exact, {
        _FAMILY: "each phantom realisation a generalized median: every profile, every relabelling"}),
    STRATEGYPROOFNESS: (_sp_first, _sp_theorem, _sp_exact, {
        _FAMILY: "each phantom realisation a generalized median: every profile, every real misreport"}),
    EFFICIENCY: (_efficiency_first, None, None, {
        _FAMILY: "each phantom realisation a generalized median, phantoms at 0 and 1: every profile"}),
    PROPORTIONALITY: (
        partial(_group_first, profiles=partial(_two_valued_grid, ends_only=True), violation=_group_violation),
        partial(_slope_theorem, ends_only=True), partial(_two_valued_exact, ends_only=True), _AVERAGE),
    STRONG_PROPORTIONALITY: (
        partial(_group_first, profiles=partial(_two_valued_grid, ends_only=False), violation=_group_violation),
        partial(_slope_theorem, ends_only=False), partial(_two_valued_exact, ends_only=False), _AVERAGE),
    SPF: (partial(_group_first, profiles=sweep_profiles, violation=_spf_violation), _average_theorem, _spf_exact,
          _AVERAGE),
}
AXIOMS = tuple(_HOOKS)

_CHECKERS = {
    ANONYMITY: check_anonymity,
    STRATEGYPROOFNESS: check_strategyproofness,
    EFFICIENCY: check_efficiency,
    PROPORTIONALITY: check_proportionality,
    STRONG_PROPORTIONALITY: check_strong_proportionality,
    SPF: check_spf,
}


def run_check(axiom: str, mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    if axiom not in _CHECKERS:
        raise MechanismError(f"unknown axiom {axiom!r}")
    return _CHECKERS[axiom](mechanism, dom, variant)


def recheck_witness(mechanism, verdict: AxiomVerdict) -> bool:
    """Recompute a failure witness with plain rational arithmetic.

    Returns True when the stored quantities reproduce exactly and the
    violation still holds; this is an independent path from the scaled
    integer engine that produced the witness. A group axiom's bound is
    recomputed from the profile and the group, never read from the witness.
    """
    witness = verdict.witness
    if witness is None:
        raise MechanismError("verdict carries no witness")
    profile = witness.as_profile()
    n = profile.n
    target = mechanism
    if witness.component is not None:
        target = build_mechanism(witness.component, n, witness.domain)
    if verdict.axiom == EFFICIENCY:
        # The bound is the end of the reported range the output leaves.
        out = evaluate(target, profile)
        low = min(profile.locations)
        high = max(profile.locations)
        return out == witness.lhs and (out < low and witness.bound == low or out > high and witness.bound == high)
    mixture = as_mixture(target, n, witness.domain)
    if verdict.axiom == ANONYMITY:
        base = analysis.expected_facility_location(mixture, profile)
        permuted = Profile(witness.domain, tuple(profile.locations[p - 1] for p in witness.permutation))
        other = analysis.expected_facility_location(mixture, permuted)
        return other == witness.lhs and base == witness.bound and other != base
    if verdict.axiom == STRATEGYPROOFNESS:
        agent = witness.agent
        truth = profile.locations[agent - 1]
        truthful = analysis.expected_distance_to_point(mixture, profile, truth)
        deviating = analysis.expected_distance_to_point(
            mixture, profile.replace(agent, witness.misreport), truth
        )
        return (
            deviating == witness.lhs
            and truthful == witness.bound
            and deviating < truthful
        )
    if verdict.axiom in (PROPORTIONALITY, STRONG_PROPORTIONALITY, SPF):
        # The bound is recomputed from the profile, as integers X over one
        # denominator, and the group: distinct agents in order, the
        # witness's agent among them.
        agent, group = witness.agent, witness.group
        if not group or agent not in group or not all(a < b for a, b in zip((0, *group), (*group, n + 1))):
            return False
        den = math.lcm(*(x.denominator for x in profile.locations))
        X = [x.numerator * (den // x.denominator) for x in profile.locations]
        low, high = min(X), max(X)
        if verdict.axiom == SPF:
            inner = [X[j - 1] for j in group]
            numerator = (n - len(group)) * (high - low) + n * (max(inner) - min(inner))
        else:
            # A two-valued profile (values 0 and 1 for proportionality), and
            # the group every agent at the witness agent's location.
            ends = (0, den) if verdict.axiom == PROPORTIONALITY else (low, high)
            if not all(x == ends[0] or x == ends[1] for x in X):
                return False
            if group != tuple(j + 1 for j, x in enumerate(X) if x == X[agent - 1]):
                return False
            numerator = (n - len(group)) * (high - low)
        bound = Fraction(numerator, n * den)
        lhs = analysis.expected_distance_to_point(mixture, profile, profile.locations[agent - 1])
        return lhs == witness.lhs and bound == witness.bound and lhs > bound
    raise MechanismError(f"unknown axiom {verdict.axiom!r}")
