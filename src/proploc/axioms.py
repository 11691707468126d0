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

Each axiom names the parts it meets by theorem, at every profile. A
universal check sweeps only the other parts: a part that never fails is
never the first to fail, so every verdict and witness is the full sweep's.
A det or exp check that a theorem or exact rule decides (below) passes
with its detail and sweeps nothing. A uniform phantom family's
realisations are generalized medians with phantoms at 0 and 1, so they
meet strategyproofness, anonymity and efficiency; the group axioms sweep
its one realisation that fails them all, every interior phantom at 0. The
``Average`` meets the three group axioms (below).

Strategyproofness, det or exp, is a theorem unless a finite part is an
``Average``: every other part (a dictator beside a continuous family too),
and every realisation of the family, is a generalized median (Moulin 1980).
It moves with an agent's report r as clip(r, lo, hi), nearest the agent's
true point at r = that point, so any lottery over such parts is
strategyproof at every profile and for every real misreport. Beside
averages of weight a, the window theorem covers a mixture whose every rank
k weighs w_k >= a/n: AverageOrRR exactly when p <= 1/2. A rank here is a
``RankK`` in the normal form of :func:`proploc.core.part_form`, which a
mixture keeps from its construction and every check reads its parts in:
the median and every phantom vector of the domain's ends are ranks there.
Fix the other reports. Each rank outputs clip(r, lo_k, hi_k) for a window
between consecutive other reports, and the n windows tile the line.
Moving the report from the true point x to r raises rank k's cost by the
length of [x, r] within its window, raises no generalized median's cost,
and cuts the average's by at most |r - x|/n, so the cost rises by at least
sum_k w_k |[x, r] within window k| - a |r - x|/n >= 0, at every profile and
for every real r (``tests/test_exact_rules.py::
test_window_theorem_matches_the_sweep`` holds it to the sweep). Other
mixtures with an ``Average``, and the finite parts of every universal
check, are swept; beside a continuous family they are an error. Otherwise
a continuous family follows its axiom's exp rule: the finite dictators
decide anonymity, and the group axioms are priced through the exact closed
forms in :mod:`proploc.analysis`; efficiency has no exp variant.

The slope rule decides Strong Proportionality and proportionality, det or
exp, on the whole domain when every part is unanimous: an ``Average``, a
dictator, the uniform family, a rank (the median and every vector of the
domain's ends among them), or a phantom vector whose outer phantoms are
the domain's ends. Any other part is swept. Put the s agents of S at low
and the rest at high. A unanimous vector with sorted
phantoms y_0..y_n outputs clip(y_{n-s}, low, high): for low < t < high,
the n - s high reports and the phantoms above t number n + 1 or more
exactly when y_{n-s} > t. So with a the averages' weight and H_S(t) =
P(facility > t) from the other parts, summing the vectors with
y_{n-s} > t, the family's P(U > t) for U its (n - s)-th uniform, and the
dictators of the agents outside S, the low group pays
a (n - s)/n gap + integral_low^high H_S and the high group
a s/n gap + (1 - a) gap - integral_low^high H_S. Both bounds hold exactly
when the integral is (1 - a)(n - s)/n gap, for every real pair exactly
when H_S is (1 - a)(n - s)/n throughout the domain: no y_{n-s} strictly
inside it (H_S steps there), no family (P(U > t) falls on (0, 1)), and the
right constant. Proportionality asks it of the pair (0, 1) alone:
sum w y_{n-s} + w_family (n - s)/n + the dictators = (1 - a)(n - s)/n.
Unanimous profiles pass at once. The rule finds the first group to miss
in the sweep's pattern order, in time linear in n for every lottery, the
dictator shares naming it (:func:`_slope_theorem`). A FAIL is still swept
for its first grid witness; where the grid has none, a point of the
failing step gives one (:func:`_off_grid`).
``tests/test_exact_rules.py`` holds both rules to the sweep, and Strong
Proportionality's to a plain loop over every step.

The ``Average`` meets SPF, proportionality and Strong Proportionality at
every real profile, for every n, on both domains. Let m be the mean of a
profile of range R. For a subset S holding agent i, with inner range r,

    |x_i - m| = |sum_j (x_i - x_j)| / n <= ((|S| - 1) r + (n - |S|) R) / n
              <= ((n - |S|) R + n r) / n,

as the other members of S lie within r of x_i and the rest within R: SPF's
bound. On a two-valued profile with s agents at low and the rest a gap
above, m = low + (n - s)/n * gap, so the low group pays exactly its bound
(n - s)/n * gap and the high group its bound s/n * gap (proportionality is
the pair 0, 1). Each bound holds for an expected distance, which is linear
in the lottery, so any mixture of parts that each meet it meets it too
(``tests/test_average_theorem.py`` checks both against exact costs).

Finite mixtures go to the engine of :mod:`proploc.sweep`, which builds
their integer rescaling (:class:`proploc.sweep.Scaled`, every part laid
out by kind) and sweeps it; witnesses come back as exact rationals through
:func:`_witness`. A strategyproofness sweep tries only the breakpoints of
an agent's piecewise linear cost (see :class:`proploc.sweep.SpSweep`), so
its PASS covers every real misreport too.

A sweep visits one profile per multiset of reports (its sorted tuple)
when the swept cost ignores agent labels, and every ordered profile
otherwise. Only a dictator reads labels, so a det or exp check sweeps
multisets exactly when every agent's summed dictator weight is equal (no
dictator at all, or Random Dictatorship's 1/n each), and a universal check,
part by part, exactly for the parts that are not dictators. Relabelling
keeps such a lottery's violations and sorting a profile moves it no later,
so the first witness is the one an ordered sweep finds (see
:func:`proploc.sweep.label_free`).

Proportionality, Strong Proportionality and SPF run on one sweep of the
same engine (:class:`proploc.sweep.GroupSweep`) and one block rule
(:func:`proploc.sweep.spf_fails`). An agent's cost depends only on its own
location, so each profile is priced once per sorted slot, and an O(n)
window rule over the sorted reports decides SPF in a constant number of
array operations rather than 2^n subsets. The two proportionality axioms
sweep the two-valued profiles low + pattern * (high - low) for grid pairs
low < high (only the pair 0, 1 for proportionality) and 0/1 patterns,
each group of size s held to (n - s)/n of the gap. That is SPF's bound for
the subset holding the whole group (inner range 0) and the tightest SPF
window holding any of its members, so on those profiles the same rule
decides them (the lemma is in :func:`proploc.sweep.spf_fails`). Only the
first failing (component, profile) leaves the engine, with its prices, and
walks its instances in check order for the first witness: the groups, low
before high (:func:`_group_violation`), or the SPF subsets
(:func:`_spf_violation`).

Efficiency and anonymity sweep no profile: they are read off the
mechanism's form, in closed forms that return the first failure of a
sweep in its order. Only a phantom part can leave the reported range, so
its two ends decide efficiency (see :func:`_efficiency_first`); a
real-line phantom vector with a finite end that the grid does not expose
fails at a unanimous profile just beyond that end. Only a dictator reads
agent labels, so the dictator weights decide anonymity (see
:func:`_anonymity_first`).

A finite mixture whose parts all commute with x -> x + t (ranks, the
median and phantom vectors of domain ends among them, dictators and
averages) keeps every cost and bound under translation, so its first
failing profile contains the grid's lowest point, and so does the first
instance of its largest manipulation gain. Three sweeps visit only those
profiles, in the full sweep's order
(:meth:`proploc.sweep.Scaled.anchored`): SPF, and Strong Proportionality's
two-valued pairs (only those whose low value is the lowest point), on both
domains, and strategyproofness and manipulation search on the real line
only. A misreport moves with its profile, and on the real line the
candidates cover every real misreport, but on [0,1] the shifted misreport
may leave the domain: 1/2 ``RankK(1)`` + 1/2 ``Average`` at n=2, grid 2
fails in expectation only off the profiles through 0, so a misreport sweep
on [0,1] visits every profile. Such a PASS covers every real translate of
a grid profile that stays in the domain. A universal check sweeps its
components stacked, over the widest enumeration any of them needs, with
each one's first failure unchanged. The exact path for a continuous family
prices the same profiles with ``Fraction`` distances from
:mod:`proploc.analysis` and walks them with the same functions at scale
1/n, SPF through the same rule over one common denominator.
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
AXIOMS = (
    ANONYMITY,
    STRATEGYPROOFNESS,
    EFFICIENCY,
    PROPORTIONALITY,
    STRONG_PROPORTIONALITY,
    SPF,
)


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


def _decide(axiom, mechanism, dom: CheckDomain, variant, first, rule=None, continuous=None, covered=None):
    """Decide ``axiom`` in ``variant``: the one place the variants are
    defined (see the module docstring).

    ``first(components, dom, combine)`` is the axiom's sweep over
    (mechanism, weight) pairs in the normal form of
    :func:`proploc.core.part_form`, which the mixture keeps from its
    construction (``forms``): (component index, witness, failure detail) of
    the first violation, or None. With ``combine`` the components form one
    mixture (det and exp); without it each is checked alone (universal), and
    the verdict names the failing component. ``rule(mixture)`` is the det
    and exp rule: the detail of a PASS on the whole domain, None when it
    cannot tell, or, for a FAIL, a function returning the verdict's
    (status, witness, detail) off the grid. A FAIL is still swept for its
    first grid witness; the function answers only when the grid shows none.
    ``covered`` maps a part's normal-form class, or ``_FAMILY``, to the
    detail of the PASS a universal check gives a part that meets the axiom
    at every profile: a universal check sweeps only the other parts.
    A universal check's uncovered family is its realisation with every
    interior phantom at 0, which outputs the lowest report (rank n): on the
    profile with one agent at 1 and the rest at 0 the lone agent pays
    1 > (n - 1)/n, so it fails every group axiom at every n and grid, as do,
    by continuity, the realisations with interior phantoms in (0, eps), and
    the FAIL does not rest on a null set. The swept parts go in stacked,
    each at weight 1. A failing part's witness names the part as given, not
    its normal form. ``continuous(mixture)`` is the in-expectation rule for
    a mixture with a continuous family, as (status, witness, detail);
    without it there is no exp variant.

    A mixture's fit (n, domain) is checked first, then the variant. A
    deterministic mechanism is wrapped as a mixture, which checks its part,
    only after that.
    """
    if isinstance(mechanism, RandomizedMechanism):
        as_mixture(mechanism, dom.n, dom.domain)
        if variant == DET:
            raise MechanismError("deterministic variant needs a deterministic mechanism")
    if variant not in ((DET, EXP, UNIVERSAL) if continuous else (DET, UNIVERSAL)):
        if continuous is None:
            raise MechanismError(f"{axiom} has deterministic and universal variants only")
        raise MechanismError(f"unknown variant {variant!r}")
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    if variant == UNIVERSAL:
        parts = [(mech, form) for (mech, _), (form, _) in zip(mixture.components, mixture.forms)]
        if mixture.has_continuous:
            parts.append((_FAMILY, RankK(dom.n)))
        covered = covered or {}
        details = [covered.get(_FAMILY if part is _FAMILY else type(form)) for part, form in parts]
        swept = [pair for pair, detail in zip(parts, details) if detail is None]
        found = first([(form, ONE) for _, form in swept], dom, False) if swept else None
        if found is None:
            return AxiomVerdict(axiom, variant, PASS, None, next(filter(None, details), ""))
        index, witness, failure = found
        part = swept[index][0]
        if part is _FAMILY:
            part = Phantom((ZERO,) * dom.n + (ONE,))
        return AxiomVerdict(axiom, variant, FAIL, replace(witness, component=format_mechanism(part)), failure)
    decided = rule(mixture) if rule else None
    if isinstance(decided, str):
        return AxiomVerdict(axiom, variant, PASS, None, decided)
    if mixture.has_continuous:
        status, witness, detail = continuous(mixture)
    else:
        found = first(mixture.forms, dom, True)
        status, witness, detail = (PASS, None, "") if found is None else (FAIL, *found[1:])
    if decided is not None and status == PASS:
        status, witness, detail = decided()
    return AxiomVerdict(axiom, variant, status, witness, detail)


def _ends(domain: str):
    """The domain's ends, which a unanimous phantom vector starts and ends with."""
    return (ZERO, ONE) if domain == UNIT_INTERVAL else (NEG_INF, POS_INF)


# ---------------------------------------------------------------------------
# Strategyproofness
# ---------------------------------------------------------------------------


def _sp_theorem(mixture):
    """The PASS detail a det or exp mixture earns by theorem (the module
    docstring has both), else None: no ``Average`` part, or every rank k (a
    ``RankK`` among its forms) weighing w_k >= a/n for the averages' weight
    a (the window theorem)."""
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


def check_strategyproofness(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """No agent can cut its (expected) distance by misreporting.

    A det or exp check with no ``Average`` part, a dictator beside a
    continuous family included, passes by theorem at every profile and for
    every real misreport (:func:`_sp_theorem`), and so does one whose ranks
    each weigh at least the averages' weight over n (the window theorem).
    Other mixtures with an ``Average``, and the finite parts of every
    universal check, are swept (see the module docstring); beside a
    continuous family such an ``Average`` is an error.
    """

    def continuous(mixture):
        raise MechanismError(_SP_UNDECIDED)

    return _decide(STRATEGYPROOFNESS, mechanism, dom, variant, _sp_first, _sp_theorem, continuous, {
        _FAMILY: "each phantom realisation a generalized median: every profile, every real misreport"})


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
    misreport exists, by theorem when no part is an ``Average`` or the
    window theorem covers the mixture (:func:`_sp_theorem`).
    """
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    if _sp_theorem(mixture) is not None:
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


def check_anonymity(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """Output (or expected output) is invariant under relabelling agents.

    Adjacent transpositions generate every permutation, so the check asks
    those, over every ordered grid profile. Only dictator parts read agent
    labels, so their weights decide it in closed form (see
    :func:`_anonymity_first`); a continuous family draws its phantoms
    i.i.d. and ignores labels, so in expectation a mixture with one is
    decided by its finite dictators.
    """

    def continuous(mixture):
        found = _anonymity_first(mixture.forms, dom, True, mixture=mixture)
        return (PASS, None, "") if found is None else (FAIL, found[1], "")

    return _decide(ANONYMITY, mechanism, dom, variant, _anonymity_first, None, continuous,
                   {_FAMILY: "each phantom realisation a generalized median: every profile, every relabelling"})


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
    return _decide(EFFICIENCY, mechanism, dom, variant, _efficiency_first, covered={
        _FAMILY: "each phantom realisation a generalized median, phantoms at 0 and 1: every profile"})


# ---------------------------------------------------------------------------
# Group fairness: proportionality family
# ---------------------------------------------------------------------------


def _exact(mixture, dom: CheckDomain, profiles, violation):
    """The group axioms' in-expectation rule for a continuous family: the
    first ``violation(locations, price, 1/n)`` over ``profiles(anonymous)``,
    as (agent, group, lhs, bound), where ``price(x)`` is the expected
    distance of an agent at location x, every agent priced in one call to
    the exact closed forms of :mod:`proploc.analysis`. The family draws its
    phantoms i.i.d. and ignores agent labels, so the finite components
    decide ``anonymous`` by the block sweeps' rule,
    :func:`proploc.sweep.label_free`: multisets when every agent's summed
    dictator weight is equal, with the same first witness.
    """
    anonymous = label_free(mixture.forms, dom.n, True)
    scale = Fraction(1, dom.n)
    for locations in profiles(anonymous):
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
# at every real profile (the module docstring has the proof).
_AVERAGE = {Average: "the average within every group's bound: every real profile"}


def _average_theorem(mixture):
    """The PASS detail of a group axiom for a det or exp mixture of
    averages alone, else None."""
    if not mixture.has_continuous and all(isinstance(mech, Average) for mech, _ in mixture.forms):
        return _AVERAGE[Average]
    return None


def _slope_theorem(dom: CheckDomain, ends_only: bool, mixture):
    """The det and exp rule of Strong Proportionality, or with
    ``ends_only`` of proportionality: :func:`_average_theorem`, then the
    slope rule of the module docstring on integers over the weights'
    common denominator, in time linear in n and the phantoms; a part that
    is not unanimous leaves the check to the sweep. A group S needs the
    weight of the vectors with y_{n-s} at the high end plus the dictators
    outside S to be (1 - a)(n - s)/n, with no y_{n-s} inside the domain
    and no family (with ``ends_only``: sum w y_{n-s}, the family's
    (n - s)/n and those dictators). The first S to miss in the sweep's
    (product) pattern order gives :func:`_off_grid`. Let j be the last
    agent whose share differs from agent n's, d (see
    :func:`proploc.sweep.last_labelled`). A pattern whose high agents all
    follow j comes before any with j high, and its agents hold d, so the
    first to miss is 0...01...1 for the least size i <= n - 1 - j with
    ``misses(i, i * d)``. If none does, the next pattern, j alone high,
    misses: one agent meets the rule for at most one dictator weight, and
    i = 1 passed with d. With no such j, i runs over 1..n - 1."""
    detail = _average_theorem(mixture)
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
    steps = [low, high] if ends_only else [low, *sorted({y for _, y in inside[i]}), high]
    return partial(_off_grid, mixture, dom, pattern, steps)


def _off_grid(mixture, dom: CheckDomain, pattern, steps):
    """(status, witness, detail) of the first two-valued profile, the
    pattern's zeros at a step's left end and its ones at left + j (right -
    left)/n for j = n..1, steps in order, where a group exceeds its bound,
    priced exactly. On a step where H_S - (1 - a)(n - s)/n is not 0, its
    integral from the left end is a nonzero polynomial of degree at most n,
    0 there, so one of those n points shows the violation. A step unbounded
    on the real line is taken one unit past its finite end ((0, 1) if it
    has none)."""
    n = dom.n
    profiles = []
    for left, right in zip(steps, steps[1:]):
        if isinstance(left, Infinite):
            left = ZERO if isinstance(right, Infinite) else right - 1
        if isinstance(right, Infinite):
            right = left + 1
        profiles += [tuple(left + (right - left) * j / n if bit else left for bit in pattern) for j in range(n, 0, -1)]
    return _exact(mixture, dom, lambda anonymous: profiles, _group_violation)


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
    return two_valued_profiles(values, scaled.n, scaled.anonymous(combine), scaled.anchored(False))


def _two_valued_exact(mixture, dom: CheckDomain, ends_only: bool):
    """The exact path over the engine's profiles, in the same order."""
    values = _two_valued_values(dom.points(), ends_only)
    return _exact(mixture, dom, partial(two_valued_profiles, values, dom.n), _group_violation)


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

    This is the Strong Proportionality sweep over the single pair (0, 1):
    the 0/1 profiles in pattern order, the group at 0 before the group at 1,
    decided by the same SPF window rule (see
    :func:`check_strong_proportionality`). A det or exp check of unanimous
    parts is decided by the integral of the slope rule instead
    (:func:`_slope_theorem`), and swept only for a FAIL's witness.
    """
    if dom.domain != UNIT_INTERVAL:
        raise DomainMismatchError("proportionality is an endpoint axiom on [0,1]")
    return _decide(
        PROPORTIONALITY,
        mechanism,
        dom,
        variant,
        partial(_group_first, profiles=partial(_two_valued_grid, ends_only=True), violation=_group_violation),
        partial(_slope_theorem, dom, True),
        lambda mixture: _two_valued_exact(mixture, dom, True),
        _AVERAGE,
    )


def check_strong_proportionality(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """On every two-valued profile, each co-located group of size s sits
    within (n-s)/n of the gap (equivalently: the facility lands on the
    group-weighted average).

    The profiles are ``low + pattern * (high - low)`` for every grid pair
    low < high, in grid order, and every 0/1 pattern: multisets when the
    checked lottery ignores agent labels (no dictator, or equal summed
    dictator weights for every agent; see :func:`proploc.sweep.label_free`),
    ordered vectors otherwise, with the same first witness. Within a profile
    the low group's members come first, then the high group's. The group
    bound is SPF's for the subset holding the whole group (inner range 0),
    and the tightest SPF window holding any of its members, so finite
    mixtures run on SPF's block rule, :func:`proploc.sweep.spf_fails` (its
    docstring has the proof), in :class:`proploc.sweep.GroupSweep`; the
    failing profile and the exact path for a continuous family read the
    groups in the same order (:func:`_group_violation`). An ``Average``
    part meets the bound by theorem and is not swept (``_AVERAGE``),
    and a det or exp check of unanimous parts is decided for every real pair
    by the slope rule (:func:`_slope_theorem`), swept only for a FAIL's
    first grid witness.
    A mixture (or, universally, every part) that commutes with translation
    sweeps only the pairs whose low value is the grid's lowest point, which
    hold its first failure (see :meth:`proploc.sweep.Scaled.anchored`).
    """
    return _decide(
        STRONG_PROPORTIONALITY,
        mechanism,
        dom,
        variant,
        partial(_group_first, profiles=partial(_two_valued_grid, ends_only=False), violation=_group_violation),
        partial(_slope_theorem, dom, False),
        lambda mixture: _two_valued_exact(mixture, dom, False),
        _AVERAGE,
    )


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


def _spf_exact(locations, price, scale):
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


def check_spf(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """Every subset S of agents with inner range r, on a profile of range
    R, keeps each member within R(n-|S|)/n + r (the Proportional Fairness of
    Aziz, Lam, Lee and Walsh, WINE 2022).

    Every subset is covered: each profile is priced once per sorted slot
    and decided by the O(n) window rule of :func:`proploc.sweep.spf_fails`,
    the block rule of all three group axioms; only the first failing
    profile walks its subsets, by size and then lexicographically, for the
    first witness (see :func:`_spf_violation`). Finite mixtures run on the
    block engine (:func:`_group_first`), a continuous family through the
    exact closed forms, on the same rule over integer prices. A
    mixture (or, universally, every component) that commutes with
    translation sweeps only the grid profiles through the grid's lowest
    point, which hold its first failure (see
    :meth:`proploc.sweep.Scaled.anchored`); its PASS then covers every real
    translate of a grid profile that stays in the domain. Other mixtures
    sweep every grid profile. Either sweep visits one profile per multiset
    when the lottery ignores agent labels (see
    :func:`proploc.sweep.label_free`). An ``Average`` part meets SPF by
    theorem and is not swept (``_AVERAGE``).
    """
    return _decide(
        SPF,
        mechanism,
        dom,
        variant,
        partial(_group_first, profiles=sweep_profiles, violation=_spf_violation),
        _average_theorem,
        lambda mixture: _exact(mixture, dom, partial(grid_profiles, dom.points(), dom.n), _spf_exact),
        _AVERAGE,
    )


# ---------------------------------------------------------------------------
# Dispatch and witness re-verification
# ---------------------------------------------------------------------------

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
