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
  anonymity, ex-post efficiency and fairness). A uniform phantom family's
  realisations are generalized medians with phantoms at 0 and 1, so they
  meet strategyproofness, anonymity and efficiency by theorem, at every
  profile; the group axioms sweep its one realisation that fails them all,
  every interior phantom at 0.

A mixture with a continuous family in expectation follows its axiom's rule.
Strategyproofness passes outright when every finite component is
phantom-class: each realisation is then a generalized median (Moulin 1980),
strategyproof at every profile and for every real misreport, so the PASS
covers the whole domain (other mixtures are an error). Anonymity lets the
finite dictators decide, the i.i.d. family ignoring agent labels.
Proportionality, Strong Proportionality and SPF are priced through the exact
closed forms in :mod:`proploc.analysis`. Efficiency has no in-expectation
variant.

Internally, finite mixtures are rescaled to a common integer denominator
(:class:`_Scaled`); witnesses are reconstructed as exact rationals.
Strategyproofness and manipulation search run on the block engine of
:mod:`proploc.sweep`. It relies on every rank, phantom and
dictator part being a generalized median: with the other reports fixed,
an agent's report r moves the part's output as clip(r, lo, hi), and the
average's cost is linear in r. So an agent's expected cost is piecewise
linear in its own report, and the sweep tries only the breakpoints (the
window ends, the reports, the finite phantoms and the average's balance
report, plus one step beyond each end on the real line). A strategyproofness
PASS therefore covers every real misreport, not only the grid, and a
witness misreport lies on a breakpoint.

Proportionality and Strong Proportionality run on the same engine's
two-valued sweep: every profile low + pattern * (high - low) for grid pairs
low < high (only the pair 0, 1 for proportionality) and 0/1 patterns, each
agent priced against (n - s)/n of the gap for its group of size s, the low
group's members before the high group's.

Efficiency and anonymity sweep no profile: they are read off the
mechanism's form, in closed forms that return the first failure of a
sweep in its order. Only a phantom part can leave the reported range, so
its two ends decide efficiency (see :func:`_efficiency_first`); a
real-line phantom vector with a finite end that the grid does not expose
fails at a unanimous profile just beyond that end. Only a dictator reads
agent labels, so the dictator weights decide anonymity (see
:func:`_anonymity_first`).

SPF stays in pure Python. An agent's cost depends only on its own
location, so each profile prices each distinct location once, and a window
test over the sorted reports decides the profile in O(n^2) windows rather
than 2^n subsets (see :func:`_spf_violation`). Only a failing profile
walks its subsets, in order, for the first witness. The exact path for a
continuous family runs the same rule on prices from :mod:`proploc.analysis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import combinations

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
    Median,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
    ZERO,
    as_mixture,
    evaluate,
    format_point,
    grid_points,
    mechanism_is_anonymous,
    mechanism_is_phantom_class,
    to_phantom_form,
)
from .mechanisms import build_mechanism, format_mechanism
from .sweep import GroupSweep, SpSweep, grid_profiles, two_valued_profiles

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

DET = "det"
EXP = "exp"
UNIVERSAL = "universal"
VARIANTS = (DET, EXP, UNIVERSAL)

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


# ---------------------------------------------------------------------------
# Integer-rescaled mixture engine
# ---------------------------------------------------------------------------


class _Scaled:
    """A finite mixture and check grid rescaled to integer arithmetic.

    Every grid point, finite phantom and breakpoint candidate (a report,
    a phantom, a window end or step beyond it, the average's balance
    report n * true - sum of the others) is an integer over the common
    denominator D, so no midpoints are needed. Costs carry the fixed scale
    wden * n * D: a part of weight u adds u * n * |true - output|, the
    average adds u * |n * true - sum of reports|. Each part is tagged for
    the block sweeps of :mod:`proploc.sweep`: ("ph", number of -inf
    phantoms, finite phantoms, u), a rank k being ("ph", k, (), u),
    ("dict", agent index, u) or ("avg", None, u). Parts whose output would
    be non-finite are rejected here, before any profile is swept.

    The strategyproofness, manipulation and group sweeps read the parts
    as arrays; SPF prices one profile at a time through :meth:`pricer`.
    """

    def __init__(self, components, n: int, domain: str, grid: int):
        self.n = n
        self.domain = domain
        components = _checked(components, n, domain)
        denoms = [grid if domain == UNIT_INTERVAL else 1]
        for mech, _ in components:
            if isinstance(mech, Phantom):
                denoms.extend(y.denominator for y in mech.phantoms if not isinstance(y, Infinite))
        self.D = D = math.lcm(*denoms)
        self.wden = wden = math.lcm(*(weight.denominator for _, weight in components))
        self.cost_scale = wden * n * D

        parts = []
        phantom_values: set[int] = set()
        self.has_avg = False
        for mech, weight in components:
            # D and wden are common multiples of the denominators, so the
            # integer divisions below are exact.
            u = weight.numerator * (wden // weight.denominator)
            if isinstance(mech, RankK):
                parts.append(("ph", mech.k, (), u))
            elif isinstance(mech, Phantom):
                fins = tuple(y.numerator * (D // y.denominator)
                             for y in mech.phantoms if not isinstance(y, Infinite))
                phantom_values.update(fins)
                parts.append(("ph", sum(1 for y in mech.phantoms if y is NEG_INF), fins, u))
            elif isinstance(mech, Dictator):
                parts.append(("dict", mech.agent - 1, u))
            else:
                self.has_avg = True
                parts.append(("avg", None, u))
        self.parts = tuple(parts)
        self.anonymous = all(mechanism_is_anonymous(mech) for mech, _ in components)
        self.phantom_values = tuple(sorted(phantom_values))
        # grid_points(domain, grid) over D, without building the Fractions.
        if domain == UNIT_INTERVAL:
            self.grid_ints = tuple(j * (self.D // grid) for j in range(grid + 1))
        else:
            self.grid_ints = tuple(v * self.D for v in range(-grid, grid + 1))

    def to_frac(self, value: int) -> Fraction:
        return Fraction(value, self.D)

    def cost_frac(self, scaled_cost: int) -> Fraction:
        return Fraction(scaled_cost, self.cost_scale)

    def witness(self, X, **fields) -> Witness:
        return Witness(tuple(self.to_frac(v) for v in X), self.domain, **fields)

    def pricer(self, x_list, xs_sorted):
        """true -> the cost of an agent at ``true`` on one profile, at the
        scale wden * n * D, the parts' outputs computed once: a part of
        weight u adds u * |n * true - c|, where c is n times its output (a
        phantom part's output is the (n - neg)-th, from 0, of the sorted
        reports and its finite phantoms), or the sum of the reports for
        the average."""
        n, terms = self.n, []
        for part in self.parts:
            if part[0] == "ph":
                c = n * sorted([*xs_sorted, *part[2]])[n - part[1]]
            elif part[0] == "dict":
                c = n * x_list[part[1]]
            else:
                c = sum(x_list)
            terms.append((part[-1], c))
        return lambda true: sum(u * abs(n * true - c) for u, c in terms)

    def profiles(self):
        return grid_profiles(self.grid_ints, self.n, self.anonymous)


def _checked(components, n: int, domain: str):
    """The (mechanism, weight) pairs with medians in phantom form, or the
    error :class:`_Scaled` raises for them: the phantom forms' errors first,
    then that of the first component the engine rejects."""
    checked = []
    for mech, weight in components:
        weight = Fraction(weight)
        if isinstance(mech, (Median, UniformPhantom)):
            mech = to_phantom_form(mech, n, domain)
        checked.append((mech, weight))
    for mech, _ in checked:
        if isinstance(mech, RankK) and mech.k > n:
            raise MechanismError(f"rank {mech.k} out of range for n={n}")
        if isinstance(mech, Phantom):
            if mech.n != n:
                raise MechanismError("phantom vector length does not match n")
            neg = sum(1 for y in mech.phantoms if y is NEG_INF)
            pos = sum(1 for y in mech.phantoms if y is POS_INF)
            if domain == UNIT_INTERVAL and not ZERO <= mech.phantoms[0] <= mech.phantoms[-1] <= ONE:
                raise DomainMismatchError("unit-interval profiles need finite phantoms in [0,1]")
            if neg == n + 1 or pos == n + 1:
                raise MechanismError("median of reports and phantoms is not finite")
        if isinstance(mech, Dictator) and mech.agent > n:
            raise MechanismError(f"dictator {mech.agent} out of range for n={n}")
        if not isinstance(mech, (RankK, Phantom, Dictator, Average)):
            raise MechanismError(f"cannot rescale {type(mech).__name__}")
    return checked


def _first_failing_component(mechs, dom: CheckDomain, sweep):
    """``sweep(mechs)``: the first (component index, ...) that fails, or
    None. A component the engine rejects raises only when no earlier
    component fails, as a component-by-component sweep would meet it.
    """
    try:
        return sweep(mechs)
    except MechanismError:
        for index, mech in enumerate(mechs):
            try:
                _checked(((mech, ONE),), dom.n, dom.domain)
            except MechanismError:
                found = sweep(mechs[:index]) if index else None
                if found is None:
                    raise
                return found
        raise


def _components_of(mechanism, n: int, domain: str):
    """Finite components plus the continuous family, if any."""
    mixture = as_mixture(mechanism, n, domain)
    if mixture.domain != domain:
        raise DomainMismatchError(
            f"mechanism domain {mixture.domain} vs check domain {domain}"
        )
    if mixture.n != n:
        raise MechanismError(f"mechanism built for n={mixture.n}, check needs n={n}")
    return mixture


def _decide(axiom, mechanism, dom: CheckDomain, variant, first, continuous=None, family=None):
    """Decide ``axiom`` in ``variant``: the one place the variants are
    defined (see the module docstring).

    ``first(components, dom, combine)`` is the axiom's sweep over
    (mechanism, weight) pairs: (component index, witness, failure detail) of
    the first violation, or None. With ``combine`` the components form one
    mixture (det and exp); without it each is checked alone (universal),
    and the verdict names the failing component. ``continuous(mixture)`` is
    the axiom's in-expectation rule for a mixture with a continuous family,
    as (status, witness, detail); an axiom without one has no exp variant.
    ``family`` notes an axiom every realisation of a uniform phantom family
    meets by theorem. Without it (the group axioms) the family enters a
    universal check as its realisation with every interior phantom at 0. That
    one outputs the lowest report, so on the profile with one agent at 1 and
    the rest at 0 the lone agent pays 1 > (n - 1)/n: it fails at every n and
    grid, as do, by continuity, the realisations with interior phantoms in
    (0, eps), so the FAIL does not rest on a null set.
    """
    mixture = _components_of(mechanism, dom.n, dom.domain)
    if variant == DET and isinstance(mechanism, RandomizedMechanism):
        raise MechanismError("deterministic variant needs a deterministic mechanism")
    if variant == UNIVERSAL:
        mechs = [mech for mech, _ in mixture.components]
        if mixture.has_continuous:
            if not mixture.continuous.is_uniform:
                raise MechanismError("expand discrete phantom families before checking")
            if family is None:
                mechs.append(Phantom((ZERO,) * dom.n + (ONE,)))
        sweep = lambda run: first([(mech, ONE) for mech in run], dom, False)
        found = _first_failing_component(mechs, dom, sweep) if mechs else None
        if found is None:
            return AxiomVerdict(axiom, variant, PASS, None, family if mixture.has_continuous else "")
        index, witness, failure = found
        return AxiomVerdict(axiom, variant, FAIL, replace(witness, component=format_mechanism(mechs[index])), failure)
    if variant not in ((DET, EXP) if continuous else (DET,)):
        if continuous is None:
            raise MechanismError(f"{axiom} has deterministic and universal variants only")
        raise MechanismError(f"unknown variant {variant!r}")
    if mixture.has_continuous:
        return AxiomVerdict(axiom, variant, *continuous(mixture))
    found = first(mixture.components, dom, True)
    if found is None:
        return AxiomVerdict(axiom, variant, PASS)
    return AxiomVerdict(axiom, variant, FAIL, *found[1:])


# ---------------------------------------------------------------------------
# Strategyproofness
# ---------------------------------------------------------------------------


def _sp_first(components, dom: CheckDomain, combine: bool):
    """(component index, witness, "") of the first profitable misreport, or None."""
    scaled = _Scaled(components, dom.n, dom.domain, dom.grid)
    hit = SpSweep(scaled, combine).first_violation()
    if hit is None:
        return None
    X, i, report, deviating, truthful = hit[1]
    return hit[0], scaled.witness(
        X,
        agent=i + 1,
        misreport=scaled.to_frac(report),
        lhs=scaled.cost_frac(deviating),
        bound=scaled.cost_frac(truthful),
    ), ""


def check_strategyproofness(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """No agent can cut its (expected) distance by misreporting.

    Every profile on the check grid is swept, and the misreports cover the
    whole line, not only the grid: an agent's expected cost is piecewise
    linear in its own report, with kinks only at the other reports, the
    finite phantoms, its true point and the report balancing the average.
    So the sweep tries exactly those breakpoints plus the window ends (and
    one step beyond each end on the real line), and a witness misreport
    lies on a breakpoint.
    """

    def continuous(mixture):
        if not all(mechanism_is_phantom_class(mech) for mech, _ in mixture.components):
            raise MechanismError(
                "in-expectation strategyproofness is undecided for continuous "
                "families mixed with non-phantom components"
            )
        _checked(mixture.components, dom.n, dom.domain)
        return PASS, None, "every component a generalized median: every profile, every real misreport"

    return _decide(STRATEGYPROOFNESS, mechanism, dom, variant, _sp_first, continuous,
                   family="each phantom realisation a generalized median: every profile, every real misreport")


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
    misreport exists.
    """
    mixture = _components_of(mechanism, dom.n, dom.domain)
    if mixture.has_continuous:
        # Strategyproof in expectation, or an error for a non-phantom part.
        check_strategyproofness(mixture, dom, EXP)
        return None
    scaled = _Scaled(mixture.components, dom.n, dom.domain, dom.grid)
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

    Only dictators read labels: swapping agents j and j + 1 (from 0) moves
    the output by (w_j - w_{j+1}) * (x_{j+1} - x_j), for w_j the weight of
    agent j's dictator. So the first failing profile, in lexicographic
    order, has every agent at the lowest grid point but agent j + 1, at the
    next one, for the largest j with w_j != w_{j+1}, and its first moving
    swap is that of j. A rejected component of any kind raises as in the
    other checks. The witness's expected locations come from the closed
    forms of :mod:`proploc.analysis`, the path :func:`recheck_witness`
    takes: of the failing component, or with ``combine`` of ``mixture``
    (by default the weighted components themselves)."""
    n = dom.n
    checked = _checked(components, n, dom.domain)
    for index, group in enumerate([checked] if combine else [[part] for part in checked]):
        weights = [ZERO] * n
        for mech, weight in group:
            if isinstance(mech, Dictator):
                weights[mech.agent - 1] += weight
        moving = [j for j in range(n - 1) if weights[j] != weights[j + 1]]
        if moving:
            break
    else:
        return None
    j = moving[-1]
    perm = (*range(j), j + 1, j, *range(j + 2, n))
    low, second = dom.points()[:2]
    profile = (low,) * (j + 1) + (second,) + (low,) * (n - j - 2)
    if not combine:
        mixture = components[index][0]
    elif mixture is None:
        mixture = RandomizedMechanism(n, dom.domain, tuple(components))
    lhs, bound = (
        analysis.expected_facility_location(mixture, Profile(dom.domain, tuple(profile[p] for p in order)))
        for order in (perm, range(n))
    )
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
        found = _anonymity_first(mixture.components, dom, True, mixture=mixture)
        return (PASS, None, "") if found is None else (FAIL, found[1], "")

    return _decide(ANONYMITY, mechanism, dom, variant, _anonymity_first, continuous,
                   family="each phantom realisation a generalized median: every profile, every relabelling")


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
    for index, (mech, _) in enumerate(_checked(components, dom.n, dom.domain)):
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
    return _decide(EFFICIENCY, mechanism, dom, variant, _efficiency_first,
                   family="each phantom realisation a generalized median, phantoms at 0 and 1: every profile")


# ---------------------------------------------------------------------------
# Group fairness: proportionality family
# ---------------------------------------------------------------------------


def _exact(mixture, dom: CheckDomain, profiles, violation):
    """The group axioms' in-expectation rule for a continuous family: the
    first ``violation(locations, price)`` over ``profiles(anonymous)``, as
    (agent, group, lhs, bound), where ``price(x)`` is the expected distance
    of an agent at location x, every agent priced in one call to the exact
    closed forms of :mod:`proploc.analysis`. The family is anonymous, so the
    finite components decide ``anonymous``.
    """
    anonymous = all(mechanism_is_anonymous(mech) for mech, _ in mixture.components)
    for locations in profiles(anonymous):
        distances = analysis.expected_agent_distances(mixture, Profile(dom.domain, locations))
        found = violation(locations, dict(zip(locations, distances)).__getitem__)
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


def _two_valued_values(points, ends_only: bool):
    """The values two-valued profiles take: the grid's ends (proportionality,
    where they are 0 and 1) or every grid point (Strong Proportionality)."""
    return (points[0], points[-1]) if ends_only else points


def _two_valued_exact(mixture, dom: CheckDomain, ends_only: bool):
    """The exact path, in the block sweep's order: each profile's low group,
    then its high group, each member in order."""
    n = dom.n
    values = _two_valued_values(dom.points(), ends_only)

    def violation(locations, price):
        gap = max(locations) - min(locations)
        for side in sorted(set(locations)):
            group = tuple(i + 1 for i, x in enumerate(locations) if x == side)
            bound = Fraction(n - len(group), n) * gap
            for agent in group:
                lhs = price(locations[agent - 1])
                if lhs > bound:
                    return agent, group, lhs, bound
        return None

    return _exact(mixture, dom, partial(two_valued_profiles, values, n), violation)


def _two_valued_first(components, dom: CheckDomain, combine: bool, ends_only: bool):
    """(component index, witness, "") of the first group member whose cost
    exceeds its bound on a two-valued profile, or None."""
    scaled = _Scaled(components, dom.n, dom.domain, dom.grid)
    values = _two_valued_values(scaled.grid_ints, ends_only)
    hit = GroupSweep(scaled, values, combine).first_violation()
    if hit is None:
        return None
    X, i, group, cost, bound = hit[1]
    return hit[0], scaled.witness(
        X,
        agent=i + 1,
        group=group,
        lhs=scaled.cost_frac(cost),
        bound=scaled.cost_frac(bound),
    ), ""


def check_proportionality(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """On endpoint profiles, each co-located group of size s sits within
    (n-s)/n of the facility (in expectation for the exp variant).

    This is the Strong Proportionality sweep over the single pair (0, 1):
    the 0/1 profiles in pattern order, the group at 0 before the group at 1.
    """
    if dom.domain != UNIT_INTERVAL:
        raise DomainMismatchError("proportionality is an endpoint axiom on [0,1]")
    return _decide(
        PROPORTIONALITY,
        mechanism,
        dom,
        variant,
        partial(_two_valued_first, ends_only=True),
        lambda mixture: _two_valued_exact(mixture, dom, True),
    )


def check_strong_proportionality(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """On every two-valued profile, each co-located group of size s sits
    within (n-s)/n of the gap (equivalently: the facility lands on the
    group-weighted average).

    The profiles are ``low + pattern * (high - low)`` for every grid pair
    low < high, in grid order, and every 0/1 pattern (multisets when the
    mechanism is anonymous, ordered vectors otherwise); within a profile
    the low group's members come first, then the high group's. Finite
    mixtures are swept in blocks by :class:`proploc.sweep.GroupSweep`; the
    exact path for a continuous family reads the same order.
    """
    return _decide(
        STRONG_PROPORTIONALITY,
        mechanism,
        dom,
        variant,
        partial(_two_valued_first, ends_only=False),
        lambda mixture: _two_valued_exact(mixture, dom, False),
    )


def _spf_violation(X, price, scale):
    """(agent, group, cost, bound) of the first SPF violation on profile X,
    or None.

    The instances are every subset S of the agents, by size and then
    lexicographically, each member in order. A member at x violates when
    price(x) > scale * ((n - |S|) * R + n * r), for the profile's range R
    and the subset's inner range r; ``price`` is called once per distinct
    location.

    A window test over the sorted reports xs decides the profile first:
    some member of some S violates iff, for sorted positions a <= b, the
    largest price among positions a..b exceeds
    scale * ((n - (b - a + 1)) * R + n * (xs[b] - xs[a])). Any S fits in
    the window its members span, which holds at least |S| agents;
    conversely the whole window is a subset that contains its priciest
    agent and has inner range the window's width. So O(n^2) windows stand
    in for the 2^n subsets, and only a failing profile walks its subsets,
    for the first witness.
    """
    n = len(X)
    prices = {x: price(x) for x in set(X)}
    xs = sorted(X)
    spread = xs[-1] - xs[0]
    if not _spf_window_fails(xs, [prices[x] for x in xs], scale * spread, scale * n):
        return None
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            values = [X[j] for j in subset]
            bound = scale * ((n - size) * spread + n * (max(values) - min(values)))
            for j in subset:
                if prices[X[j]] > bound:
                    return j + 1, tuple(j + 1 for j in subset), prices[X[j]], bound
    return None


def _spf_window_fails(xs, costs, unit_spread, unit_width) -> bool:
    """Whether some window a..b of the sorted reports ``xs`` has a cost above
    (n - (b - a + 1)) * unit_spread + unit_width * (xs[b] - xs[a]);
    ``costs`` are non-negative, in the order of ``xs``."""
    n = len(xs)
    slack = [(n - count) * unit_spread for count in range(n + 1)]
    edges = [unit_width * x for x in xs]
    for a in range(n):
        top, start = 0, edges[a]
        for b in range(a, n):
            if costs[b] > top:
                top = costs[b]
            if top + start > slack[b - a + 1] + edges[b]:
                return True
    return False


def _spf_first(components, dom: CheckDomain, combine: bool):
    """(component index, witness, "") of the first subset member beyond its
    SPF bound, or None: each profile priced once per location and decided by
    :func:`_spf_violation`, at the cost scale wden * n * D."""
    groups = [components] if combine else [[component] for component in components]
    for index, group in enumerate(groups):
        scaled = _Scaled(group, dom.n, dom.domain, dom.grid)
        for X in scaled.profiles():
            found = _spf_violation(X, scaled.pricer(X, sorted(X)), scaled.wden)
            if found is not None:
                agent, group, cost, bound = found
                return index, scaled.witness(
                    X,
                    agent=agent,
                    group=group,
                    lhs=scaled.cost_frac(cost),
                    bound=scaled.cost_frac(bound),
                ), ""
    return None


def check_spf(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """Every subset S of agents with inner range r, on a profile of range
    R, keeps each member within R(n-|S|)/n + r (the Proportional Fairness of
    Aziz, Lam, Lee and Walsh, WINE 2022).

    Every subset is covered: each profile is priced once per distinct
    location and decided by a window test over its sorted reports; only a
    failing profile walks its subsets, by size and then lexicographically,
    for the first witness (see :func:`_spf_violation`). Finite mixtures run
    on rescaled integers, a continuous family through the exact closed
    forms, on the same rule.
    """
    n = dom.n
    exact = partial(_spf_violation, scale=Fraction(1, n))
    return _decide(
        SPF,
        mechanism,
        dom,
        variant,
        _spf_first,
        lambda mixture: _exact(mixture, dom, partial(grid_profiles, dom.points(), n), exact),
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
    integer engine that produced the witness.
    """
    witness = verdict.witness
    if witness is None:
        raise MechanismError("verdict carries no witness")
    profile = witness.as_profile()
    n = profile.n
    target = mechanism
    if witness.component is not None:
        target = build_mechanism(witness.component, n, witness.domain)
    if verdict.axiom == ANONYMITY:
        base = analysis.expected_facility_location(
            as_mixture(target, n, witness.domain), profile
        )
        perm = witness.permutation
        permuted = Profile(
            witness.domain, tuple(profile.locations[p - 1] for p in perm)
        )
        other = analysis.expected_facility_location(
            as_mixture(target, n, witness.domain), permuted
        )
        return other == witness.lhs and base == witness.bound and other != base
    if verdict.axiom == STRATEGYPROOFNESS:
        agent = witness.agent
        truth = profile.locations[agent - 1]
        mixture = as_mixture(target, n, witness.domain)
        truthful = analysis.expected_distance_to_point(mixture, profile, truth)
        deviating = analysis.expected_distance_to_point(
            mixture, profile.replace(agent, witness.misreport), truth
        )
        return (
            deviating == witness.lhs
            and truthful == witness.bound
            and deviating < truthful
        )
    if verdict.axiom == EFFICIENCY:
        out = evaluate(target, profile)
        low = min(profile.locations)
        high = max(profile.locations)
        return out == witness.lhs and (out < low or out > high)
    if verdict.axiom in (PROPORTIONALITY, STRONG_PROPORTIONALITY, SPF):
        agent = witness.agent
        mixture = as_mixture(target, n, witness.domain)
        lhs = analysis.expected_distance_to_point(
            mixture, profile, profile.locations[agent - 1]
        )
        return lhs == witness.lhs and lhs > witness.bound
    raise MechanismError(f"unknown axiom {verdict.axiom!r}")
