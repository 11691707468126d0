"""Exact deciders for the fairness and incentive axioms.

Each checker sweeps a finite check domain and returns a pass, or an exact
counterexample witness that re-verifies on its own. Enumeration order is
deterministic (lexicographic over components, profiles, agents, then
candidate reports), so the first failure reported is stable across runs.

Internally, finite mixtures are rescaled to a common integer denominator
(:class:`_Scaled`); witnesses are reconstructed as exact rationals.
Strategyproofness, manipulation search and anonymity run on the block
engine of :mod:`proploc.sweep`. It relies on every rank, phantom and
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
group's members before the high group's. SPF stays on the scalar loop over
its instances. Mechanisms carrying a continuous phantom family are decided
through the exact closed forms in :mod:`proploc.analysis`, instance by
instance in the sweep's order, or, for the universal variants, through a
deterministic sample of their support.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, permutations, product

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
from .sweep import GroupSweep, SpSweep, first_dictator_shift, two_valued_profiles

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
    it is the integer window {-grid, ..., grid}. ``exhaustive`` records the
    caller's intent; sub-exhaustive shortcuts actually taken (subset caps,
    continuous-support sampling) are surfaced in each verdict's detail.
    """

    n: int
    grid: int = 6
    domain: str = UNIT_INTERVAL
    exhaustive: bool = True
    spf_subset_cap: int | None = None
    support_grid: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise MechanismError("check domains need n >= 2")
        if self.grid < 1:
            raise MechanismError("grid parameter must be >= 1")
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


def _lcm(values) -> int:
    out = 1
    for v in values:
        g, x = out, v
        while x:
            g, x = x, g % x
        out = out * v // g
    return out


class _Scaled:
    """A finite mixture and check grid rescaled to integer arithmetic.

    Every grid point, finite phantom and breakpoint candidate (a report,
    a phantom, a window end or step beyond it, the average's balance
    report n * true - sum of the others) is an integer over the common
    denominator D, so no midpoints are needed. Costs carry the fixed scale
    wden * n * D: a part of weight u adds u * n * |true - output|, the
    average adds u * |n * true - sum of reports|. Each part is tagged for
    the block sweeps of :mod:`proploc.sweep`: ("rank", k, u),
    ("ph", number of -inf phantoms, finite phantoms, u), ("dict", agent
    index, u) or ("avg", None, u). Parts whose output would be non-finite
    are rejected here, before any profile is swept.
    """

    def __init__(self, components, n: int, domain: str, grid: int):
        self.n = n
        self.domain = domain
        denoms = [grid if domain == UNIT_INTERVAL else 1]
        weight_dens = []
        normalized = []
        for mech, weight in components:
            weight = Fraction(weight)
            weight_dens.append(weight.denominator)
            if isinstance(mech, (Median, UniformPhantom)):
                mech = to_phantom_form(mech, n, domain)
            if isinstance(mech, Phantom):
                for y in mech.phantoms:
                    if not isinstance(y, Infinite):
                        denoms.append(y.denominator)
            normalized.append((mech, weight))
        self.D = _lcm(denoms)
        self.wden = _lcm(weight_dens) if weight_dens else 1
        self.cost_scale = self.wden * n * self.D

        parts = []
        phantom_values: set[int] = set()
        self.has_avg = False
        anonymous = True
        for mech, weight in normalized:
            u = int(weight * self.wden)
            if not mechanism_is_anonymous(mech):
                anonymous = False
            if isinstance(mech, RankK):
                if mech.k > n:
                    raise MechanismError(f"rank {mech.k} out of range for n={n}")
                parts.append(("rank", mech.k, u))
            elif isinstance(mech, Phantom):
                if mech.n != n:
                    raise MechanismError("phantom vector length does not match n")
                neg = sum(1 for y in mech.phantoms if y is NEG_INF)
                pos = sum(1 for y in mech.phantoms if y is POS_INF)
                fins = tuple(
                    self.to_int(y) for y in mech.phantoms if not isinstance(y, Infinite)
                )
                if domain == UNIT_INTERVAL and (neg or pos):
                    raise DomainMismatchError(
                        "unit-interval checks need finite phantoms"
                    )
                if neg == n + 1 or pos == n + 1:
                    raise MechanismError("median of reports and phantoms is not finite")
                phantom_values.update(fins)
                parts.append(("ph", neg, fins, u))
            elif isinstance(mech, Dictator):
                if mech.agent > n:
                    raise MechanismError(
                        f"dictator {mech.agent} out of range for n={n}"
                    )
                parts.append(("dict", mech.agent - 1, u))
            elif isinstance(mech, Average):
                self.has_avg = True
                parts.append(("avg", None, u))
            else:
                raise MechanismError(f"cannot rescale {type(mech).__name__}")
        self.parts = tuple(parts)
        self.anonymous = anonymous
        self.phantom_values = tuple(sorted(phantom_values))
        # grid_points(domain, grid) over D, without building the Fractions.
        if domain == UNIT_INTERVAL:
            self.grid_ints = tuple(j * (self.D // grid) for j in range(grid + 1))
        else:
            self.grid_ints = tuple(v * self.D for v in range(-grid, grid + 1))

    def to_int(self, value: Fraction) -> int:
        scaled = Fraction(value) * self.D
        if scaled.denominator != 1:
            raise MechanismError(f"value {value} not on the common denominator")
        return scaled.numerator

    def to_frac(self, value: int) -> Fraction:
        return Fraction(value, self.D)

    def cost_frac(self, scaled_cost: int) -> Fraction:
        return Fraction(scaled_cost, self.cost_scale)

    def atom(self, part, x_list, xs_sorted) -> int:
        tag = part[0]
        if tag == "rank":
            return xs_sorted[self.n - part[1]]
        if tag == "ph":
            merged = sorted([*xs_sorted, *part[2]])
            return merged[self.n - part[1]]
        if tag == "dict":
            return x_list[part[1]]
        raise MechanismError("the average has no single atom")

    def cost(self, x_list, xs_sorted, true_int: int) -> int:
        total = 0
        for part in self.parts:
            u = part[-1]
            if part[0] == "avg":
                total += u * abs(self.n * true_int - sum(x_list))
            else:
                total += u * self.n * abs(true_int - self.atom(part, x_list, xs_sorted))
        return total

    def expected_loc(self, x_list, xs_sorted) -> int:
        total = 0
        for part in self.parts:
            u = part[-1]
            if part[0] == "avg":
                total += u * sum(x_list)
            else:
                total += u * self.n * self.atom(part, x_list, xs_sorted)
        return total

    def profiles(self):
        if self.anonymous:
            return combinations_with_replacement(self.grid_ints, self.n)
        return product(self.grid_ints, repeat=self.n)


def _first_failing_component(mechs, dom: CheckDomain, sweep):
    """``sweep(mechs)``: the first (component index, result) that fails,
    or None. A component the engine rejects raises only when no earlier
    component fails, as a component-by-component sweep would meet it.
    """
    try:
        return sweep(mechs)
    except MechanismError:
        for index, mech in enumerate(mechs):
            try:
                _Scaled(((mech, ONE),), dom.n, dom.domain, dom.grid)
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


def _support_sample(dom: CheckDomain):
    """Deterministic sample of a uniform family's support: all sorted
    interior phantom vectors on the support grid, endpoints pinned."""
    pts = grid_points(UNIT_INTERVAL, dom.support_grid or dom.grid)
    for interior in combinations_with_replacement(pts, dom.n - 1):
        yield Phantom((ZERO,) + interior + (ONE,))


def _universal_components(mixture: RandomizedMechanism, dom: CheckDomain):
    for mech, _ in mixture.components:
        yield mech, None
    if mixture.has_continuous:
        if not mixture.continuous.is_uniform:
            raise MechanismError("expand discrete phantom families before checking")
        note = f"support sampled on grid m={dom.support_grid or dom.grid}"
        for mech in _support_sample(dom):
            yield mech, note


def _first_failing_support(mixture: RandomizedMechanism, dom: CheckDomain, sweep):
    """The first failing support component of a universal check, as
    (mechanism, result), or None; and the coverage note of a pass.

    ``sweep`` is that of :func:`_first_failing_component`, one stacked
    engine pass. It gets the support in runs of 8, 32, 128, ... components,
    in order, so a check that fails on an early component builds only the
    first runs (a continuous family's sampled support runs to hundreds of
    components), while a pass costs about one stacked sweep: every sweep's
    blocks are capped in elements, so more components make smaller blocks.
    """
    components = _universal_components(mixture, dom)
    notes, size = set(), 8
    while run := list(islice(components, size)):
        notes.update(note for _, note in run if note)
        mechs = [mech for mech, _ in run]
        found = _first_failing_component(mechs, dom, sweep)
        if found is not None:
            return (mechs[found[0]], found[1]), ""
        size *= 4
    return None, "; ".join(sorted(notes))


def _verdict(axiom, variant, witness=None, detail="", status=None):
    if status is None:
        status = FAIL if witness is not None else PASS
    return AxiomVerdict(axiom, variant, status, witness, detail)


def _via_universal(axiom, universal: AxiomVerdict) -> AxiomVerdict:
    detail = "via universal certificate (universal implies in expectation)"
    if universal.detail:
        detail += f"; {universal.detail}"
    return _verdict(axiom, EXP, detail=detail)


# ---------------------------------------------------------------------------
# Strategyproofness
# ---------------------------------------------------------------------------


def _sp_first(components, dom: CheckDomain, combine: bool):
    """(component index, witness) of the first profitable misreport, or None."""
    scaled = _Scaled(components, dom.n, dom.domain, dom.grid)
    hit = SpSweep(scaled, combine).first_violation()
    if hit is None:
        return None
    X, i, report, deviating, truthful = hit[1]
    return hit[0], Witness(
        profile=tuple(scaled.to_frac(v) for v in X),
        domain=scaled.domain,
        agent=i + 1,
        misreport=scaled.to_frac(report),
        lhs=scaled.cost_frac(deviating),
        bound=scaled.cost_frac(truthful),
    )


def check_strategyproofness(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """No agent can cut its (expected) distance by misreporting.

    Every profile on the check grid is swept, and the misreports cover the
    whole line, not only the grid: an agent's expected cost is piecewise
    linear in its own report, with kinks only at the other reports, the
    finite phantoms, its true point and the report balancing the average.
    So the sweep tries exactly those breakpoints plus the window ends (and
    one step beyond each end on the real line), and a witness misreport
    lies on a breakpoint. The universal variant sweeps every support
    component on its own, stacked in runs of growing length.
    """
    mixture = _components_of(mechanism, dom.n, dom.domain)
    if variant == DET and isinstance(mechanism, RandomizedMechanism):
        raise MechanismError("deterministic variant needs a deterministic mechanism")
    if variant == UNIVERSAL:
        found, note = _first_failing_support(
            mixture, dom, lambda part: _sp_first([(mech, ONE) for mech in part], dom, False)
        )
        if found is None:
            return _verdict(STRATEGYPROOFNESS, variant, detail=note)
        mech, witness = found
        return _verdict(STRATEGYPROOFNESS, variant, replace(witness, component=format_mechanism(mech)))
    if variant not in (DET, EXP):
        raise MechanismError(f"unknown variant {variant!r}")
    if mixture.has_continuous:
        finite_ok = all(
            mechanism_is_phantom_class(mech) for mech, _ in mixture.components
        )
        if not finite_ok:
            raise MechanismError(
                "in-expectation strategyproofness is undecided for continuous "
                "families mixed with non-phantom components"
            )
        universal = check_strategyproofness(mechanism, dom, UNIVERSAL)
        if universal.passed:
            return _via_universal(STRATEGYPROOFNESS, universal)
        return AxiomVerdict(
            STRATEGYPROOFNESS,
            variant,
            INCONCLUSIVE,
            universal.witness,
            "universal certificate unavailable",
        )
    found = _sp_first(mixture.components, dom, True)
    return _verdict(STRATEGYPROOFNESS, variant, found and found[1])


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
        verdict = check_strategyproofness(mechanism, dom, EXP)
        if verdict.passed:
            return None
        raise MechanismError("manipulation search needs a finite mixture")
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


def _permutations_to_try(n: int, all_permutations: bool):
    if all_permutations:
        return [p for p in permutations(range(n)) if p != tuple(range(n))]
    swaps = []
    for j in range(n - 1):
        perm = list(range(n))
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
        swaps.append(tuple(perm))
    return swaps


def _anonymity_first(components, dom: CheckDomain, perms, combine: bool):
    """(component index, (profile, permutation)) of the first relabelling that
    moves the output, over ordered grid profiles, or None. With ``combine``
    the whole mixture is one component (the expected location)."""
    scaled = _Scaled(components, dom.n, dom.domain, dom.grid)
    found = first_dictator_shift(scaled, perms, combine)
    if found is None:
        return None
    index, X, perm = found
    return index, (tuple(scaled.to_frac(v) for v in X), perm)


def _anonymity_witness(mechanism, dom: CheckDomain, profile, perm, component=None) -> Witness:
    """The expected locations are computed for the witness only: through
    the rescaled mixture, or the closed forms when a continuous family is
    present."""
    mixture = as_mixture(mechanism, dom.n, dom.domain)
    permuted = tuple(profile[p] for p in perm)
    if mixture.has_continuous:
        lhs, bound = (
            analysis.expected_facility_location(mixture, Profile(dom.domain, x))
            for x in (permuted, profile)
        )
    else:
        scaled = _Scaled(mixture.components, dom.n, dom.domain, dom.grid)
        X = [scaled.to_int(x) for x in profile]
        lhs, bound = (
            Fraction(scaled.expected_loc([X[p] for p in order], sorted(X)), scaled.cost_scale)
            for order in (perm, range(dom.n))
        )
    return Witness(
        profile=profile,
        domain=dom.domain,
        permutation=tuple(p + 1 for p in perm),
        component=component,
        lhs=lhs,
        bound=bound,
    )


def check_anonymity(
    mechanism, dom: CheckDomain, variant: str = DET, all_permutations: bool = False
) -> AxiomVerdict:
    """Output (or expected output) is invariant under relabelling agents.

    Adjacent transpositions generate every permutation, so the default
    sweep checks those; ``all_permutations`` forces the full group for
    cross-validation. Only dictator parts read agent labels, so only they
    are swept.
    """
    mixture = _components_of(mechanism, dom.n, dom.domain)
    perms = _permutations_to_try(dom.n, all_permutations)
    if variant == DET and isinstance(mechanism, RandomizedMechanism):
        raise MechanismError("deterministic variant needs a deterministic mechanism")
    if variant == UNIVERSAL:
        found, note = _first_failing_support(
            mixture,
            dom,
            lambda part: _anonymity_first([(mech, ONE) for mech in part], dom, perms, False),
        )
        if found is None:
            return _verdict(ANONYMITY, variant, detail=note)
        mech, (profile, perm) = found
        witness = _anonymity_witness(mech, dom, profile, perm, format_mechanism(mech))
        return _verdict(ANONYMITY, variant, witness)
    if variant not in (DET, EXP):
        raise MechanismError(f"unknown variant {variant!r}")
    if mixture.has_continuous:
        universal = check_anonymity(mechanism, dom, UNIVERSAL, all_permutations)
        if universal.passed:
            return _via_universal(ANONYMITY, universal)
    # A continuous family is anonymous, so the finite dictators decide.
    found = _anonymity_first(mixture.components, dom, perms, True)
    if found is None:
        return _verdict(ANONYMITY, variant)
    return _verdict(ANONYMITY, variant, _anonymity_witness(mixture, dom, *found[1]))


# ---------------------------------------------------------------------------
# Efficiency
# ---------------------------------------------------------------------------


def _efficiency_violation(scaled: _Scaled):
    # single-component engine: expected_loc is the output at scale wden*n*D
    scale = scaled.wden * scaled.n
    for X in scaled.profiles():
        xs = sorted(X)
        out = scaled.expected_loc(list(X), xs)
        if out < scale * xs[0]:
            return X, out, xs[0], "below the leftmost report"
        if out > scale * xs[-1]:
            return X, out, xs[-1], "above the rightmost report"
    return None


def check_efficiency(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """Output stays within the reported range; the universal variant asks
    it of every support component (ex-post efficiency)."""
    mixture = _components_of(mechanism, dom.n, dom.domain)
    if variant == DET:
        if isinstance(mechanism, RandomizedMechanism):
            raise MechanismError("deterministic variant needs a deterministic mechanism")
        scaled = _Scaled(mixture.components, dom.n, dom.domain, dom.grid)
        violation = _efficiency_violation(scaled)
        if violation:
            X, out, bound, side = violation
            witness = Witness(
                profile=tuple(scaled.to_frac(v) for v in X),
                domain=scaled.domain,
                lhs=Fraction(out, scaled.cost_scale),
                bound=scaled.to_frac(bound),
            )
            return _verdict(EFFICIENCY, variant, witness, detail=side)
        return _verdict(EFFICIENCY, variant)
    if variant == UNIVERSAL:
        notes = set()
        for mech, note in _universal_components(mixture, dom):
            if note:
                notes.add(note)
            scaled = _Scaled(((mech, ONE),), dom.n, dom.domain, dom.grid)
            violation = _efficiency_violation(scaled)
            if violation:
                X, out, bound, side = violation
                witness = Witness(
                    profile=tuple(scaled.to_frac(v) for v in X),
                    domain=scaled.domain,
                    component=format_mechanism(mech),
                    lhs=Fraction(out, scaled.cost_scale),
                    bound=scaled.to_frac(bound),
                )
                return _verdict(EFFICIENCY, variant, witness, detail=side)
        return _verdict(EFFICIENCY, variant, detail="; ".join(sorted(notes)))
    raise MechanismError("efficiency has deterministic and universal variants only")


# ---------------------------------------------------------------------------
# Group fairness: proportionality family
# ---------------------------------------------------------------------------


def _fairness_profiles(dom: CheckDomain, points, anonymous: bool):
    if anonymous:
        return combinations_with_replacement(points, dom.n)
    return product(points, repeat=dom.n)


def _check_group_bounds(mixture, dom, variant, axiom, instances, component=None):
    """Scalar sweep: instances yield (profile, group, bound)."""
    use_exact = isinstance(mixture, RandomizedMechanism) and mixture.has_continuous
    scaled = None
    if not use_exact:
        scaled = _Scaled(mixture.components, dom.n, dom.domain, dom.grid)
    for locations, group, bound in instances:
        if use_exact:
            profile = Profile(dom.domain, locations)
            for agent in group:
                lhs = analysis.expected_distance_to_point(
                    mixture, profile, locations[agent - 1]
                )
                if lhs > bound:
                    witness = Witness(
                        profile=locations,
                        domain=dom.domain,
                        agent=agent,
                        group=group,
                        component=component,
                        lhs=lhs,
                        bound=bound,
                    )
                    return _verdict(axiom, variant, witness)
        else:
            X = [scaled.to_int(x) for x in locations]
            xs = sorted(X)
            bound_scaled = bound * scaled.cost_scale
            for agent in group:
                lhs_scaled = scaled.cost(X, xs, X[agent - 1])
                if lhs_scaled > bound_scaled:
                    witness = Witness(
                        profile=locations,
                        domain=dom.domain,
                        agent=agent,
                        group=group,
                        component=component,
                        lhs=scaled.cost_frac(lhs_scaled),
                        bound=bound,
                    )
                    return _verdict(axiom, variant, witness)
    return None


def _two_valued_values(points, ends_only: bool):
    """The values two-valued profiles take: the grid's ends (proportionality,
    where they are 0 and 1) or every grid point (Strong Proportionality)."""
    return (points[0], points[-1]) if ends_only else points


def _two_valued_instances(dom: CheckDomain, ends_only: bool, anonymous: bool):
    """(profile, group, bound) of the exact path, in the block sweep's
    order: each profile's low group, then its high group."""
    n = dom.n
    values = _two_valued_values(dom.points(), ends_only)
    for locations in two_valued_profiles(values, n, anonymous):
        gap = max(locations) - min(locations)
        for side in sorted(set(locations)):
            group = tuple(i + 1 for i, x in enumerate(locations) if x == side)
            yield locations, group, Fraction(n - len(group), n) * gap


def _two_valued_first(components, dom: CheckDomain, ends_only: bool, combine: bool):
    """(component index, witness) of the first group member whose cost
    exceeds its bound on a two-valued profile, or None."""
    scaled = _Scaled(components, dom.n, dom.domain, dom.grid)
    values = _two_valued_values(scaled.grid_ints, ends_only)
    hit = GroupSweep(scaled, values, combine).first_violation()
    if hit is None:
        return None
    X, i, group, cost, bound = hit[1]
    return hit[0], Witness(
        profile=tuple(scaled.to_frac(v) for v in X),
        domain=scaled.domain,
        agent=i + 1,
        group=group,
        lhs=scaled.cost_frac(cost),
        bound=scaled.cost_frac(bound),
    )


def _spf_instances(dom: CheckDomain, anonymous: bool, cap: int):
    n = dom.n
    points = dom.points()
    for locations in _fairness_profiles(dom, points, anonymous):
        spread = max(locations) - min(locations)
        for size in range(1, cap + 1):
            for subset in combinations(range(n), size):
                values = [locations[j] for j in subset]
                inner = max(values) - min(values)
                bound = spread * Fraction(n - size, n) + inner
                yield locations, tuple(j + 1 for j in subset), bound


def _group_axiom(mechanism, dom, variant, axiom, instance_factory=None, detail="", ends_only=False):
    """The group-bound axioms. SPF passes ``instance_factory``, whose
    instances the scalar sweep prices one by one. Without it the axiom is
    two-valued: finite mixtures run on the block sweep, and a continuous
    family in expectation on the exact path over the same instances."""
    mixture = _components_of(mechanism, dom.n, dom.domain)
    two_valued = instance_factory is None
    if two_valued:
        instance_factory = lambda anonymous: _two_valued_instances(dom, ends_only, anonymous)
    anonymous_mixture = all(
        mechanism_is_anonymous(mech) for mech, _ in mixture.components
    )
    if variant in (DET, EXP):
        if variant == DET and isinstance(mechanism, RandomizedMechanism):
            raise MechanismError("deterministic variant needs a deterministic mechanism")
        if two_valued and not mixture.has_continuous:
            found = _two_valued_first(mixture.components, dom, ends_only, True)
            return _verdict(axiom, variant, found and found[1], detail=detail)
        fail = _check_group_bounds(
            mixture, dom, variant, axiom, instance_factory(anonymous_mixture)
        )
        return fail or _verdict(axiom, variant, detail=detail)
    if variant == UNIVERSAL:
        if two_valued:
            found, note = _first_failing_support(
                mixture,
                dom,
                lambda part: _two_valued_first([(mech, ONE) for mech in part], dom, ends_only, False),
            )
            if found is None:
                return _verdict(axiom, variant, detail=note)
            mech, witness = found
            return _verdict(axiom, variant, replace(witness, component=format_mechanism(mech)))
        notes = {detail} if detail else set()
        for mech, note in _universal_components(mixture, dom):
            if note:
                notes.add(note)
            component = as_mixture(mech, dom.n, dom.domain)
            fail = _check_group_bounds(
                component,
                dom,
                variant,
                axiom,
                instance_factory(mechanism_is_anonymous(mech)),
                component=format_mechanism(mech),
            )
            if fail:
                return fail
        return _verdict(axiom, variant, detail="; ".join(sorted(notes)))
    raise MechanismError(f"unknown variant {variant!r}")


def check_proportionality(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """On endpoint profiles, each co-located group of size s sits within
    (n-s)/n of the facility (in expectation for the exp variant).

    This is the Strong Proportionality sweep over the single pair (0, 1):
    the 0/1 profiles in pattern order, the group at 0 before the group at 1,
    on the block sweep for finite mixtures and on the exact path for a
    continuous family in expectation.
    """
    if dom.domain != UNIT_INTERVAL:
        raise DomainMismatchError("proportionality is an endpoint axiom on [0,1]")
    return _group_axiom(mechanism, dom, variant, PROPORTIONALITY, ends_only=True)


def check_strong_proportionality(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """On every two-valued profile, each co-located group of size s sits
    within (n-s)/n of the gap (equivalently: the facility lands on the
    group-weighted average).

    The profiles are ``low + pattern * (high - low)`` for every grid pair
    low < high, in grid order, and every 0/1 pattern (multisets when the
    mechanism is anonymous, ordered vectors otherwise); within a profile
    the low group's members come first, then the high group's. Finite
    mixtures are swept in blocks by :class:`proploc.sweep.GroupSweep`, the
    universal variant with the support components stacked in runs; a
    continuous family in expectation is priced instance by instance through
    the exact closed forms, in the same order. (SPF keeps the scalar loop.)
    """
    return _group_axiom(mechanism, dom, variant, STRONG_PROPORTIONALITY)


def check_spf(mechanism, dom: CheckDomain, variant: str = DET) -> AxiomVerdict:
    """Every subset S of agents with inner range r, on a profile of range
    R, keeps each member within R(n-|S|)/n + r."""
    cap = dom.spf_subset_cap
    if cap is None:
        cap = dom.n if dom.n <= 5 else 5
    cap = min(cap, dom.n)
    detail = ""
    if cap < dom.n:
        detail = f"subset sizes capped at {cap} of {dom.n} (partial coverage)"
    return _group_axiom(
        mechanism,
        dom,
        variant,
        SPF,
        lambda anonymous: _spf_instances(dom, anonymous, cap),
        detail=detail,
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
