"""Closed forms, constraint solving, and impossibility certificates.

Everything here is exact rational arithmetic. A mixture's expectations
have two parts, both from :func:`proploc.core.outcome_lottery`. Its
finite components form one :class:`proploc.core.OutcomeDistribution` per
profile, which prices each point by one bisect into running sums of mass
and moment (a deterministic mechanism's one atom as |x - location|). A
uniform phantom family is priced by one cumulative integer integral of
the facility's CDF per profile, for the expected location and every
point at once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, pairwise

from .core import (
    ONE,
    UNIT_INTERVAL,
    DomainMismatchError,
    MechanismError,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    ZERO,
    format_point,
    grid_points,
    outcome_lottery,
)

# ---------------------------------------------------------------------------
# Uniform order statistics and the continuous phantom family
# ---------------------------------------------------------------------------


def order_stat_mean(count: int, index: int) -> Fraction:
    """Mean of the index-th smallest of ``count`` i.i.d. uniforms on [0,1]."""
    if not (1 <= index <= count):
        raise MechanismError(f"order statistic index {index} out of range 1..{count}")
    return Fraction(index, count + 1)


@lru_cache(maxsize=None)
def _upper_cdf_coeffs(draws: int, needed: int) -> tuple[int, ...]:
    """Polynomial (ascending coefficients) of P(at least ``needed`` of
    ``draws`` i.i.d. uniforms are <= t)."""
    if needed <= 0:
        return (1,)
    if needed > draws:
        return (0,)
    coeffs = [0] * (draws + 1)
    for r in range(needed, draws + 1):
        outer = math.comb(draws, r)
        for s in range(draws - r + 1):
            coeffs[r + s] += outer * math.comb(draws - r, s) * (-1) ** s
    return tuple(coeffs)


def _uniform_family(profile: Profile, points=()) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact E[facility], and E|x - facility| for each x in ``points``,
    under the uniform phantom family (endpoints pinned at 0 and 1, n-1
    interior uniforms).

    Between breaks (0, 1, the agents, the points) the facility's CDF F is
    P(at least n-j of the n-1 uniforms are <= t), j agents lying at or
    below the piece. With every break written as a/D, the running integral
    I(0,t) of F is an integer over lcm(1..n) * D**n, accumulated over the
    pieces once; E[facility] = 1 - I(0,1), E|x - facility| = 2*I(0,x) -
    I(0,1) + 1 - x."""
    for x in points:
        if not (ZERO <= x <= ONE):
            raise DomainMismatchError("reference point must lie in [0,1]")
    if profile.domain != UNIT_INTERVAL:
        raise DomainMismatchError("the uniform phantom family lives on [0,1]")
    n = profile.n
    D = math.lcm(*(x.denominator for x in (*profile.locations, *points)))
    agents = sorted(x.numerator * (D // x.denominator) for x in profile.locations)
    targets = [x.numerator * (D // x.denominator) for x in points]
    lcm_n = math.lcm(*range(1, n + 1))
    d_pows = [D**e for e in range(n)]
    # The antiderivative of c*t**p, times lcm(1..n) * D**n, is
    # c * lcm(1..n)/(p+1) * D**(n-1-p) * a**(p+1) at t = a/D.
    running = {0: 0}
    breaks = sorted({0, D, *agents, *targets})
    for lo, hi in zip(breaks, breaks[1:]):
        coeffs = _upper_cdf_coeffs(n - 1, n - bisect_right(agents, lo))
        lo_acc = hi_acc = 0
        for p in range(len(coeffs) - 1, -1, -1):
            term = coeffs[p] * (lcm_n // (p + 1)) * d_pows[n - 1 - p]
            lo_acc = lo_acc * lo + term
            hi_acc = hi_acc * hi + term
        running[hi] = running[lo] + hi_acc * hi - lo_acc * lo
    whole, unit = running[D], lcm_n * d_pows[-1]  # unit: 1/D at the common scale
    return Fraction(unit * D - whole, unit * D), tuple(
        Fraction(2 * running[a] - whole + (D - a) * unit, unit * D) for a in targets
    )


def uniform_family_expected_distance(profile: Profile, point: Fraction) -> Fraction:
    """Exact E|point - facility| under the uniform phantom family."""
    return _uniform_family(profile, (Fraction(point),))[1][0]


def uniform_family_expected_location(profile: Profile) -> Fraction:
    return _uniform_family(profile)[0]


# ---------------------------------------------------------------------------
# Mixture-level exact expectations
# ---------------------------------------------------------------------------


def _expectations(mechanism, profile: Profile, points, with_location: bool):
    """E|x - facility| for each x in ``points`` and, ``with_location``,
    E[facility] (else None): the finite part through its lottery, the
    uniform family through one call of :func:`_uniform_family`."""
    lottery, weight = outcome_lottery(mechanism, profile)
    location = lottery.expected_location() if with_location and lottery else None
    if not weight:
        return location, tuple(lottery.expected_distance(x) for x in points)
    family_location, distances = _uniform_family(profile, points)
    if weight != 1:
        family_location, distances = weight * family_location, [weight * d for d in distances]
    if lottery is not None:
        distances = [lottery.expected_distance(x) + d for x, d in zip(points, distances)]
    if with_location:
        location = family_location if location is None else location + family_location
    return location, tuple(distances)


def expected_distance_to_point(mechanism, profile: Profile, point: Fraction) -> Fraction:
    """Exact expected distance from ``point`` to the facility."""
    return _expectations(mechanism, profile, (Fraction(point),), False)[1][0]


def expected_facility_location(mechanism, profile: Profile) -> Fraction:
    return _expectations(mechanism, profile, (), True)[0]


def expected_agent_distances(mechanism, profile: Profile) -> tuple[Fraction, ...]:
    """Every agent's exact expected distance, the uniform family priced
    once for the whole profile."""
    return _expectations(mechanism, profile, profile.locations, False)[1]


def expected_location_and_agent_distances(mechanism, profile: Profile):
    """E[facility] and every agent's expected distance, the uniform family
    priced once for both."""
    return _expectations(mechanism, profile, profile.locations, True)


# ---------------------------------------------------------------------------
# Phantom order-statistic marginals of rank mixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhantomMarginal:
    """Distribution of one interior phantom order statistic in a rank mixture."""

    index: int
    top_label: str
    prob_top: Fraction
    bottom_label: str
    prob_bottom: Fraction


def rank_phantom_marginals(mechanism: RandomizedMechanism) -> tuple[PhantomMarginal, ...]:
    """Exact marginals of the sorted interior phantoms of a rank mixture.

    With weight w_k on the rank-k component, the i-th smallest of the n-1
    interior phantoms sits at the top extreme with probability
    w_1 + ... + w_i and at the bottom extreme otherwise. Each part is a
    rank or a phantom vector whose normal form, kept by the mixture, is a
    rank.
    """
    if mechanism.has_continuous:
        raise MechanismError("marginals need a finite rank mixture")
    n, domain = mechanism.n, mechanism.domain
    weight_by_rank: dict[int, Fraction] = {}
    for (mech, weight), (form, _) in zip(mechanism.components, mechanism.forms):
        if not isinstance(mech, (RankK, Phantom)):
            raise MechanismError(f"marginals are defined for rank mixtures, not {type(mech).__name__}")
        if not isinstance(form, RankK):
            raise MechanismError("marginals are defined for two-valued phantom vectors only")
        weight_by_rank[form.k] = weight_by_rank.get(form.k, ZERO) + weight
    top = "1" if domain == UNIT_INTERVAL else "+inf"
    bottom = "0" if domain == UNIT_INTERVAL else "-inf"
    out = []
    for i in range(1, n):
        prob_top = sum(
            (w for k, w in weight_by_rank.items() if k <= i), ZERO
        )
        out.append(PhantomMarginal(i, top, prob_top, bottom, 1 - prob_top))
    return tuple(out)


# ---------------------------------------------------------------------------
# Rank-weight feasibility: who can mix ranks and stay group-fair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CumulativeConstraint:
    """Bound on a prefix sum w_1 + ... + w_prefix of the rank weights."""

    prefix: int
    sense: str  # "le" or "ge"
    rhs: Fraction
    provenance: str
    multiplicity: int = 1


@dataclass(frozen=True)
class ConstraintSystem:
    n: int
    constraints: tuple[CumulativeConstraint, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "constraints": [
                {
                    "prefix": c.prefix,
                    "sense": c.sense,
                    "rhs": format_point(c.rhs),
                    "provenance": c.provenance,
                    "multiplicity": c.multiplicity,
                }
                for c in self.constraints
            ],
        }


@dataclass(frozen=True)
class RankWeightResult:
    status: str  # "unique" | "infeasible" | "non_unique"
    weights: tuple[Fraction, ...] | None
    system: ConstraintSystem
    conflict: str | None = None
    alternates: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None

    def to_json(self) -> dict:
        data = {"status": self.status, "system": self.system.to_json()}
        if self.weights is not None:
            data["weights"] = [format_point(w) for w in self.weights]
        if self.conflict:
            data["conflict"] = self.conflict
        if self.alternates:
            data["alternates"] = [
                [format_point(w) for w in alt] for alt in self.alternates
            ]
        return data


def rank_weight_constraints(n: int, grid: int = 6, domain: str = UNIT_INTERVAL) -> ConstraintSystem:
    """Group-fairness constraints on rank-mixture weights over a grid.

    On the two-valued profile with n-i agents at the lower value and i at
    the higher, the mixture lands high with probability W_i = w_1+..+w_i;
    bounding each group's expected distance forces W_i <= i/n (low group)
    and W_i >= i/n (high group). The gap factor cancels, so constraints
    from all grid pairs collapse to one canonical pair per split, kept
    with a multiplicity count.
    """
    if n < 2:
        raise MechanismError("rank weights need n >= 2")
    # grid_points rejects grid < 1, and grid >= 1 gives at least two points.
    points = grid_points(domain, grid)
    pairs = math.comb(len(points), 2)
    sample = f"({format_point(points[0])},{format_point(points[1])})"
    constraints = []
    for i in range(1, n):
        base = f"profile with {n - i} agents at alpha, {i} at beta; {pairs} grid pairs, e.g. (alpha,beta)={sample}"
        constraints.append(
            CumulativeConstraint(i, "le", Fraction(i, n), f"low group bound on {base}", pairs)
        )
        constraints.append(
            CumulativeConstraint(i, "ge", Fraction(i, n), f"high group bound on {base}", pairs)
        )
    return ConstraintSystem(n, tuple(constraints))


def solve_rank_weights(
    n: int,
    grid: int = 6,
    domain: str = UNIT_INTERVAL,
    perturb: tuple[int, Fraction] | None = None,
    extra: tuple[tuple[str, int, Fraction], ...] = (),
) -> RankWeightResult:
    """Solve for rank weights w_1..w_n >= 0 summing to 1 under the
    canonical constraint system, with optional tweaks.

    ``perturb=(index, delta)`` shifts one canonical constraint's right-hand
    side. ``extra`` adds ("eq"|"le"|"ge", k, rhs) conditions on a single
    weight w_k. An index outside the constraint list, a weight outside
    w_1..w_n or another kind is a :class:`MechanismError`.

    The rows, and every condition on w_1 (which is W_1 itself; "eq" gives
    both senses), form one list of (prefix, sense, rhs) bounds on the
    prefix sums W_0 = 0 <= W_1 <= ... <= W_n = 1. The weights are
    non-negative, so a running max forward closes the lower bounds and a
    running min backward the upper ones, and the system is feasible iff no
    W_i with 1 <= i <= n-1 is left with lower > upper: W_0 and W_n are
    fixed, and an empty interval there implies one at W_1 or W_{n-1}. The
    first such i is the conflict. The differences of the two closed lists
    are the lowest and highest weights, equal iff the solution is unique.
    A condition on w_2..w_n is not a prefix bound, so it is checked against
    the unique solution, and on a base that leaves the weights free it is a
    :class:`MechanismError`; a condition on w_1 holds there already.
    """
    system = rank_weight_constraints(n, grid, domain)
    for kind, k, _ in extra:
        if kind not in ("eq", "le", "ge"):
            raise MechanismError(f"side constraint kind {kind!r}: kinds are eq, le and ge")
        if not 1 <= k <= n:
            raise MechanismError(f"side constraint on w_{k}: weights are w_1..w_{n}")
    if perturb is not None:
        rows, index = list(system.constraints), perturb[0]
        if not 0 <= index < len(rows):
            raise MechanismError(f"perturb index {index} out of range 0..{len(rows) - 1}")
        old, delta = rows[index], Fraction(perturb[1])
        shifted = f"{old.provenance} (rhs shifted by {format_point(delta)})"
        rows[index] = replace(old, rhs=old.rhs + delta, provenance=shifted)
        system = ConstraintSystem(n, tuple(rows))

    bounds = [(c.prefix, c.sense, c.rhs) for c in system.constraints]
    bounds += [
        (1, sense, Fraction(rhs))
        for kind, k, rhs in extra if k == 1
        for sense in ("le", "ge") if kind in ("eq", sense)
    ]
    lo, hi = [ZERO] * n + [ONE], [ZERO] + [ONE] * n
    for prefix, sense, rhs in bounds:
        if sense == "le":
            hi[prefix] = min(hi[prefix], rhs)
        else:
            lo[prefix] = max(lo[prefix], rhs)
    lo, hi = list(accumulate(lo, max)), list(accumulate(hi[::-1], min))[::-1]
    i = next((i for i in range(1, n) if lo[i] > hi[i]), None)
    if i is not None:
        conflict = f"prefix sum w_1+..+w_{i} is forced >= {format_point(lo[i])} and <= {format_point(hi[i])}"
        return RankWeightResult("infeasible", None, system, conflict=conflict)

    low, high = (tuple(b - a for a, b in pairwise(ends)) for ends in (lo, hi))
    if low != high:
        if any(k > 1 for _, k, _ in extra):
            raise MechanismError("single-weight side constraints need a point-determined base system")
        return RankWeightResult("non_unique", None, system, alternates=(low, high))
    for kind, k, rhs in extra:
        value, rhs = low[k - 1], Fraction(rhs)
        # a weight above rhs breaks "eq" and "le", one below it "eq" and "ge"
        if value != rhs and kind in ("eq", "le" if value > rhs else "ge"):
            conflict = f"w_{k} is pinned to {format_point(value)} but required {kind} {format_point(rhs)}"
            return RankWeightResult("infeasible", None, system, conflict=conflict)
    return RankWeightResult("unique", low, system)


# ---------------------------------------------------------------------------
# Deterministic impossibility: forced placements with no phantom vector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForcedPlacement:
    """On the two-agent profile (0, report), group fairness forces the
    facility to the midpoint report/2."""

    report: Fraction

    @property
    def forced(self) -> Fraction:
        return self.report / 2

    @property
    def profile(self) -> Profile:
        return Profile.unit(ZERO, self.report)


@dataclass(frozen=True)
class Prop1Certificate:
    first: ForcedPlacement
    second: ForcedPlacement
    candidates: tuple[Fraction, ...]
    vectors_checked: int
    manipulation: dict | None

    def to_json(self) -> dict:
        data = {
            "instances": [
                {
                    "profile": p.profile.to_json()["locations"],
                    "forced_output": format_point(p.forced),
                }
                for p in (self.first, self.second)
            ],
            "candidate_values": [format_point(c) for c in self.candidates],
            "vectors_checked": self.vectors_checked,
        }
        if self.manipulation:
            data["manipulation"] = self.manipulation
        return data


def _phantom_candidates(placements) -> tuple[Fraction, ...]:
    """The placements' breakpoints (0, 1, each report and forced output)
    plus the midpoints between neighbours, which is exhaustive: a phantom
    triple satisfies the forced medians iff the representative triple
    obtained by snapping each phantom to its breakpoint or containing
    interval does."""
    points = sorted({ZERO, ONE, *(v for p in placements for v in (p.report, p.forced))})
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return tuple(sorted({*points, *mids}))


def _phantom_triples(placements, values):
    """Each sorted phantom triple over ``values`` meeting every forced
    placement: the median of 0, the report and the triple is the forced
    output."""
    for triple in combinations_with_replacement(values, 3):
        if all(sorted((ZERO, p.report) + triple)[2] == p.forced for p in placements):
            yield triple


def find_phantom_vector(placements, candidates=None):
    """A sorted phantom triple meeting every forced placement, or None.

    Candidate values default to :func:`_phantom_candidates`.
    """
    placements = tuple(placements)
    if candidates is None:
        candidates = _phantom_candidates(placements)
    return next(_phantom_triples(placements, candidates), None)


def prop1_infeasibility(samples=(Fraction(1, 2), ONE)) -> Prop1Certificate:
    """Certificate that no single phantom vector meets the forced
    placements of two different two-agent profiles.

    ``samples`` are the non-zero agent locations t in (0, 1], each checked.
    The certificate is for the first sample and the first one after it
    that differs: on (0, t) the forced output t/2 pins the middle phantom to
    t/2, so no vector meets two distinct samples. The exhaustive
    representative sweep checks that, and is recorded.
    """
    reports = [Fraction(t) for t in samples]
    if len(reports) < 2:
        raise MechanismError("need at least two sampled reports")
    for t in reports:
        if not (ZERO < t <= ONE):
            raise MechanismError(f"sampled report {format_point(t)} outside (0,1]")
    if len(set(reports)) < 2:
        raise MechanismError("sampled reports must be distinct")
    low, high = sorted((reports[0], next(t for t in reports if t != reports[0])))
    first, second = ForcedPlacement(low), ForcedPlacement(high)
    candidates = _phantom_candidates((first, second))
    if find_phantom_vector((first, second), candidates) is not None:
        raise MechanismError(
            f"a phantom vector meets the forced outputs of {format_point(low)} and {format_point(high)}"
        )
    manipulation = None
    if high < 3 * low:
        # moving the profile from (0,low) to (0,high) drags the forced
        # output onto (or past) the deviator's location
        manipulation = {
            "profile": [format_point(ZERO), format_point(low)],
            "agent": 2,
            "misreport": format_point(high),
            "truthful_cost": format_point(first.forced),
            "deviating_cost": format_point(abs(low - second.forced)),
        }
    return Prop1Certificate(first, second, candidates, math.comb(len(candidates) + 2, 3), manipulation)


def prop1_grid_sweep(certificate: Prop1Certificate, grid: int = 40) -> int:
    """Count grid phantom triples meeting both forced placements (expect 0)."""
    if grid < 1:
        raise MechanismError("grid parameter must be >= 1")
    values = tuple(Fraction(j, grid) for j in range(grid + 1))
    return sum(1 for _ in _phantom_triples((certificate.first, certificate.second), values))

