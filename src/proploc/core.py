"""Exact primitives for facility location on a line.

Agent locations, facility positions and probabilities are all
`fractions.Fraction` values; nothing in this module touches floating
point. The only non-rational values are the two infinity sentinels used
as phantom positions on the real-line domain: they take part in ordering
and median selection, and any arithmetic with them raises.

A mixture's outcomes on a profile form one :class:`Lottery`, which sorts
them once into running sums of mass and first moment, so each point's
expected distance is one bisect and a closed form rather than a walk
over every outcome. A one-atom lottery (a deterministic mechanism)
prices |x - location| directly. Every finite part is read off one sorted
copy of the reports, a phantom part (a generalized median, Moulin 1980)
by merging that copy with its phantoms (:func:`outcome_pairs`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

UNIT_INTERVAL = "unit_interval"
REAL_LINE = "real_line"
DOMAINS = (UNIT_INTERVAL, REAL_LINE)

ZERO = Fraction(0)
ONE = Fraction(1)


class MechanismError(ValueError):
    """Malformed mechanism, profile, or incompatible combination."""


class DomainMismatchError(MechanismError):
    """Mechanism and profile (or parameter) domains do not line up."""


class PhantomFormError(MechanismError):
    """Mechanism has no phantom-median representation."""


class ContinuousFamilyError(MechanismError):
    """A finite atom list was requested from a continuous phantom family."""


class ExpansionLimitError(MechanismError):
    """A discrete phantom expansion would exceed the component cap."""


class Infinite:
    """Signed infinity for phantom positions.

    Supports ordering against rationals and other infinities only; any
    arithmetic involving an ``Infinite`` raises ``TypeError``, which keeps
    the no-arithmetic-on-infinities rule enforced by construction.
    """

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = 1 if sign > 0 else -1

    def __repr__(self) -> str:
        return "+inf" if self.sign > 0 else "-inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinite) and other.sign == self.sign

    def __hash__(self) -> int:
        return hash(("proploc.Infinite", self.sign))

    def __lt__(self, other):
        if isinstance(other, Infinite):
            return self.sign < other.sign
        if isinstance(other, (Fraction, int)):
            return self.sign < 0
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Infinite):
            return self.sign > other.sign
        if isinstance(other, (Fraction, int)):
            return self.sign > 0
        return NotImplemented

    def __le__(self, other):
        result = self.__gt__(other)
        if result is NotImplemented:
            return NotImplemented
        return not result

    def __ge__(self, other):
        result = self.__lt__(other)
        if result is NotImplemented:
            return NotImplemented
        return not result


POS_INF = Infinite(1)
NEG_INF = Infinite(-1)

ExtLocation = Union[Fraction, Infinite]


def parse_point(text: str) -> ExtLocation:
    """Parse ``"p/q"``, integer/decimal strings, or ``"+inf"``/``"-inf"``."""
    token = text.strip()
    low = token.lower()
    if low in ("+inf", "inf", "+infinity", "infinity"):
        return POS_INF
    if low in ("-inf", "-infinity"):
        return NEG_INF
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise MechanismError(f"cannot parse location {text!r}: {exc}") from exc


def format_point(value: ExtLocation) -> str:
    if isinstance(value, Infinite):
        return repr(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        point = parse_point(value)
        if isinstance(point, Infinite):
            raise MechanismError("expected a finite location")
        return point
    raise MechanismError(f"expected a rational location, got {value!r}")


@dataclass(frozen=True)
class Profile:
    """An ordered vector of n >= 2 finite agent locations on one domain."""

    domain: str
    locations: tuple[Fraction, ...]

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise DomainMismatchError(f"unknown domain {self.domain!r}")
        locs = tuple(_as_fraction(x) for x in self.locations)
        if len(locs) < 2:
            raise MechanismError("a profile needs at least two agents")
        if self.domain == UNIT_INTERVAL:
            for x in locs:
                if not (ZERO <= x <= ONE):
                    raise DomainMismatchError(
                        f"location {format_point(x)} outside [0,1]"
                    )
        object.__setattr__(self, "locations", locs)

    @property
    def n(self) -> int:
        return len(self.locations)

    def replace(self, agent: int, location: Fraction) -> "Profile":
        """New profile with 1-based ``agent`` reporting ``location``."""
        locs = list(self.locations)
        locs[agent - 1] = _as_fraction(location)
        return Profile(self.domain, tuple(locs))

    def to_json(self) -> dict:
        return {
            "domain": self.domain,
            "locations": [format_point(x) for x in self.locations],
        }

    @classmethod
    def from_json(cls, data) -> "Profile":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data["locations"], list):
            raise MechanismError(f"expected a list of locations, got {data['locations']!r}")
        return cls(data["domain"], tuple(_as_fraction(x) for x in data["locations"]))

    @classmethod
    def unit(cls, *locations) -> "Profile":
        return cls(UNIT_INTERVAL, tuple(_as_fraction(x) for x in locations))

    @classmethod
    def line(cls, *locations) -> "Profile":
        return cls(REAL_LINE, tuple(_as_fraction(x) for x in locations))


# ---------------------------------------------------------------------------
# Deterministic mechanisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Phantom:
    """Median of the reports together with a fixed sorted phantom vector."""

    phantoms: tuple[ExtLocation, ...]

    def __post_init__(self):
        values = []
        for y in self.phantoms:
            values.append(y if isinstance(y, Infinite) else _as_fraction(y))
        for a, b in zip(values, values[1:]):
            if b < a:
                raise MechanismError("phantom vector must be sorted")
        object.__setattr__(self, "phantoms", tuple(values))

    @property
    def n(self) -> int:
        return len(self.phantoms) - 1


@dataclass(frozen=True)
class RankK:
    """Returns the k-th largest report (k = 1 is the maximum)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise MechanismError("rank index must be >= 1")


@dataclass(frozen=True)
class Dictator:
    """Returns agent ``agent``'s report verbatim (1-based index)."""

    agent: int

    def __post_init__(self):
        if self.agent < 1:
            raise MechanismError("dictator index must be >= 1")


@dataclass(frozen=True)
class Median:
    """Leftmost median of the reports (lower of the two middles for even n)."""


@dataclass(frozen=True)
class UniformPhantom:
    """Phantom mechanism with phantoms at j/n for j = 0..n; unit interval only."""


@dataclass(frozen=True)
class Average:
    """Arithmetic mean of the reports; the one non-phantom mechanism here."""


Mechanism = Union[Phantom, RankK, Dictator, Median, UniformPhantom, Average]

_ANONYMOUS_KINDS = (Phantom, RankK, Median, UniformPhantom, Average)


def mechanism_is_anonymous(mechanism: Mechanism) -> bool:
    """Structurally anonymous kinds; only dictatorships depend on labels."""
    return isinstance(mechanism, _ANONYMOUS_KINDS)


def to_phantom_form(mechanism: Mechanism, n: int, domain: str = UNIT_INTERVAL) -> Phantom:
    """Phantom vector of length n+1 equivalent to ``mechanism`` for n agents.

    Rank and median mechanisms become vectors of extreme phantoms (0/1 on
    the unit interval, -inf/+inf on the real line) with the endpoint pair
    always stored explicitly. Dictatorships and the average have no median
    representation and raise ``PhantomFormError``.
    """
    if domain not in DOMAINS:
        raise DomainMismatchError(f"unknown domain {domain!r}")
    if n < 2:
        raise MechanismError("phantom forms need n >= 2")
    lo: ExtLocation = ZERO if domain == UNIT_INTERVAL else NEG_INF
    hi: ExtLocation = ONE if domain == UNIT_INTERVAL else POS_INF
    if isinstance(mechanism, Phantom):
        if mechanism.n != n:
            raise MechanismError(
                f"phantom vector has {mechanism.n + 1} entries, expected {n + 1}"
            )
        return mechanism
    if isinstance(mechanism, RankK):
        k = mechanism.k
        if k > n:
            raise MechanismError(f"rank {k} out of range for n={n}")
        return Phantom((lo,) * k + (hi,) * (n - k + 1))
    if isinstance(mechanism, Median):
        low_count = (n + 2) // 2
        return Phantom((lo,) * low_count + (hi,) * (n + 1 - low_count))
    if isinstance(mechanism, UniformPhantom):
        if domain != UNIT_INTERVAL:
            raise DomainMismatchError("uniform phantoms are defined on [0,1] only")
        return Phantom(tuple(Fraction(j, n) for j in range(n + 1)))
    raise PhantomFormError(f"{type(mechanism).__name__} is not phantom-representable")


def outcome_pairs(components, profile: Profile) -> list[tuple[Fraction, Fraction]]:
    """(location, weight) of each (mechanism, weight) component on ``profile``.

    The reports are sorted once, at the first rank, median or phantom part:
    rank k is entry n - k, the median entry (n - 1) // 2, and a phantom part
    entry n, from 0, of the sorted reports merged with its sorted phantoms.
    """
    n, reports, domain = profile.n, profile.locations, profile.domain
    ordered, pairs = None, []
    for mech, weight in components:
        if isinstance(mech, UniformPhantom):
            mech = to_phantom_form(mech, n, domain)
        if isinstance(mech, Dictator):
            if mech.agent > n:
                raise MechanismError(f"dictator {mech.agent} out of range for n={n}")
            location = reports[mech.agent - 1]
        elif isinstance(mech, Average):
            location = Fraction(sum(reports), n)
        elif isinstance(mech, RankK) and mech.k > n:
            raise MechanismError(f"rank {mech.k} out of range for n={n}")
        elif isinstance(mech, Phantom) and mech.n != n:
            raise MechanismError(f"phantom vector has {mech.n + 1} entries, expected {n + 1}")
        elif isinstance(mech, Phantom) and domain == UNIT_INTERVAL and any(
                isinstance(y, Infinite) or not ZERO <= y <= ONE for y in mech.phantoms):
            raise DomainMismatchError("unit-interval profiles need finite phantoms in [0,1]")
        elif not isinstance(mech, (RankK, Median, Phantom)):
            raise MechanismError(f"unknown mechanism {mech!r}")
        else:
            ordered = ordered or sorted(reports)
            if isinstance(mech, RankK):
                location = ordered[n - mech.k]
            elif isinstance(mech, Median):
                location = ordered[(n - 1) // 2]
            else:
                # Pass the n smallest of the merge, i of them reports.
                ys, i = mech.phantoms, 0
                for step in range(n):
                    i += ordered[i] <= ys[step - i]
                location = ys[0] if i == n else min(ordered[i], ys[n - i])
                if isinstance(location, Infinite):
                    raise MechanismError("median of reports and phantoms is not finite")
        pairs.append((location, weight))
    return pairs


def evaluate(mechanism: Mechanism, profile: Profile) -> Fraction:
    """Facility location chosen by a deterministic mechanism on a profile."""
    return outcome_pairs(((mechanism, ONE),), profile)[0][0]


# ---------------------------------------------------------------------------
# Randomized mechanisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IIDPhantomSpec:
    """Interior phantoms drawn i.i.d.; endpoints stay pinned at 0 and 1.

    ``atoms=None`` means the uniform distribution on [0,1]; otherwise a
    finite support given as (location, probability) pairs.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...] | None = None

    def __post_init__(self):
        if self.atoms is None:
            return
        cleaned = []
        total = ZERO
        seen = set()
        for loc, prob in self.atoms:
            loc = _as_fraction(loc)
            prob = _as_fraction(prob)
            if not (ZERO <= loc <= ONE):
                raise MechanismError("phantom atoms must lie in [0,1]")
            if prob <= 0:
                raise MechanismError("phantom atom probabilities must be positive")
            if loc in seen:
                raise MechanismError("phantom atom locations must be distinct")
            seen.add(loc)
            cleaned.append((loc, prob))
            total += prob
        if total != 1:
            raise MechanismError("phantom atom probabilities must sum to 1")
        object.__setattr__(self, "atoms", tuple(sorted(cleaned)))

    @property
    def is_uniform(self) -> bool:
        return self.atoms is None


@dataclass(frozen=True)
class RandomizedMechanism:
    """Finite mixture of deterministic mechanisms, plus an optional
    continuous phantom family carrying its own mixture weight."""

    n: int
    domain: str
    components: tuple[tuple[Mechanism, Fraction], ...]
    continuous: IIDPhantomSpec | None = None
    continuous_weight: Fraction = ZERO

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise DomainMismatchError(f"unknown domain {self.domain!r}")
        if self.n < 2:
            raise MechanismError("mixtures need n >= 2")
        comps = []
        total = _as_fraction(self.continuous_weight)
        if total < 0:
            raise MechanismError("continuous weight must be non-negative")
        for mech, weight in self.components:
            weight = _as_fraction(weight)
            if weight <= 0:
                raise MechanismError("component weights must be positive")
            comps.append((mech, weight))
            total += weight
        if total != 1:
            raise MechanismError(f"mixture weights sum to {total}, expected 1")
        if self.continuous is not None:
            if self.domain != UNIT_INTERVAL:
                raise DomainMismatchError("continuous phantom families live on [0,1]")
            if self.continuous_weight <= 0:
                raise MechanismError("continuous family present with zero weight")
        elif self.continuous_weight != 0:
            raise MechanismError("continuous weight given without a family")
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "continuous_weight", _as_fraction(self.continuous_weight))

    @property
    def has_continuous(self) -> bool:
        return self.continuous is not None

    def component_mechanisms(self) -> tuple[Mechanism, ...]:
        return tuple(mech for mech, _ in self.components)


AnyMechanism = Union[Mechanism, RandomizedMechanism]


def as_mixture(mechanism: AnyMechanism, n: int, domain: str) -> RandomizedMechanism:
    """View a deterministic mechanism as a one-component mixture."""
    if isinstance(mechanism, RandomizedMechanism):
        return mechanism
    return RandomizedMechanism(n, domain, ((mechanism, ONE),))


class Lottery:
    """Finite lottery: (location, weight) pairs with positive weights, a
    location possibly repeated. The weights sum to 1 for an outcome
    lottery, and to 1 - w for the finite part of a mixture whose continuous
    family has weight w.

    The expected location is one pass over the pairs. For the expected
    distance from a point, the pairs are sorted once, at the first point,
    into running sums of mass and first moment: with P and M the mass and
    moment of the pairs at or left of x (one bisect), W the total mass and
    M_1 the total moment, E|x - facility| = x * (2P - W) + M_1 - 2M. One
    pair (a deterministic mechanism) prices |x - location| directly.
    """

    __slots__ = ("pairs", "_sums")

    def __init__(self, pairs: tuple[tuple[Fraction, Fraction], ...]):
        self.pairs = pairs
        self._sums = None

    def expected_location(self) -> Fraction:
        if len(self.pairs) == 1:
            loc, weight = self.pairs[0]
            return loc if weight == 1 else weight * loc
        return sum(weight * loc for loc, weight in self.pairs)

    def expected_distance(self, point: Fraction) -> Fraction:
        if len(self.pairs) == 1:
            loc, weight = self.pairs[0]
            return abs(point - loc) if weight == 1 else weight * abs(point - loc)
        if self._sums is None:
            self._sums = self._running()
        locations, masses, moments = self._sums
        k = bisect_right(locations, point)
        return point * (2 * masses[k] - masses[-1]) + moments[-1] - 2 * moments[k]

    def _running(self):
        (loc, mass), *rest = pairs = sorted(self.pairs, key=itemgetter(0))
        moment = mass * loc
        masses, moments = [ZERO, mass], [ZERO, moment]
        for loc, weight in rest:
            mass += weight
            moment += weight * loc
            masses.append(mass)
            moments.append(moment)
        return [loc for loc, _ in pairs], masses, moments


@dataclass(frozen=True)
class OutcomeDistribution:
    """Finite outcome lottery: distinct locations with positive weights,
    priced through its :class:`Lottery`."""

    atoms: tuple[tuple[Fraction, Fraction], ...]
    _lottery: Lottery = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        total = ZERO
        seen = set()
        atoms = []
        for loc, prob in self.atoms:
            loc = _as_fraction(loc)
            prob = _as_fraction(prob)
            if prob <= 0:
                raise MechanismError("atom probabilities must be positive")
            if loc in seen:
                raise MechanismError("atom locations must be distinct")
            seen.add(loc)
            atoms.append((loc, prob))
            total += prob
        if total != 1:
            raise MechanismError(f"atom probabilities sum to {total}, expected 1")
        atoms = tuple(sorted(atoms))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_lottery", Lottery(atoms))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Fraction, Fraction]]) -> "OutcomeDistribution":
        merged: dict[Fraction, Fraction] = {}
        for loc, prob in pairs:
            if prob == 0:
                continue
            merged[loc] = merged.get(loc, ZERO) + prob
        return cls(tuple(merged.items()))

    @classmethod
    def point(cls, location: Fraction) -> "OutcomeDistribution":
        return cls(((location, ONE),))

    def expected_location(self) -> Fraction:
        return self._lottery.expected_location()

    def expected_distance(self, point: Fraction) -> Fraction:
        return self._lottery.expected_distance(_as_fraction(point))

    def to_json(self) -> dict:
        return {
            "atoms": [
                {"x": format_point(loc), "p": format_point(prob)}
                for loc, prob in self.atoms
            ]
        }

    @classmethod
    def from_json(cls, data) -> "OutcomeDistribution":
        if isinstance(data, str):
            data = json.loads(data)
        return cls.from_pairs(
            (_as_fraction(a["x"]), _as_fraction(a["p"])) for a in data["atoms"]
        )


def outcome_distribution(mechanism: AnyMechanism, profile: Profile) -> OutcomeDistribution:
    """Push a mechanism through a profile into its outcome lottery.

    Continuous phantom families have no finite atom list except on
    unanimous profiles (where the median is pinned); other profiles raise
    ``ContinuousFamilyError`` and callers should use the exact expectation
    helpers in :mod:`proploc.analysis`.
    """
    if not isinstance(mechanism, RandomizedMechanism):
        return OutcomeDistribution.point(evaluate(mechanism, profile))
    if mechanism.domain != profile.domain:
        raise DomainMismatchError(
            f"mechanism domain {mechanism.domain} vs profile domain {profile.domain}"
        )
    if mechanism.n != profile.n:
        raise MechanismError(f"mechanism built for n={mechanism.n}, profile has n={profile.n}")
    pairs = outcome_pairs(mechanism.components, profile)
    if mechanism.has_continuous:
        distinct = set(profile.locations)
        if len(distinct) == 1:
            pairs.append((profile.locations[0], mechanism.continuous_weight))
        else:
            raise ContinuousFamilyError(
                "continuous phantom family has no finite atom list on this profile; "
                "use proploc.analysis expected-value helpers"
            )
    return OutcomeDistribution.from_pairs(pairs)


def grid_points(domain: str, grid: int) -> tuple[Fraction, ...]:
    """Evaluation grid: {0, 1/m, ..., 1} on [0,1], integers -m..m on the line."""
    if grid < 1:
        raise MechanismError("grid parameter must be >= 1")
    if domain == UNIT_INTERVAL:
        return tuple(Fraction(j, grid) for j in range(grid + 1))
    if domain == REAL_LINE:
        return tuple(Fraction(v) for v in range(-grid, grid + 1))
    raise DomainMismatchError(f"unknown domain {domain!r}")
