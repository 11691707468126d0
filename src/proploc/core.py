"""Exact primitives for facility location on a line.

Agent locations, facility positions and probabilities are all
`fractions.Fraction` values; nothing in this module touches floating
point. The only non-rational values are the two infinity sentinels used
as phantom positions on the real-line domain: they take part in ordering
and median selection, and any arithmetic with them raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

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


def is_finite(value: ExtLocation) -> bool:
    return not isinstance(value, Infinite)


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
    if isinstance(value, int):
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

    def sorted_locations(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.locations))

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


def mechanism_is_phantom_class(mechanism: Mechanism) -> bool:
    return isinstance(mechanism, (Phantom, RankK, Median, UniformPhantom))


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


def _median_with_phantoms(agents: Sequence[Fraction], phantoms: Sequence[ExtLocation]) -> Fraction:
    neg = sum(1 for y in phantoms if y is NEG_INF)
    finite = sorted(list(agents) + [y for y in phantoms if not isinstance(y, Infinite)])
    total = len(agents) + len(phantoms)
    index = total // 2 - neg
    if index < 0 or index >= len(finite):
        raise MechanismError("median of reports and phantoms is not finite")
    return finite[index]


def evaluate(mechanism: Mechanism, profile: Profile) -> Fraction:
    """Facility location chosen by a deterministic mechanism on a profile."""
    n = profile.n
    if isinstance(mechanism, Phantom):
        if mechanism.n != n:
            raise MechanismError(
                f"phantom vector has {mechanism.n + 1} entries, expected {n + 1}"
            )
        if profile.domain == UNIT_INTERVAL:
            for y in mechanism.phantoms:
                if isinstance(y, Infinite) or not (ZERO <= y <= ONE):
                    raise DomainMismatchError(
                        "unit-interval profiles need finite phantoms in [0,1]"
                    )
        return _median_with_phantoms(profile.locations, mechanism.phantoms)
    if isinstance(mechanism, RankK):
        if mechanism.k > n:
            raise MechanismError(f"rank {mechanism.k} out of range for n={n}")
        return profile.sorted_locations()[n - mechanism.k]
    if isinstance(mechanism, Dictator):
        if mechanism.agent > n:
            raise MechanismError(f"dictator {mechanism.agent} out of range for n={n}")
        return profile.locations[mechanism.agent - 1]
    if isinstance(mechanism, Median):
        return profile.sorted_locations()[(n - 1) // 2]
    if isinstance(mechanism, UniformPhantom):
        return evaluate(to_phantom_form(mechanism, n, profile.domain), profile)
    if isinstance(mechanism, Average):
        return Fraction(sum(profile.locations), n)
    raise MechanismError(f"unknown mechanism {mechanism!r}")


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


@dataclass(frozen=True)
class OutcomeDistribution:
    """Finite outcome lottery: distinct locations with positive weights."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

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
        object.__setattr__(self, "atoms", tuple(sorted(atoms)))

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
        return sum((prob * loc for loc, prob in self.atoms), ZERO)

    def expected_distance(self, point: Fraction) -> Fraction:
        point = _as_fraction(point)
        return sum((prob * abs(loc - point) for loc, prob in self.atoms), ZERO)

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
    pairs = [(evaluate(mech, profile), weight) for mech, weight in mechanism.components]
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
