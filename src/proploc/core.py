"""Exact primitives for facility location on a line.

Agent locations, facility positions and probabilities are all
`fractions.Fraction` values; nothing in this module touches floating
point. The only non-rational values are the two infinity sentinels used
as phantom positions on the real-line domain: they take part in ordering
and median selection, and any arithmetic with them raises.

A mixture is built for one (n, domain), which :func:`as_mixture` alone
compares with its caller's (a deterministic mechanism's one-part mixture
is built once per mechanism, n and domain, as a check grid is once per
domain and grid), and holds its finite parts beside one weight
for the uniform phantom family: a discrete i.i.d. family is expanded into
phantom vectors first. One class, :class:`OutcomeDistribution`, holds and
prices every finite lottery. A mechanism's outcomes on a profile form one,
built in one place (:func:`outcome_lottery`), which sorts them once,
merging equal locations into its atoms, with running sums of mass and
first moment: both expectations read that one sorted table, the expected
location as the total moment and a point's expected distance as one
bisect and a closed form. A one-pair lottery (a deterministic mechanism)
prices its location and |x - location| directly. Outside input (a
lottery, or an i.i.d. phantom law) is checked by its constructor alone.

One function, :func:`part_form`, decides whether a finite part is valid at
(n, domain) and gives its normal form: a rank (a ``RankK``, the median, or
a phantom vector of the domain's ends), a phantom vector, a dictator or the
average. A mixture validates its parts when it is built: its constructor
keeps each part's form, so the first invalid part in component order
raises there, and a built mixture is never checked again. Every reader of
a part reads that form: the lottery here, the sweep engine of
:mod:`proploc.sweep` and the exact rules of :mod:`proploc.axioms`. The
lottery reads every finite part off one sorted copy of the reports, a
phantom part (a generalized median, Moulin 1980) by merging that copy with
its phantoms (:func:`outcome_pairs`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, total_ordering
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


class ContinuousFamilyError(MechanismError):
    """A finite atom list was requested from a continuous phantom family."""


class ExpansionLimitError(MechanismError):
    """A discrete phantom expansion would exceed the component cap."""


@total_ordering
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
                # A Fraction's denominator is positive, so this is 0 <= x <= 1.
                if not 0 <= x.numerator <= x.denominator:
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
    """Median of the reports together with a fixed sorted phantom vector,
    each infinity stored as ``POS_INF`` or ``NEG_INF`` (readers compare by
    identity)."""

    phantoms: tuple[ExtLocation, ...]

    def __post_init__(self):
        values = []
        for y in self.phantoms:
            values.append((POS_INF if y.sign > 0 else NEG_INF) if isinstance(y, Infinite) else _as_fraction(y))
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


def part_form(mechanism: Mechanism, n: int, domain: str) -> Mechanism:
    """The normal form of a finite part at n agents on ``domain``, or the
    error that makes the part invalid there: the one place either is decided.

    Every part but a dictator and the average is a generalized median
    (Moulin, Public Choice 1980), the median of the reports and n + 1 sorted
    phantoms. A rank, the median (k = n - (n - 1) // 2) and a vector whose
    phantoms all lie at the domain's ends, at least one at each, with k at
    the low end, output the k-th largest report and come back as
    ``RankK(k)``. Every other vector comes back as a ``Phantom``: the uniform
    phantoms, a vector with a phantom strictly inside the domain, and on
    [0,1] a constant all-0 or all-1 vector. A dictator or the average comes
    back unchanged. A sorted vector lies in [0,1] exactly when its ends do,
    and on the real line its median is infinite only when all its phantoms
    are the same infinity.
    """
    if isinstance(mechanism, RankK) and mechanism.k > n:
        raise MechanismError(f"rank {mechanism.k} out of range for n={n}")
    if isinstance(mechanism, Dictator) and mechanism.agent > n:
        raise MechanismError(f"dictator {mechanism.agent} out of range for n={n}")
    if isinstance(mechanism, (RankK, Dictator, Average)):
        return mechanism
    if isinstance(mechanism, Median):
        return RankK(n - (n - 1) // 2)
    if isinstance(mechanism, UniformPhantom):
        if domain != UNIT_INTERVAL:
            raise DomainMismatchError("uniform phantoms are defined on [0,1] only")
        return _uniform_phantoms(n)
    if not isinstance(mechanism, Phantom):
        raise MechanismError(f"unknown mechanism {mechanism!r}")
    ys = mechanism.phantoms
    if len(ys) != n + 1:
        raise MechanismError(f"phantom vector has {len(ys)} entries, expected {n + 1}")
    if domain == UNIT_INTERVAL:
        if not (ZERO <= ys[0] and ys[-1] <= ONE):
            raise DomainMismatchError("unit-interval profiles need finite phantoms in [0,1]")
        low, high = ZERO, ONE
    else:
        if ys[0] == POS_INF or ys[-1] == NEG_INF:
            raise MechanismError("median of reports and phantoms is not finite")
        low, high = NEG_INF, POS_INF
    k = bisect_right(ys, low)
    return RankK(k) if 0 < k <= n and ys[k] == high else mechanism


@lru_cache(maxsize=None)
def _uniform_phantoms(n: int) -> Phantom:
    return Phantom(tuple(Fraction(j, n) for j in range(n + 1)))


def outcome_pairs(components, profile: Profile) -> list[tuple[Fraction, Fraction]]:
    """(location, weight) of each (mechanism, weight) component on ``profile``,
    each part already in its :func:`part_form` at the profile's n and domain.

    The reports are sorted once, at the first rank or phantom part: rank k
    is entry n - k, and a phantom part entry n, from 0, of the sorted
    reports merged with its sorted phantoms.
    """
    n, reports = profile.n, profile.locations
    ordered, pairs = None, []
    for mech, weight in components:
        if isinstance(mech, Dictator):
            location = reports[mech.agent - 1]
        elif isinstance(mech, Average):
            location = Fraction(sum(reports), n)
        else:
            ordered = ordered or sorted(reports)
            if isinstance(mech, RankK):
                location = ordered[n - mech.k]
            else:
                # Pass the n smallest of the merge, i of them reports.
                ys, i = mech.phantoms, 0
                for step in range(n):
                    i += ordered[i] <= ys[step - i]
                location = ys[0] if i == n else min(ordered[i], ys[n - i])
        pairs.append((location, weight))
    return pairs


def evaluate(mechanism: Mechanism, profile: Profile) -> Fraction:
    """Facility location chosen by a deterministic mechanism on a profile."""
    return outcome_pairs(((part_form(mechanism, profile.n, profile.domain), ONE),), profile)[0][0]


# ---------------------------------------------------------------------------
# Randomized mechanisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomizedMechanism:
    """Finite mixture of deterministic mechanisms for n agents on
    ``domain``, plus the uniform phantom family at ``continuous_weight``
    (0 for none, and only on [0,1]).

    The constructor is the one check of a mixture. It checks the weights
    (positive, the family's non-negative, summing to 1), then keeps each
    part's :func:`part_form` at (n, domain) in ``forms``, beside its weight,
    so the first invalid part in component order raises and a mixture with
    one cannot be built. Every reader of a built mixture reads ``forms``;
    ``components`` keep the parts as given, which name them in witnesses.
    """

    n: int
    domain: str
    components: tuple[tuple[Mechanism, Fraction], ...]
    continuous_weight: Fraction = ZERO
    forms: tuple[tuple[Mechanism, Fraction], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise DomainMismatchError(f"unknown domain {self.domain!r}")
        if self.n < 2:
            raise MechanismError("mixtures need n >= 2")
        comps = []
        family = total = _as_fraction(self.continuous_weight)
        if family < 0:
            raise MechanismError("continuous weight must be non-negative")
        for mech, weight in self.components:
            weight = _as_fraction(weight)
            if weight <= 0:
                raise MechanismError("component weights must be positive")
            comps.append((mech, weight))
            total += weight
        if total != 1:
            raise MechanismError(f"mixture weights sum to {total}, expected 1")
        if family and self.domain != UNIT_INTERVAL:
            raise DomainMismatchError("continuous phantom families live on [0,1]")
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "continuous_weight", family)
        forms = tuple((part_form(mech, self.n, self.domain), weight) for mech, weight in comps)
        object.__setattr__(self, "forms", forms)

    @property
    def has_continuous(self) -> bool:
        return self.continuous_weight != 0


AnyMechanism = Union[Mechanism, RandomizedMechanism]


# The most (mechanism, n, domain) one-part mixtures, and (domain, grid) grids, kept.
_ONE_PART_CACHE = 256
_GRID_CACHE = 64


def as_mixture(mechanism: AnyMechanism, n: int, domain: str) -> RandomizedMechanism:
    """``mechanism`` as a mixture for n agents on ``domain``: a deterministic
    one as one part of weight 1, built and checked once per (mechanism, n,
    domain), a mixture as it is once it fits. The one place a mixture's n
    and domain are compared with its caller's."""
    if not isinstance(mechanism, RandomizedMechanism):
        return _one_part(mechanism, n, domain)
    if mechanism.domain != domain:
        raise DomainMismatchError(f"mechanism built for {mechanism.domain}, used on {domain}")
    if mechanism.n != n:
        raise MechanismError(f"mechanism built for n={mechanism.n}, used with n={n}")
    return mechanism


@lru_cache(maxsize=_ONE_PART_CACHE)
def _one_part(mechanism: Mechanism, n: int, domain: str) -> RandomizedMechanism:
    # lru_cache keeps no call that raises, so an invalid part raises each time.
    return RandomizedMechanism(n, domain, ((mechanism, ONE),))


class OutcomeDistribution:
    """Finite outcome lottery, the one type that prices one: (location,
    weight) pairs with positive weights summing to 1, or to 1 - w beside a
    continuous family of weight w. ``atoms`` are its distinct locations in
    increasing order, each with its summed weight; equality, hashing and
    repr go by them.

    The public constructor and :meth:`from_json` take outside input,
    checked by the constructor: distinct locations, positive weights
    summing to 1. :func:`outcome_lottery` takes a mechanism's pairs as they
    are (:meth:`_of`), a location possibly repeated.

    Both expectations read one sort, made at the first need, that merges
    equal locations into atoms with running sums of mass and first moment.
    The expected location is the total moment M_1. With P and M those of
    the atoms at or left of x (one bisect) and W the total mass,
    E|x - facility| = x * (2P - W) + M_1 - 2M. One pair (a deterministic
    mechanism) is its own atom and prices its location and |x - location|
    directly.
    """

    __slots__ = ("pairs", "_sums")

    def __init__(self, atoms: Iterable[tuple[Fraction, Fraction]]):
        total = ZERO
        seen = set()
        pairs = []
        for loc, prob in atoms:
            loc = _as_fraction(loc)
            prob = _as_fraction(prob)
            if prob <= 0:
                raise MechanismError("atom probabilities must be positive")
            if loc in seen:
                raise MechanismError("atom locations must be distinct")
            seen.add(loc)
            pairs.append((loc, prob))
            total += prob
        if total != 1:
            raise MechanismError(f"atom probabilities sum to {total}, expected 1")
        self.pairs, self._sums = tuple(pairs), None

    @classmethod
    def _of(cls, pairs: tuple[tuple[Fraction, Fraction], ...]) -> "OutcomeDistribution":
        dist = object.__new__(cls)
        dist.pairs, dist._sums = pairs, None
        return dist

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self.pairs if len(self.pairs) == 1 else self._running()[1]

    def __eq__(self, other):
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"OutcomeDistribution(atoms={self.atoms!r})"

    def expected_location(self) -> Fraction:
        if len(self.pairs) == 1:
            loc, weight = self.pairs[0]
            return loc if weight == 1 else weight * loc
        return self._running()[3][-1]

    def expected_distance(self, point: Fraction) -> Fraction:
        point = _as_fraction(point)
        if len(self.pairs) == 1:
            loc, weight = self.pairs[0]
            return abs(point - loc) if weight == 1 else weight * abs(point - loc)
        locations, _, masses, moments = self._running()
        k = bisect_right(locations, point)
        return point * (2 * masses[k] - masses[-1]) + moments[-1] - 2 * moments[k]

    def _running(self):
        """The one sort, kept: the distinct locations in increasing order,
        the atoms, and the running sums of mass and moment."""
        if self._sums is None:
            locations, weights = [], []
            for loc, weight in sorted(self.pairs, key=itemgetter(0)):
                if locations and loc == locations[-1]:
                    weights[-1] += weight
                else:
                    locations.append(loc)
                    weights.append(weight)
            atoms = tuple(zip(locations, weights))
            masses, moments = [ZERO], [ZERO]
            for loc, weight in atoms:
                masses.append(masses[-1] + weight)
                moments.append(moments[-1] + weight * loc)
            self._sums = locations, atoms, masses, moments
        return self._sums

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
        return cls((a["x"], a["p"]) for a in data["atoms"])


def outcome_lottery(mechanism: AnyMechanism, profile: Profile) -> tuple[OutcomeDistribution | None, Fraction]:
    """The lottery of a mechanism's finite parts on ``profile`` (None if it
    has none) and its uniform phantom family's weight (0 if it has none):
    the one place an outcome lottery is built. A mixture must fit the
    profile, and a deterministic mechanism is its one-part mixture
    (:func:`as_mixture`)."""
    mixture = as_mixture(mechanism, profile.n, profile.domain)
    pairs = tuple(outcome_pairs(mixture.forms, profile))
    return (OutcomeDistribution._of(pairs) if pairs else None), mixture.continuous_weight


def outcome_distribution(mechanism: AnyMechanism, profile: Profile) -> OutcomeDistribution:
    """Push a mechanism through a profile into its outcome lottery.

    Continuous phantom families have no finite atom list except on
    unanimous profiles (where the median is pinned); other profiles raise
    ``ContinuousFamilyError`` and callers should use the exact expectation
    helpers in :mod:`proploc.analysis`.
    """
    lottery, family = outcome_lottery(mechanism, profile)
    if family:
        if len(set(profile.locations)) != 1:
            raise ContinuousFamilyError(
                "continuous phantom family has no finite atom list on this profile; "
                "use proploc.analysis expected-value helpers"
            )
        return OutcomeDistribution._of((*(lottery.pairs if lottery else ()), (profile.locations[0], family)))
    return lottery


@lru_cache(maxsize=_GRID_CACHE)
def grid_points(domain: str, grid: int) -> tuple[Fraction, ...]:
    """Evaluation grid: {0, 1/m, ..., 1} on [0,1], integers -m..m on the line,
    built once per (domain, grid): every call returns the same tuple."""
    if grid < 1:
        raise MechanismError("grid parameter must be >= 1")
    if domain == UNIT_INTERVAL:
        return tuple(Fraction(j, grid) for j in range(grid + 1))
    if domain == REAL_LINE:
        return tuple(Fraction(v) for v in range(-grid, grid + 1))
    raise DomainMismatchError(f"unknown domain {domain!r}")
