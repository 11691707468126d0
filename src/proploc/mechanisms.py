"""Mechanism catalog: the named constructions and their spec strings.

Spec strings such as ``random_rank``, ``avg_or_rr:p=1/2``, ``phantom:[0,1/2,1]``
or ``iid_phantom:{atoms:[["1/2","1"]]}`` name mechanisms on the CLI. Each name
is defined once, in ``_CATALOG``, and ``format_mechanism(build_mechanism(s)) ==
s`` for every catalog spec s in canonical form except ``iid_phantom``, which
expands to a plain mixture (``avg_or_rr:p=0`` is ``random_rank``).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement

from .core import (
    ONE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    DomainMismatchError,
    ExpansionLimitError,
    Mechanism,
    MechanismError,
    Median,
    OutcomeDistribution,
    Phantom,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
    ZERO,
    format_point,
    parse_point,
)


def random_rank(n: int, domain: str = UNIT_INTERVAL) -> RandomizedMechanism:
    """Uniform mixture over the n rank mechanisms."""
    if n < 2:
        raise MechanismError("random rank needs n >= 2")
    weight = Fraction(1, n)
    return RandomizedMechanism(
        n, domain, tuple((RankK(k), weight) for k in range(1, n + 1))
    )


def random_dictator(n: int, domain: str = UNIT_INTERVAL) -> RandomizedMechanism:
    """Uniform mixture over the n dictatorships."""
    if n < 2:
        raise MechanismError("random dictator needs n >= 2")
    weight = Fraction(1, n)
    return RandomizedMechanism(
        n, domain, tuple((Dictator(i), weight) for i in range(1, n + 1))
    )


def average_or_random_rank(p, n: int, domain: str = UNIT_INTERVAL) -> RandomizedMechanism:
    """Average with probability p, otherwise a uniformly random rank.

    Zero-weight components are dropped, so p=0 is exactly the random rank
    mixture and p=1 is the bare average.
    """
    p = Fraction(p)
    if not (ZERO <= p <= ONE):
        raise MechanismError(f"mixing probability {p} outside [0,1]")
    components: list[tuple[Mechanism, Fraction]] = []
    if p > 0:
        components.append((Average(), p))
    if p < 1:
        rank_weight = (1 - p) / n
        components.extend((RankK(k), rank_weight) for k in range(1, n + 1))
    return RandomizedMechanism(n, domain, tuple(components))


def random_phantom(n: int) -> RandomizedMechanism:
    """Endpoint phantoms at 0 and 1; the n-1 interior phantoms i.i.d. uniform."""
    if n < 2:
        raise MechanismError("random phantom needs n >= 2")
    return RandomizedMechanism(n, UNIT_INTERVAL, (), continuous_weight=ONE)


# The most phantom multisets an i.i.d. phantom law may expand to.
COMPONENT_CAP = 10_000


def iid_phantom(atoms, n: int) -> RandomizedMechanism:
    """I.i.d. interior phantoms from a finite law on [0,1], given as
    (location, probability) pairs; endpoints pinned at 0 and 1.

    The law is checked as an :class:`proploc.core.OutcomeDistribution`, then
    against [0,1], before n. It expands to an exact finite mixture over
    phantom multisets (draws are exchangeable, so equal multisets merge);
    the uniform law is :func:`random_phantom`.
    """
    atoms = OutcomeDistribution(atoms).atoms
    if not (ZERO <= atoms[0][0] and atoms[-1][0] <= ONE):
        raise MechanismError("phantom atoms must lie in [0,1]")
    if n < 2:
        raise MechanismError("i.i.d. phantom mechanisms need n >= 2")
    draws = n - 1
    count = math.comb(len(atoms) + draws - 1, draws)
    if count > COMPONENT_CAP:
        raise ExpansionLimitError(
            f"discrete expansion needs {count} components, cap is {COMPONENT_CAP}"
        )
    components = []
    factorial_draws = math.factorial(draws)
    for multiset in combinations_with_replacement(range(len(atoms)), draws):
        weight = Fraction(factorial_draws)
        for index in set(multiset):
            weight /= math.factorial(multiset.count(index))
        for index in multiset:
            weight *= atoms[index][1]
        interior = tuple(sorted(atoms[index][0] for index in multiset))
        components.append((Phantom((ZERO,) + interior + (ONE,)), weight))
    return RandomizedMechanism(n, UNIT_INTERVAL, tuple(components))


# ---------------------------------------------------------------------------
# Spec strings
# ---------------------------------------------------------------------------


def _unit_interval_only(name: str, build):
    """A catalog builder, called as (*args, n, domain), that refuses every
    domain but [0,1] before ``build(*args, n)``."""

    def build_on(*args):
        if args[-1] != UNIT_INTERVAL:
            raise DomainMismatchError(f"{name} is defined on [0,1] only")
        return build(*args[:-1])

    return build_on


def _keyed(key: str, pattern: str, kind: str, convert):
    """Reader of a ``key=<kind>`` spec body."""

    def read(name: str, body: str, text: str):
        match = re.fullmatch(rf"{key}=({pattern})", body)
        if match:
            try:
                return convert(match.group(1))
            except (ValueError, ZeroDivisionError):
                pass
        raise MechanismError(f"expected {name}:{key}=<{kind}>, got {text!r}")

    return read


def _read_phantoms(name: str, body: str, text: str) -> tuple:
    if not (body.startswith("[") and body.endswith("]")):
        raise MechanismError(f"expected {name}:[...], got {text!r}")
    return tuple(parse_point(item.strip().strip('"')) for item in body[1:-1].split(",") if item.strip())


def _read_atoms(name: str, body: str, text: str) -> tuple:
    payload = re.sub(r"([{,]\s*)([A-Za-z_]\w*)\s*:", r'\1"\2":', body)
    try:
        data = json.loads(payload)
        if set(data) != {"atoms"}:
            raise KeyError("atoms")
        return tuple((Fraction(str(loc)), Fraction(str(prob))) for loc, prob in data["atoms"])
    except json.JSONDecodeError as exc:
        raise MechanismError(f"cannot parse {text!r}: {exc}") from exc
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        raise MechanismError(f"expected {name}:{{atoms:[[location,probability],...]}}, got {text!r}") from None


def _write_average_weight(mixture: RandomizedMechanism) -> str:
    p = next((w for mech, w in mixture.components if isinstance(mech, Average)), ZERO)
    return f"p={format_point(p)}"


# name -> (class, param, build):
# - class: what the name builds; None if no object formats back to the name;
# - param: (read, write) of the parameter in ``name:body``; None if bare;
# - build: a mixture's builder, called as build(n, domain) or build(param,
#   n, domain); None where the class builds from the parameter alone.
# Formatting tries the mixture names in table order.
_CATALOG = {
    "median": (Median, None, None),
    "uniform_phantom": (UniformPhantom, None, None),
    "average": (Average, None, None),
    "rank": (RankK, (_keyed("k", r"\d+", "int", int), lambda mech: f"k={mech.k}"), None),
    "dictator": (Dictator, (_keyed("i", r"\d+", "int", int), lambda mech: f"i={mech.agent}"), None),
    "phantom": (Phantom, (_read_phantoms, lambda mech: f"[{','.join(map(format_point, mech.phantoms))}]"), None),
    "random_rank": (RandomizedMechanism, None, random_rank),
    "random_dictator": (RandomizedMechanism, None, random_dictator),
    "random_phantom": (RandomizedMechanism, None, _unit_interval_only("random phantom", random_phantom)),
    "avg_or_rr": (
        RandomizedMechanism,
        (_keyed("p", r"[^,]+", "rational", Fraction), _write_average_weight),
        average_or_random_rank,
    ),
    "iid_phantom": (None, (_read_atoms, None), _unit_interval_only("i.i.d. phantom", iid_phantom)),
}


def build_mechanism(text: str, n: int, domain: str = UNIT_INTERVAL):
    """Build what a spec string names: a bare catalog name, or ``name:body``
    for a parametric one. Returns a deterministic or randomized mechanism."""
    name, sep, body = text.strip().partition(":")
    entry = _CATALOG.get(name)
    if entry is None or bool(sep) != bool(entry[1]):
        raise MechanismError(f"unknown mechanism spec {text!r}")
    cls, param, build = entry
    args = (param[0](name, body.strip(), text),) if sep else ()
    return build(*args, n, domain) if build else cls(*args)


def format_mechanism(mechanism) -> str:
    """Canonical spec string for a mechanism object: a deterministic one is
    named from its fields alone, a mixture by the first catalog name that
    builds it back for its n and domain, or else ``mixture``."""
    mixture = isinstance(mechanism, RandomizedMechanism)
    for name, (cls, param, _) in _CATALOG.items():
        if cls is type(mechanism):
            spec = f"{name}:{param[1](mechanism)}" if param else name
            if not mixture:
                return spec
            try:
                if build_mechanism(spec, mechanism.n, mechanism.domain) == mechanism:
                    return spec
            except MechanismError:
                pass
    if mixture:
        return "mixture"
    raise MechanismError(f"cannot format {mechanism!r}")
