"""Mechanism catalog: the named constructions and a small spec-string parser.

Spec strings are the CLI/config identity of a mechanism, e.g.
``random_rank``, ``avg_or_rr:p=1/2``, ``phantom:[0,1/2,1]``,
``iid_phantom:{atoms:[["1/2","1"]]}``. Parsing and formatting round-trip.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .core import (
    ONE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    DomainMismatchError,
    ExpansionLimitError,
    IIDPhantomSpec,
    Mechanism,
    MechanismError,
    Median,
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
    return RandomizedMechanism(
        n, UNIT_INTERVAL, (), continuous=IIDPhantomSpec(), continuous_weight=ONE
    )


def iid_phantom(spec: IIDPhantomSpec, n: int, component_cap: int = 10_000) -> RandomizedMechanism:
    """I.i.d. interior phantoms from ``spec``, endpoints pinned at 0 and 1.

    A finite-support spec expands to an exact finite mixture over phantom
    multisets (draws are exchangeable, so equal multisets merge); the
    uniform spec stays symbolic and is handled by closed forms downstream.
    """
    if n < 2:
        raise MechanismError("i.i.d. phantom mechanisms need n >= 2")
    if spec.is_uniform:
        return random_phantom(n)
    atoms = spec.atoms
    draws = n - 1
    count = math.comb(len(atoms) + draws - 1, draws)
    if count > component_cap:
        raise ExpansionLimitError(
            f"discrete expansion needs {count} components, cap is {component_cap}"
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

_SIMPLE_NAMES = {
    "random_rank",
    "random_dictator",
    "random_phantom",
    "median",
    "uniform_phantom",
    "average",
}


@dataclass(frozen=True)
class MechanismSpec:
    """Parsed mechanism identity: name, parameters, and check context."""

    name: str
    n: int
    domain: str = UNIT_INTERVAL
    params: dict = field(default_factory=dict)

    def build(self):
        name, n, domain, params = self.name, self.n, self.domain, self.params
        if name == "random_rank":
            return random_rank(n, domain)
        if name == "random_dictator":
            return random_dictator(n, domain)
        if name == "random_phantom":
            if domain != UNIT_INTERVAL:
                raise DomainMismatchError("random phantom is defined on [0,1] only")
            return random_phantom(n)
        if name == "avg_or_rr":
            return average_or_random_rank(params["p"], n, domain)
        if name == "iid_phantom":
            return iid_phantom(IIDPhantomSpec(params["atoms"]), n)
        if name == "median":
            return Median()
        if name == "uniform_phantom":
            return UniformPhantom()
        if name == "average":
            return Average()
        if name == "rank":
            return RankK(params["k"])
        if name == "dictator":
            return Dictator(params["i"])
        if name == "phantom":
            return Phantom(params["phantoms"])
        raise MechanismError(f"unknown mechanism name {self.name!r}")

    def to_string(self) -> str:
        if self.name in _SIMPLE_NAMES:
            return self.name
        if self.name == "avg_or_rr":
            return f"avg_or_rr:p={format_point(self.params['p'])}"
        if self.name == "rank":
            return f"rank:k={self.params['k']}"
        if self.name == "dictator":
            return f"dictator:i={self.params['i']}"
        if self.name == "phantom":
            body = ",".join(format_point(y) for y in self.params["phantoms"])
            return f"phantom:[{body}]"
        if self.name == "iid_phantom":
            atoms = [
                [format_point(loc), format_point(prob)]
                for loc, prob in self.params["atoms"]
            ]
            return "iid_phantom:" + json.dumps({"atoms": atoms}, separators=(",", ":"))
        raise MechanismError(f"unknown mechanism name {self.name!r}")


def parse_mechanism_spec(text: str, n: int, domain: str = UNIT_INTERVAL) -> MechanismSpec:
    token = text.strip()
    if token in _SIMPLE_NAMES:
        return MechanismSpec(token, n, domain)
    name, sep, body = token.partition(":")
    if not sep:
        raise MechanismError(f"unknown mechanism spec {text!r}")
    if name == "avg_or_rr":
        match = re.fullmatch(r"p=([^,]+)", body.strip())
        if not match:
            raise MechanismError(f"expected avg_or_rr:p=<rational>, got {text!r}")
        return MechanismSpec(name, n, domain, {"p": Fraction(match.group(1))})
    if name == "rank":
        match = re.fullmatch(r"k=(\d+)", body.strip())
        if not match:
            raise MechanismError(f"expected rank:k=<int>, got {text!r}")
        return MechanismSpec(name, n, domain, {"k": int(match.group(1))})
    if name == "dictator":
        match = re.fullmatch(r"i=(\d+)", body.strip())
        if not match:
            raise MechanismError(f"expected dictator:i=<int>, got {text!r}")
        return MechanismSpec(name, n, domain, {"i": int(match.group(1))})
    if name == "phantom":
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise MechanismError(f"expected phantom:[...], got {text!r}")
        entries = [item.strip().strip('"') for item in body[1:-1].split(",") if item.strip()]
        phantoms = tuple(parse_point(item) for item in entries)
        return MechanismSpec(name, n, domain, {"phantoms": phantoms})
    if name == "iid_phantom":
        payload = re.sub(r"([{,]\s*)([A-Za-z_]\w*)\s*:", r'\1"\2":', body.strip())
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise MechanismError(f"cannot parse {text!r}: {exc}") from exc
        atoms = tuple(
            (Fraction(str(loc)), Fraction(str(prob))) for loc, prob in data["atoms"]
        )
        return MechanismSpec(name, n, domain, {"atoms": atoms})
    raise MechanismError(f"unknown mechanism spec {text!r}")


def build_mechanism(text: str, n: int, domain: str = UNIT_INTERVAL):
    """Parse and build in one step; returns a deterministic or randomized mechanism."""
    return parse_mechanism_spec(text, n, domain).build()


def format_mechanism(mechanism) -> str:
    """Canonical spec string for a mechanism object.

    A mixture gets the catalog name that builds it back, for its n and
    domain; any other mixture (other weights, an expanded i.i.d. phantom
    family) is ``mixture``.
    """
    if isinstance(mechanism, RandomizedMechanism):
        p = next((w for mech, w in mechanism.components if isinstance(mech, Average)), ZERO)
        for name in ("random_rank", "random_dictator", "random_phantom", f"avg_or_rr:p={format_point(p)}"):
            try:
                if build_mechanism(name, mechanism.n, mechanism.domain) == mechanism:
                    return name
            except MechanismError:
                pass
        return "mixture"
    if isinstance(mechanism, Median):
        return "median"
    if isinstance(mechanism, UniformPhantom):
        return "uniform_phantom"
    if isinstance(mechanism, Average):
        return "average"
    if isinstance(mechanism, RankK):
        return f"rank:k={mechanism.k}"
    if isinstance(mechanism, Dictator):
        return f"dictator:i={mechanism.agent}"
    if isinstance(mechanism, Phantom):
        body = ",".join(format_point(y) for y in mechanism.phantoms)
        return f"phantom:[{body}]"
    raise MechanismError(f"cannot format {mechanism!r}")
