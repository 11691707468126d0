"""Differential tests: the closed forms that decide efficiency and anonymity
against plain rational loops, walked in the order a sweep would take.

Efficiency is read off a phantom vector's two ends and anonymity off the
dictator weights (``axioms._efficiency_first``, ``axioms._anonymity_first``).
The loops here look at every instance instead. Efficiency walks the report
multisets of the grid, each priced by ``evaluate``, and then, on the real
line, the unanimous profiles just beyond a finite phantom end. Anonymity
walks the ordered grid profiles and their adjacent swaps, each priced by
``expected_facility_location``. A check's whole JSON verdict, or its error
message, must equal the loop's.
"""

import math
from fractions import Fraction as F
from functools import partial
from itertools import combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

from proploc import axioms
from proploc.analysis import expected_facility_location
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    Infinite,
    MechanismError,
    Median,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
    evaluate,
    format_point,
    grid_points,
    mechanism_is_anonymous,
)
from proploc.mechanisms import format_mechanism

EFFICIENCY_FAMILY = "each phantom realisation a generalized median, phantoms at 0 and 1: every profile"
ANONYMITY_FAMILY = "each phantom realisation a generalized median: every profile, every relabelling"


def _points(count):
    """``count`` rationals with denominator 7 or 97 and numerators in
    [-5q, 5q]: inside and beyond the real-line grid window."""
    return st.lists(
        st.sampled_from([7, 97]).flatmap(lambda q: st.integers(-5 * q, 5 * q).map(lambda p: F(p, q))),
        min_size=count,
        max_size=count,
    )


@st.composite
def _phantom(draw, n, domain):
    """n + 1 sorted phantoms with denominators 7 and 97. On the real line
    some ends are infinite (all of them is an error); on [0,1] an entry is
    sometimes pushed outside it (an error too)."""
    if domain == REAL_LINE:
        neg = draw(st.integers(0, n + 1))
        pos = draw(st.integers(0, n + 1 - neg))
        middle = sorted(draw(_points(n + 1 - neg - pos)))
        return Phantom((NEG_INF,) * neg + tuple(middle) + (POS_INF,) * pos)
    ends = st.sampled_from([7, 97]).flatmap(lambda q: st.integers(-2, q + 2).map(lambda p: F(min(max(p, 0), q), q)))
    values = sorted(draw(st.lists(ends, min_size=n + 1, max_size=n + 1)))
    outside = draw(st.sampled_from([None, None, None, None, F(-1, 7), F(8, 7), POS_INF]))
    if outside is not None:
        values[-1 if outside > 1 else 0] = outside
    return Phantom(tuple(values))


@st.composite
def _mechanism(draw, n, domain, kinds):
    """One deterministic mechanism; a rank or dictator index is sometimes
    past n (an error)."""
    kind = draw(st.sampled_from(kinds))
    if kind == "phantom":
        return draw(_phantom(n, domain))
    if kind == "rank":
        return RankK(draw(st.integers(1, n + 1)))
    if kind == "dict":
        return Dictator(draw(st.integers(1, n + 1)))
    return {"avg": Average, "median": Median, "uniform": UniformPhantom}[kind]()


def _kinds(domain):
    # A uniform phantom mechanism exists on [0,1] only.
    kinds = ["phantom", "phantom", "rank", "dict", "dict", "avg", "median"]
    return kinds + ["uniform"] if domain == UNIT_INTERVAL else kinds


@st.composite
def _cells(draw, deterministic: bool):
    """(mechanism, check domain): a deterministic mechanism, or the builder
    of a mixture of one to three parts with weights in 1..3 (so dictators
    often tie), with a continuous family on [0,1] some of the time. The
    grid is at most the largest with 125 ordered profiles, or 1. A mixture
    with an invalid part raises when it is built."""
    domain = draw(st.sampled_from([UNIT_INTERVAL, REAL_LINE]))
    n = draw(st.integers(2, 5))
    size = max(g for g in range(1, 5) if len(grid_points(domain, g)) ** n <= 125 or g == 1)
    dom = axioms.CheckDomain(n=n, grid=draw(st.integers(1, size)), domain=domain)
    if deterministic:
        return draw(_mechanism(n, domain, _kinds(domain))), dom
    mechs = draw(st.lists(_mechanism(n, domain, _kinds(domain)), min_size=1, max_size=3))
    raw = draw(st.lists(st.integers(1, 3), min_size=len(mechs), max_size=len(mechs)))
    family = draw(st.integers(0, 3)) if domain == UNIT_INTERVAL else 0
    total = sum(raw) + family
    components = tuple((mech, F(w, total)) for mech, w in zip(mechs, raw))
    return partial(RandomizedMechanism, n, domain, components, F(family, total)), dom


def _outcome(call):
    try:
        return call()
    except MechanismError as exc:
        return f"error: {exc}"


def _verdict(axiom, variant, found, note=""):
    """The JSON of a verdict: ``found`` is (witness JSON, detail) or None."""
    data = {"axiom": axiom, "variant": variant}
    if found is None:
        return {**data, "status": "pass", **({"detail": note} if note else {})}
    witness, detail = found
    return {**data, "status": "fail", "witness": witness, **({"detail": detail} if detail else {})}


def _universal(axiom, build, reference, note):
    """The universal verdict of the mixture ``build`` makes: each finite
    component in order, then the family, which passes by theorem. Every
    part is priced first, so the first invalid one raises its error, as
    building the mixture does."""
    _, _, components, family = build.args
    found = [reference(mech) for mech, _ in components]
    for (mech, _), failure in zip(components, found):
        if failure is not None:
            witness, detail = failure
            return _verdict(axiom, "universal", ({**witness, "component": format_mechanism(mech)}, detail))
    return _verdict(axiom, "universal", None, note if family else "")


# ---------------------------------------------------------------------------
# Efficiency
# ---------------------------------------------------------------------------


def _efficiency_reference(mech, dom):
    """(witness JSON, side) of the first profile whose output leaves the
    reported range, or None: the grid's report multisets (ordered vectors
    for a dictator), then on the real line every report at floor(y_0) - 1
    and at ceil(y_n) + 1 for a finite lowest or highest phantom."""
    n, points = dom.n, dom.points()
    if mechanism_is_anonymous(mech):
        profiles = list(combinations_with_replacement(points, n))
    else:
        profiles = list(product(points, repeat=n))
    if dom.domain == REAL_LINE and isinstance(mech, Phantom):
        low, high = mech.phantoms[0], mech.phantoms[-1]
        if not isinstance(low, Infinite):
            profiles.append((F(math.floor(low) - 1),) * n)
        if not isinstance(high, Infinite):
            profiles.append((F(math.ceil(high) + 1),) * n)
    for X in profiles:
        out = evaluate(mech, Profile(dom.domain, X))
        if out < min(X):
            bound, side = min(X), "below the leftmost report"
        elif out > max(X):
            bound, side = max(X), "above the rightmost report"
        else:
            continue
        witness = {"profile": [format_point(x) for x in X], "lhs": format_point(out), "bound": format_point(bound)}
        return witness, side
    return None


@settings(max_examples=100)
@given(_cells(deterministic=True))
def test_efficiency_det_matches_plain_loop(cell):
    mech, dom = cell
    actual = _outcome(lambda: axioms.check_efficiency(mech, dom).to_json())
    expected = _outcome(lambda: _verdict("efficiency", "det", _efficiency_reference(mech, dom)))
    assert actual == expected


@settings(max_examples=100)
@given(_cells(deterministic=False))
def test_efficiency_universal_matches_plain_loop(cell):
    build, dom = cell
    actual = _outcome(lambda: axioms.check_efficiency(build(), dom, axioms.UNIVERSAL).to_json())
    expected = _outcome(
        lambda: _universal(
            "efficiency", build, lambda mech: _efficiency_reference(mech, dom), EFFICIENCY_FAMILY
        )
    )
    assert actual == expected


# ---------------------------------------------------------------------------
# Anonymity
# ---------------------------------------------------------------------------


def _anonymity_reference(target, dom):
    """(witness JSON, "") of the first ordered grid profile and adjacent
    swap, in that order, that moves the expected location, or None."""
    n = dom.n
    for X in product(dom.points(), repeat=n):
        base = expected_facility_location(target, Profile(dom.domain, X))
        for j in range(n - 1):
            Y = X[:j] + (X[j + 1], X[j]) + X[j + 2 :]
            moved = expected_facility_location(target, Profile(dom.domain, Y))
            if moved != base:
                permutation = [*range(1, j + 1), j + 2, j + 1, *range(j + 3, n + 1)]
                witness = {
                    "profile": [format_point(x) for x in X],
                    "permutation": permutation,
                    "lhs": format_point(moved),
                    "bound": format_point(base),
                }
                return witness, ""
    return None


@settings(max_examples=100)
@given(_cells(deterministic=True))
def test_anonymity_det_matches_plain_loop(cell):
    mech, dom = cell
    actual = _outcome(lambda: axioms.check_anonymity(mech, dom).to_json())
    expected = _outcome(lambda: _verdict("anonymity", "det", _anonymity_reference(mech, dom)))
    assert actual == expected


@settings(max_examples=100)
@given(_cells(deterministic=False))
def test_anonymity_in_expectation_matches_plain_loop(cell):
    build, dom = cell
    actual = _outcome(lambda: axioms.check_anonymity(build(), dom, axioms.EXP).to_json())
    expected = _outcome(lambda: _verdict("anonymity", "exp", _anonymity_reference(build(), dom)))
    assert actual == expected


@settings(max_examples=100)
@given(_cells(deterministic=False))
def test_anonymity_universal_matches_plain_loop(cell):
    build, dom = cell
    actual = _outcome(lambda: axioms.check_anonymity(build(), dom, axioms.UNIVERSAL).to_json())
    expected = _outcome(
        lambda: _universal(
            "anonymity", build, lambda mech: _anonymity_reference(mech, dom), ANONYMITY_FAMILY
        )
    )
    assert actual == expected
