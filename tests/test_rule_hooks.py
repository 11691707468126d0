"""The two linear rule hooks against the loops they replaced.

``axioms._slope_theorem`` reads, for each i = n - s, the weight of the
vectors with y_i at the high end and the vectors with y_i inside the domain
from one pass over the parts, walks the group sizes of the agents after the
last labelled one, and otherwise names that agent alone.
``axioms._anonymity_first`` reads only the dictator parts. The
references below are the earlier forms: the slope rule reading every
vector at every 0/1 pattern of the sweep's order, and the anonymity rule
scanning the dictator shares of every part. Random mixtures of ranks,
unanimous and interior phantom vectors, equal and unequal dictators,
averages and (on [0,1]) the family, on both domains at n = 2..6, must get
the same detail, or the same FAIL pattern (on the first pair for ranks,
dictators and averages alone, with its off-grid steps otherwise), and the
same first anonymity failure. A FAIL of the ranks, dictators and averages
alone, priced on the first pair with no sweep, must name the engine's
first witness byte for byte. The explicit examples hold what derandomized
draws can miss: unequal dictators, a phantom inside the domain, the family
beside ranks whose high-end mass would meet the rule without it, the
uniform phantoms, which meet the integral rule with phantoms inside, and
three labelled first misses: a group of two after an unequal agent 1, the
unequal agent 1 alone, and agent 2 alone when only agent 3's weight
differs.
"""

import json
import math
from fractions import Fraction as F
from functools import partial

from hypothesis import example, given, strategies as st

from proploc import axioms
from proploc.core import (
    ONE,
    POS_INF,
    NEG_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    Phantom,
    Profile,
    RandomizedMechanism,
    RankK,
    outcome_pairs,
)
from proploc.sweep import dictator_shares, grid_profiles, label_free


def reference_slope_theorem(dom, ends_only, subject):
    """The slope rule's hook as a loop over every 0/1 pattern in the sweep's
    order, each vector read at y_{n-s} for every pattern."""
    detail = axioms._average_theorem(subject, dom)
    if detail:
        return detail
    n, forms = dom.n, subject.forms
    low, high = axioms._ends(dom.domain)
    wden = math.lcm(subject.continuous_weight.denominator, *(w.denominator for _, w in forms))
    average, shares, vectors = 0, [0] * n, []
    for mech, weight in forms:
        u = weight.numerator * (wden // weight.denominator)
        if isinstance(mech, Average):
            average += u
        elif isinstance(mech, Dictator):
            shares[mech.agent - 1] += u
        elif isinstance(mech, RankK):
            vectors.append((u, mech.k, n + 1 - mech.k, None))
        elif mech.phantoms[0] != low or mech.phantoms[-1] != high:
            return None
        else:
            vectors.append((u, mech.phantoms.count(low), mech.phantoms.count(high), mech.phantoms))
    family = subject.continuous_weight.numerator * (wden // subject.continuous_weight.denominator)
    # Ranks, dictators and averages alone: no phantom inside, no family.
    constant = not family and all(lows + highs == n + 1 for _, lows, highs, _ in vectors)
    for pattern in grid_profiles((0, 1), n, label_free(forms, n, True)):
        s = pattern.count(0)
        if not 0 < s < n:
            continue
        i = n - s
        outputs = [(u, low if i < lows else high if i > n - highs else phantoms[i])
                   for u, lows, highs, phantoms in vectors]
        inside = [(u, y) for u, y in outputs if y is not low and y is not high]
        mass = sum(u for u, y in outputs if y is high) + sum(d for d, bit in zip(shares, pattern) if bit)
        if ends_only:
            integral = n * (mass + sum(u * y for u, y in inside)) + family * i
            held, steps = integral == (wden - average) * i, [low, high]
        else:
            held = not family and not inside and n * mass == (wden - average) * i
            steps = [low, *sorted({y for _, y in inside}), high]
        if not held:
            if constant:
                return partial(axioms._first_pair, subject, dom, pattern, ends_only)
            return partial(axioms._off_grid, subject, dom, pattern, steps)
    if ends_only:
        return "the integral of P(facility > t) at each group's bound: every 0/1 profile"
    return "the slope P(facility > t) at each group's bound throughout the domain: every real pair"


def reference_anonymity_first(components, dom, combine):
    """The anonymity rule scanning the dictator shares of every part (with
    ``combine``, of the whole mixture) for the first that differ."""
    n = dom.n
    for index, group in enumerate([components] if combine else [[pair] for pair in components]):
        weights = dictator_shares(group, n)
        moving = [j for j in range(n - 1) if weights[j] != weights[j + 1]]
        if moving:
            break
    else:
        return None
    j = moving[-1]
    perm = (*range(j), j + 1, j, *range(j + 2, n))
    low, second = dom.points()[:2]
    profile = (low,) * (j + 1) + (second,) + (low,) * (n - j - 2)
    parts = components if combine else [(components[index][0], ONE)]

    def price(order):
        reordered = Profile(dom.domain, tuple(profile[p] for p in order))
        return sum(weight * x for x, weight in outcome_pairs(parts, reordered))

    lhs, bound = price(perm), price(range(n))
    permutation = tuple(p + 1 for p in perm)
    return index, axioms.Witness(profile, dom.domain, permutation=permutation, lhs=lhs, bound=bound), ""


@st.composite
def mixtures(draw, domain):
    """(mixture, check domain), built to meet the slope rule and then
    changed, so that the first group to miss it may have any size: every
    rank at one weight, every agent's dictator at one weight, an average
    and, on [0,1], the family; then up to three changes, each one of:

    - a unit of weight moved from one part to another (between ranks it
      first shows at the lower rank; between dictators it reads labels);
    - a rank k < n replaced by a unanimous vector whose first phantoms past
      the k low ends lie inside the domain;
    - a part added at weight 1: a rank, a dictator, an average, a unanimous
      vector, an interior one, whose outer phantoms lie inside the domain,
      or on [0,1] the uniform phantoms.
    """
    n = draw(st.integers(2, 6))
    dom = axioms.CheckDomain(n=n, grid=draw(st.integers(1, 3)), domain=domain)
    low, high = axioms._ends(domain)
    d = draw(st.sampled_from([2, 3, 4]))
    span = (1, d - 1) if domain == UNIT_INTERVAL else (-2 * d, 2 * d)

    def inner(count):
        return sorted(F(v, d) for v in draw(st.lists(st.integers(*span), min_size=count, max_size=count)))

    def unanimous(lows, inside):
        return Phantom((low,) * lows + tuple(inner(inside)) + (high,) * (n + 1 - lows - inside))

    rank, dictator = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    parts = [[RankK(k), rank] for k in range(1, n + 1)] + [[Dictator(i), dictator] for i in range(1, n + 1)]
    parts.append([Average(), draw(st.integers(0, 2))])
    family = draw(st.integers(0, 2)) if domain == UNIT_INTERVAL else 0
    for change in draw(st.lists(st.sampled_from(["move", "inside", "add"]), max_size=3)):
        if change == "move":
            source, target = draw(st.sampled_from(parts)), draw(st.sampled_from(parts))
            if source[1]:
                source[1] -= 1
                target[1] += 1
        elif change == "inside":
            k = draw(st.integers(1, n - 1))
            for part in parts:
                if part[0] == RankK(k):
                    part[0] = unanimous(k, draw(st.integers(1, n - k)))
        else:
            lows = draw(st.integers(1, n))
            added = {
                "rank": lambda: RankK(draw(st.integers(1, n))),
                "dictator": lambda: Dictator(draw(st.integers(1, n))),
                "average": Average,
                "unanimous": lambda: unanimous(lows, draw(st.integers(0, n - lows))),
                "interior": lambda: Phantom(tuple(inner(n + 1))),
            }
            if domain == UNIT_INTERVAL:
                # Phantoms at j/n: it meets the integral rule, with y_i inside.
                added["uniform"] = lambda: Phantom(tuple(F(j, n) for j in range(n + 1)))
            parts.append([added[draw(st.sampled_from(sorted(added)))](), 1])
    total = sum(raw for _, raw in parts) + family
    if not total:
        parts, total = [[Average(), 1]], 1
    mixture = RandomizedMechanism(n, domain, tuple((mech, F(raw, total)) for mech, raw in parts if raw),
                                  continuous_weight=F(family, total))
    return mixture, dom


def _cases():
    return st.sampled_from([UNIT_INTERVAL, REAL_LINE]).flatmap(mixtures)


def _key(hook):
    """A hook's answer: the detail or None as it is, an off-grid FAIL as its
    arguments."""
    return (hook.func, hook.args) if callable(hook) else hook


# Agent 3's dictator weight meets the rule for the group (1, 2) and agent 2's
# misses it for (1, 3): the labelled walk's first miss is the second pattern.
UNEQUAL_DICTATORS = (
    RandomizedMechanism(3, UNIT_INTERVAL, ((Dictator(1), F(2, 3)), (Dictator(3), F(1, 3)))),
    axioms.CheckDomain(n=3, grid=2),
)
INSIDE = (
    RandomizedMechanism(4, REAL_LINE, ((RankK(2), F(1, 2)), (Phantom((NEG_INF, -1, F(1, 2), POS_INF, POS_INF)), F(1, 2)))),
    axioms.CheckDomain(n=4, grid=1, domain=REAL_LINE),
)
# The ranks' high-end mass at i = 1 is the rule's (1 - a)/n only with the
# family's weight counted in: the family alone makes it miss.
FAMILY = (
    RandomizedMechanism(2, UNIT_INTERVAL, ((RankK(1), F(1, 2)), (RankK(2), F(1, 4))), continuous_weight=F(1, 4)),
    axioms.CheckDomain(n=2, grid=1),
)
# Random Rank beside the uniform phantoms meets the integral rule with y_i
# inside at every i: a high-end mass read one index early misses it.
UNIFORM = (
    RandomizedMechanism(3, UNIT_INTERVAL, (*((RankK(k), F(1, 6)) for k in (1, 2, 3)),
                                           (Phantom((0, F(1, 3), F(2, 3), 1)), F(1, 2)))),
    axioms.CheckDomain(n=3, grid=1),
)


def _labelled(n, raw):
    """(mixture, check domain) of (part, integer weight) pairs on [0,1]."""
    total = sum(weight for _, weight in raw)
    return (RandomizedMechanism(n, UNIT_INTERVAL, tuple((mech, F(weight, total)) for mech, weight in raw)),
            axioms.CheckDomain(n=n, grid=1))


def found_shape(n):
    """Ranks 1..n-1 at weight 2, rank n at 1, dictator 1 at 2 and dictators
    2..n at 1: every group drawn from agents 2..n meets the rule, and agent
    1 alone, the pattern (1, 0, ..., 0), misses it."""
    ranks = [(RankK(k), 2) for k in range(1, n)] + [(RankK(n), 1)]
    return _labelled(n, ranks + [(Dictator(1), 2)] + [(Dictator(i), 1) for i in range(2, n + 1)])


# Agent 1 alone holds 2 of dictator weight, agents 2 and 3 hold 1: agents 2
# and 3 each meet the rule alone, and together, (0, 1, 1), miss it before
# agent 1 alone is tried.
SUFFIX_GROUP = _labelled(3, [(RankK(1), 2), (RankK(2), 1), (RankK(3), 2),
                             (Dictator(1), 2), (Dictator(2), 1), (Dictator(3), 1)])
# Only agent 3's dictator weight differs: agent 3 alone meets the rule, agent
# 2 alone, (0, 1, 0), misses it, and the group of agents 2 and 3 would too.
LAST_AGENT = _labelled(3, [(RankK(2), 1), (RankK(3), 1), (Dictator(1), 1), (Dictator(2), 1), (Dictator(3), 2)])


@given(_cases())
@example(UNEQUAL_DICTATORS)
@example(INSIDE)
@example(FAMILY)
@example(UNIFORM)
@example(SUFFIX_GROUP)
@example(found_shape(6))
@example(LAST_AGENT)
def test_slope_hook_matches_the_pattern_loop(case):
    mixture, dom = case
    for ends_only in (False, True):
        assert _key(axioms._slope_theorem(mixture, dom, ends_only)) == _key(
            reference_slope_theorem(dom, ends_only, mixture))


def test_slope_hook_reads_a_labelled_first_miss_off_the_shares(monkeypatch):
    """At n = 40 the first miss of the found shape is 2^39 patterns into the
    sweep's order; the hook names it without walking them, and both checks
    price that pattern on the grid's first pair with no engine built."""
    mixture, dom = found_shape(40)
    for ends_only in (False, True):
        hook = axioms._slope_theorem(mixture, dom, ends_only)
        assert hook.func is axioms._first_pair
        assert hook.args[2] == (1,) + (0,) * 39

    def refuse(*args, **kwargs):
        raise AssertionError("a slope-rule FAIL of ranks and dictators reached the engine")

    monkeypatch.setattr(axioms, "GroupSweep", refuse)
    for check in (axioms.check_strong_proportionality, axioms.check_proportionality):
        verdict = check(mixture, dom, axioms.EXP)
        assert verdict.witness.profile == (1,) + (0,) * 39
        assert verdict.witness.group == tuple(range(2, 41))
        assert axioms.recheck_witness(mixture, verdict)


def _ranks_dictators_and_averages(mixture, dom):
    """The mixture's ranks, dictators and averages alone, their weights
    rescaled to sum to 1, or None if it has none."""
    kept = [(mech, weight) for mech, weight in mixture.forms if isinstance(mech, (RankK, Dictator, Average))]
    if not kept:
        return None
    total = sum(weight for _, weight in kept)
    return RandomizedMechanism(dom.n, dom.domain, tuple((mech, weight / total) for mech, weight in kept))


@given(_cases())
@example(UNEQUAL_DICTATORS)
@example(SUFFIX_GROUP)
@example(LAST_AGENT)
@example(found_shape(6))
def test_a_slope_rule_fail_names_the_engines_first_witness(case):
    """A FAIL of ranks, dictators and averages is priced on the grid's
    first pair with the rule's pattern, never swept: its witness is the
    engine's first (``_group_first``) byte for byte, for Strong
    Proportionality and, on [0,1], proportionality."""
    mixture, dom = case
    mixture = _ranks_dictators_and_averages(mixture, dom)
    if mixture is None:
        return

    def unswept():
        raise AssertionError("the first pair's witness swept the grid")

    for ends_only in (False, True) if dom.domain == UNIT_INTERVAL else (False,):
        hook = axioms._slope_theorem(mixture, dom, ends_only)
        if not callable(hook):
            continue
        found = axioms._group_first(mixture.forms, dom, True, partial(axioms._two_valued_grid, ends_only=ends_only),
                                    axioms._group_violation)
        status, witness, detail = hook(unswept)
        assert (status, detail) == (axioms.FAIL, "")
        assert repr(witness) == repr(found[1])
        assert json.dumps(witness.to_json()) == json.dumps(found[1].to_json())


@given(_cases())
@example(UNEQUAL_DICTATORS)
@example(INSIDE)
def test_anonymity_hook_matches_the_per_part_scan(case):
    """With ``combine`` the whole mixture's first failure; without it each
    part at weight 1 (the family as its swept realisation), as a universal
    check hands them in."""
    mixture, dom = case
    parts = [(form, ONE) for form, _ in mixture.forms] + ([(RankK(dom.n), ONE)] if mixture.has_continuous else [])
    assert axioms._anonymity_first(parts, dom, False) == reference_anonymity_first(parts, dom, False)
    if not mixture.has_continuous:
        assert axioms._anonymity_first(mixture.forms, dom, True) == reference_anonymity_first(
            mixture.forms, dom, True)
