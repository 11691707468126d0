"""The orbit rule: a mixture whose lottery ignores agent labels sweeps one
profile per multiset of reports.

Every kind but a dictator reads only the multiset of reports, so a mixture
is label-free exactly when every agent's summed dictator weight is equal.
Such a mixture sweeps sorted profiles in the combined (det and exp) checks
and must report exactly what a sweep over every ordered profile reports:
the same status, the same first witness, the same largest manipulation.
The oracle is the same engine with the rule switched off, so that every
sweep runs over ordered profiles. Mixtures with unequal shares must keep
the ordered sweep.
"""

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from proploc import axioms, sweep
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    IIDPhantomSpec,
    Median,
    Phantom,
    RandomizedMechanism,
    RankK,
)
from proploc.sweep import Scaled, checked, label_free

EXP_CHECKS = (
    axioms.check_strategyproofness,
    axioms.check_strong_proportionality,
    axioms.check_proportionality,
    axioms.check_spf,
)


def _ordered(call, *args):
    """``call(*args)`` with every sweep over ordered profiles."""
    ordered = lambda components, n, combine: False
    with mock.patch.object(sweep, "label_free", ordered), mock.patch.object(axioms, "label_free", ordered):
        return call(*args)


def _verdicts(mixture, dom):
    """Every exp verdict and the manipulation search, as JSON."""
    out = []
    for check in EXP_CHECKS:
        if check is axioms.check_proportionality and dom.domain != UNIT_INTERVAL:
            continue
        verdict = check(mixture, dom, axioms.EXP)
        if verdict.failed:
            assert axioms.recheck_witness(mixture, verdict)
        out.append(verdict.to_json())
    finding = axioms.search_manipulation(mixture, dom)
    out.append(finding and finding.to_json())
    return out


@st.composite
def dictator_mixtures(draw, domain):
    """Dictators whose summed weights are equal for every agent (or, when
    ``equal`` is drawn False, not all equal, some possibly zero), some
    split over two parts, shuffled among 0-2 rank, phantom, median or
    average parts."""
    unit = domain == UNIT_INTERVAL
    n = draw(st.integers(2, 4))
    grid = draw(st.integers(1, 4 if unit else 2))
    equal = draw(st.booleans())
    if equal:
        totals = [draw(st.integers(1, 4))] * n
    else:
        totals = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda t: len(set(t)) > 1))
    raw = []
    for agent, total in enumerate(totals, start=1):
        first = draw(st.integers(min(1, total), total))
        raw += [(Dictator(agent), w) for w in (first, total - first) if w]

    def phantom():
        if unit:
            values = draw(st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1))
            return Phantom(tuple(F(v, 4) for v in sorted(values)))
        neg = draw(st.integers(0, n))
        pos = draw(st.integers(0, n - neg))
        middle = draw(st.lists(st.integers(-3, 3), min_size=n + 1 - neg - pos, max_size=n + 1 - neg - pos))
        return Phantom((NEG_INF,) * neg + tuple(F(v) for v in sorted(middle)) + (POS_INF,) * pos)

    build = {"rank": lambda: RankK(draw(st.integers(1, n))), "phantom": phantom, "median": Median, "avg": Average}
    for kind in draw(st.lists(st.sampled_from(sorted(build)), max_size=2)):
        raw.append((build[kind](), draw(st.integers(1, 3))))
    raw = draw(st.permutations(raw))
    total = sum(w for _, w in raw)
    mixture = RandomizedMechanism(n, domain, tuple((mech, F(w, total)) for mech, w in raw))
    return mixture, axioms.CheckDomain(n=n, grid=grid, domain=domain), equal


def _case(domain, grid, parts):
    """(mixture, check domain, equal shares) of (mechanism, raw weight) parts."""
    n = max(mech.agent for mech, _ in parts if isinstance(mech, Dictator))
    total = sum(w for _, w in parts)
    mixture = RandomizedMechanism(n, domain, tuple((mech, F(w, total)) for mech, w in parts))
    return mixture, axioms.CheckDomain(n=n, grid=grid, domain=domain), label_free(parts, n, True)


@given(st.sampled_from([UNIT_INTERVAL, REAL_LINE]).flatmap(dictator_mixtures))
# Shares 2:0:1 beside an average first fail every exp axiom and have their
# largest manipulation on unsorted profiles, as do shares 3:1:2 the group
# axioms on the real line: a multiset sweep would miss or move them.
@example(_case(UNIT_INTERVAL, 2, [(Dictator(1), 2), (Dictator(3), 1), (Average(), 1)]))
@example(_case(REAL_LINE, 2, [(Dictator(1), 3), (Dictator(2), 1), (Dictator(3), 2)]))
def test_equal_dictator_shares_sweep_multisets_with_the_ordered_verdicts(case):
    """Equal shares sweep multisets, unequal ones ordered profiles; either
    way every exp verdict, witness and largest manipulation is that of the
    ordered sweep. Part by part, a dictator always keeps the ordered sweep."""
    mixture, dom, equal = case
    scaled = Scaled(checked(mixture.components, dom.n, dom.domain), dom.n, dom.domain, dom.grid)
    assert scaled.anonymous(True) == equal
    assert not scaled.anonymous(False)
    assert _verdicts(mixture, dom) == _ordered(_verdicts, mixture, dom)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("shares", ["equal", "unequal"])
def test_continuous_family_beside_dictators_keeps_the_ordered_verdicts(n, shares):
    """The exact path for a continuous family reads the same rule: the
    family ignores labels, so equal dictator shares sweep multisets."""
    weights = [F(1, 2 * n)] * n if shares == "equal" else [F(1, n)] + [F(1, 2 * n)] * (n - 2)
    components = tuple((Dictator(agent), w) for agent, w in enumerate(weights, start=1))
    mixture = RandomizedMechanism(
        n, UNIT_INTERVAL, components, continuous=IIDPhantomSpec(), continuous_weight=1 - sum(weights)
    )
    dom = axioms.CheckDomain(n=n, grid=3)
    assert label_free(mixture.components, n, True) == (shares == "equal")
    for check in EXP_CHECKS[1:]:
        verdict = check(mixture, dom, axioms.EXP)
        assert verdict.to_json() == _ordered(check, mixture, dom, axioms.EXP).to_json()
