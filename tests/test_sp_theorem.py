"""The strategyproofness theorem against the sweep it replaces.

A det or exp strategyproofness check, and manipulation search, decide a
mixture with no ``Average`` part by theorem: every rank, phantom, median and
dictator part is a generalized median, which moves with an agent's report r
as clip(r, lo, hi). Random such mixtures on both domains, at n = 2..4 and
grids 1..4, must show no violation and no gain when swept anyway by
:class:`proploc.sweep.SpSweep`; their check, and the det check of each part,
must PASS with the theorem's detail, and the search must find nothing.
Mixtures with an ``Average`` are still swept: their verdicts, witnesses and
findings must be exactly the sweep's.
"""

from fractions import Fraction as F

from hypothesis import example, given, strategies as st

from proploc import axioms
from proploc.core import (
    NEG_INF,
    POS_INF,
    REAL_LINE,
    UNIT_INTERVAL,
    Average,
    Dictator,
    Median,
    Phantom,
    RandomizedMechanism,
    RankK,
    UniformPhantom,
)
from proploc.mechanisms import build_mechanism
from proploc.sweep import Scaled, SpSweep, checked

THEOREM = "every component a generalized median: every profile, every real misreport"


@st.composite
def phantoms(draw, n, domain):
    """A phantom vector with domain ends, interior values or one constant."""
    if domain == UNIT_INTERVAL:
        values = st.builds(F, st.integers(0, 4), st.just(4))
        if draw(st.booleans()):
            return Phantom((draw(values),) * (n + 1))
        return Phantom(tuple(sorted(draw(st.lists(values, min_size=n + 1, max_size=n + 1)))))
    values = st.builds(F, st.integers(-10, 10), st.sampled_from([1, 2]))
    if draw(st.booleans()):
        return Phantom((draw(values),) * (n + 1))
    neg = draw(st.integers(0, n))
    pos = draw(st.integers(0, n - neg))
    middle = draw(st.lists(values, min_size=n + 1 - neg - pos, max_size=n + 1 - neg - pos))
    return Phantom((NEG_INF,) * neg + tuple(sorted(middle)) + (POS_INF,) * pos)


@st.composite
def mixtures(draw, domain, average):
    """(mixture, check domain): ranks, phantoms, medians, uniform phantoms
    (on [0,1]) and dictators at unequal random weights, plus an ``Average``
    when ``average`` is set."""
    n = draw(st.integers(2, 4))
    dom = axioms.CheckDomain(n=n, grid=draw(st.integers(1, 4)), domain=domain)
    kinds = ["rank", "phantom", "median", "dictator"] + (["uniform"] if domain == UNIT_INTERVAL else [])
    mechs = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=0 if average else 1, max_size=4)):
        if kind == "rank":
            mechs.append(RankK(draw(st.integers(1, n))))
        elif kind == "phantom":
            mechs.append(draw(phantoms(n, domain)))
        elif kind == "median":
            mechs.append(Median())
        elif kind == "uniform":
            mechs.append(UniformPhantom())
        else:
            mechs.append(Dictator(draw(st.integers(1, n))))
    if average:
        mechs.insert(draw(st.integers(0, len(mechs))), Average())
    raw = draw(st.lists(st.integers(1, 5), min_size=len(mechs), max_size=len(mechs)))
    return RandomizedMechanism(n, domain, tuple((mech, F(w, sum(raw))) for mech, w in zip(mechs, raw))), dom


domains = st.sampled_from([UNIT_INTERVAL, REAL_LINE])


@given(domains.flatmap(lambda domain: mixtures(domain, average=False)))
def test_average_free_mixtures_pass_by_theorem_and_the_sweep_agrees(case):
    mixture, dom = case
    swept = SpSweep(Scaled(checked(mixture.components, dom.n, dom.domain), dom.n, dom.domain, dom.grid), combine=True)
    assert swept.first_violation() is None
    assert swept.best_gain() is None
    verdicts = [axioms.check_strategyproofness(mixture, dom, axioms.EXP)]
    verdicts += [axioms.check_strategyproofness(mech, dom, axioms.DET) for mech, _ in mixture.components]
    assert all((v.status, v.witness, v.detail) == (axioms.PASS, None, THEOREM) for v in verdicts)
    assert axioms.search_manipulation(mixture, dom) is None


@given(domains.flatmap(lambda domain: mixtures(domain, average=True)))
@example((build_mechanism("avg_or_rr:p=3/5", 2, UNIT_INTERVAL), axioms.CheckDomain(n=2, grid=10)))
@example((RandomizedMechanism(2, REAL_LINE, ((Average(), F(1)),)), axioms.CheckDomain(n=2, grid=1, domain=REAL_LINE)))
def test_mixtures_with_an_average_keep_the_sweeps_verdict(case):
    mixture, dom = case
    scaled = Scaled(checked(mixture.components, dom.n, dom.domain), dom.n, dom.domain, dom.grid)
    hit = SpSweep(scaled, combine=True).first_violation()
    verdict = axioms.check_strategyproofness(mixture, dom, axioms.EXP)
    assert verdict.detail == ""
    if hit is None:
        assert (verdict.status, verdict.witness) == (axioms.PASS, None)
    else:
        X, i, report, deviating, truthful = hit[1]
        assert verdict.status == axioms.FAIL
        assert verdict.witness == axioms.Witness(
            tuple(scaled.to_frac(v) for v in X), dom.domain, agent=i + 1, misreport=scaled.to_frac(report),
            lhs=scaled.cost_frac(deviating), bound=scaled.cost_frac(truthful),
        )
    best = SpSweep(scaled, combine=True).best_gain()
    finding = axioms.search_manipulation(mixture, dom)
    if best is None:
        assert finding is None
    else:
        X, i, report, deviating, truthful = best
        assert (finding.profile, finding.agent, finding.misreport, finding.deviating_cost, finding.truthful_cost) == (
            tuple(scaled.to_frac(v) for v in X), i + 1, scaled.to_frac(report),
            scaled.cost_frac(deviating), scaled.cost_frac(truthful),
        )
