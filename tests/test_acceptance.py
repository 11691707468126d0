"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
alongside the pytest report. Every quantity asserted here is exact rational
arithmetic unless the criterion is explicitly about the float reference in
``float_oracle``, in which case the inequality margin must clear its error
bound.
"""

import random
import time
from fractions import Fraction as F

import proploc.analysis as an
import proploc.axioms as ax
from float_oracle import oracle_point_distance, order_stat_mc
from phantom_forms import to_phantom_form
from proploc.axioms import CheckDomain, recheck_witness
from proploc.cli import build_table, table_answers
from proploc.core import (
    Median,
    Profile,
    REAL_LINE,
    UNIT_INTERVAL,
    UniformPhantom,
    evaluate,
    outcome_distribution,
    RankK,
)
from proploc.mechanisms import (
    average_or_random_rank,
    random_dictator,
    random_phantom,
    random_rank,
)


def report(number: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------------------


def test_criterion_1_rank_mixture_worked_example():
    profile = Profile.unit(0, 0, F(1, 3))
    mechanism = random_rank(3)
    dist = outcome_distribution(mechanism, profile)
    exact = (
        dict(dist.atoms) == {F(0): F(2, 3), F(1, 3): F(1, 3)}
        and dist.expected_location() == F(1, 9)
    )
    best = float("inf")
    for _ in range(200):
        start = time.perf_counter()
        outcome_distribution(mechanism, profile)
        best = min(best, time.perf_counter() - start)
    report(
        1,
        f"rank mixture on (0,0,1/3): atoms and mean exact, {best * 1e6:.0f}us < 1ms",
        exact and best < 1e-3,
    )


EXPECTED_MATRIX = [
    ["Yes", "Yes", "Yes", "Yes", "Yes"],  # Random Rank
    ["Yes", "Yes", "No", "Yes", "Yes"],  # Random Dictatorship
    ["Yes", "Yes", "Yes", "Yes", "No"],  # Random Phantom
    ["No", "Yes*", "Yes", "Yes", "Yes"],  # AverageOrRR at p=1/2
    ["Yes", "Yes", "Yes", "No", "No"],  # Median
    ["Yes", "Yes", "Yes", "Yes", "No"],  # Uniform Phantom
]


def test_criterion_2_property_table_regeneration():
    start = time.perf_counter()
    all_match = True
    oracle_margins = []
    for n in (2, 3, 4):
        table = build_table(n, 6, F(1, 2))
        if table_answers(table) != EXPECTED_MATRIX:
            all_match = False
            continue
        # corroborate the continuous family's failing cell numerically
        witness = table["rows"][2]["cells"][4]["witness"]
        profile = Profile(UNIT_INTERVAL, tuple(F(x) for x in witness["profile"]))
        agent = witness["agent"]
        bound = float(F(witness["bound"]))
        point = profile.locations[agent - 1]
        if n <= 3:
            estimate = oracle_point_distance(
                random_phantom(n), profile, point, mode="quadrature", tol=1e-7
            )
        else:
            estimate = oracle_point_distance(
                random_phantom(n),
                profile,
                point,
                mode="monte_carlo",
                samples=1_000_000,
                seed=2,
            )
        oracle_margins.append(estimate.value - bound - estimate.error)
    elapsed = time.perf_counter() - start
    margins_ok = all(margin > 1e-6 for margin in oracle_margins) and len(
        oracle_margins
    ) == 3
    report(
        2,
        f"table matches at n=2,3,4 (m=6, p=1/2); oracle margins "
        f"{['%.2e' % m for m in oracle_margins]} all > 1e-6; {elapsed:.1f}s < 60s",
        all_match and margins_ok and elapsed < 60,
    )


def test_criterion_3_mixing_probability_boundary():
    ok = True
    for p in (F(0), F(1, 4), F(1, 2)):
        for n in (2, 3, 4):
            for m in (6, 12):
                dom = CheckDomain(n=n, grid=m)
                verdict = ax.check_strategyproofness(
                    average_or_random_rank(p, n), dom, ax.EXP
                )
                ok = ok and verdict.passed
    witnesses_ok = True
    for p in (F(51, 100), F(3, 5), F(1)):
        mix = average_or_random_rank(p, 2)
        verdict = ax.check_strategyproofness(mix, CheckDomain(n=2, grid=10), ax.EXP)
        witnesses_ok = witnesses_ok and verdict.failed and recheck_witness(mix, verdict)
    report(
        3,
        "average weight 0,1/4,1/2 truthful at n<=4, m<=12; 51/100,3/5,1 fail "
        "with re-verified exact witnesses",
        ok and witnesses_ok,
    )


def test_criterion_4_deterministic_impossibility_certificate():
    cert = an.prop1_infeasibility()
    forced_ok = (
        cert.first.profile.locations == (F(0), F(1, 2))
        and cert.first.forced == F(1, 4)
        and cert.second.profile.locations == (F(0), F(1))
        and cert.second.forced == F(1, 2)
    )
    sweep = an.prop1_grid_sweep(cert, grid=40)
    report(
        4,
        f"forced placements 1/4 and 1/2 jointly unachievable; m=40 sweep "
        f"found {sweep} satisfying phantom vectors",
        forced_ok and sweep == 0,
    )


def test_criterion_5_phantom_order_statistic_marginals():
    ok = True
    for n in range(2, 9):
        for mix, top in (
            (random_rank(n), "1"),
            (random_rank(n, REAL_LINE), "+inf"),
        ):
            for marginal in an.rank_phantom_marginals(mix):
                ok = ok and marginal.prob_top == F(marginal.index, n)
                ok = ok and marginal.top_label == top
    report(5, "interior phantom marginals are i/n for n <= 8 on both domains", ok)


def test_criterion_6_rank_weight_uniqueness_and_tightness():
    unique_ok = True
    for n in range(2, 7):
        result = an.solve_rank_weights(n)
        unique_ok = unique_ok and result.status == "unique"
        unique_ok = unique_ok and result.weights == tuple(F(1, n) for _ in range(n))
    tight_ok = True
    for n in range(2, 7):
        count = len(an.rank_weight_constraints(n).constraints)
        for index in range(count):
            for delta in (F(1, 100), F(-1, 100)):
                perturbed = an.solve_rank_weights(n, perturb=(index, delta))
                tight_ok = tight_ok and perturbed.status in ("infeasible", "non_unique")
    report(
        6,
        "uniform weights unique for n=2..6; every single 1/100 rhs shift "
        "breaks feasibility or uniqueness",
        unique_ok and tight_ok,
    )


def test_criterion_7_uniform_order_statistic_means():
    exact_ok = all(
        an.order_stat_mean(n - 1, i) == F(i, n)
        for n in range(2, 11)
        for i in range(1, n)
    )
    mc_ok = True
    for n in range(2, 11):
        for i in range(1, n):
            mean, three_se = order_stat_mc(
                n - 1, i, samples=1_000_000, seed=1000 * n + i
            )
            mc_ok = mc_ok and abs(mean - i / n) <= three_se
    report(
        7,
        "order-statistic means are i/n exactly for n <= 10; Monte Carlo "
        "agrees within 3 standard errors at 1e6 samples",
        exact_ok and mc_ok,
    )


def test_criterion_8_group_range_fairness_full_subsets():
    ok = True
    for n in (2, 3, 4):
        dom = CheckDomain(n=n, grid=6)
        verdict = ax.check_spf(random_rank(n), dom, ax.EXP)
        ok = ok and verdict.passed and "capped" not in verdict.detail
    report(8, "rank mixture passes subset-range fairness, full subsets, n <= 4", ok)


def test_criterion_9_real_line_extension():
    checks_ok = True
    for n in (2, 3, 4):
        dom = CheckDomain(n=n, grid=10, domain=REAL_LINE)
        mix = random_rank(n, REAL_LINE)
        checks_ok = checks_ok and ax.check_strong_proportionality(mix, dom, ax.EXP).passed
        checks_ok = checks_ok and ax.check_anonymity(mix, dom, ax.UNIVERSAL).passed
        checks_ok = (
            checks_ok and ax.check_strategyproofness(mix, dom, ax.UNIVERSAL).passed
        )
    rng = random.Random(99)
    forms_ok = True
    for _ in range(1000):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        locations = tuple(
            F(rng.randint(-200, 200), rng.randint(1, 40)) for _ in range(n)
        )
        profile = Profile(REAL_LINE, locations)
        phantom = to_phantom_form(RankK(k), n, REAL_LINE)
        forms_ok = forms_ok and evaluate(phantom, profile) == evaluate(RankK(k), profile)
    report(
        9,
        "real-line checks pass for n <= 4 on [-10,10]; 1000 random rational "
        "profiles agree between rank selection and phantom form",
        checks_ok and forms_ok,
    )


def test_criterion_10_implication_chain():
    catalog = lambda n, domain: [
        random_rank(n, domain),
        random_dictator(n, domain),
        *( [random_phantom(n)] if domain == UNIT_INTERVAL else [] ),
        average_or_random_rank(F(1, 2), n, domain),
        average_or_random_rank(F(3, 5), n, domain),
        Median(),
        *( [UniformPhantom()] if domain == UNIT_INTERVAL else [] ),
    ]
    domains = [
        CheckDomain(n=2, grid=4),
        CheckDomain(n=3, grid=6),
        CheckDomain(n=3, grid=3, domain=REAL_LINE),
    ]
    ok = True
    for dom in domains:
        for mechanism in catalog(dom.n, dom.domain):
            randomized = hasattr(mechanism, "components")
            variant = ax.EXP if randomized else ax.DET
            strong = ax.check_strong_proportionality(mechanism, dom, variant)
            spf = ax.check_spf(mechanism, dom, variant)
            if spf.passed and not strong.passed:
                ok = False
            if dom.domain == UNIT_INTERVAL:
                prop = ax.check_proportionality(mechanism, dom, variant)
                if strong.passed and not prop.passed:
                    ok = False
            if randomized:
                for axiom in (ax.ANONYMITY, ax.STRATEGYPROOFNESS):
                    universal = ax.run_check(axiom, mechanism, dom, ax.UNIVERSAL)
                    exp = ax.run_check(axiom, mechanism, dom, ax.EXP)
                    if universal.passed and not exp.passed:
                        ok = False
    report(
        10,
        "no checker output violates the implication arrows across the "
        "catalog and check domains",
        ok,
    )
