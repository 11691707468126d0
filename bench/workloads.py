"""The benchmark's three workloads: seeded inputs, timed ops, output checks.

Each workload repeats one pass, the same set of ops every time, over inputs
generated from the seed alone (``bench/inputs.json`` holds the fixed data:
the paper's table, the catalog cells expected to FAIL, and the input
distributions). Ops record their intervals on the probe; ``run_pass``
returns the pass's timed intervals and its attempted and failed op counts.
Output checks run off the clock, with tracing paused.

- ``table``: ``proploc table --format json`` at n = 2, 3, 4. An op is one
  cell verdict, timed at the ``axioms.run_check`` boundary.
- ``witness``: every catalog cell expected to FAIL, verdict plus
  ``recheck_witness`` as one op, plus ``search_manipulation`` ops.
- ``evaluate``: what ``proploc run`` computes, one (mechanism, profile)
  pair per op.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from proploc import analysis, axioms, cli, core, mechanisms

MODULES = {
    "cli": cli,
    "mechanisms": mechanisms,
    "axioms": axioms,
    "analysis": analysis,
    "core": core,
}
DATA = json.loads((Path(__file__).with_name("inputs.json")).read_text())

_reported_errors = 0


def _report_error(context: str):
    """An op that raises counts as failed; show the first few tracebacks."""
    global _reported_errors
    _reported_errors += 1
    if _reported_errors <= 3:
        print(f"op failed ({context}):\n{traceback.format_exc()}", file=sys.stderr)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Table:
    """The paper's property table, regenerated through the CLI.

    Its n=4 cells are full PASS sweeps in the axioms engine and take about
    90% of a pass; its n=2 cells expose per-verdict overhead.
    """

    name = "table"
    op_function = "axioms.run_check"
    trace_passes = 1

    def __init__(self, seed: int, data=DATA["table"]):
        p = random.Random(seed).choice(data["p_choices"])
        self.argvs = [
            ["table", "--n", str(n), "--grid", str(data["grid"]), "--p", p, "--format", "json"]
            for n in data["ns"]
        ]
        self.columns = data["columns"]
        self.answers = data["answers"]
        self.cells_per_table = sum(len(row) for row in self.answers.values())

    def inputs(self):
        return [" ".join(argv) for argv in self.argvs]

    def build(self):
        pass

    def _failed_cells(self, code, output: str) -> int:
        if code != 0:
            return self.cells_per_table
        failed = 0
        rows = {row["mechanism"]: row["cells"] for row in json.loads(output)["rows"]}
        for mechanism, answers in self.answers.items():
            got = {
                cell["column"]: cell["answer"] + ("*" if cell.get("starred") else "")
                for cell in rows.get(mechanism, [])
            }
            failed += sum(got.get(column) != answer for column, answer in zip(self.columns, answers))
        return failed

    def run_pass(self, probe, index: int):
        timed = []
        attempted = failed = 0
        for argv in self.argvs:
            out = io.StringIO()
            start = perf_counter()
            try:
                with redirect_stdout(out):
                    code = cli.main(argv)
            except Exception:
                code = None
                _report_error(" ".join(argv))
            timed.append((start, perf_counter()))
            attempted += self.cells_per_table
            with probe.paused():
                failed += self._failed_cells(code, out.getvalue())
        return timed, attempted, failed


class Witness:
    """Failing verdicts with their rechecks, and manipulation searches.

    Most sweeps stop at the first violation, so per-verdict set-up and the
    plain-rational recheck through ``analysis`` dominate; the searches never
    stop early and make the tail. Every pass runs each cell on every grid,
    so a pass costs the same whatever the seed; the seed draws each search's
    mixing weight p in (1/2, 1) and the order of the ops in each pass.
    """

    name = "witness"
    op_function = None
    trace_passes = 1

    def __init__(self, seed: int, data=DATA["witness"]):
        rng = random.Random(seed)
        ops = [
            ("cell", domain, n, grid, spec, axiom, variant)
            for domain, n, spec, axiom, variant in data["fail_cells"]
            for grid in data["grids"]
        ]
        for domain, n in data["search_cases"]:
            spec = f"{data['search_mechanism']}:p={rng.choice(data['search_p_choices'])}"
            ops += [("search", domain, n, grid, spec) for grid in data["grids"]]
        self.passes = []
        for _ in range(data["orders"]):
            rng.shuffle(ops)
            self.passes.append(list(ops))

    def inputs(self):
        return [" ".join(map(str, op)) for ops in self.passes for op in ops]

    def build(self):
        self.mechanisms = {}
        self.domains = {}
        for _, domain, n, grid, spec, *_ in self.passes[0]:
            if (spec, n, domain) not in self.mechanisms:
                self.mechanisms[spec, n, domain] = mechanisms.build_mechanism(spec, n, domain)
            if (n, grid, domain) not in self.domains:
                self.domains[n, grid, domain] = axioms.CheckDomain(n=n, grid=grid, domain=domain)

    @staticmethod
    def _verdict_and_recheck(axiom, mechanism, dom, variant):
        verdict = axioms.run_check(axiom, mechanism, dom, variant)
        return verdict.failed and axioms.recheck_witness(mechanism, verdict)

    @staticmethod
    def _finding_holds(mechanism, finding) -> bool:
        if finding is None:
            return False
        profile = core.Profile(finding.domain, finding.profile)
        truth = profile.locations[finding.agent - 1]
        truthful = analysis.expected_distance_to_point(mechanism, profile, truth)
        deviating = analysis.expected_distance_to_point(
            mechanism, profile.replace(finding.agent, finding.misreport), truth
        )
        return (
            truthful == finding.truthful_cost
            and deviating == finding.deviating_cost
            and truthful - deviating > 0
        )

    def run_pass(self, probe, index: int):
        before = len(probe.intervals)
        failed = 0
        ops = self.passes[index % len(self.passes)]
        for kind, domain, n, grid, spec, *cell in ops:
            mechanism = self.mechanisms[spec, n, domain]
            dom = self.domains[n, grid, domain]
            try:
                if kind == "cell":
                    axiom, variant = cell
                    ok = probe.op(self._verdict_and_recheck, axiom, mechanism, dom, variant)
                else:
                    finding = probe.op(axioms.search_manipulation, mechanism, dom)
                    with probe.paused():
                        ok = self._finding_holds(mechanism, finding)
            except Exception:
                ok = False
                _report_error(f"{kind} {domain} n={n} m={grid} {spec} {cell}")
            failed += not ok
        return probe.intervals[before:], len(ops), failed


class Evaluate:
    """Outcome lotteries and expectations for single profiles.

    ``core`` and ``analysis`` Fraction arithmetic do all the work and the
    axioms engine none, so a sweep-engine change must read "no change"
    here. The continuous phantom family's closed form at large n makes the
    tail. A pass is one cycle through the seeded pool of pairs, 70% of them
    on the unit interval.
    """

    name = "evaluate"
    op_function = None
    trace_passes = 2

    def __init__(self, seed: int, data=DATA["evaluate"]):
        rng = random.Random(seed)
        low, high = data["n_range"]
        span = data["real_line_span"]
        self.pairs = []
        # Every seed gets the same count of each (domain, mechanism, n); the
        # seed draws the points and the averaging weights.
        for domain, per_stratum in data["pairs_per_mechanism_and_n"].items():
            for spec in data["mechanisms"][domain]:
                for n in range(low, high + 1):
                    for _ in range(per_stratum):
                        name = spec
                        if spec == "avg_or_rr":
                            name += f":p={rng.choice(data['avg_or_rr_p_choices'])}"
                        points = []
                        for _ in range(n):
                            d = rng.choice(data["denominators"])
                            k = (rng.randint(0, d) if domain == core.UNIT_INTERVAL
                                 else rng.randint(-span * d, span * d))
                            points.append(Fraction(k, d))
                        self.pairs.append((domain, name, tuple(points)))
        rng.shuffle(self.pairs)

    def inputs(self):
        return [
            f"{domain} {spec} " + ",".join(map(str, points))
            for domain, spec, points in self.pairs
        ]

    def build(self):
        built = {}
        self.ops = []
        for domain, spec, points in self.pairs:
            key = (spec, len(points), domain)
            if key not in built:
                built[key] = mechanisms.build_mechanism(spec, len(points), domain)
            self.ops.append((built[key], core.Profile(domain, points)))
        self.verified = [None] * len(self.ops)

    @staticmethod
    def _run(mechanism, profile):
        """The computation of ``proploc run``: lottery (when finite), expected
        location, and each agent's expected distance."""
        try:
            dist = core.outcome_distribution(mechanism, profile)
        except core.ContinuousFamilyError:
            return (
                analysis.expected_facility_location(mechanism, profile),
                analysis.expected_agent_distances(mechanism, profile),
                None,
            )
        return (
            dist.expected_location(),
            tuple(dist.expected_distance(x) for x in profile.locations),
            dist,
        )

    @staticmethod
    def _cross_check(mechanism, profile, location, distances, dist) -> bool:
        if dist is not None:
            return location == analysis.expected_facility_location(mechanism, profile) and all(
                d == analysis.expected_distance_to_point(mechanism, profile, x)
                for x, d in zip(profile.locations, distances)
            )
        # The continuous phantom family commutes with the reflection x -> 1 - x.
        mirrored = core.Profile(profile.domain, tuple(1 - x for x in profile.locations))
        return (
            analysis.expected_facility_location(mechanism, mirrored) == 1 - location
            and analysis.expected_agent_distances(mechanism, mirrored) == distances
        )

    def run_pass(self, probe, index: int):
        before = len(probe.intervals)
        failed = 0
        for slot, (mechanism, profile) in enumerate(self.ops):
            try:
                location, distances, dist = probe.op(self._run, mechanism, profile)
                with probe.paused():
                    answer = (location, distances)
                    if self.verified[slot] is None:
                        ok = self._cross_check(mechanism, profile, location, distances, dist)
                        self.verified[slot] = answer if ok else False
                    else:
                        ok = answer == self.verified[slot]
            except Exception:
                ok = False
                _report_error(f"{mechanism!r} on {profile}")
            failed += not ok
        return probe.intervals[before:], len(self.ops), failed


WORKLOADS = {cls.name: cls for cls in (Table, Witness, Evaluate)}


def make(name: str, seed: int):
    workload = WORKLOADS[name](seed)
    workload.digest = _digest(workload.inputs())
    return workload


def swept_profiles(axiom, variant, mechanism, dom) -> int:
    """Profiles a PASS verdict enumerates, summed over the components swept.

    This models the axioms engine from its documented behaviour: grids of
    m+1 (unit interval) or 2m+1 (real line) points, multisets of reports for
    anonymous components and ordered profiles otherwise, every component
    plus the sampled continuous support for the universal variant, and the
    universal certificate for in-expectation checks of continuous families.
    """
    n = dom.n
    points = dom.grid + 1 if dom.domain == core.UNIT_INTERVAL else 2 * dom.grid + 1
    mixture = core.as_mixture(mechanism, n, dom.domain)

    def count(anonymous: bool) -> int:
        if axiom in (axioms.STRATEGYPROOFNESS, axioms.EFFICIENCY, axioms.SPF):
            return math.comb(points + n - 1, n) if anonymous else points ** n
        if axiom == axioms.ANONYMITY:
            return points ** n
        endpoint_profiles = n + 1 if anonymous else 2 ** n
        if axiom == axioms.PROPORTIONALITY:
            return endpoint_profiles
        return math.comb(points, 2) * endpoint_profiles  # strong proportionality

    flags = [core.mechanism_is_anonymous(mech) for mech, _ in mixture.components]
    support = 0
    if mixture.has_continuous:
        support_points = (dom.support_grid or dom.grid) + 1
        support = math.comb(support_points + n - 2, n - 1)
    certificate = mixture.has_continuous and axiom in (axioms.STRATEGYPROOFNESS, axioms.ANONYMITY)
    if variant == axioms.UNIVERSAL or (variant == axioms.EXP and certificate):
        return sum(count(flag) for flag in flags) + support * count(True)
    return count(all(flags))
