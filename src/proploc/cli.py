"""Command-line front end.

Subcommands: ``run`` (evaluate a mechanism on a profile), ``check`` (one
axiom, one variant; exit code 0/1/2 for pass/fail/inconclusive), ``table``
(the mechanism-by-property summary matrix), ``search-manipulation``,
``solve-weights``, and ``prop1`` (the deterministic impossibility
certificate). Output formats: markdown (default) and json everywhere, csv
for ``run``, ``check`` and ``table``. Bad input (an unreadable or malformed
profile file, an unparsable option value, a zero denominator) prints
``error: ...`` and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, axioms
from .core import (
    ContinuousFamilyError,
    MechanismError,
    Profile,
    REAL_LINE,
    UNIT_INTERVAL,
    format_point,
    outcome_distribution,
    parse_point,
)
from .mechanisms import build_mechanism

_DOMAIN_ALIASES = {
    "unit": UNIT_INTERVAL,
    "unit_interval": UNIT_INTERVAL,
    "real": REAL_LINE,
    "real_line": REAL_LINE,
}

_VARIANT_ALIASES = {
    "det": axioms.DET,
    "deterministic": axioms.DET,
    "exp": axioms.EXP,
    "expectation": axioms.EXP,
    "universal": axioms.UNIVERSAL,
    "expost": axioms.UNIVERSAL,
}

TABLE_ROWS = (
    ("Random Rank", "random_rank"),
    ("Random Dictatorship", "random_dictator"),
    ("Random Phantom", "random_phantom"),
    ("AverageOrRR-p", None),  # spec string depends on p
    ("Median", "median"),
    ("Uniform Phantom", "uniform_phantom"),
)

TABLE_COLUMNS = (
    ("Universal Truthfulness", axioms.STRATEGYPROOFNESS, axioms.UNIVERSAL),
    ("Strategyproofness in expectation", axioms.STRATEGYPROOFNESS, axioms.EXP),
    ("Universal Anonymity", axioms.ANONYMITY, axioms.UNIVERSAL),
    ("Proportionality in expectation", axioms.PROPORTIONALITY, axioms.EXP),
    ("Strong Proportionality in expectation", axioms.STRONG_PROPORTIONALITY, axioms.EXP),
)


def _parse_profile(text: str, domain: str) -> Profile:
    """An inline profile, one pair of brackets around comma-separated
    points with no empty entry, or a JSON profile file."""
    token = text.strip()
    malformed = MechanismError(f"expected --profile (x1,...,xn) or a JSON file, got {text!r}")
    if not token:
        raise malformed
    if token[0] in "([":
        body = token[1:-1]
        entries = [item.strip() for item in body.split(",")]
        if token[-1] != {"(": ")", "[": "]"}[token[0]] or any(c in body for c in "()[]") or "" in entries:
            raise malformed
        return Profile(domain, tuple(parse_point(entry) for entry in entries))
    try:
        data = json.loads(Path(token).read_text())
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise MechanismError(f"profile file {token!r} is not valid JSON: {exc}") from None
    try:
        return Profile.from_json(data)
    except (KeyError, TypeError) as exc:
        raise MechanismError(f"malformed profile file {token!r}: {exc!r}") from exc


def _emit(text: str, out: str | None):
    """Write the report to ``out``, if given, then print it: a file that
    cannot be written is an error before anything is printed. A closed
    stdout (``| head``) is not one: it is pointed at devnull, as the Python
    docs advise, and the command keeps its exit code."""
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:
            raise MechanismError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _format_table_markdown(report: dict) -> str:
    lines = []
    header = "| Mechanism | " + " | ".join(name for name, _, _ in TABLE_COLUMNS) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(TABLE_COLUMNS) + 1))
    footnotes = []
    for row in report["rows"]:
        cells = []
        for cell in row["cells"]:
            label = cell["answer"]
            if cell.get("witness"):
                footnotes.append((len(footnotes) + 1, row["mechanism"], cell))
                label += f"[{len(footnotes)}]"
            if cell.get("starred"):
                label += "*"
            cells.append(label)
        lines.append("| " + row["mechanism"] + " | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(
        f"n={report['n']}, grid m={report['grid']}, p={report['p']}"
    )
    if any(cell.get("starred") for row in report["rows"] for cell in row["cells"]):
        lines.append(
            "*strategyproof in expectation exactly when the averaging weight "
            "stays at or below 1/2"
        )
    for index, mechanism, cell in footnotes:
        witness = cell["witness"]
        lines.append(f"[{index}] {mechanism}, {cell['column']}: witness {json.dumps(witness)}")
    return "\n".join(lines)


def build_table(n: int, grid: int, p: Fraction) -> dict:
    """Compute the full mechanism-by-property matrix on [0,1], the only
    domain of its proportionality columns and its Random Phantom row."""
    dom = axioms.CheckDomain(n=n, grid=grid)
    rows = []
    for display, spec in TABLE_ROWS:
        spec_string = spec or f"avg_or_rr:p={format_point(p)}"
        mechanism = build_mechanism(spec_string, n, UNIT_INTERVAL)
        cells = []
        for column, axiom, variant in TABLE_COLUMNS:
            verdict = axioms.run_check(axiom, mechanism, dom, variant)
            answer = {"pass": "Yes", "fail": "No", "inconclusive": "?"}[verdict.status]
            cell = {"column": column, "answer": answer}
            starred = (
                display == "AverageOrRR-p"
                and axiom == axioms.STRATEGYPROOFNESS
                and variant == axioms.EXP
                and verdict.passed
            )
            if starred:
                cell["starred"] = True
            if verdict.witness is not None:
                cell["witness"] = verdict.witness.to_json()
            if verdict.detail:
                cell["detail"] = verdict.detail
            cells.append(cell)
        rows.append({"mechanism": display, "spec": spec_string, "cells": cells})
    return {
        "n": n,
        "grid": grid,
        "p": format_point(p),
        "domain": UNIT_INTERVAL,
        "rows": rows,
    }


def table_answers(report: dict) -> list[list[str]]:
    """Cell answers only, with the strategyproofness star kept."""
    out = []
    for row in report["rows"]:
        out.append(
            [
                cell["answer"] + ("*" if cell.get("starred") else "")
                for cell in row["cells"]
            ]
        )
    return out


def _cmd_run(args) -> int:
    domain = _DOMAIN_ALIASES[args.domain]
    profile = _parse_profile(args.profile, domain)
    mechanism = build_mechanism(args.mechanism, profile.n, domain)
    payload: dict = {
        "mechanism": args.mechanism,
        "profile": profile.to_json(),
    }
    try:
        lottery = outcome_distribution(mechanism, profile)
    except ContinuousFamilyError:
        payload["atoms"] = None
        payload["note"] = "continuous outcome; expectations are exact closed forms"
        location, distances = analysis.expected_location_and_agent_distances(mechanism, profile)
    else:
        payload["atoms"] = lottery.to_json()["atoms"]
        location = lottery.expected_location()
        distances = [lottery.expected_distance(x) for x in profile.locations]
    payload["expected_location"] = format_point(location)
    payload["agent_distances"] = [format_point(d) for d in distances]
    payload["exact"] = True
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        lines = ["location,probability"]
        for atom in payload["atoms"] or []:
            lines.append(f"{atom['x']},{atom['p']}")
        lines.append(f"expected_location,{payload['expected_location']}")
        _emit("\n".join(lines), args.out)
    else:
        lines = [f"mechanism: {args.mechanism}", f"profile: {args.profile}"]
        if payload["atoms"] is not None:
            lines.append("")
            lines.append("| location | probability |")
            lines.append("|---|---|")
            for atom in payload["atoms"]:
                lines.append(f"| {atom['x']} | {atom['p']} |")
        else:
            lines.append(payload["note"])
        lines.append("")
        lines.append(f"expected location: {payload['expected_location']}")
        lines.append("| agent | location | expected distance |")
        lines.append("|---|---|---|")
        for index, (loc, dist) in enumerate(
            zip(profile.locations, payload["agent_distances"]), start=1
        ):
            lines.append(f"| {index} | {format_point(loc)} | {dist} |")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_check(args) -> int:
    domain = _DOMAIN_ALIASES[args.domain]
    variant = _VARIANT_ALIASES[args.variant]
    dom = axioms.CheckDomain(n=args.n, grid=args.grid, domain=domain)
    mechanism = build_mechanism(args.mechanism, args.n, domain)
    verdict = axioms.run_check(args.axiom, mechanism, dom, variant)
    if args.format == "json":
        _emit(json.dumps(verdict.to_json(), indent=2), args.out)
    elif args.format == "csv":
        _emit(
            f"axiom,variant,status\n{verdict.axiom},{verdict.variant},{verdict.status}",
            args.out,
        )
    else:
        lines = [f"{verdict.axiom} ({verdict.variant}): {verdict.status.upper()}"]
        if verdict.detail:
            lines.append(f"detail: {verdict.detail}")
        if verdict.witness is not None:
            lines.append("witness: " + json.dumps(verdict.witness.to_json()))
        _emit("\n".join(lines), args.out)
    return {axioms.PASS: 0, axioms.FAIL: 1, axioms.INCONCLUSIVE: 2}[verdict.status]


def _cmd_table(args) -> int:
    form = "--p <rational> in [0,1], e.g. 1/2"
    (p,) = _parse_option(args.p, r"(.*)", form)
    if not 0 <= p <= 1:
        raise MechanismError(f"expected {form}, got {args.p!r}")
    report = build_table(args.n, args.grid, p)
    if args.format == "json":
        _emit(json.dumps(report, indent=2), args.out)
    elif args.format == "csv":
        lines = ["mechanism," + ",".join(name for name, _, _ in TABLE_COLUMNS)]
        for row, answers in zip(report["rows"], table_answers(report)):
            lines.append(row["mechanism"] + "," + ",".join(answers))
        _emit("\n".join(lines), args.out)
    else:
        _emit(_format_table_markdown(report), args.out)
    return 0


def _cmd_search_manipulation(args) -> int:
    domain = _DOMAIN_ALIASES[args.domain]
    dom = axioms.CheckDomain(n=args.n, grid=args.grid, domain=domain)
    mechanism = build_mechanism(args.mechanism, args.n, domain)
    finding = axioms.search_manipulation(mechanism, dom)
    if finding is None:
        _emit(
            json.dumps({"result": "none found"})
            if args.format == "json"
            else "none found",
            args.out,
        )
        return 0
    if args.format == "json":
        _emit(json.dumps(finding.to_json(), indent=2), args.out)
    else:
        data = finding.to_json()
        _emit(
            "best manipulation: profile ({}) agent {} -> {} "
            "(cost {} -> {}, gain {})".format(
                ", ".join(data["profile"]),
                data["agent"],
                data["misreport"],
                data["truthful_cost"],
                data["deviating_cost"],
                data["gain"],
            ),
            args.out,
        )
    return 0


def _parse_option(text: str, pattern: str, form: str):
    """The groups of ``pattern`` in ``text``, the last read as a rational,
    or the one-line error naming the expected ``form``."""
    try:
        *fields, rational = re.fullmatch(pattern, text.strip()).groups()
        return (*fields, Fraction(rational))
    except (AttributeError, ValueError, ZeroDivisionError):
        raise MechanismError(f"expected {form}, got {text!r}") from None


def _cmd_solve_weights(args) -> int:
    domain = _DOMAIN_ALIASES[args.domain]
    perturb = None
    if args.perturb:
        index, delta = _parse_option(args.perturb, r"(-?\d+)\s*:(.*)", "--perturb <index>:<rational>")
        perturb = (int(index), delta)
    extra = []
    kinds = {"<=": "le", ">=": "ge", "=": "eq"}
    for item in args.add or []:
        k, op, rhs = _parse_option(
            item, r"w_?(\d+)\s*(<=|>=|=)(.*)", "--add w<k> or w_<k>, then =, <= or >= and a rational"
        )
        extra.append((kinds[op], int(k), rhs))
    result = analysis.solve_rank_weights(
        args.n, grid=args.grid, domain=domain, perturb=perturb, extra=tuple(extra)
    )
    if args.format == "json":
        _emit(json.dumps(result.to_json(), indent=2), args.out)
    else:
        lines = [f"status: {result.status}"]
        if result.weights:
            lines.append("weights: " + ", ".join(format_point(w) for w in result.weights))
        if result.conflict:
            lines.append(f"conflict: {result.conflict}")
        if result.alternates:
            for alt in result.alternates:
                lines.append("alternate: " + ", ".join(format_point(w) for w in alt))
        _emit("\n".join(lines), args.out)
    return 0 if result.status == "unique" else 1


def _cmd_prop1(args) -> int:
    form = "--samples <rational>[,<rational>...], e.g. 1/2,1"
    samples = tuple(_parse_option(tok, r"(.*)", form)[0] for tok in args.samples.split(","))
    certificate = analysis.prop1_infeasibility(samples)
    matches = analysis.prop1_grid_sweep(certificate, grid=args.grid_check)
    payload = certificate.to_json()
    payload["grid_sweep"] = {"grid": args.grid_check, "satisfying_vectors": matches}
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = ["no deterministic truthful mechanism meets both forced placements:"]
        for inst in payload["instances"]:
            lines.append(
                f"  profile (0, {inst['profile'][1]}) forces output {inst['forced_output']}"
            )
        lines.append(
            f"representative sweep: {payload['vectors_checked']} phantom vectors, none satisfy both"
        )
        lines.append(
            f"grid sweep (m={args.grid_check}): {matches} satisfying vectors"
        )
        if "manipulation" in payload:
            lines.append("manipulation: " + json.dumps(payload["manipulation"]))
        _emit("\n".join(lines), args.out)
    return 0 if matches == 0 else 1


def _add_common(parser, with_grid=True, with_csv=False, with_domain=True):
    if with_domain:
        parser.add_argument("--domain", choices=sorted(_DOMAIN_ALIASES), default="unit")
    formats = ("markdown", "json", "csv") if with_csv else ("markdown", "json")
    parser.add_argument("--format", choices=formats, default="markdown")
    parser.add_argument("--out", default=None, help="also write the report to a file")
    if with_grid:
        parser.add_argument("--n", type=int, default=3)
        parser.add_argument("--grid", type=int, default=6)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proploc",
        description="Exact facility-location mechanisms and axiom checks on a line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a mechanism on a profile")
    run_p.add_argument("--mechanism", required=True)
    run_p.add_argument("--profile", required=True, help="inline '(0,1/3,1)' or a JSON file path")
    _add_common(run_p, with_grid=False, with_csv=True)
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("check", help="decide one axiom for one mechanism")
    check_p.add_argument("--mechanism", required=True)
    check_p.add_argument("--axiom", required=True, choices=axioms.AXIOMS)
    check_p.add_argument("--variant", default="det", choices=sorted(_VARIANT_ALIASES))
    _add_common(check_p, with_csv=True)
    check_p.set_defaults(func=_cmd_check)

    table_p = sub.add_parser("table", help="mechanism-by-property summary matrix")
    table_p.add_argument("--p", default="1/2", help="averaging weight for the mixed row")
    _add_common(table_p, with_csv=True, with_domain=False)
    table_p.set_defaults(func=_cmd_table)

    search_p = sub.add_parser("search-manipulation", help="largest profitable misreport")
    search_p.add_argument("--mechanism", required=True)
    _add_common(search_p)
    search_p.set_defaults(func=_cmd_search_manipulation)

    solve_p = sub.add_parser("solve-weights", help="rank-weight feasibility and uniqueness")
    solve_p.add_argument("--perturb", default=None, help="INDEX:DELTA rhs shift")
    solve_p.add_argument("--add", action="append", help="extra constraint, e.g. w1=0")
    _add_common(solve_p)
    solve_p.set_defaults(func=_cmd_solve_weights)

    prop1_p = sub.add_parser("prop1", help="deterministic impossibility certificate")
    prop1_p.add_argument("--samples", default="1/2,1")
    prop1_p.add_argument("--grid-check", type=int, default=40)
    _add_common(prop1_p, with_grid=False, with_domain=False)
    prop1_p.set_defaults(func=_cmd_prop1)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ZeroDivisionError) as exc:
        # Bad input (an unreadable file, malformed JSON, an unparsable
        # number, a zero denominator; MechanismError is a ValueError) exits
        # 2, never 1: for ``check`` exit code 1 means the axiom failed.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
