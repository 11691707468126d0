"""Command-line front end.

Subcommands: ``run`` (evaluate a mechanism on a profile), ``check`` (one
axiom, one variant; exit code 0/1/2 for pass/fail/inconclusive), ``table``
(the mechanism-by-property summary matrix), ``search-manipulation``,
``solve-weights``, and ``prop1`` (the deterministic impossibility
certificate).

Computing and rendering are split. Each command computes its exit code and
one JSON payload and prints nothing; ``main`` renders only the requested
format from that payload and prints it once. ``--format json`` prints the
payload at indent 2 for every command; markdown (the default) and csv are
renderers of the payload, csv for ``run``, ``check`` and ``table`` only.
Bad input (an unreadable or malformed profile file, a profile file on
another domain than ``--domain``, an unparsable option value, a zero
denominator) prints ``error: ...`` and exits 2.
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
    DomainMismatchError,
    MechanismError,
    Profile,
    REAL_LINE,
    UNIT_INTERVAL,
    format_point,
    outcome_distribution,
    parse_point,
)
from .mechanisms import build_mechanism

_DOMAINS = {"unit": UNIT_INTERVAL, "real": REAL_LINE}

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
    points with no empty entry, or a JSON profile file on ``domain``."""
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
        profile = Profile.from_json(data)
    except (KeyError, TypeError) as exc:
        raise MechanismError(f"malformed profile file {token!r}: {exc!r}") from exc
    if profile.domain != domain:
        raise DomainMismatchError(f"profile file {token!r} is on {profile.domain}, --domain is {domain}")
    return profile


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


def _markdown_table(header, rows) -> list[str]:
    """The lines of a markdown table: the header, its rule, then each row."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return lines + ["| " + " | ".join(row) + " |" for row in rows]


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
    return [[cell["answer"] + ("*" if cell.get("starred") else "") for cell in row["cells"]]
            for row in report["rows"]]


def _parse_option(text: str, pattern: str, form: str):
    """The groups of ``pattern`` in ``text``, the last read as a rational,
    or the one-line error naming the expected ``form``."""
    try:
        *fields, rational = re.fullmatch(pattern, text.strip()).groups()
        return (*fields, Fraction(rational))
    except (AttributeError, ValueError, ZeroDivisionError):
        raise MechanismError(f"expected {form}, got {text!r}") from None


# The commands: each reads ``args`` (its --domain already mapped to the
# domain's name) and returns its exit code and its JSON payload.


def _cmd_run(args):
    profile = _parse_profile(args.profile, args.domain)
    mechanism = build_mechanism(args.mechanism, profile.n, args.domain)
    payload: dict = {"mechanism": args.mechanism, "profile": profile.to_json()}
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
    return 0, payload


def _cmd_check(args):
    dom = axioms.CheckDomain(n=args.n, grid=args.grid, domain=args.domain)
    mechanism = build_mechanism(args.mechanism, args.n, args.domain)
    verdict = axioms.run_check(args.axiom, mechanism, dom, args.variant)
    return {axioms.PASS: 0, axioms.FAIL: 1, axioms.INCONCLUSIVE: 2}[verdict.status], verdict.to_json()


def _cmd_table(args):
    form = "--p <rational> in [0,1], e.g. 1/2"
    (p,) = _parse_option(args.p, r"(.*)", form)
    if not 0 <= p <= 1:
        raise MechanismError(f"expected {form}, got {args.p!r}")
    return 0, build_table(args.n, args.grid, p)


def _cmd_search_manipulation(args):
    dom = axioms.CheckDomain(n=args.n, grid=args.grid, domain=args.domain)
    mechanism = build_mechanism(args.mechanism, args.n, args.domain)
    finding = axioms.search_manipulation(mechanism, dom)
    return 0, {"result": "none found"} if finding is None else finding.to_json()


def _cmd_solve_weights(args):
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
        args.n, grid=args.grid, domain=args.domain, perturb=perturb, extra=tuple(extra)
    )
    return 0 if result.status == "unique" else 1, result.to_json()


def _cmd_prop1(args):
    form = "--samples <rational>[,<rational>...], e.g. 1/2,1"
    samples = tuple(_parse_option(tok, r"(.*)", form)[0] for tok in args.samples.split(","))
    certificate = analysis.prop1_infeasibility(samples)
    matches = analysis.prop1_grid_sweep(certificate, grid=args.grid_check)
    payload = certificate.to_json()
    payload["grid_sweep"] = {"grid": args.grid_check, "satisfying_vectors": matches}
    return 0 if matches == 0 else 1, payload


# The renderers: each turns a command's JSON payload into the text of one
# format; only ``run``'s markdown reads ``args``, for the --profile text.


def _json(payload, args) -> str:
    return json.dumps(payload, indent=2)


def _run_markdown(payload, args) -> str:
    lines = [f"mechanism: {payload['mechanism']}", f"profile: {args.profile}"]
    if payload["atoms"] is None:
        lines.append(payload["note"])
    else:
        atoms = ([atom["x"], atom["p"]] for atom in payload["atoms"])
        lines += ["", *_markdown_table(["location", "probability"], atoms)]
    lines += ["", f"expected location: {payload['expected_location']}"]
    agents = enumerate(zip(payload["profile"]["locations"], payload["agent_distances"]), start=1)
    rows = ([str(i), x, d] for i, (x, d) in agents)
    lines += _markdown_table(["agent", "location", "expected distance"], rows)
    return "\n".join(lines)


def _run_csv(payload, args) -> str:
    atoms = [f"{atom['x']},{atom['p']}" for atom in payload["atoms"] or []]
    return "\n".join(["location,probability", *atoms, f"expected_location,{payload['expected_location']}"])


def _check_markdown(verdict, args) -> str:
    lines = [f"{verdict['axiom']} ({verdict['variant']}): {verdict['status'].upper()}"]
    if "detail" in verdict:
        lines.append(f"detail: {verdict['detail']}")
    if "witness" in verdict:
        lines.append("witness: " + json.dumps(verdict["witness"]))
    return "\n".join(lines)


def _check_csv(verdict, args) -> str:
    return f"axiom,variant,status\n{verdict['axiom']},{verdict['variant']},{verdict['status']}"


def _table_markdown(report, args) -> str:
    rows, footnotes = [], []
    for row in report["rows"]:
        labels = [row["mechanism"]]
        for cell in row["cells"]:
            label = cell["answer"]
            if "witness" in cell:
                footnotes.append(f"[{len(footnotes) + 1}] {row['mechanism']}, {cell['column']}: "
                                 f"witness {json.dumps(cell['witness'])}")
                label += f"[{len(footnotes)}]"
            labels.append(label + ("*" if cell.get("starred") else ""))
        rows.append(labels)
    lines = _markdown_table(["Mechanism", *(name for name, _, _ in TABLE_COLUMNS)], rows)
    lines += ["", f"n={report['n']}, grid m={report['grid']}, p={report['p']}"]
    if any(cell.get("starred") for row in report["rows"] for cell in row["cells"]):
        lines.append("*strategyproof in expectation exactly when the averaging weight stays at or below 1/2")
    return "\n".join(lines + footnotes)


def _table_csv(report, args) -> str:
    lines = ["mechanism," + ",".join(name for name, _, _ in TABLE_COLUMNS)]
    for row, answers in zip(report["rows"], table_answers(report)):
        lines.append(row["mechanism"] + "," + ",".join(answers))
    return "\n".join(lines)


def _search_markdown(payload, args) -> str:
    if "result" in payload:
        return payload["result"]
    fields = {**payload, "profile": ", ".join(payload["profile"])}
    return ("best manipulation: profile ({profile}) agent {agent} -> {misreport} "
            "(cost {truthful_cost} -> {deviating_cost}, gain {gain})").format_map(fields)


def _solve_weights_markdown(result, args) -> str:
    lines = [f"status: {result['status']}"]
    if result.get("weights"):
        lines.append("weights: " + ", ".join(result["weights"]))
    if "conflict" in result:
        lines.append(f"conflict: {result['conflict']}")
    lines += ["alternate: " + ", ".join(alt) for alt in result.get("alternates", [])]
    return "\n".join(lines)


def _prop1_markdown(payload, args) -> str:
    sweep = payload["grid_sweep"]
    lines = ["no deterministic truthful mechanism meets both forced placements:"]
    for inst in payload["instances"]:
        lines.append(f"  profile (0, {inst['profile'][1]}) forces output {inst['forced_output']}")
    lines.append(f"representative sweep: {payload['vectors_checked']} phantom vectors, none satisfy both")
    lines.append(f"grid sweep (m={sweep['grid']}): {sweep['satisfying_vectors']} satisfying vectors")
    if "manipulation" in payload:
        lines.append("manipulation: " + json.dumps(payload["manipulation"]))
    return "\n".join(lines)


# Each command's compute step and its renderers, whose formats are its
# --format choices, the first the default: csv only where a csv renderer is.
_COMMANDS = {
    "run": (_cmd_run, {"markdown": _run_markdown, "json": _json, "csv": _run_csv}),
    "check": (_cmd_check, {"markdown": _check_markdown, "json": _json, "csv": _check_csv}),
    "table": (_cmd_table, {"markdown": _table_markdown, "json": _json, "csv": _table_csv}),
    "search-manipulation": (_cmd_search_manipulation, {"markdown": _search_markdown, "json": _json}),
    "solve-weights": (_cmd_solve_weights, {"markdown": _solve_weights_markdown, "json": _json}),
    "prop1": (_cmd_prop1, {"markdown": _prop1_markdown, "json": _json}),
}


def _add_common(parser, command, with_grid=True, with_domain=True):
    if with_domain:
        parser.add_argument("--domain", choices=sorted(_DOMAINS), default="unit")
    formats = tuple(_COMMANDS[command][1])
    parser.add_argument("--format", choices=formats, default=formats[0])
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
    _add_common(run_p, "run", with_grid=False)

    check_p = sub.add_parser("check", help="decide one axiom for one mechanism")
    check_p.add_argument("--mechanism", required=True)
    check_p.add_argument("--axiom", required=True, choices=axioms.AXIOMS)
    check_p.add_argument("--variant", default=axioms.DET, choices=(axioms.DET, axioms.EXP, axioms.UNIVERSAL))
    _add_common(check_p, "check")

    table_p = sub.add_parser("table", help="mechanism-by-property summary matrix")
    table_p.add_argument("--p", default="1/2", help="averaging weight for the mixed row")
    _add_common(table_p, "table", with_domain=False)

    search_p = sub.add_parser("search-manipulation", help="largest profitable misreport")
    search_p.add_argument("--mechanism", required=True)
    _add_common(search_p, "search-manipulation")

    solve_p = sub.add_parser("solve-weights", help="rank-weight feasibility and uniqueness")
    solve_p.add_argument("--perturb", default=None, help="INDEX:DELTA rhs shift")
    solve_p.add_argument("--add", action="append", help="extra constraint, e.g. w1=0")
    _add_common(solve_p, "solve-weights")

    prop1_p = sub.add_parser("prop1", help="deterministic impossibility certificate")
    prop1_p.add_argument("--samples", default="1/2,1")
    prop1_p.add_argument("--grid-check", type=int, default=40)
    _add_common(prop1_p, "prop1", with_grid=False, with_domain=False)

    args = parser.parse_args(argv)
    if "domain" in args:
        args.domain = _DOMAINS[args.domain]
    compute, renderers = _COMMANDS[args.command]
    try:
        code, payload = compute(args)
        _emit(renderers[args.format](payload, args), args.out)
        return code
    except (OSError, ValueError, ZeroDivisionError) as exc:
        # Bad input (an unreadable file, malformed JSON, an unparsable
        # number, a zero denominator; MechanismError is a ValueError) exits
        # 2, never 1: for ``check`` exit code 1 means the axiom failed.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
