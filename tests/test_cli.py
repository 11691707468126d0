"""Command-line interface: commands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import proploc
from proploc.cli import build_table, main, table_answers

from test_mechanisms import INVALID_IID_LAWS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_markdown(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--mechanism", "random_rank", "--profile", "(0,0,1/3)"
    )
    assert code == 0
    assert "expected location: 1/9" in out
    assert "| 0 | 2/3 |" in out


def test_run_json_and_atoms(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--mechanism",
        "avg_or_rr:p=1/2",
        "--profile",
        "(0,0,1/3)",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert {"x": "1/9", "p": "1/2"} in data["atoms"]
    assert data["expected_location"] == "1/9"


def test_run_with_profile_file(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"domain": "unit_interval", "locations": ["0", "1"]}))
    code, out, _ = run_cli(
        capsys, "run", "--mechanism", "median", "--profile", str(path)
    )
    assert code == 0
    assert "expected location: 0" in out


def test_run_continuous_family_reports_exact_expectations(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--mechanism",
        "random_phantom",
        "--profile",
        "(0,1/2,1)",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["atoms"] is None
    assert data["expected_location"] == "1/2"
    assert data["exact"] is True


def test_run_builds_one_lottery(capsys, monkeypatch):
    """``proploc run`` reads a mechanism's parts on the profile once, for its
    atoms and its expectations alike."""
    from proploc import core

    calls = []
    kernel = core.outcome_pairs

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(core, "outcome_pairs", counted)
    code, out, _ = run_cli(capsys, "run", "--mechanism", "random_rank", "--profile", "(0,1/3,1)")
    assert code == 0
    assert len(calls) == 1
    assert "expected location: 4/9" in out


def test_run_prices_the_continuous_family_once(capsys, monkeypatch):
    from proploc import analysis

    calls = []
    kernel = analysis._uniform_family

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(analysis, "_uniform_family", counted)
    code, out, _ = run_cli(capsys, "run", "--mechanism", "random_phantom", "--profile", "(0,1/2,1)")
    assert code == 0
    assert len(calls) == 1
    assert out == (
        "mechanism: random_phantom\n"
        "profile: (0,1/2,1)\n"
        "continuous outcome; expectations are exact closed forms\n"
        "\n"
        "expected location: 1/2\n"
        "| agent | location | expected distance |\n"
        "|---|---|---|\n"
        "| 1 | 0 | 1/2 |\n"
        "| 2 | 1/2 | 1/12 |\n"
        "| 3 | 1 | 1/2 |\n"
    )


def test_check_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--mechanism",
        "random_rank",
        "--axiom",
        "strong_proportionality",
        "--variant",
        "exp",
        "--n",
        "3",
        "--grid",
        "6",
    )
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli(
        capsys,
        "check",
        "--mechanism",
        "uniform_phantom",
        "--axiom",
        "strong_proportionality",
        "--variant",
        "exp",
        "--n",
        "2",
        "--grid",
        "4",
        "--format",
        "json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "fail"
    assert data["witness"]["lhs"]


def test_phantom_with_a_finite_end_fails_efficiency_off_the_grid(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--mechanism", "phantom:[-100,0,+inf]", "--axiom", "efficiency",
        "--variant", "det", "--n", "2", "--grid", "4", "--domain", "real",
    )
    assert code == 1
    assert out == (
        "efficiency (det): FAIL\n"
        "detail: above the rightmost report\n"
        'witness: {"profile": ["-101", "-101"], "lhs": "-100", "bound": "-101"}\n'
    )


def test_check_strategyproofness_witness_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--mechanism",
        "avg_or_rr:p=3/5",
        "--axiom",
        "strategyproofness",
        "--variant",
        "exp",
        "--n",
        "2",
        "--grid",
        "10",
        "--format",
        "json",
    )
    assert code == 1
    witness = json.loads(out)["witness"]
    assert set(witness["misreport"]) == {"agent", "to"}
    assert "lhs" in witness and "bound" in witness


def test_table_markdown_matches_reference_answers(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--grid", "6")
    assert code == 0
    assert "| Random Rank | Yes | Yes | Yes | Yes | Yes |" in out
    assert "| Median | Yes | Yes | Yes | No[" in out
    assert "Yes*" in out


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2", "--grid", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("mechanism,")
    assert lines[1].startswith("Random Rank,Yes,Yes,Yes,Yes,Yes")


def test_table_no_cells_reverify_as_failures():
    import proploc.axioms as ax
    from proploc.axioms import CheckDomain, recheck_witness
    from proploc.cli import TABLE_COLUMNS
    from proploc.core import UNIT_INTERVAL
    from proploc.mechanisms import build_mechanism

    report = build_table(3, 6, F(1, 2))
    rechecked = 0
    for row in report["rows"]:
        mechanism = build_mechanism(row["spec"], 3, UNIT_INTERVAL)
        for cell, (_, axiom, variant) in zip(row["cells"], TABLE_COLUMNS):
            if cell["answer"] == "No":
                assert cell["witness"]
                verdict = ax.run_check(axiom, mechanism, CheckDomain(3, 6), variant)
                assert verdict.failed
                assert recheck_witness(mechanism, verdict)
                rechecked += 1
    assert rechecked == 6


def test_table_cell_flips_beyond_the_mixing_boundary():
    report = build_table(2, 6, F(3, 5))
    answers = table_answers(report)
    assert answers[3][1] == "No"  # strategyproofness in expectation
    witness = report["rows"][3]["cells"][1]["witness"]
    assert witness["misreport"]


def test_search_manipulation_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "search-manipulation",
        "--mechanism",
        "avg_or_rr:p=3/5",
        "--n",
        "2",
        "--grid",
        "10",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert F(data["gain"]) > 0
    code, out, _ = run_cli(
        capsys,
        "search-manipulation",
        "--mechanism",
        "random_rank",
        "--n",
        "3",
        "--grid",
        "8",
    )
    assert code == 0
    assert "none found" in out


def test_solve_weights_and_extras(capsys):
    code, out, _ = run_cli(capsys, "solve-weights", "--n", "3")
    assert code == 0
    assert "1/3, 1/3, 1/3" in out
    code, out, _ = run_cli(capsys, "solve-weights", "--n", "3", "--add", "w1=0")
    assert code == 1
    assert "infeasible" in out
    # w1 is the first prefix sum, so its constraint folds into the intervals.
    code, out, _ = run_cli(capsys, "solve-weights", "--n", "4", "--add", "w1=1/4")
    assert code == 0
    assert "weights: 1/4, 1/4, 1/4, 1/4" in out
    code, out, _ = run_cli(
        capsys, "solve-weights", "--n", "3", "--perturb", "0:1/100", "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["status"] in ("infeasible", "non_unique")


def test_prop1_command(capsys):
    code, out, _ = run_cli(capsys, "prop1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["grid_sweep"]["satisfying_vectors"] == 0
    assert data["instances"][1]["forced_output"] == "1/2"


def test_errors_exit_with_code_two(capsys):
    code, _, err = run_cli(
        capsys, "run", "--mechanism", "mystery", "--profile", "(0,1)"
    )
    assert code == 2
    assert "error" in err


def test_out_flag_writes_the_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "run",
        "--mechanism",
        "median",
        "--profile",
        "(0,0,1)",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["expected_location"] == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--mechanism", "median", "--profile", "(0,1)"],
        ["check", "--mechanism", "median", "--axiom", "anonymity", "--n", "2", "--grid", "2"],
    ],
    ids=["run", "check"],
)
def test_unwritable_out_fails_before_printing(tmp_path, capsys, argv):
    """A report file that cannot be written is one error line naming
    --out, with nothing on stdout, not the report followed by exit 2."""
    target = tmp_path / "absent" / "report.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--out" in err and str(target) in err
    assert not target.exists()


class _ClosedPipe:
    """A stdout whose reader has left, as after ``| head -1``: every write
    raises ``BrokenPipeError``. Its file descriptor is a real file's."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["table", "--n", "3"], 0),
        (["check", "--mechanism", "median", "--axiom", "strong_proportionality", "--variant", "exp",
          "--n", "3", "--format", "json"], 1),
    ],
    ids=["table", "failing-check"],
)
def test_a_closed_stdout_keeps_the_exit_code(tmp_path, capsys, monkeypatch, argv, expected):
    """A closed pipe is not an error: the command still exits 0 on a
    PASS and 1 on a FAIL, prints no error line, and points its stdout
    descriptor at devnull so that later flushes cannot fail."""
    target = tmp_path / "stdout"
    with open(target, "wb", buffering=0) as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        code = main(argv)
        monkeypatch.undo()
        os.write(sink.fileno(), b"after the pipe closed")
    assert code == expected
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


def test_real_line_domain_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--mechanism",
        "random_rank",
        "--profile",
        "(-5,7)",
        "--domain",
        "real",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert {"x": "-5", "p": "1/2"} in data["atoms"]


@pytest.mark.parametrize(
    "argv, profile_text",
    [
        (["run", "--mechanism", "median", "--profile", "{missing}"], None),
        (["run", "--mechanism", "median", "--profile", "{file}"], "{not json"),
        (["run", "--mechanism", "median", "--profile", "{file}"], '{"locations": ["0"]}'),
        (["run", "--mechanism", "median", "--profile", "{file}"],
         '{"domain": "unit_interval", "locations": "01"}'),
        (["run", "--mechanism", "median", "--profile", "{file}"],
         '{"domain": "unit_interval", "locations": [false, true]}'),
        (["run", "--mechanism", "median", "--profile", "{file}"],
         '{"domain": "real_line", "locations": ["0", "inf"]}'),
        (["check", "--mechanism", "median", "--axiom", "anonymity", "--n", "2", "--grid", "2",
          "--out", "{missing_dir}"], None),
        (["table", "--n", "2", "--grid", "2", "--p", "abc"], None),
        (["solve-weights", "--n", "2", "--perturb", "xx"], None),
        (["solve-weights", "--n", "2", "--perturb", "1:abc"], None),
        (["prop1", "--samples", "1/2,x"], None),
        (["table", "--n", "2", "--grid", "2", "--p", "1/0"], None),
        (["solve-weights", "--n", "2", "--perturb", "1:1/0"], None),
        (["solve-weights", "--n", "2", "--add", "w1=1/0"], None),
        (["prop1", "--samples", "1/2,1/0"], None),
        (["solve-weights", "--n", "3", "--perturb", "99:1"], None),
        (["solve-weights", "--n", "3", "--perturb=-1:1/10"], None),
        (["solve-weights", "--n", "3", "--add", "w9=0"], None),
        (["solve-weights", "--n", "3", "--add", "w0=0"], None),
        (["solve-weights", "--n", "3", "--add", "ww2=1/3"], None),
        (["solve-weights", "--n", "3", "--add", "w=1"], None),
        (["solve-weights", "--n", "1"], None),
        (["solve-weights", "--n", "0"], None),
        (["solve-weights", "--n", "-2"], None),
        (["check", "--mechanism", "phantom:[-1,1/2,2]", "--axiom", "strong_proportionality",
          "--n", "2", "--grid", "2"], None),
        (["check", "--mechanism", "phantom:[-1,1/2,2]", "--axiom", "efficiency",
          "--n", "2", "--grid", "2"], None),
        (["prop1", "--grid-check", "0"], None),
        (["prop1", "--grid-check", "-1"], None),
        (["run", "--mechanism", "median", "--profile", ""], None),
        (["run", "--mechanism", "median", "--profile", "  "], None),
        (["run", "--mechanism", "median", "--profile", "(0,,1)"], None),
        (["run", "--mechanism", "median", "--profile", "(,0,1)"], None),
        (["run", "--mechanism", "median", "--profile", "(0,1/2))"], None),
    ],
    ids=[
        "missing-profile-file",
        "malformed-json-profile",
        "profile-without-domain",
        "profile-locations-a-string",
        "profile-locations-booleans",
        "profile-infinite-location",
        "unwritable-out",
        "table-bad-p",
        "perturb-without-colon",
        "perturb-bad-delta",
        "prop1-bad-sample",
        "table-zero-denominator-p",
        "perturb-zero-denominator",
        "add-zero-denominator",
        "prop1-zero-denominator-sample",
        "perturb-index-past-end",
        "perturb-negative-index",
        "add-weight-past-n",
        "add-weight-zero",
        "add-doubled-w",
        "add-without-index",
        "solve-weights-one-agent",
        "solve-weights-zero-agents",
        "solve-weights-negative-agents",
        "unit-phantom-out-of-range-strong-proportionality",
        "unit-phantom-out-of-range-efficiency",
        "prop1-grid-check-zero",
        "prop1-grid-check-negative",
        "blank-profile",
        "whitespace-profile",
        "profile-empty-entry",
        "profile-leading-empty-entry",
        "profile-stray-bracket",
    ],
)
def test_bad_input_prints_error_and_exits_2(tmp_path, capsys, argv, profile_text):
    """Bad input never exits 1, which ``check`` reserves for a failed axiom."""
    path = tmp_path / "profile.json"
    if profile_text is not None:
        path.write_text(profile_text)
    names = {
        "missing": str(tmp_path / "absent.json"),
        "file": str(path),
        "missing_dir": str(tmp_path / "absent" / "out.txt"),
    }
    code, _, err = run_cli(capsys, *(arg.format(**names) for arg in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--mechanism", "avg_or_rr:p=1/0", "--axiom", "anonymity", "--n", "2", "--grid", "2"],
         "error: expected avg_or_rr:p=<rational>, got 'avg_or_rr:p=1/0'\n"),
        (["run", "--mechanism", "iid_phantom:{}", "--profile", "(0,1)"],
         "error: expected iid_phantom:{atoms:[[location,probability],...]}, got 'iid_phantom:{}'\n"),
        (["run", "--mechanism", "iid_phantom:{atoms:5}", "--profile", "(0,1)"],
         "error: expected iid_phantom:{atoms:[[location,probability],...]}, got 'iid_phantom:{atoms:5}'\n"),
        (["run", "--mechanism", 'iid_phantom:{atoms:[["1/0","1"]]}', "--profile", "(0,1)"],
         "error: expected iid_phantom:{atoms:[[location,probability],...]}, "
         "got 'iid_phantom:{atoms:[[\"1/0\",\"1\"]]}'\n"),
        (["solve-weights", "--n", "3", "--add", "ww2=1/3"],
         "error: expected --add w<k> or w_<k>, then =, <= or >= and a rational, got 'ww2=1/3'\n"),
        (["solve-weights", "--n", "3", "--add", "w_w2=1/3"],
         "error: expected --add w<k> or w_<k>, then =, <= or >= and a rational, got 'w_w2=1/3'\n"),
        (["solve-weights", "--n", "3", "--add", "w=1"],
         "error: expected --add w<k> or w_<k>, then =, <= or >= and a rational, got 'w=1'\n"),
        (["solve-weights", "--n", "3", "--perturb", "xx"],
         "error: expected --perturb <index>:<rational>, got 'xx'\n"),
        (["run", "--mechanism", "phantom:[0,1]", "--profile", "(0,1/2)"],
         "error: phantom vector has 2 entries, expected 3\n"),
        (["check", "--mechanism", "phantom:[0,1]", "--axiom", "efficiency", "--n", "2"],
         "error: phantom vector has 2 entries, expected 3\n"),
        (["table", "--n", "2", "--grid", "2", "--p", "1/0"],
         "error: expected --p <rational> in [0,1], e.g. 1/2, got '1/0'\n"),
        (["table", "--n", "2", "--grid", "2", "--p", "abc"],
         "error: expected --p <rational> in [0,1], e.g. 1/2, got 'abc'\n"),
        (["table", "--n", "2", "--grid", "2", "--p", "2"],
         "error: expected --p <rational> in [0,1], e.g. 1/2, got '2'\n"),
        (["table", "--n", "2", "--grid", "2", "--p=-1/2"],
         "error: expected --p <rational> in [0,1], e.g. 1/2, got '-1/2'\n"),
        (["run", "--mechanism", "median", "--profile", ""],
         "error: expected --profile (x1,...,xn) or a JSON file, got ''\n"),
        (["run", "--mechanism", "median", "--profile", "(0,,1)"],
         "error: expected --profile (x1,...,xn) or a JSON file, got '(0,,1)'\n"),
        (["run", "--mechanism", "median", "--profile", "(,0,1)"],
         "error: expected --profile (x1,...,xn) or a JSON file, got '(,0,1)'\n"),
        (["run", "--mechanism", "median", "--profile", "(0,1/2))"],
         "error: expected --profile (x1,...,xn) or a JSON file, got '(0,1/2))'\n"),
        (["run", "--mechanism", "median", "--profile", "[0,1)"],
         "error: expected --profile (x1,...,xn) or a JSON file, got '[0,1)'\n"),
        (["run", "--mechanism", "avg_or_rr:p=x", "--profile", "(0,1)"],
         "error: expected avg_or_rr:p=<rational>, got 'avg_or_rr:p=x'\n"),
        (["check", "--mechanism", "avg_or_rr:p=1/2/3", "--axiom", "spf", "--n", "2"],
         "error: expected avg_or_rr:p=<rational>, got 'avg_or_rr:p=1/2/3'\n"),
        (["run", "--mechanism", 'iid_phantom:{atoms:[["x","1"]]}', "--profile", "(0,1)"],
         "error: expected iid_phantom:{atoms:[[location,probability],...]}, "
         "got 'iid_phantom:{atoms:[[\"x\",\"1\"]]}'\n"),
        (["prop1", "--samples", "1/2,x"],
         "error: expected --samples <rational>[,<rational>...], e.g. 1/2,1, got 'x'\n"),
        (["prop1", "--samples", "1/2,1/0"],
         "error: expected --samples <rational>[,<rational>...], e.g. 1/2,1, got '1/0'\n"),
        (["run", "--mechanism", "rank:k=0", "--profile", "(0,1)"], "error: rank index must be >= 1\n"),
        (["run", "--mechanism", "dictator:i=0", "--profile", "(0,1)"], "error: dictator index must be >= 1\n"),
        (["check", "--mechanism", "median", "--axiom", "anonymity", "--n", "1"], "error: check domains need n >= 2\n"),
        (["table", "--n", "1"], "error: check domains need n >= 2\n"),
        (["check", "--mechanism", "median", "--axiom", "anonymity", "--grid", "0"],
         "error: grid parameter must be >= 1\n"),
        (["solve-weights", "--grid", "0"], "error: grid parameter must be >= 1\n"),
        (["run", "--mechanism", 'iid_phantom:{atoms:[["1/2","1"]],x:1}', "--profile", "(0,1)"],
         "error: expected iid_phantom:{atoms:[[location,probability],...]}, "
         "got 'iid_phantom:{atoms:[[\"1/2\",\"1\"]],x:1}'\n"),
        *((["run", "--mechanism", spec, "--profile", "(0,1/3,1)"], f"error: {message}\n")
          for spec, message in INVALID_IID_LAWS.values()),
    ],
    ids=["avg-or-rr-zero-denominator", "iid-phantom-without-atoms", "iid-phantom-atoms-not-a-list",
         "iid-phantom-zero-denominator", "add-doubled-w", "add-w-underscore-w", "add-without-index",
         "perturb-without-colon", "run-phantom-wrong-length", "check-phantom-wrong-length",
         "table-zero-denominator-p", "table-bad-p", "table-p-above-1", "table-p-below-0", "blank-profile",
         "profile-empty-entry", "profile-leading-empty-entry", "profile-stray-bracket",
         "profile-mismatched-brackets", "avg-or-rr-not-a-rational", "avg-or-rr-two-slashes",
         "iid-phantom-location-not-a-rational", "prop1-sample-not-a-rational", "prop1-zero-denominator",
         "rank-zero", "dictator-zero", "check-one-agent", "table-one-agent", "check-grid-zero",
         "solve-weights-grid-zero", "iid-phantom-unknown-key", *INVALID_IID_LAWS],
)
def test_malformed_spec_body_is_a_one_line_error(capsys, argv, message):
    """A spec body or option value that parses but cannot be read is bad
    input: exit 2 and one line on stderr, not a traceback with the
    failed-axiom code 1. The same fault reads the same in every command."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def test_invalid_json_profile_file_names_the_file(tmp_path, capsys):
    """A profile file that is not JSON is named in the one error line, so the
    decoder's message is not read as a fault of the inline form."""
    path = tmp_path / "profile.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, "run", "--mechanism", "median", "--profile", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: profile file {str(path)!r} is not valid JSON: Expecting property name")
    assert err.count("\n") == 1


def test_removed_seed_option_is_rejected(capsys):
    """No command samples anything, so there is no ``--seed`` option; an
    unknown option is a usage error and exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "2", "--grid", "2", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["table", "--n", "2", "--grid", "2"], ["prop1"]], ids=["table", "prop1"])
def test_removed_domain_option_is_rejected(capsys, command):
    """The table's columns and its Random Phantom row, and the impossibility
    certificate, exist only on [0,1], so neither command has ``--domain``."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--domain", "real"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --domain real" in capsys.readouterr().err


def test_removed_support_grid_option_is_rejected(capsys):
    """A universal check sweeps the family's one realisation that fails the
    group axioms, or decides it by theorem, so ``check`` samples no support
    and has no ``--support-grid``."""
    with pytest.raises(SystemExit) as exc:
        main(["check", "--mechanism", "random_phantom", "--axiom", "spf", "--variant", "universal",
              "--n", "3", "--grid", "2", "--support-grid", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --support-grid 2" in capsys.readouterr().err


def test_removed_subset_cap_option_is_rejected(capsys):
    """SPF checks every subset, so ``check`` has no ``--subset-cap``."""
    with pytest.raises(SystemExit) as exc:
        main(["check", "--mechanism", "median", "--axiom", "spf", "--n", "2", "--grid", "2",
              "--subset-cap", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --subset-cap 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["search-manipulation", "--mechanism", "median", "--n", "2", "--grid", "2"],
        ["solve-weights", "--n", "2"],
        ["prop1"],
    ],
    ids=["search-manipulation", "solve-weights", "prop1"],
)
def test_csv_format_only_where_a_csv_report_exists(capsys, argv):
    """Commands without a CSV report reject ``--format csv`` as a usage
    error rather than printing markdown."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(capsys):
    """``python -m proploc`` is the CLI: same output and exit code as
    ``main`` called in process."""
    src = str(Path(proploc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["table", "--n", "2", "--grid", "2"]
    result = subprocess.run(
        [sys.executable, "-m", "proploc", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    code, out, err = run_cli(capsys, *argv)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err) == (0, out, "")
    assert "| Random Rank | Yes | Yes | Yes | Yes | Yes |" in out
