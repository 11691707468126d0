"""Command-line interface: commands, formats, and exit codes."""

import json
from fractions import Fraction as F

import pytest

from proploc.cli import build_table, main, table_answers


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
        (["check", "--mechanism", "median", "--axiom", "anonymity", "--n", "2", "--grid", "2",
          "--out", "{missing_dir}"], None),
        (["table", "--n", "2", "--grid", "2", "--p", "abc"], None),
        (["solve-weights", "--n", "2", "--perturb", "xx"], None),
        (["solve-weights", "--n", "2", "--perturb", "1:abc"], None),
        (["prop1", "--samples", "1/2,x"], None),
    ],
    ids=[
        "missing-profile-file",
        "malformed-json-profile",
        "profile-without-domain",
        "unwritable-out",
        "table-bad-p",
        "perturb-without-colon",
        "perturb-bad-delta",
        "prop1-bad-sample",
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


def test_removed_seed_option_is_rejected(capsys):
    """No command samples anything, so there is no ``--seed`` option; an
    unknown option is a usage error and exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "2", "--grid", "2", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
