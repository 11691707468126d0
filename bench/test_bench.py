"""The benchmark's own checks. Run from the repository root:

    python3 -m pytest bench -q
"""

import copy
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import refclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _small_evaluate():
    data = copy.deepcopy(workloads.DATA["evaluate"])
    data["pairs_per_mechanism_and_n"] = {"unit_interval": 1, "real_line": 1}
    data["n_range"] = [2, 4]
    return data


def _small_witness(cells):
    data = copy.deepcopy(workloads.DATA["witness"])
    data.update(fail_cells=cells, grids=[6], orders=1,
                search_cases=[["unit_interval", 2], ["real_line", 3]])
    return data


def test_wrong_expected_table_answer_is_a_failed_op():
    data = copy.deepcopy(workloads.DATA["table"])
    data["ns"] = [2]
    data["answers"]["Median"][3] = "Yes"  # the paper's answer is No
    table = workloads.Table(0, data)
    probe = tracer.Probe()
    probe.install(workloads.MODULES, trace=False, op_function=table.op_function)
    try:
        _, attempted, failed = table.run_pass(probe, 0)
    finally:
        probe.uninstall()
    assert (attempted, failed) == (30, 1)
    assert len(probe.intervals) == 30


def test_cell_expected_to_fail_that_passes_is_a_failed_op():
    witness = workloads.Witness(0, _small_witness([
        ["unit_interval", 3, "median", "spf", "det"],
        ["unit_interval", 3, "random_rank", "strategyproofness", "universal"],  # passes
    ]))
    witness.build()
    _, attempted, failed = witness.run_pass(tracer.Probe(), 0)
    assert (attempted, failed) == (4, 1)  # two cells and two searches


def test_changed_evaluate_answer_is_a_failed_op():
    evaluate = workloads.Evaluate(3, _small_evaluate())
    evaluate.build()
    probe = tracer.Probe()
    assert evaluate.run_pass(probe, 0)[2] == 0
    evaluate.verified[5] = (Fraction(-1), ())
    _, attempted, failed = evaluate.run_pass(probe, 1)
    assert (attempted, failed) == (len(evaluate.ops), 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_generates_identical_inputs(name):
    first, second = workloads.make(name, 7), workloads.make(name, 7)
    assert first.inputs() == second.inputs()
    assert first.digest == second.digest
    assert len({workloads.make(name, seed).digest for seed in range(8)}) > 1


def test_child_self_times_stay_within_their_op_span():
    witness = workloads.Witness(1, _small_witness(workloads.DATA["witness"]["fail_cells"][:12]))
    evaluate = workloads.Evaluate(1, _small_evaluate())
    probe = tracer.Probe()
    with refclock.ReferenceClock() as clock:
        probe.install(workloads.MODULES, trace=True)
        try:
            for workload in (witness, evaluate):
                workload.build()
                workload.run_pass(probe, 0)
        finally:
            probe.uninstall()
    ops = [span for span in probe.spans if span[3] == tracer.OP]
    assert len(ops) == 14 + len(evaluate.ops)
    for times in (tracer.span_times(probe.spans), tracer.span_times(probe.spans, clock.nominal)):
        for span in ops:
            total, own = times[span[0]]
            children = sum(
                times[child[0]][1] for child in probe.spans if child[2] == span[2] and child is not span
            )
            assert all(times[child[0]][1] >= 0 for child in probe.spans if child[2] == span[2])
            assert children <= total + 1e-12
            assert children + own == pytest.approx(total, abs=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())

