"""One workload process: set up, say ``ready``, run the timed passes, report.

Started by ``bench/run.py`` from the root of a checkout, with the
``perf_counter`` reading taken just before the launch, so that set-up time
runs from process start to the first timed op. The reference clock
(``refclock.py``) samples the machine's speed from the first line on, and
every reported time is rescaled by it. With ``--setup-only`` the process
stops after set-up. It prints ``ready``, then one JSON line of measurements;
with ``--trace 1`` it also writes every span to ``.bench_out/``.

Untraced run: whole passes until ``--seconds`` of wall time have gone and
at least ``MIN_PASSES`` are done. Traced run: whole untraced passes for half
of ``--seconds`` (the overhead baseline), then a fixed number of traced
passes, so that call counts repeat.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import refclock

ROOT = Path.cwd()
MIN_PASSES = 3  # ops_per_s is the median pass's rate


def _load():
    """Import proploc from this checkout's ``src``, and the bench modules."""
    sys.path.insert(0, str(ROOT / "src"))
    import proploc

    if Path(proploc.__file__).resolve().parent != (ROOT / "src" / "proploc").resolve():
        raise SystemExit(f"error: proploc imported from {proploc.__file__}, not this checkout")
    import numpy
    import tracer
    import workloads

    return numpy, tracer, workloads


def _run_passes(workload, probe, seconds=0.0, passes=1):
    """Whole passes until ``seconds`` of wall time have gone and at least
    ``passes`` are done."""
    probe.intervals = []
    timed = []
    attempted = failed = done = 0
    start = perf_counter()
    while done < passes or perf_counter() - start < seconds:
        before = len(probe.intervals)
        pass_timed, pass_attempted, pass_failed = workload.run_pass(probe, done)
        timed.append((len(probe.intervals) - before, pass_timed))
        attempted += pass_attempted
        failed += pass_failed
        done += 1
    return {
        "passes": done,
        "ops": len(probe.intervals),
        "attempted": attempted,
        "failed": failed,
        "op_intervals": probe.intervals,
        "timed_intervals": timed,
    }


def _summarize(run, clock):
    """Rescale a run's intervals by the reference clock into its metrics."""
    ops = run.pop("op_intervals")
    passes = run.pop("timed_intervals")
    run["pass_ops"] = [count for count, _ in passes]
    run["pass_raw_s"] = [math.fsum(end - start for start, end in timed) for _, timed in passes]
    run["pass_s"] = [math.fsum(clock.nominal(start, end) for start, end in timed) for _, timed in passes]
    run["timed_raw_s"] = math.fsum(run["pass_raw_s"])
    run["timed_s"] = math.fsum(run["pass_s"])
    run["raw_ops_per_s"] = run["ops"] / run["timed_raw_s"]
    # The median pass: a spell the reference kernel tracks less well moves one pass, not the run.
    run["ops_per_s"] = statistics.median(
        count / seconds for count, seconds in zip(run["pass_ops"], run["pass_s"])
    )
    return [clock.nominal(start, end) for start, end in ops]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _per_layer(tracer, workloads, probe, clock, untraced, traced):
    times = tracer.span_times(probe.spans, clock.nominal)
    totals = tracer.layer_totals(probe.spans, times)
    metrics = {}
    for module_name, function in tracer.LAYER_FUNCTIONS:
        name = f"{module_name}.{function}"
        if name == tracer.RUN_CHECK:
            continue
        calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for key, (calls, self_s, _) in sorted(totals.items()):
        if key.startswith(tracer.RUN_CHECK + "."):
            metrics[f"{key}.calls"] = calls
            metrics[f"{key}.self_s"] = self_s
    profiles = sum(
        workloads.swept_profiles(axiom, variant, mechanism, dom)
        for _, axiom, variant, mechanism, dom in probe.passed_checks
    )
    pass_self_s = sum(times[span_id][1] for span_id, *_ in probe.passed_checks)
    metrics["axioms.pass_sweep_profiles"] = profiles
    metrics["axioms.pass_sweep_profiles_per_s"] = profiles / pass_self_s if pass_self_s else 0.0
    metrics["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    metrics["trace.traced_ops_per_s"] = traced["ops_per_s"]
    metrics["trace.overhead"] = untraced["ops_per_s"] / traced["ops_per_s"] - 1
    breakdown = [
        {"span": key, "calls": calls, "self_s": self_s, "total_s": total_s}
        for key, (calls, self_s, total_s) in sorted(totals.items(), key=lambda item: -item[1][1])
    ]
    return metrics, breakdown


def _write_spans(spans, path: Path):
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with refclock.ReferenceClock() as clock:
        numpy, tracer, workloads = _load()
        probe = tracer.Probe()
        if args.trace:
            probe.install(workloads.MODULES, trace=True)  # set-up calls become spans too
        workload = workloads.make(args.workload, args.seed)
        workload.build()
        probe.uninstall()
        ready_at = perf_counter()
        print("ready", flush=True)
        if not args.setup_only:
            probe.install(workloads.MODULES, trace=False, op_function=workload.op_function)
            if args.trace:
                runs = [_run_passes(workload, probe, seconds=args.seconds / 2)]
            else:
                runs = [_run_passes(workload, probe, seconds=args.seconds, passes=MIN_PASSES)]
            probe.uninstall()
            if args.trace:
                probe.install(workloads.MODULES, trace=True, op_function=workload.op_function)
                runs.append(_run_passes(workload, probe, passes=workload.trace_passes))
                probe.uninstall()

    result = {
        "setup_s": clock.nominal(args.launched_at, ready_at),
        "setup_raw_s": ready_at - args.launched_at,
    }
    if args.setup_only:
        print(json.dumps(result), flush=True)
        return 0
    result.update({
        "workload": workload.name,
        "seed": args.seed,
        "inputs_sha256": workload.digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "reference_samples": len(clock.durations),
    })
    latencies = _summarize(runs[0], clock)
    result["untraced"] = runs[0]
    if args.trace:
        _summarize(runs[1], clock)
        result["traced"] = runs[1]
        result["per_layer"], result["breakdown"] = _per_layer(
            tracer, workloads, probe, clock, runs[0], runs[1]
        )
        spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        _write_spans(probe.spans, spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(probe.spans)
    result["attempted"] = sum(run["attempted"] for run in runs)
    result["failed"] = sum(run["failed"] for run in runs)
    result["op_samples"] = len(latencies)
    result["op_p50_ms"] = statistics.median(latencies) * 1e3
    result["op_p90_ms"] = statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
    result["beyond_p90"] = sum(1 for x in latencies if x * 1e3 > result["op_p90_ms"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
