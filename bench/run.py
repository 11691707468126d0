"""proploc benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {table,witness,evaluate} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``
(set-up time as the median of several process launches, ops per second,
p50/p90 op latency, peak RSS) and the error rate; with ``--trace 1`` the
per-layer metrics, the self-time breakdown and the tracing overhead. The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Each run's full record is also
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SETUP_LAUNCHES = 7  # set-up samples per untraced run, the main worker's included
WORKER_TIMEOUT_S = 150


def _run_worker(command) -> dict:
    """Run one worker to its end and return its JSON result."""
    worker = subprocess.Popen(
        command + ["--launched-at", repr(perf_counter())], stdout=subprocess.PIPE, text=True
    )
    try:
        output, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        worker.kill()
        worker.wait()
        raise
    lines = output.splitlines()
    if worker.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise RuntimeError(f"worker failed with exit code {worker.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="proploc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "proploc" / "__init__.py").is_file():
        print("error: run from the root of a proploc checkout (no src/proploc here)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    setups = []
    if not args.trace:
        setups = [_run_worker(command + ["--setup-only"]) for _ in range(SETUP_LAUNCHES - 1)]
    result = _run_worker(command)
    setups.append(result)
    setup_samples = [setup["setup_s"] for setup in setups]

    untraced = result["untraced"]
    error_rate = result["failed"] / result["attempted"]
    lines = [
        f"workload={result['workload']} seed={result['seed']} trace={args.trace} "
        f"python={result['python']} numpy={result['numpy']} nproc={result['nproc']} "
        f"commit={result['git_commit']} inputs_sha256={result['inputs_sha256']}",
        f"untraced: {untraced['ops']} ops in {untraced['passes']} passes, "
        f"{untraced['timed_raw_s']:.3f} s timed ({untraced['timed_s']:.3f} s at nominal speed, "
        f"{result['reference_samples']} reference samples)",
    ]
    if args.trace:
        metrics = result["per_layer"]
        traced = result["traced"]
        lines.append(
            f"traced: {traced['ops']} ops in {traced['passes']} passes, "
            f"{traced['timed_raw_s']:.3f} s timed, {result['spans']} spans in {result['spans_file']}"
        )
        lines.append(
            f"tracing overhead: {metrics['trace.overhead']:.1%} "
            f"({metrics['trace.traced_ops_per_s']:.2f} traced vs "
            f"{metrics['trace.untraced_ops_per_s']:.2f} untraced ops/s)"
        )
        lines.append("per-layer metrics:")
        lines += [f"  {name} = {value}" for name, value in metrics.items()]
        lines.append("self-time breakdown (span, calls, self s, total s):")
        lines += [
            f"  {row['span']:<56} {row['calls']:>8} {row['self_s']:>10.4f} {row['total_s']:>10.4f}"
            for row in result["breakdown"]
        ]
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": untraced["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_p90_ms": result["op_p90_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        result["setup_samples_s"] = setup_samples
        result["setup_raw_samples_s"] = [setup["setup_raw_s"] for setup in setups]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in metrics.items():
            lines.append(f"{name} = {value:.6g} {units.get(name, '')}")
        lines.append(
            f"op latency samples = {result['op_samples']} ({result['beyond_p90']} beyond p90); "
            f"set-up samples = {len(setup_samples)}, raw median "
            f"{statistics.median(result['setup_raw_samples_s']):.4f} s; "
            f"raw ops_per_s = {untraced['raw_ops_per_s']:.6g}"
        )
    lines.append(
        f"error_rate = {error_rate:.6g} ({result['failed']} failed of {result['attempted']} attempted)"
    )
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "metrics": metrics}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        # A layer a workload never calls has 0 calls and 0 s.
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
