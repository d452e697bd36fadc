"""Benchmark of the goeritz package: one workload, one seed, one run.

    python3 bench/run.py --workload class-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  The workloads, metrics and bounds are listed in
``BENCHMARK.json``, which this script reads.

``--trace 0`` starts SETUP_PROBES fresh processes that each time the
import of goeritz, input generation and a first (warm-up) call, then one
fresh process that runs the workload in a single closed loop for
``--seconds`` and checks every output.  It prints the end-to-end metrics.

``--trace 1`` runs the workload untraced for half the time and traced for
the other half, each in a fresh process, and prints the per-layer metrics
with the tracing overhead (the untraced rate over the traced one).

Standard output ends with two JSON lines: a detailed record (environment,
seed, input digest, sample counts, failures) and the result
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs
fail a check prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from helpers import environment

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 9
SETUP_TIMEOUT_S = 30
# Slack after the measured window: the last operation may start just
# before the deadline, and the lens-queries anchor alone takes seconds.
RUN_SLACK_S = 60


class BenchmarkError(Exception):
    pass


def worker(mode: str, workload: str, seed: int, seconds: float | None = None) -> dict:
    argv = [sys.executable, str(WORKER), mode, workload, str(seed)]
    timeout = SETUP_TIMEOUT_S
    if seconds is not None:
        argv.append(repr(seconds))
        timeout = seconds + RUN_SLACK_S
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker for {workload} exceeded {timeout} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} worker for {workload} failed:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    probes = [worker("setup", workload, seed)["setup_s"] for _ in range(SETUP_PROBES)]
    run = worker("measure", workload, seed, seconds)
    setups = probes + [run["setup_s"]]
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["op_p50_ms"],
        "op_tail_ms": run["op_tail_ms"],
    }
    run["setup_samples"] = setups
    return values, {"runs": [run]}


def per_layer(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    plain = worker("measure", workload, seed, seconds / 2)
    traced = worker("traced", workload, seed, seconds / 2)
    values = dict(traced.pop("trace"))
    values["trace.ops_per_s_untraced"] = plain["ops_per_s"]
    values["trace.ops_per_s_traced"] = traced["ops_per_s"]
    values["trace.overhead_ratio"] = plain["ops_per_s"] / traced["ops_per_s"]
    traced["spans_file"] = values.pop("spans_file")
    return values, {"runs": [plain, traced]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "goeritz" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: {ROOT} holds no goeritz checkout (src/goeritz, BENCHMARK.json)\n")
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    measure = per_layer if args.trace else end_to_end
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values, detail = measure(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    runs = detail["runs"]
    violations = [v for run in runs for v in run["violations"]]
    correct = all(run["violation_count"] == 0 for run in runs)
    detail.update(
        workload=args.workload,
        why=workloads[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(),
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: the run produced no value for {', '.join(missing)}\n")
        return 1
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    detail["fail_ratio"] = failed / attempted
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        }
        if correct
        else {},
    }
    sys.stdout.write(json.dumps(detail) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    if not correct:
        sys.stderr.write("error: wrong outputs: " + "; ".join(violations[:5]) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
