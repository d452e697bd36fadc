"""One workload in one fresh process; prints a single JSON line on stdout.

    python3 bench/worker.py setup   WORKLOAD SEED
    python3 bench/worker.py measure WORKLOAD SEED SECONDS
    python3 bench/worker.py traced  WORKLOAD SEED SECONDS

``setup`` times the import of goeritz, input generation and the first
call (a fixed warm-up request) and stops.  ``measure`` then runs the
workload's operations in one closed loop for SECONDS and reports the
latency samples' statistics and the gate.  ``traced`` does the same with
every layer wrapped by ``tracing.instrument``.  The orchestrator is
``bench/run.py``.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Imported after sys.path is set so they never import another goeritz.
from helpers import (  # noqa: E402
    LatencyHistogram,
    digest,
    host_reference_s,
    steal_s,
    tail_percentile,
)
from workloads import WORKLOADS  # noqa: E402
import tracing  # noqa: E402


def load_goeritz():
    """The package from this checkout's src/, every layer module imported."""
    package = importlib.import_module("goeritz")
    source = Path(package.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"goeritz was imported from {source}, not from {ROOT / 'src'}")
    layers = {name: importlib.import_module(f"goeritz.{name}") for name in tracing.LAYERS}
    return SimpleNamespace(package=package, tracer=None, **layers)


def judge(check, result):
    """``check(result)``; an output the check cannot read is a wrong one."""
    try:
        return check(result)
    except Exception as exc:
        return False, f"unreadable output: {type(exc).__name__}: {exc}", None


def set_up(name: str, seed: int):
    """Import, input generation and the first call; returns its time."""
    start = perf_counter()
    gz = load_goeritz()
    workload = WORKLOADS[name](seed)
    call, check = workload.warmup(gz)
    failed, violation, reason = judge(check, call())
    elapsed = perf_counter() - start
    if failed or violation:
        sys.exit(f"error: the warm-up request failed: {violation or reason}")
    return gz, workload, elapsed


def run(gz, workload, seconds: float) -> dict:
    times = LatencyHistogram()
    completed = 0
    failures: Counter = Counter()
    violations: list[str] = []
    tracer = gz.tracer
    ops = workload.operations(gz)
    reference = [host_reference_s()]
    steal_start = steal_s()
    cpu_start = process_time()
    started = perf_counter()
    deadline = started + seconds
    index = 0
    while True:
        item = next(ops)
        if item is None:
            if perf_counter() >= deadline:
                break
            continue
        call, check = item
        if tracer is not None:
            tracer.begin_op(index)
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # an operation that raised is a failed one
            elapsed = perf_counter() - t0
            verdict = (True, None, f"{type(exc).__name__}: {exc}")
        else:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            verdict = judge(check, result)
            if tracer is not None:
                tracer.enabled = True
        failed, violation, reason = verdict
        if violation:
            violations.append(violation)
        if failed:
            failures[reason] += 1
        times.add(elapsed)
        completed += not failed
        index += 1
    wall = perf_counter() - started
    cpu = process_time() - cpu_start
    steal_end = steal_s()
    reference.append(host_reference_s())
    if tracer is not None:
        tracer.enabled = False
    finish_start = perf_counter()
    violations.extend(workload.finish(gz))
    finish_s = perf_counter() - finish_start
    attempted = times.n
    if attempted == 0:
        raise RuntimeError("no operation completed within the run")
    tail, beyond = times.value_at(workload.TAIL_PCT)
    rule = tail_percentile(attempted)
    return {
        "attempted": attempted,
        "failed": attempted - completed,
        "failures": dict(failures.most_common(10)),
        "violation_count": len(violations),
        "violations": violations[:20],
        "ops_per_s": completed / times.total,
        "op_p50_ms": 1000 * times.value_at(50)[0],
        "op_tail_ms": 1000 * tail,
        "tail": {
            "percentile": workload.TAIL_PCT,
            "samples": attempted,
            "beyond": beyond,
            "rule_percentile": rule,
            "rule_ms": None if rule is None else 1000 * times.value_at(rule)[0],
        },
        "wall_s": wall,
        # The loop's CPU time beside its wall time, and the time the
        # hypervisor took from the machine meanwhile: a slow run whose CPU
        # time matches its wall time and whose steal is zero lost its
        # speed below what the guest can see.
        "cpu_s": cpu,
        "steal_s": None if steal_start is None or steal_end is None else steal_end - steal_start,
        "host_reference_s": reference,
        "finish_s": finish_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "workload": workload.summary(),
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    gz, workload, setup_s = set_up(name, seed)
    record = {"mode": mode, "setup_s": setup_s, "inputs_sha256": digest(workload.inputs)}
    if mode != "setup":
        if mode == "traced":
            gz.tracer = tracing.Tracer()
            tracing.instrument(gz.tracer)
        record.update(run(gz, workload, float(argv[3])))
        if gz.tracer is not None:
            record["trace"] = tracing.summarize(gz.tracer)
            spans = ROOT / "bench" / "out" / f"spans-{name}-{seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            gz.tracer.write_spans(spans)
            record["trace"]["spans_file"] = str(spans.relative_to(ROOT))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
