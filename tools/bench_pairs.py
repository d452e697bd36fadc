"""Paired benchmark of two trees: the parent and a change.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_N.json \\
        --seed-base 3000 --probe-seed-base 3100 --claim class-sweep:ops_per_s

Pick seed bases that no earlier series and no run made while writing the
change has used; both are required, so no default seed is ever reused.

Each tree is a clean ``git archive`` export of a commit or tree id, so
untracked files and build leftovers in the checkout never reach a run.
The exports sit side by side in directories whose paths have the same
length.  Pair i (from 1 to PAIRS) runs ``python3 bench/run.py --workload
W --seed SEED_BASE + i --seconds S --trace 0`` in each tree, one run at a
time, for every workload of ``BENCHMARK.json`` in its order, with S its
``run_seconds``; the parent starts odd pairs and the change
even ones.  Class-sweep also runs a second, byte-identical export of
the parent, and the three trees rotate which starts: the spread between
the parent and the control is what host noise alone does.  After the
pairs, PROBE_PAIRS pairs of fresh ``python3 bench/worker.py setup W
SEED`` processes alternate parent and change one process at a time, so
both trees' set-up probes land in the same host modes.

The JSON written to ``--out`` has the layout of the committed
``BENCH_*.json`` files: for every end-to-end metric of ``BENCHMARK.json``
the medians and quartiles of both trees, the pairs the change wins, how
much worse the change's median is (a fraction of the parent's, positive
when worse), whether that is within the metric's bound, and the raw runs.
Notes that need a reader's judgement (a description of the change, why
a pair was lost, what the control shows) are left to be added by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles

REPO = Path(__file__).resolve().parent.parent
# Workloads that also run a byte-identical export of the parent.
CONTROLLED = {"class-sweep"}
QUARTILES = "statistics.quantiles(n=4, method='inclusive')"
PAIRS = 10
PROBE_PAIRS = 20
RULE = (
    "change wins at least 9 of 10 pairs, its median beats the parent's "
    "by more than the parent's interquartile range, and no larger share "
    "of its operations fails"
)


def export(rev: str, dest: Path) -> None:
    """Write the files of commit or tree rev into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def rev_parse(rev: str) -> str:
    argv = ["git", "rev-parse", rev]
    return subprocess.run(argv, cwd=REPO, capture_output=True, text=True, check=True).stdout.strip()


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed:\n{done.stderr.strip()}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "host_reference_s": [r.get("host_reference_s") for r in detail["runs"]],
    }


def setup_probe(tree: Path, workload: str, seed: int) -> float:
    argv = [sys.executable, "bench/worker.py", "setup", workload, str(seed)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def better(a: float, b: float, direction: str) -> bool:
    """Whether a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def worse_by(change: float, parent: float, direction: str) -> float:
    """How much worse change is than parent, as a fraction of parent."""
    gap = change - parent if direction == "lower" else parent - change
    return gap / parent


def compare(parent: list[float], change: list[float], direction: str) -> dict:
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_wins": sum(better(b, a, direction) for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_worse_by": worse_by(c["median"], p["median"], direction),
        "parent_iqr_over_median": (p["q3"] - p["q1"]) / p["median"],
    }


def summarize(runs: dict[str, list[dict]], metric: dict) -> dict:
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    values = {tree: [run["metrics"][name] for run in series] for tree, series in runs.items()}
    out = {"unit": metric["unit"], "better": direction, "bound": bound}
    out.update(compare(values["parent"], values["change"], direction))
    out["within_bound"] = out["median_worse_by"] <= bound
    out["parent_spread_exceeds_bound"] = out["parent_iqr_over_median"] > bound
    worst_change = min(values["change"]) if direction == "higher" else max(values["change"])
    out["every_change_run_better"] = all(
        better(worst_change, v, direction) for v in values["parent"]
    )
    out["parent_runs"] = values["parent"]
    out["change_runs"] = values["change"]
    if "control" in values:
        out["control"] = quartiles(values["control"])
        out["control_runs"] = values["control"]
    return out


def claim(result: dict, workload: str, metric: str) -> dict:
    s, failed = result["summary"][metric], result["failed_share"]
    sign = 1 if s["better"] == "higher" else -1
    gain = sign * (s["change"]["median"] - s["parent"]["median"])
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    needed = math.ceil(0.9 * s["pairs"])
    return {
        "workload": workload,
        "metric": metric,
        "rule": RULE,
        "change_wins": s["change_wins"],
        "pairs": s["pairs"],
        "median_gain": gain,
        "median_gain_ratio": gain / s["parent"]["median"],
        "parent_iqr": iqr,
        "failed_share": {tree: failed[tree] for tree in ("parent", "change")},
        "met": (
            s["change_wins"] >= needed and gain > iqr and failed["change"] <= failed["parent"]
        ),
        "parent_median": s["parent"]["median"],
        "change_median": s["change"]["median"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit or tree id of the parent")
    parser.add_argument("--change", required=True, help="commit or tree id of the change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed-base", type=int, required=True, help="pair i uses seed BASE + i")
    parser.add_argument(
        "--probe-seed-base", type=int, required=True, help="set-up probe i uses seed BASE + i"
    )
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--workdir", type=Path, help="where the exports go (default: a temp dir)")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"parent": workdir / "par", "change": workdir / "chg", "control": workdir / "ctl"}
    export(args.parent, trees["parent"])
    export(args.change, trees["change"])
    if CONTROLLED & set(workloads):
        export(args.parent, trees["control"])

    runs = {w: {t: [] for t in trees if t != "control" or w in CONTROLLED} for w in workloads}
    for i in range(1, PAIRS + 1):
        seed = args.seed_base + i
        for workload in workloads:
            order = list(runs[workload])
            start = (i - 1) % len(order)
            for tree in order[start:] + order[:start]:
                run = bench_run(trees[tree], workload, seed, seconds)
                runs[workload][tree].append(run)
                print(f"pair {i} {workload} {tree}: {run['metrics']}", file=sys.stderr, flush=True)

    controlled = ", ".join(sorted(CONTROLLED & set(workloads))) or "no workload"
    report: dict = {
        "parent_commit": rev_parse(args.parent),
        "change_tree": rev_parse(args.change + "^{tree}"),
        "command": (
            f"python3 bench/run.py --workload <name> --seed <seed> --seconds {seconds} "
            "--trace 0, run from a clean export of each tree"
        ),
        "order": (
            f"pair i uses seed {args.seed_base} + i; the parent runs first in odd pairs, the "
            f"change first in even pairs; workloads in the order {', '.join(workloads)} within "
            f"a pair; {controlled} also runs a byte-identical export of the parent (control), "
            "and the three rotate which starts. After the pairs, "
            f"{PROBE_PAIRS} pairs of fresh `python3 bench/worker.py setup <workload> <seed>` "
            f"probes per workload (seeds {args.probe_seed_base} + i) alternate parent and change "
            "one process at a time (setup_probes)"
        ),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": sys.platform,
        },
        "quartiles": QUARTILES,
        "workloads": {},
    }
    for workload in workloads:
        series = runs[workload]
        probes: dict[str, list[float]] = {"parent": [], "change": []}
        for i in range(PROBE_PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for tree in order:
                probes[tree].append(setup_probe(trees[tree], workload, args.probe_seed_base + i))
        setup = {"what": "fresh setup probes, parent and change alternating which starts"}
        setup.update(compare(probes["parent"], probes["change"], "lower"))
        setup.update(parent_runs=probes["parent"], change_runs=probes["change"])
        report["workloads"][workload] = {
            "pairs": PAIRS,
            "seeds": [args.seed_base + i for i in range(1, PAIRS + 1)],
            "failed_share": {
                tree: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                for tree, rs in series.items()
            },
            "summary": {m["name"]: summarize(series, m) for m in spec["end_to_end"]},
            "host_reference_s": {
                tree: [r["host_reference_s"] for r in rs] for tree, rs in series.items()
            },
            "setup_probes": setup,
        }

    summaries = [(w, m, s) for w, d in report["workloads"].items() for m, s in d["summary"].items()]
    if args.claim:
        workload, metric = args.claim.split(":")
        report["claim"] = claim(report["workloads"][workload], workload, metric)
    report["outside_bound"] = [
        {"workload": w, "metric": m, "median_worse_by": s["median_worse_by"]}
        for w, m, s in summaries
        if not s["within_bound"]
    ]
    report["unresolved"] = {
        "metrics": [
            {"workload": w, "metric": m}
            for w, m, s in summaries
            if s["parent_spread_exceeds_bound"] and not s["every_change_run_better"]
        ]
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
