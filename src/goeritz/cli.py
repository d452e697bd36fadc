"""Command line front end.

Exit codes: 0 on success, 1 when a domain condition fails (no forest
structure, no presentation, a verification suite fails), 2 on invalid
input. Configuration is flags-only; JSON output is a single
newline-terminated document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .complexes import (
    MAX_BALL_BRANCHING,
    MAX_BALL_RADIUS,
    MAX_PRINCIPAL_DEPTH,
    SimplicialComplex2,
    build_bridge_corridor,
    build_principal_complex,
    build_shell_complex,
    build_tree_of_trees_ball,
    export_dot,
    export_json,
)
from .lens import LensSpace, lens_report
from .presentations import (
    ConnectedCaseStub,
    _heegaard_report,
    abelianization,
    goeritz_presentation,
)
from .shell_bridge import MAX_SHELL_P, NotForestError, bridge_report, find_bridge, shell_words
from .verify import DEFAULT_SEED, MAX_EXHAUSTIVE_LEN, MAX_SWEEP_SHELL_P, MIN_BRIDGE_P, run_all


def _space(p: int, q: int) -> LensSpace:
    """Normalize q into [1, p/2] before constructing the space."""
    if p < 2:
        raise ValueError(f"p = {p}: need p >= 2")
    q %= p
    if q == 0:
        raise ValueError(f"q = 0 (mod {p}) is not coprime to p")
    return LensSpace(p, min(q, p - q))


def _emit_json(doc: Any) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _say(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        sys.stdout.write(text + "\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    space = _space(args.p, args.q)
    pres = goeritz_presentation(space)
    report = _heegaard_report(space, pres)
    doc = dict(lens_report(space))
    doc["goeritz"] = report["quotient"]
    doc["goeritzNote"] = report["quotientNote"]
    doc["sequence"] = report["sequence"]
    doc["kernel"] = report["kernel"]
    doc["conclusion"] = report["conclusion"]
    if not isinstance(pres, ConnectedCaseStub):
        doc["abelianization"] = str(abelianization(pres))

    if args.format == "json":
        _emit_json(doc)
        return 0

    lines = [f"{space!r}: {doc['classification']}"]
    lines.append(
        f"q' = {doc['qPrime']}, q^2 = 1 (mod p): {'yes' if doc['qSquaredIsOne'] else 'no'}"
    )
    for key, qbar in (("q", space.q), ("qPrime", doc["qPrime"])):
        window = doc["perType"][key]
        if window is None:
            lines.append(f"window at {qbar}: none (p = +-1 mod {qbar})")
        else:
            lines.append(
                f"window at {qbar}: p = {window['m']}*{qbar} + {window['r']}"
            )
    lines.append(f"pi1(Diff) = {doc['kernel']}   ({doc['sequence']})")
    if doc["smaleConditional"]:
        lines.append("(kernel conditional on the Smale conjecture for this space)")
    if doc["goeritz"]["kind"] == "stub":
        lines.append(f"goeritz group: {doc['goeritz']['reason']}")
    else:
        lines.append("goeritz group (up to finite extensions):")
        lines.append(f"  structure: {pres.structure.text()}")
        lines.append(f"  abelianization: {doc['abelianization']}")
    _say(args, "\n".join(lines))
    return 0


def cmd_shell(args: argparse.Namespace) -> int:
    shell = shell_words(args.p, args.qbar)
    entries = [
        {
            "label": f"E_{k}",
            "word": str(shell.word(k)),
            "primitive": k in shell.primitive_indices,
        }
        for k in range(args.p + 1)
    ]
    if args.format == "json":
        _emit_json(
            {
                "p": shell.p,
                "qbar": shell.qbar,
                "primitiveIndices": sorted(shell.primitive_indices),
                "words": entries,
            }
        )
        return 0
    width = max(len(e["label"]) for e in entries)
    lines = [f"shell words for p = {shell.p}, qbar = {shell.qbar}"]
    for e in entries:
        flag = "primitive" if e["primitive"] else "."
        lines.append(f"{e['label']:<{width}}  {e['word']}  {flag}")
    _say(args, "\n".join(lines))
    return 0


def cmd_bridge(args: argparse.Namespace) -> int:
    space = _space(args.p, args.qbar)
    bridge = find_bridge(space, args.qbar)
    report = bridge_report(bridge)
    if args.format == "json":
        _emit_json({"p": space.p, "q": space.q, **report})
        return 0
    lines = [
        f"{space!r} bridge at qbar = {bridge.qbar}"
        f" (p = {bridge.m}*{bridge.qbar} + {bridge.r})",
        f"w = {bridge.w or 'ε'}",
        f"D = {report['dWord']}",
        f"simplices: {bridge.simplex_count}",
        f"homology: E -> {report['homology']['E']}, D -> {report['homology']['D']}",
        "corridor:",
    ]
    lines.extend("  " + " ".join(tri) for tri in report["corridor"])
    _say(args, "\n".join(lines))
    return 0


def cmd_presentation(args: argparse.Namespace) -> int:
    space = _space(args.p, args.q)
    pres = goeritz_presentation(space)
    if isinstance(pres, ConnectedCaseStub):
        sys.stderr.write(f"error: {space!r}: {pres.reason}\n")
        return 1
    if args.format == "json":
        _emit_json(
            {
                "space": repr(space),
                **pres.to_json(),
                "abelianization": str(abelianization(pres)),
            }
        )
        return 0
    body = pres.gap() if args.gap else (
        pres.text() + f"abelianization: {abelianization(pres)}\n"
    )
    if not args.quiet:
        sys.stdout.write(body)
    return 0


def _build_complex(args: argparse.Namespace) -> SimplicialComplex2:
    if args.kind == "shell":
        return build_shell_complex(shell_words(args.p, args.qbar))
    if args.kind == "principal":
        return build_principal_complex(args.p, args.qbar, args.depth)
    if args.kind == "bridge":
        space = _space(args.p, args.qbar)
        return build_bridge_corridor(find_bridge(space, args.qbar))
    space = _space(args.p, args.qbar)
    return build_tree_of_trees_ball(space, args.radius, args.branching)


def cmd_complex(args: argparse.Namespace) -> int:
    complex_ = _build_complex(args)
    if args.format == "json":
        sys.stdout.write(export_json(complex_))
        return 0
    if args.format == "dot":
        sys.stdout.write(export_dot(complex_))
        return 0
    primitive = sorted(v.label for v in complex_.vertices if v.primitive)
    meta = " ".join(f"{k}={v}" for k, v in complex_.meta.items() if not isinstance(v, dict))
    lines = [
        f"{complex_.meta['kind']} complex: {len(complex_.vertices)} vertices,"
        f" {len(complex_.edges)} edges, {len(complex_.triangles)} triangles",
        f"meta: {meta}",
    ]
    if primitive:
        lines.append("primitive vertices: " + ", ".join(primitive))
    _say(args, "\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(
        max_p=args.max_p,
        exhaustive_len=args.max_len,
        samples=args.samples,
        seed=args.seed,
        workers=args.jobs,
    )
    passed = all(r.passed for r in results)
    if args.format == "json":
        _emit_json(
            {
                "seed": args.seed,
                "passed": passed,
                "results": [r.to_json() for r in results],
            }
        )
        return 0 if passed else 1
    for r in results:
        if r.passed and args.quiet:
            continue
        status = "ok  " if r.passed else "FAIL"
        line = f"{status} {r.name:<28} {r.checked:>8} checked  {r.elapsed:7.2f}s"
        if r.detail and not r.passed:
            line += f"  ({r.detail})"
        sys.stdout.write(line + "\n")
        if r.counterexample is not None:
            sys.stdout.write(
                "     counterexample: " + json.dumps(r.counterexample) + "\n"
            )
    if not args.quiet:
        tally = sum(1 for r in results if not r.passed)
        sys.stdout.write(
            "all suites passed\n" if passed else f"{tally} suite(s) failed\n"
        )
    return 0 if passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goeritz",
        description="Genus-2 Goeritz groups of lens spaces: words, shells, bridges,"
        " presentations, and complex exports.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "dot"),
        default="text",
        help="output format; dot applies to complex only",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress informational text output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("analyze", help="invariants, case split, and group report")
    cmd.add_argument("p", type=int)
    cmd.add_argument("q", type=int)
    cmd.set_defaults(func=cmd_analyze)

    cmd = sub.add_parser("shell", help="boundary words of one shell")
    cmd.add_argument("p", type=int)
    cmd.add_argument("qbar", type=int)
    cmd.set_defaults(func=cmd_shell)

    cmd = sub.add_parser("bridge", help="minimal bridge from the principal tree")
    cmd.add_argument("p", type=int)
    cmd.add_argument("qbar", type=int)
    cmd.set_defaults(func=cmd_bridge)

    cmd = sub.add_parser("presentation", help="finite presentation of the group")
    cmd.add_argument("p", type=int)
    cmd.add_argument("q", type=int)
    cmd.add_argument("--gap", action="store_true", help="emit GAP input instead")
    cmd.set_defaults(func=cmd_presentation)

    cmd = sub.add_parser("complex", help="export a simplicial complex")
    cmd.add_argument("kind", choices=("shell", "principal", "bridge", "tree"))
    cmd.add_argument("p", type=int)
    cmd.add_argument("qbar", type=int)
    cmd.add_argument(
        "--depth",
        type=int,
        default=3,
        help=f"principal tree depth (max {MAX_PRINCIPAL_DEPTH})",
    )
    cmd.add_argument(
        "--radius",
        type=int,
        default=2,
        help=f"tree-of-trees ball radius (max {MAX_BALL_RADIUS})",
    )
    cmd.add_argument(
        "--branching",
        type=int,
        default=8,
        help=f"tree-of-trees branching bound (max {MAX_BALL_BRANCHING})",
    )
    cmd.set_defaults(func=cmd_complex)

    cmd = sub.add_parser("verify", help="run the verification sweeps")
    cmd.add_argument(
        "--max-p",
        type=int,
        default=60,
        help=f"{MIN_BRIDGE_P}..{MAX_SHELL_P}; shells stop at p = {MAX_SWEEP_SHELL_P}",
    )
    cmd.add_argument("--max-len", type=int, default=14, help=f"0..{MAX_EXHAUSTIVE_LEN}")
    cmd.add_argument("--samples", type=int, default=100_000, help="at least 1 with --max-len 0")
    cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cmd.add_argument("--jobs", type=int, default=1, help="worker processes, 1..CPU count")
    cmd.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.format == "dot" and args.command != "complex":
        sys.stderr.write("error: dot format applies to the complex command only\n")
        return 2
    try:
        return args.func(args)
    except NotForestError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
