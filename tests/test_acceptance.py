"""Acceptance gate: one test per published criterion.

Each test prints a single pass/fail line before asserting, so a plain
run leaves a readable scoreboard even when a criterion fails.
"""

import time
from pathlib import Path

from goeritz.complexes import (
    build_bridge_corridor,
    build_principal_complex,
    build_shell_complex,
    export_dot,
    export_json,
)
from goeritz.lens import LensSpace
from goeritz.presentations import abelianization, goeritz_presentation
from goeritz.shell_bridge import find_bridge, shell_words
from goeritz.verify import (
    check_bridges,
    check_classification,
    check_obstruction_soundness,
    check_oz_necessity,
    check_shell_primitivity,
    forest_windows,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_bridge_l12_5_exact():
    start = time.perf_counter()
    bridge = find_bridge(LensSpace(12, 5), 5)
    elapsed = time.perf_counter() - start
    ok = (
        bridge.w == ""
        and str(bridge.d_word) == "xy^5xy^5xy^5xy^5xy^4"
        and bridge.simplex_count == 2
        and elapsed < 1.0
    )
    _report(1, ok, f"w={bridge.w!r}, D={bridge.d_word}, {elapsed:.3f}s")
    assert bridge.w == ""
    assert str(bridge.d_word) == "xy^5xy^5xy^5xy^5xy^4"
    assert bridge.simplex_count == 2
    assert elapsed < 1.0


def test_criterion_2_shell_primitivity_sweep():
    result = check_shell_primitivity(max_p=50)
    ok = result.passed and result.elapsed < 60.0
    _report(2, ok, f"{result.checked} shells, {result.elapsed:.1f}s")
    assert result.counterexample is None
    assert result.passed
    assert result.elapsed < 60.0


def test_criterion_3_obstruction_soundness():
    result = check_obstruction_soundness(
        exhaustive_len=14, samples=100_000, random_len=20
    )
    ok = result.passed and result.elapsed < 300.0
    _report(3, ok, f"{result.checked} words, {result.elapsed:.1f}s")
    assert result.counterexample is None
    assert result.passed
    assert result.elapsed < 300.0


def test_criterion_4_oz_necessity():
    result = check_oz_necessity(max_len=16)
    _report(4, result.passed, f"{result.checked} primitive classes")
    assert result.counterexample is None
    assert result.passed


def test_criterion_5_bridge_validity_sweep():
    result = check_bridges(max_p=60)
    depth = max(len(find_bridge(space, qbar).w) for space, qbar in forest_windows(60))
    ok = result.passed and depth <= 64
    _report(
        5,
        ok,
        f"{result.checked} bridges, deepest w has {depth} letters",
    )
    assert result.counterexample is None
    assert result.passed
    assert depth <= 64


def test_criterion_6_presentation_goldens():
    cases = [
        ("presentation_l12_5.txt", LensSpace(12, 5), "(Z/2)^5 + Z"),
        ("presentation_l23_7.txt", LensSpace(23, 7), "(Z/2)^5 + Z^3"),
    ]
    ok = True
    for name, space, expected_ab in cases:
        pres = goeritz_presentation(space)
        ok = ok and pres.text() == (GOLDEN / name).read_text()
        ok = ok and str(abelianization(pres)) == expected_ab
    _report(6, ok, "L(12,5) and L(23,7) text + abelianization")
    for name, space, expected_ab in cases:
        pres = goeritz_presentation(space)
        assert pres.text() == (GOLDEN / name).read_text()
        assert str(abelianization(pres)) == expected_ab


def test_criterion_7_classification_equivalence():
    result = check_classification(max_p=200)
    _report(7, result.passed, f"{result.checked} pairs")
    assert result.counterexample is None
    assert result.passed


def test_criterion_8_export_determinism():
    def builds():
        shell = build_shell_complex(shell_words(12, 5))
        principal = build_principal_complex(12, 5, 3)
        corridor = build_bridge_corridor(find_bridge(LensSpace(12, 5), 5))
        return {
            "shell_l12_5.json": export_json(shell),
            "shell_l12_5.dot": export_dot(shell),
            "principal_l12_5_d3.json": export_json(principal),
            "bridge_l12_5.json": export_json(corridor),
            "bridge_l12_5.dot": export_dot(corridor),
        }

    first, second = builds(), builds()
    ok = first == second and all(
        (GOLDEN / name).read_text() == text for name, text in first.items()
    )
    _report(8, ok, f"{len(first)} exports, two runs vs goldens")
    assert first == second
    for name, text in first.items():
        assert (GOLDEN / name).read_text() == text, name
