"""Tests for the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goeritz
from goeritz.cli import _parser, main
from goeritz.complexes import import_json

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBridgeCommand:
    def test_l12_5_text(self, capsys):
        code, out, _ = run(capsys, "bridge", "12", "5")
        assert code == 0
        lines = out.splitlines()
        assert "w = ε" in lines
        assert "D = xy^5xy^5xy^5xy^5xy^4" in lines
        assert "simplices: 2" in lines
        assert "  E E_m E_{m+1}" in lines
        assert "  E_m E_{m+1} E_" in lines

    def test_l12_5_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bridge", "12", "5")
        assert code == 0
        assert out.endswith("\n") and out.count("\n}") == 1
        doc = json.loads(out)
        assert doc["p"] == 12 and doc["q"] == 5
        assert doc["w"] == ""
        assert doc["dWord"] == "xy^5xy^5xy^5xy^5xy^4"
        assert doc["simplexCount"] == 2
        assert doc["homology"] == {"E": 1, "D": 5}

    def test_l23_7_needs_one_letter(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bridge", "23", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["w"] == "R"
        assert doc["simplexCount"] == 3

    def test_contractible_is_domain_error(self, capsys):
        code, out, err = run(capsys, "bridge", "7", "3")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_over_length_bound_exits_2(self, capsys):
        # w would be R^513, one letter past the bound.
        code, out, err = run(capsys, "bridge", "2064", "1031")
        assert code == 2
        assert out == ""
        assert "more than 512" in err

    def test_d_word_syllable_bound(self, capsys):
        # The D-word of L(625002, 5) holds exactly 500,002 syllables;
        # L(625007, 5) would hold 500,006.
        code, out, _ = run(capsys, "--format", "json", "bridge", "625002", "5")
        assert code == 0
        assert json.loads(out)["dWord"].count("x") == 250_001
        code, out, err = run(capsys, "bridge", "625007", "5")
        assert code == 2
        assert out == ""
        assert "500006 syllables, more than 500002" in err

    @pytest.mark.parametrize(
        "p, qbar, message",
        [("12", "7", "qbar must be 5, got 7"), ("23", "16", "qbar must be 7 or 10, got 16")],
    )
    def test_foreign_qbar_names_each_admissible_value_once(self, capsys, p, qbar, message):
        code, out, err = run(capsys, "bridge", p, qbar)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_partner_window_accepted(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "bridge", "23", "10")
        assert code == 0
        assert json.loads(out)["qbar"] == 10


class TestAnalyzeCommand:
    def test_forest_json_fields(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "analyze", "12", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "forest"
        assert doc["qPrime"] == 5
        assert doc["goeritz"]["kind"] == "presentation"
        assert doc["abelianization"] == "(Z/2)^5 + Z"
        assert doc["kernel"] == "Z+Z"

    def test_contractible_text_mentions_stub(self, capsys):
        code, out, _ = run(capsys, "analyze", "7", "3")
        assert code == 0
        assert "contractible" in out
        assert "connected" in out

    def test_invalid_pair_exits_two(self, capsys):
        code, out, err = run(capsys, "analyze", "12", "4")
        assert code == 2
        assert out == ""
        assert "coprime" in err

    def test_q_above_half_is_normalized(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "analyze", "12", "7")
        assert code == 0
        assert json.loads(out)["q"] == 5


class TestShellCommand:
    def test_lists_all_words_with_flags(self, capsys):
        code, out, _ = run(capsys, "shell", "7", "3")
        assert code == 0
        body = [line for line in out.splitlines() if line.startswith("E_")]
        assert len(body) == 8
        flagged = {line.split()[0] for line in body if line.endswith("primitive")}
        assert flagged == {"E_1", "E_2", "E_5", "E_6"}

    def test_json_indices(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "shell", "12", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["primitiveIndices"] == [1, 5, 7, 11]
        assert doc["words"][0] == {"label": "E_0", "word": "y^12", "primitive": False}

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("shell", "12", "5"), "shell_words_l12_5.txt"),
            (("--format", "json", "shell", "12", "5"), "shell_words_l12_5.json"),
        ],
        ids=["text", "json"],
    )
    def test_golden(self, capsys, argv, name):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    def test_rejects_non_coprime(self, capsys):
        code, _, _ = run(capsys, "shell", "12", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [("shell",), ("complex", "shell")], ids=["shell", "complex-shell"]
    )
    def test_above_size_bound_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "2001", "1")
        assert code == 2
        assert out == ""
        assert "bound 2000" in err


class TestPresentationCommand:
    def test_text_includes_abelianization(self, capsys):
        code, out, _ = run(capsys, "presentation", "12", "5")
        assert code == 0
        assert out.startswith("generators: alpha, beta, gamma, sigma1, sigma2, tau")
        assert "abelianization: (Z/2)^5 + Z" in out

    def test_gap_flag(self, capsys):
        code, out, _ = run(capsys, "presentation", "12", "5", "--gap")
        assert code == 0
        assert out.startswith('F := FreeGroup(')
        assert "AssignGeneratorVariables" in out

    def test_json_generators(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "presentation", "23", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["generators"][-1] == "upsilon"
        assert doc["abelianization"] == "(Z/2)^5 + Z^3"

    def test_contractible_has_no_presentation(self, capsys):
        code, out, err = run(capsys, "presentation", "7", "3")
        assert code == 1
        assert out == ""
        assert "connected" in err


class TestComplexCommand:
    def test_shell_text_summary(self, capsys):
        code, out, _ = run(capsys, "complex", "shell", "7", "3")
        assert code == 0
        assert "9 vertices" in out and "7 triangles" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "complex", "bridge", "12", "5")
        assert code == 0
        complex_ = import_json(out)
        assert complex_.meta["kind"] == "bridge"
        labels = {v.label for v in complex_.vertices}
        assert labels == {"D", "E", "E_2", "E_3"}

    @pytest.mark.parametrize("p, qbar", [(404, 201), (2000, 999)])
    def test_deep_corridor_answers(self, capsys, p, qbar):
        code, out, _ = run(capsys, "--format", "json", "complex", "bridge", str(p), str(qbar))
        assert code == 0
        doc = json.loads(out)
        assert {v["label"] for v in doc["vertices"] if v.get("primitive")} == {"D", "E"}

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "--format", "dot", "complex", "shell", "5", "2")
        assert code == 0
        assert out.startswith("graph shell {")
        assert out.rstrip().endswith("}")

    def test_principal_depth_flag(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "complex", "principal", "12", "5", "--depth", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["triangles"]) == 4

    def test_principal_without_window_is_domain_error(self, capsys):
        code, _, err = run(capsys, "complex", "principal", "7", "3")
        assert code == 1
        assert "window" in err

    def test_principal_syllable_bound_exits_two(self, capsys):
        # E_m alone would hold 4,000,000 syllables, past what import_json reads.
        code, out, err = run(capsys, "complex", "principal", "10000003", "5", "--depth", "0")
        assert code == 2
        assert out == ""
        assert "8000002 syllables, more than 500002" in err

    @pytest.mark.parametrize("p,qbar", [("12", "0"), ("5", "7"), ("12", "4")])
    def test_principal_invalid_pair_exits_two(self, capsys, p, qbar):
        code, out, err = run(capsys, "complex", "principal", p, qbar)
        assert code == 2
        assert out == ""
        assert "need coprime 1 <= qbar < p" in err

    def test_tree_requires_forest(self, capsys):
        code, _, _ = run(capsys, "complex", "tree", "7", "3")
        assert code == 1
        code, out, _ = run(capsys, "complex", "tree", "12", "5")
        assert code == 0
        assert "treeOfTrees" in out

    def test_oversized_radius_is_invalid_input(self, capsys):
        code, _, _ = run(capsys, "complex", "tree", "12", "5", "--radius", "99")
        assert code == 2


class TestVerifyCommand:
    # L(12, 5) is the smallest forest space, so every suite checks a case.
    SMOKE = ("verify", "--max-p", "12", "--max-len", "6", "--samples", "200")

    def test_smoke_passes(self, capsys):
        code, out, _ = run(capsys, *self.SMOKE)
        assert code == 0
        assert "all suites passed" in out
        assert out.count("ok  ") == 5

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "--format", "json", *self.SMOKE)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [r["name"] for r in doc["results"]] == [
            "shell-primitivity",
            "obstruction-soundness",
            "oz-necessity",
            "bridge-validity",
            "classification-equivalence",
        ]

    @pytest.fixture
    def oz_fails(self, monkeypatch):
        # Every primitive class now fails the shape test; the first is x.
        monkeypatch.setattr("goeritz.verify.oz_form_check", lambda cw: False)

    def test_injected_failure_exits_one(self, capsys, oz_fails):
        code, out, _ = run(capsys, *self.SMOKE)
        assert code == 1
        assert "FAIL oz-necessity" in out
        assert 'counterexample: {"word": "x"}' in out
        assert out.count("ok  ") == 4
        assert "1 suite(s) failed" in out

    def test_injected_failure_json(self, capsys, oz_fails):
        code, out, _ = run(capsys, "--format", "json", *self.SMOKE)
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name.pop("oz-necessity")["counterexample"] == {"word": "x"}
        assert all(r["passed"] for r in by_name.values())

    @pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_exits_two(self, capsys, monkeypatch, jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the jobs check")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
        monkeypatch.setattr("goeritz.verify.check_shell_primitivity", refuse)
        code, out, err = run(capsys, *self.SMOKE, "--jobs", str(jobs))
        assert code == 2
        assert out == ""
        assert "jobs must be within 1.." in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-p", "2001", "max-p must be at most 2000, got 2001"),
            ("--max-len", "17", "max-len must be within 0..16, got 17"),
            ("--max-len", "-3", "max-len must be within 0..16, got -3"),
            ("--max-p", "5", "max-p must be at least 12, the smallest forest space's p, got 5"),
            ("--max-p", "1", "max-p must be at least 12, the smallest forest space's p, got 1"),
            ("--samples", "-5", "samples must be at least 0, got -5"),
        ],
    )
    def test_bound_out_of_range_exits_two(self, capsys, monkeypatch, flag, value, message):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the bounds check")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
        monkeypatch.setattr("goeritz.verify.check_shell_primitivity", refuse)
        code, out, err = run(capsys, *self.SMOKE, flag, value)
        assert code == 2
        assert out == ""
        assert message in err

    def test_import_loads_no_process_pool(self):
        # Only --jobs N with N > 1 needs the pool and multiprocessing.
        code = (
            "import sys, goeritz, goeritz.cli;"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        src = str(Path(goeritz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_no_case_left_exits_two(self, capsys, monkeypatch):
        # Valid-looking input that would leave a suite without a case (no
        # forest space below p = 12, no word at all to certify) is refused
        # up front, not reported as a failed suite.
        def refuse(*args, **kwargs):
            raise AssertionError("a suite started")

        monkeypatch.setattr("goeritz.verify.check_shell_primitivity", refuse)
        code, out, err = run(capsys, "verify", "--max-p", "10", "--max-len", "6", "--samples", "200")
        assert (code, out) == (2, "")
        assert "max-p must be at least 12" in err
        code, out, err = run(capsys, *self.SMOKE, "--max-len", "0", "--samples", "0")
        assert (code, out) == (2, "")
        assert "max-len 0 with 0 samples leaves obstruction-soundness no word" in err

    def test_quiet_hides_passing_lines(self, capsys):
        code, out, _ = run(capsys, "--quiet", *self.SMOKE)
        assert code == 0
        assert out == ""


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_dot_outside_complex_rejected(self, capsys):
        code, _, err = run(capsys, "--format", "dot", "analyze", "12", "5")
        assert code == 2
        assert "dot" in err

    def test_reused_parser_keeps_no_state(self, capsys):
        sequence = [
            ("--format", "json", "shell", "7", "3"),
            ("shell", "7", "3"),
            ("bogus",),
            ("--quiet", "analyze", "23", "7"),
            ("analyze", "23", "7"),
        ]
        reused = [run(capsys, *argv) for argv in sequence]
        first_calls = []
        for argv in sequence:
            _parser.cache_clear()
            first_calls.append(run(capsys, *argv))
        assert reused == first_calls
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
        assert reused[1][1].startswith("shell words for p = 7, qbar = 3\n")
        assert reused[3][1] == ""
        assert reused[4][1].startswith("L(23,7): forest\n")

    def test_quiet_suppresses_reports(self, capsys):
        code, out, _ = run(capsys, "--quiet", "bridge", "12", "5")
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_formats_share_exit_codes(self, capsys, fmt):
        assert run(capsys, "--format", fmt, "bridge", "7", "3")[0] == 1


class TestGoldens:
    """Whole outputs of the presentation, bridge and principal-complex
    commands, pinned byte for byte."""

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("analyze", "23", "7"), "analyze_l23_7.txt"),
            (("--format", "json", "analyze", "12", "5"), "analyze_l12_5.json"),
            (("presentation", "23", "7", "--gap"), "presentation_l23_7.gap"),
            (("--format", "json", "presentation", "12", "5"), "presentation_l12_5.json"),
            (("--format", "json", "bridge", "23", "7"), "bridge_l23_7.json"),
            (
                ("--format", "json", "complex", "principal", "23", "7", "--depth", "4"),
                "principal_l23_7_d4.json",
            ),
            (("bridge", "23", "7"), "bridge_l23_7.txt"),
            (("--format", "json", "complex", "bridge", "39", "17"), "bridge_l39_17.json"),
            (("complex", "bridge", "39", "17"), "bridge_l39_17.txt"),
        ],
    )
    def test_golden(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()
