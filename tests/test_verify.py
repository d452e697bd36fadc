"""Tests for the batch verification harness."""

import hashlib

import pytest

from goeritz.shell_bridge import MAX_SHELL_P
from goeritz.verify import (
    DEFAULT_SEED,
    MAX_EXHAUSTIVE_LEN,
    MIN_BRIDGE_P,
    CheckResult,
    _exhaustive_chunks,
    _random_letters,
    canonical_classes,
    check_bridges,
    check_classification,
    check_obstruction_soundness,
    check_oz_necessity,
    check_shell_primitivity,
    forest_windows,
    run_all,
)
from goeritz.words import CyclicWord

import random


def _brute_canonical(n: int) -> set[tuple[int, ...]]:
    out = set()

    def rotations(t):
        return [t[i:] + t[:i] for i in range(len(t))]

    def rec(buf):
        if len(buf) == n:
            if n > 1 and buf[0] == buf[-1] ^ 1:
                return
            t = tuple(buf)
            if t == min(rotations(t)):
                out.add(t)
            return
        for c in range(4):
            if buf and c == buf[-1] ^ 1:
                continue
            buf.append(c)
            rec(buf)
            buf.pop()

    rec([])
    return out


def _prefixes(k: int) -> list[tuple[int, ...]]:
    """Every reduced word of length k whose letters are all >= its first."""
    words = [(c,) for c in range(4)] if k else [()]
    for _ in range(k - 1):
        words = [w + (c,) for w in words for c in range(w[0], 4) if c != w[-1] ^ 1]
    return words


# sha256 of the ordered output of canonical_classes(n) for n <= 13 and of
# every slice (n, prefix) with n in 10..12 and a prefix of length n - 4.
PINNED_CLASSES = "29c7a7163eb8a0b7ac04e9179c7c559700476851357caa7775ac328b88766755"


class TestCanonicalClasses:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force(self, n):
        brute = sorted(_brute_canonical(n))
        assert list(canonical_classes(n)) == brute
        for k in range(1, n + 1):
            for prefix in _prefixes(k):
                expected = [c for c in brute if c[:k] == prefix]
                assert list(canonical_classes(n, prefix)) == expected, prefix

    def test_output_pinned(self):
        cases = [(n, ()) for n in range(14)]
        cases += [(n, prefix) for n in range(10, 13) for prefix in _prefixes(n - 4)]
        digest = hashlib.sha256()
        for n, prefix in cases:
            digest.update(repr((n, prefix)).encode())
            for letters in canonical_classes(n, prefix):
                digest.update(bytes(letters))
        assert digest.hexdigest() == PINNED_CLASSES

    def test_known_counts(self):
        counts = [sum(1 for _ in canonical_classes(n)) for n in range(1, 7)]
        assert counts == [4, 8, 12, 26, 52, 132]

    def test_each_class_is_cyclically_reduced(self):
        for letters in canonical_classes(6):
            cw = CyclicWord(letters)
            assert cw.letters == letters

    def test_prefix_chunks_partition_the_length(self):
        n = 10
        full = set(canonical_classes(n))
        pieces = [
            set(canonical_classes(m, prefix))
            for m, prefix in _exhaustive_chunks(n)
            if m == n
        ]
        assert set().union(*pieces) == full
        assert sum(len(piece) for piece in pieces) == len(full)


class TestRandomLetters:
    def test_deterministic_for_fixed_seed(self):
        a = [_random_letters(random.Random(7), 12) for _ in range(50)]
        b = [_random_letters(random.Random(7), 12) for _ in range(50)]
        assert a == b

    def test_always_cyclically_reduced_and_nonempty(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(500):
            letters = _random_letters(rng, 20)
            assert letters
            cw = CyclicWord(letters)
            assert cw.letters == min(
                letters[i:] + letters[:i] for i in range(len(letters))
            )


class TestChecks:
    def test_shell_primitivity_small(self):
        result = check_shell_primitivity(max_p=20)
        assert result.passed
        assert result.checked > 0
        assert result.counterexample is None

    def test_obstruction_soundness_small(self):
        result = check_obstruction_soundness(
            exhaustive_len=8, samples=1000, random_len=12
        )
        assert result.passed
        assert result.checked > 2000

    def test_obstruction_soundness_parallel_matches_serial(self):
        serial = check_obstruction_soundness(
            exhaustive_len=10, samples=2000, random_len=12, workers=1
        )
        parallel = check_obstruction_soundness(
            exhaustive_len=10, samples=2000, random_len=12, workers=2
        )
        assert serial.passed and parallel.passed
        assert serial.checked == parallel.checked

    def test_oz_necessity_small(self):
        result = check_oz_necessity(max_len=10)
        assert result.passed

    def test_bridges_small(self):
        result = check_bridges(max_p=30)
        assert result.passed
        assert result.checked >= 10

    def test_bridge_length_bound_is_a_counterexample(self, monkeypatch):
        monkeypatch.setattr("goeritz.shell_bridge.MAX_BRIDGE_LENGTH", 0)
        result = check_bridges(max_p=30)
        assert not result.passed
        reason = result.counterexample["reason"]
        assert reason.startswith("no bridge: ")
        assert "tree letters, more than 0" in reason

    def test_empty_suites_fail(self):
        # The smallest forest space is L(12, 5).
        bridges = check_bridges(max_p=11)
        assert not bridges.passed and bridges.checked == 0
        assert bridges.counterexample is None
        assert bridges.detail == "forest spaces with p <= 11, both window types"
        soundness = check_obstruction_soundness(exhaustive_len=0, samples=0)
        assert not soundness.passed and soundness.checked == 0

    def test_classification_small(self):
        result = check_classification(max_p=60)
        assert result.passed

    def test_result_json_shape(self):
        result = check_classification(max_p=20)
        doc = result.to_json()
        assert set(doc) == {"name", "passed", "checked", "elapsed", "detail"}
        assert doc["name"] == "classification-equivalence"
        assert isinstance(doc["elapsed"], float)
        assert "counterexample" not in doc


class TestRunAll:
    def test_all_pass_at_smoke_scale(self):
        results = run_all(
            max_p=12,
            exhaustive_len=6,
            samples=200,
        )
        assert [r.name for r in results] == [
            "shell-primitivity",
            "obstruction-soundness",
            "oz-necessity",
            "bridge-validity",
            "classification-equivalence",
        ]
        assert all(r.passed for r in results)
        # oz-necessity reaches the enumeration's bound whatever max-len is.
        oz = results[2]
        assert (oz.checked, oz.detail) == (512, "primitive classes of length <= 20")

    def test_injected_failure_is_reported(self, monkeypatch):
        monkeypatch.setattr("goeritz.verify.oz_form_check", lambda cw: False)
        results = run_all(
            max_p=12,
            exhaustive_len=4,
            samples=50,
        )
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["oz-necessity"]
        assert failed[0].counterexample == {"word": "x"}
        assert failed[0].checked == 1
        assert failed[0].detail == "primitive classes of length <= 20"

    @pytest.fixture
    def suites_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a suite started")

        for suite in (
            "check_shell_primitivity",
            "check_obstruction_soundness",
            "check_oz_necessity",
            "check_bridges",
            "check_classification",
        ):
            monkeypatch.setattr(f"goeritz.verify.{suite}", refuse)

    @pytest.mark.parametrize(
        "bound, message",
        [
            ({"max_p": MAX_SHELL_P + 1}, "max-p must be at most 2000, got 2001"),
            ({"exhaustive_len": MAX_EXHAUSTIVE_LEN + 1}, "max-len must be within 0..16, got 17"),
            ({"exhaustive_len": -1}, "max-len must be within 0..16, got -1"),
            ({"max_p": MIN_BRIDGE_P - 1}, "max-p must be at least 12, .* got 11"),
            ({"max_p": 1}, "max-p must be at least 12, .* got 1"),
            ({"samples": -5}, "samples must be at least 0, got -5"),
            ({"exhaustive_len": 0, "samples": 0}, "max-len 0 with 0 samples"),
        ],
    )
    def test_bounds_checked_before_any_suite(self, suites_refused, bound, message):
        with pytest.raises(ValueError, match=message):
            run_all(**bound)

    def test_bounds_themselves_reach_the_suites(self, suites_refused):
        with pytest.raises(AssertionError, match="a suite started"):
            run_all(max_p=MAX_SHELL_P, exhaustive_len=MAX_EXHAUSTIVE_LEN)

    @pytest.mark.parametrize("exhaustive_len, samples", [(0, 1), (1, 0)])
    def test_lower_bounds_themselves_reach_the_suites(
        self, suites_refused, exhaustive_len, samples
    ):
        with pytest.raises(AssertionError, match="a suite started"):
            run_all(max_p=MIN_BRIDGE_P, exhaustive_len=exhaustive_len, samples=samples)

    def test_least_max_p_is_the_smallest_forest_space(self):
        assert list(forest_windows(MIN_BRIDGE_P - 1)) == []
        space, _ = next(forest_windows(MIN_BRIDGE_P))
        assert (space.p, space.q) == (MIN_BRIDGE_P, 5)


class TestCheckResult:
    def test_elapsed_rounded_in_json(self):
        result = CheckResult(
            name="x", passed=True, checked=1, elapsed=0.123456789
        )
        assert result.to_json()["elapsed"] == 0.123
