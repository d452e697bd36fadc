"""Verification sweeps behind the verify command and the acceptance tests.

Each check replays one of the package's headline guarantees over a
bounded search space and reports a pass/fail result with the first
counterexample found, if any.  All randomness is seeded, and parallel
runs chunk the work deterministically so the aggregated outcome never
depends on scheduling.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from math import gcd

from .lens import Classification, LensSpace, division_window, invariants, modular_partner
from .obstructions import certify_nonprimitive
from .primitivity import (
    MAX_ENUMERATION_LENGTH,
    enumerate_primitives,
    is_primitive,
    is_primitive_power,
    oz_form_check,
)
from .shell_bridge import (
    MAX_SHELL_P,
    NotForestError,
    find_bridge,
    shell_primitive_indices,
    vertex_word,
)
from .words import CyclicWord

DEFAULT_SEED = 20260816

# Longest exhaustive soundness sweep run_all starts: 4,181,926 classes,
# about 8 times the default length 14's 534,444.
MAX_EXHAUSTIVE_LEN = 16

# Least max_p that gives bridge-validity a case: the smallest forest space
# is L(12, 5).
MIN_BRIDGE_P = 12


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    elapsed: float
    detail: str = ""
    counterexample: dict | None = None

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "elapsed": round(self.elapsed, 3),
        }
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _suite(name: str, detail: str, cases) -> CheckResult:
    """Count and time the cases, each None when it passes or else a
    counterexample dict, stopping at the first counterexample.  A suite
    with no cases fails, since it has shown nothing."""
    start = time.perf_counter()
    checked = 0
    bad = None
    for bad in cases:
        checked += 1
        if bad is not None:
            break
    elapsed = time.perf_counter() - start
    return CheckResult(name, checked > 0 and bad is None, checked, elapsed, detail, bad)


def canonical_classes(n: int, prefix: tuple[int, ...] = ()):
    """Canonical letter tuples of every cyclic class of exact length n,
    in increasing order.

    A class's canonical tuple is its least rotation: a cyclically reduced
    necklace over the letter codes 0..3.  The Fredricksen-Kessler-Maiorana
    recursion (Ruskey, Savage and Wang, "Generating necklaces",
    J. Algorithms 13, 1992) generates the necklaces in lexicographic
    order in constant amortized time; a letter that cancels its
    predecessor is never tried.  A nonempty prefix, a reduced word whose
    letters are all >= prefix[0], restricts the output to words starting
    with it, which is how parallel runs split the space; a prefix that is
    not reduced, or not the start of a necklace, yields nothing.
    """
    if n < 0 or len(prefix) > n:
        return
    if n == 0:
        yield ()
        return
    if not prefix:
        for c in range(4):
            yield from canonical_classes(n, (c,))
        return
    p = 1
    for t in range(1, len(prefix)):
        step = prefix[t] - prefix[t - p]
        if step < 0 or prefix[t] == prefix[t - 1] ^ 1:
            return
        if step > 0:
            p = t + 1
    yield from _necklaces(list(prefix) + [0] * (n - len(prefix)), len(prefix), p)


def _necklaces(a: list[int], t: int, p: int):
    """Extend the reduced prenecklace a[:t], of period p, to all of a."""
    n = len(a)
    if t == n:
        if n % p == 0 and a[-1] != a[0] ^ 1:
            yield tuple(a)
        return
    banned = a[t - 1] ^ 1
    least = a[t - p]
    for c in range(least, 4):
        if c != banned:
            a[t] = c
            yield from _necklaces(a, t + 1, p if c == least else t + 1)


def _exhaustive_chunks(max_len: int) -> list[tuple[int, tuple[int, ...]]]:
    chunks: list[tuple[int, tuple[int, ...]]] = []
    for n in range(1, max_len + 1):
        if n < 10:
            chunks.append((n, ()))
            continue
        for c0 in range(4):
            for c1 in range(c0, 4):
                if c1 != c0 ^ 1:
                    chunks.append((n, (c0, c1)))
    return chunks


def _soundness_sweep(classes) -> tuple[int, dict | None]:
    """Number of classes checked, and the first one certified
    non-primitive that the oracle calls a primitive power."""
    checked = 0
    for cw in classes:
        checked += 1
        obstruction = certify_nonprimitive(cw)
        if obstruction is not None and is_primitive_power(cw).is_primitive_power:
            return checked, {
                "word": str(cw),
                "rule": obstruction.rule.value,
                "witness": [list(part) for part in obstruction.witness],
                "oracle": "primitive power",
            }
    return checked, None


def _soundness_exhaustive_chunk(args: tuple[int, tuple[int, ...]]):
    n, prefix = args
    classes = canonical_classes(n, prefix)
    return _soundness_sweep(CyclicWord.from_canonical(letters) for letters in classes)


def _random_letters(rng: random.Random, max_len: int) -> tuple[int, ...]:
    length = rng.randint(1, max_len)
    letters = [rng.randrange(4)]
    for _ in range(length - 1):
        step = rng.randrange(3)
        banned = letters[-1] ^ 1
        candidate = step if step < banned else step + 1
        letters.append(candidate)
    while len(letters) >= 2 and letters[0] == letters[-1] ^ 1:
        letters.pop()
        letters.pop(0)
    return tuple(letters)


def _soundness_random_chunk(args: tuple[int, int, int]):
    seed, count, max_len = args
    rng = random.Random(seed)
    return _soundness_sweep(CyclicWord(_random_letters(rng, max_len)) for _ in range(count))


def _run_chunks(worker, chunks, workers: int):
    if workers > 1:
        # Imported here: it loads multiprocessing, which no other path needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, chunks))
    else:
        results = [worker(chunk) for chunk in chunks]
    checked = sum(count for count, _ in results)
    return checked, next((bad for _, bad in results if bad is not None), None)


def check_obstruction_soundness(
    exhaustive_len: int = 14,
    samples: int = 100_000,
    random_len: int = 20,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> CheckResult:
    """Certificates of non-primitivity never contradict the oracle."""
    start = time.perf_counter()
    checked, bad = _run_chunks(
        _soundness_exhaustive_chunk, _exhaustive_chunks(exhaustive_len), workers
    )
    if bad is None and samples > 0:
        batch = 5000
        chunks = [
            (seed + i, min(batch, samples - i * batch), random_len)
            for i in range((samples + batch - 1) // batch)
        ]
        more, bad = _run_chunks(_soundness_random_chunk, chunks, workers)
        checked += more
    return CheckResult(
        name="obstruction-soundness",
        passed=checked > 0 and bad is None,
        checked=checked,
        elapsed=time.perf_counter() - start,
        detail=f"exhaustive length <= {exhaustive_len} plus {samples} samples <= {random_len}",
        counterexample=bad,
    )


def _coprime_pairs(max_p: int):
    """Every (p, q) with 2 <= p <= max_p, 1 <= q <= p/2 and gcd 1, in order."""
    for p in range(2, max_p + 1):
        for q in range(1, p // 2 + 1):
            if gcd(p, q) == 1:
                yield p, q


def check_shell_primitivity(max_p: int = 50) -> CheckResult:
    """Oracle-primitive shell indices match {1, q', p - q', p - 1}.  The
    indices are read from residue marks, so no word or text is built."""

    def cases():
        for p, qbar in _coprime_pairs(max_p):
            actual = shell_primitive_indices(p, qbar)
            partner = modular_partner(p, qbar)
            expected = {1, partner, p - partner, p - 1}
            yield None if actual == expected else {
                "p": p,
                "qbar": qbar,
                "expected": sorted(expected),
                "actual": sorted(actual),
            }

    return _suite("shell-primitivity", f"all coprime shells with p <= {max_p}", cases())


def check_oz_necessity(max_len: int = MAX_ENUMERATION_LENGTH) -> CheckResult:
    """Every primitive class passes the two-block shape test."""

    def cases():
        for cw in sorted(enumerate_primitives(max_len), key=lambda c: (c.length, c.letters)):
            yield None if oz_form_check(cw) else {"word": str(cw)}

    return _suite("oz-necessity", f"primitive classes of length <= {max_len}", cases())


def forest_windows(max_p: int):
    """Every forest space with p <= max_p, with each qbar in {q, q'}
    whose division window is non-empty."""
    for p, q in _coprime_pairs(max_p):
        space = LensSpace(p, q)
        inv = invariants(space)
        if inv.classification is not Classification.Forest:
            continue
        for qbar in sorted({space.q, inv.q_prime}):
            if division_window(p, qbar) is not None:
                yield space, qbar


def check_bridges(max_p: int = 60) -> CheckResult:
    """Bridges exist and are minimal corridors: the end word is primitive
    and no interior word is."""
    return _suite(
        "bridge-validity",
        f"forest spaces with p <= {max_p}, both window types",
        (_examine_bridge(space, qbar) for space, qbar in forest_windows(max_p)),
    )


def _examine_bridge(space, qbar):
    def report(reason: str, bridge=None) -> dict:
        out = {"p": space.p, "q": space.q, "qbar": qbar, "reason": reason}
        if bridge is not None:
            out["w"] = bridge.w
        return out

    try:
        bridge = find_bridge(space, qbar)
    except (NotForestError, ValueError) as exc:
        return report(f"no bridge: {exc}")
    if bridge.walk[-1].n_exp not in (qbar - 1, qbar + 1):
        return report("end exponent out of range", bridge)
    if not is_primitive(bridge.d_word).is_primitive:
        return report("end word not primitive", bridge)
    for v in bridge.walk[:-1]:
        word = vertex_word(qbar, v.m_exp, v.n_exp)
        if is_primitive(word).is_primitive:
            return report(f"interior word {word} is primitive", bridge)
    return None


def check_classification(max_p: int = 200) -> CheckResult:
    """The residue, window, and partner views of the case split agree."""

    def cases():
        for p, q in _coprime_pairs(max_p):
            pm1_q = q == 1 or p % q in (1, q - 1)
            window_empty = division_window(p, q) is None
            partner = modular_partner(p, q)
            pm1_partner = partner == 1 or p % partner in (1, partner - 1)
            forest = invariants(LensSpace(p, q)).classification is Classification.Forest
            yield None if pm1_q == window_empty == pm1_partner == (not forest) else {
                "p": p,
                "q": q,
                "qPrime": partner,
                "pm1ModQ": pm1_q,
                "windowEmpty": window_empty,
                "pm1ModQPrime": pm1_partner,
                "forest": forest,
            }

    return _suite("classification-equivalence", f"all coprime (p,q) with p <= {max_p}", cases())


def run_all(
    max_p: int = 60,
    exhaustive_len: int = 14,
    samples: int = 100_000,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> list[CheckResult]:
    """Run every suite; order is fixed so reports are comparable.

    Random words run to min(20, exhaustive_len + 6) letters, primitive
    classes to MAX_ENUMERATION_LENGTH, classification to max(200, max_p).

    Every bound is checked before any suite runs: workers within
    1..os.cpu_count(), as a process pool forks all its workers at the
    first submit; max_p up to MAX_SHELL_P, the reach of the bridge bounds,
    so no valid bridge is reported as a counterexample, and at least
    MIN_BRIDGE_P; exhaustive_len within 0..MAX_EXHAUSTIVE_LEN; and samples
    at least 0, and at least 1 when exhaustive_len is 0.  So every suite
    has a case, since a suite that checks none fails.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"jobs must be within 1..{cpus}, got {workers}")
    if max_p > MAX_SHELL_P:
        raise ValueError(f"max-p must be at most {MAX_SHELL_P}, got {max_p}")
    if max_p < MIN_BRIDGE_P:
        raise ValueError(
            f"max-p must be at least {MIN_BRIDGE_P}, the smallest forest space's p, got {max_p}"
        )
    if not 0 <= exhaustive_len <= MAX_EXHAUSTIVE_LEN:
        raise ValueError(f"max-len must be within 0..{MAX_EXHAUSTIVE_LEN}, got {exhaustive_len}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    if not exhaustive_len and not samples:
        raise ValueError("max-len 0 with 0 samples leaves obstruction-soundness no word")
    return [
        check_shell_primitivity(max_p=min(max_p, 50)),
        check_obstruction_soundness(
            exhaustive_len=exhaustive_len,
            samples=samples,
            random_len=min(20, exhaustive_len + 6),
            seed=seed,
            workers=workers,
        ),
        check_oz_necessity(max_len=MAX_ENUMERATION_LENGTH),
        check_bridges(max_p=max_p),
        check_classification(max_p=max(200, max_p)),
    ]
