"""Tests of the benchmark's own helpers: python3 -m pytest bench

They import neither goeritz nor the workers, so they check the
independent references against brute force, not against the package.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

import pytest

from helpers import (
    LatencyHistogram,
    burnside_class_count,
    digest,
    euler_phi,
    modular_inverse_partner,
    nearest_rank,
    primitive_class_count,
    tail_percentile,
)
from workloads import (
    WORKLOADS,
    ClassSweep,
    apportion,
    class_prefixes,
    coprime_pairs,
    has_window,
    is_canonical_class,
    suite_random_word,
)


def _brute_classes(n: int) -> set[tuple[int, ...]]:
    """Least rotations of all cyclically reduced words of length n."""
    classes = set()
    for word in itertools.product(range(4), repeat=n):
        if any(word[i] == word[(i + 1) % n] ^ 1 for i in range(n)) and n > 1:
            continue
        classes.add(min(word[i:] + word[:i] for i in range(n)))
    return classes


@pytest.mark.parametrize("n", range(1, 8))
def test_burnside_count_matches_brute_force(n):
    assert burnside_class_count(n) == len(_brute_classes(n))


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    with pytest.raises(ValueError):
        euler_phi(0)


def test_primitive_count_is_four_phi():
    assert primitive_class_count(1) == 4
    assert primitive_class_count(2) == 4
    assert primitive_class_count(12) == 16
    assert primitive_class_count(13) == 48


def _abelian_primitive_slopes(n: int) -> int:
    # Primitive classes of length n >= 2 have |e_x| + |e_y| = n, both
    # nonzero and coprime, one class per sign pattern.
    return 4 * sum(1 for a in range(1, n) if gcd(a, n - a) == 1)


@pytest.mark.parametrize("n", range(2, 30))
def test_primitive_count_matches_slope_count(n):
    assert primitive_class_count(n) == _abelian_primitive_slopes(n)


@pytest.mark.parametrize("p", range(2, 60))
def test_modular_partner_inverts(p):
    for qbar in range(1, p):
        if gcd(p, qbar) != 1:
            continue
        t = modular_inverse_partner(p, qbar)
        assert 1 <= t and 2 * t <= p
        assert qbar * t % p in (1, p - 1)


def test_nearest_rank():
    assert [nearest_rank(100, pct) for pct in (50, 90, 99, 100)] == [50, 90, 99, 100]
    assert nearest_rank(1, 99.99) == 1


def test_tail_percentile_leaves_ten_beyond():
    assert tail_percentile(1000) == 99.0  # rank 990, ten beyond
    assert tail_percentile(999) == 90.0  # p99 would leave nine
    assert tail_percentile(100_000) == 99.99
    assert tail_percentile(70) == 75.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None


def test_histogram_reads_back_within_resolution():
    times = LatencyHistogram()
    samples = [i * 1e-3 for i in range(1, 101)]
    random.Random(1).shuffle(samples)
    for s in samples:
        times.add(s)
    assert times.n == 100 and times.total == pytest.approx(sum(samples))
    for pct, expected, beyond in ((50, 50e-3, 50), (90, 90e-3, 10), (99, 99e-3, 1)):
        value, left = times.value_at(pct)
        assert value == pytest.approx(expected, rel=1e-4)
        assert left == beyond


def test_histogram_memory_is_fixed():
    times = LatencyHistogram()
    size = len(times.counts)
    for _ in range(1000):
        times.add(2e-5)
    times.add(1e9)  # beyond HIGH lands in the last bin
    assert len(times.counts) == size
    assert times.value_at(100)[0] > LatencyHistogram.HIGH / 2


def test_suite_random_words_are_cyclically_reduced():
    rng = random.Random(5)
    lengths = set()
    for _ in range(2000):
        word = suite_random_word(rng, 20)
        n = len(word)
        lengths.add(n)
        assert 1 <= n <= 20
        if n > 1:
            assert all(word[i] != word[(i + 1) % n] ^ 1 for i in range(n))
    assert lengths == set(range(1, 21))


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_class_test_matches_brute_force(n):
    words = itertools.product(range(4), repeat=n)
    assert {w for w in words if is_canonical_class(w)} == _brute_classes(n)


@pytest.mark.parametrize("k", range(1, 6))
def test_prefix_slices_partition_the_classes(k):
    prefixes = class_prefixes(k)
    assert len(set(prefixes)) == len(prefixes)
    for n in range(k, 8):
        heads = {letters[:k] for letters in _brute_classes(n)}
        assert heads <= set(prefixes)


def test_rounds_hold_the_suite_mix():
    mix = ClassSweep.MIX
    total = sum(weight for _, weight in mix)
    size, rounds = ClassSweep.ROUND, 50
    counts = {key: 0 for key, _ in mix}
    for done in range(rounds):
        slots = apportion(mix, size, done)
        assert abs(len(slots) - size) <= len(mix)
        for key in slots:
            counts[key] += 1
    for key, weight in mix:
        assert counts[key] == weight * size * rounds // total
    assert dict(mix)[14] == burnside_class_count(14)
    assert dict(mix)["random"] == 100_000


def test_pairs_hold_the_known_bridge_failure():
    pairs = coprime_pairs()
    assert (133, 45) in pairs and has_window(133, 45)
    assert max(p for p, _ in pairs) == 200


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(name):
    first = WORKLOADS[name](7).inputs
    assert digest(first) == digest(WORKLOADS[name](7).inputs)
    assert digest(first) != digest(WORKLOADS[name](8).inputs)
