"""Pure helpers of the benchmark: independent reference counts and statistics.

Nothing here imports ``goeritz``.  The reference counts are the
independent side of the correctness gate, so they are derived from
closed formulas, never from the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
from array import array
from time import perf_counter

# Percentiles considered for the tail; tail_percentile picks the highest
# that still leaves at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_BEYOND = 10


def euler_phi(n: int) -> int:
    """Euler's totient by trial division."""
    if n < 1:
        raise ValueError(f"phi needs n >= 1, got {n}")
    result, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def cyclically_reduced_words(n: int) -> int:
    """c(n) = 3^n + 2 + (-1)^n cyclically reduced words of length n in F(x, y)."""
    return 3**n + 2 + (-1) ** n


def burnside_class_count(n: int) -> int:
    """Conjugacy classes of cyclically reduced words of length n >= 1.

    Burnside's lemma over the rotation group of order n: the phi(n/d)
    rotations whose cycles have length n/d fix exactly the words made of
    a cyclically reduced word of length d repeated, and there are c(d).
    """
    total = sum(
        euler_phi(n // d) * cyclically_reduced_words(d)
        for d in range(1, n + 1)
        if n % d == 0
    )
    if total % n:
        raise ArithmeticError(f"Burnside sum {total} not divisible by {n}")
    return total // n


def primitive_class_count(n: int) -> int:
    """Primitive conjugacy classes of length n: 4 phi(n), and 4 at n = 1.

    A primitive class of length n >= 2 has exponent sums (+-a, +-b) with
    a + b = n and gcd(a, b) = 1, and each sign pattern and slope gives
    exactly one class (the Christoffel word).
    """
    return 4 if n == 1 else 4 * euler_phi(n)


def shell_primitive_set(p: int, q_prime: int) -> set[int]:
    """The shell indices {1, q', p - q', p - 1} the paper's theorem names."""
    return {1, q_prime, p - q_prime, p - 1}


def modular_inverse_partner(p: int, qbar: int) -> int:
    """The t in [1, p/2] with qbar * t = +-1 (mod p), by the extended Euclid."""
    old_r, r, old_s, s = qbar % p, p, 1, 0
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
    if old_r != 1:
        raise ValueError(f"{qbar} is not invertible mod {p}")
    t = old_s % p
    return t if 2 * t <= p else p - t


def nearest_rank(n: int, pct: float) -> int:
    """1-based rank of the pct-th percentile of n samples, nearest-rank rule."""
    return min(n, max(1, math.ceil(pct / 100.0 * n)))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least TAIL_BEYOND of n
    samples beyond it; None when even the median does not."""
    best = None
    for pct in TAIL_LADDER:
        if n - nearest_rank(n, pct) >= TAIL_BEYOND:
            best = pct
    return best


class LatencyHistogram:
    """Operation times in log-spaced bins from LOW to HIGH seconds, each
    RATIO times wider than the last, so a value read back is within
    0.005% of the samples it stands for.

    Its memory is fixed, and written, when it is made: a program that
    completes more operations in a run shows no larger peak RSS.
    """

    LOW, HIGH, RATIO = 1e-7, 1e4, 1.0001

    def __init__(self):
        self.scale = 1.0 / math.log(self.RATIO)
        self.bins = math.ceil(math.log(self.HIGH / self.LOW) * self.scale)
        self.counts = array("q", bytes(8 * self.bins))
        self.n = 0
        self.total = 0.0

    def add(self, seconds: float) -> None:
        index = int(math.log(max(seconds, self.LOW) / self.LOW) * self.scale)
        self.counts[min(index, self.bins - 1)] += 1
        self.n += 1
        self.total += seconds

    def value_at(self, pct: float) -> tuple[float, int]:
        """Value at pct (the middle of its bin) and the samples beyond it."""
        rank = nearest_rank(self.n, pct)
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.LOW * self.RATIO ** (index + 0.5), self.n - rank
        raise ValueError("percentile of an empty histogram")


def host_reference_s(steps: int = 1_000_000) -> float:
    """Seconds a fixed pure-Python loop takes.  Timed beside each run, it
    tells a slow host from a slow program: on a shared machine the same
    loop can take half again as long from one minute to the next."""
    start = perf_counter()
    total = 0
    for i in range(steps):
        total += i * i % 7
    return perf_counter() - start


def steal_s() -> float | None:
    """CPU time the hypervisor has taken from this machine's virtual CPUs
    since boot, summed over CPUs (the steal column of /proc/stat); None
    where the system does not report it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def digest(inputs: object) -> str:
    """SHA-256 of the canonical JSON text of a workload's inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    """Core counts and interpreter, recorded beside every result."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
    }
