"""The three benchmark workloads: seeded inputs, operations and output checks.

Input generation uses only ``random.Random(seed)`` and the pure helpers,
so the same seed gives the same inputs in any process, and this module
imports without ``goeritz``.  Operations reach the package through the
module objects of ``gz`` (``gz.verify``, ``gz.cli``, ...) at call time,
so the traced run sees every call through its wrappers.

An operation is a pair ``(call, check)``; only ``call`` is timed.
``check(result)`` returns ``(failed, violation, reason)``: ``failed``
marks an operation that gave no answer where one exists (a non-zero exit,
an exception), ``violation`` describes a wrong answer, and one violation
makes the whole run incorrect.

The stream of operations also yields ``None`` where a run may stop: a
run ends at the first such point after its time is up, so it measures
whole rounds (or whole passes over a deck) and its mix does not depend
on where the deadline falls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from math import gcd

from helpers import (
    burnside_class_count,
    modular_inverse_partner,
    primitive_class_count,
    shell_primitive_set,
)

MAX_P = 200
GOLDEN = 0.6180339887498949  # 1/phi: steps of frac(offset + i/phi) spread evenly
OK = (False, None, None)


def suite_random_word(rng: random.Random, max_len: int) -> tuple[int, ...]:
    """A random word drawn the way the obstruction-soundness suite draws
    one: a reduced word of length uniform in 1..max_len, whose first and
    last letters are then cancelled in pairs while they are inverse.

    Letter codes are x, x^-1, y, y^-1 = 0, 1, 2, 3, and code ^ 1 inverts.
    """
    letters = [rng.randrange(4)]
    for _ in range(rng.randint(1, max_len) - 1):
        step, banned = rng.randrange(3), letters[-1] ^ 1
        letters.append(step if step < banned else step + 1)
    while len(letters) >= 2 and letters[0] == letters[-1] ^ 1:
        letters.pop()
        letters.pop(0)
    return tuple(letters)


def class_prefixes(k: int) -> list[tuple[int, ...]]:
    """Every prefix of length k that ``canonical_classes`` accepts: the
    reduced words whose letters are all >= the first.  The slices they
    select partition the classes of any length >= k."""
    found = []

    def extend(word: list[int]) -> None:
        if len(word) == k:
            found.append(tuple(word))
            return
        for c in range(word[0], 4):
            if c != word[-1] ^ 1:
                extend(word + [c])

    for c0 in range(4):
        extend([c0])
    return found


def apportion(mix, size: int, done: int) -> list:
    """The slots of round ``done`` (0-based) of ``size`` slots, keyed as in
    ``mix``, a sequence of (key, weight).  Each key's count is cut from its
    cumulative share, so after r rounds it holds weight / total * size * r
    slots rounded down."""
    total = sum(weight for _, weight in mix)
    slots = []
    for key, weight in mix:
        share = weight * size
        slots += [key] * ((share * (done + 1)) // total - (share * done) // total)
    return slots


def is_canonical_class(letters: tuple[int, ...]) -> bool:
    """Cyclically reduced and the least of its rotations."""
    n = len(letters)
    if n > 1 and any(letters[i] == letters[(i + 1) % n] ^ 1 for i in range(n)):
        return False
    return all(letters <= letters[i:] + letters[:i] for i in range(1, n))


def coprime_pairs(max_p: int = MAX_P) -> list[tuple[int, int]]:
    """Every normalised (p, q): 2 <= p <= max_p, 1 <= q <= p/2, gcd 1."""
    return [
        (p, q)
        for p in range(2, max_p + 1)
        for q in range(1, p // 2 + 1)
        if gcd(p, q) == 1
    ]


def has_window(p: int, qbar: int) -> bool:
    """p = qbar m + r with 2 <= r <= qbar - 2, the forest case at qbar."""
    return 2 <= p % qbar <= qbar - 2


def expected_abelianization(p: int, q: int) -> str:
    """Amalgam when q^2 = 1 (mod p), else HNN with one free stable letter."""
    return "(Z/2)^5 + Z" if q * q % p == 1 else "(Z/2)^5 + Z^3"


def run_cli(gz, argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``goeritz`` request with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gz.cli.main(argv)
    text = out.getvalue()
    if gz.tracer is not None:
        gz.tracer.counters["cli.out_bytes"] += len(text.encode())
    return code, text, err.getvalue()


def _exit_failure(result, expected: int = 0):
    """A non-zero exit where the answer exists, with stderr's last line."""
    code, _, err = result
    if code == expected:
        return None
    lines = err.strip().splitlines()
    return True, None, lines[-1] if lines else f"exit {code}"


def _round_trip(gz, text: str, what: str) -> str | None:
    try:
        again = gz.complexes.export_json(gz.complexes.import_json(text))
    except (ValueError, KeyError) as exc:
        return f"{what}: import_json rejected the export: {exc}"
    if again != text:
        return f"{what}: JSON does not round-trip through import_json"
    return None


class Workload:
    """Defaults for a workload without end-of-run checks or a summary."""

    def finish(self, gz) -> list[str]:
        return []

    def summary(self) -> dict:
        return {}


class ClassSweep(Workload):
    """Classes decided as the obstruction-soundness suite decides them, in
    the suite's mix.

    The suite (criterion 3 of the acceptance tests) decides every class
    of length <= SUITE_LEN and SUITE_SAMPLES random words of length
    <= RANDOM_LEN, about 634,000 classes; a 30-second run decides a third to
    two thirds of that.  So each round of ROUND classes holds the suite's composition:
    for each length n its Burnside count's share of exhaustive classes,
    and the random words' share.  The shares are apportioned cumulatively
    over rounds, so after any whole number of rounds every part holds its
    share to within one class.  The slots of a round are shuffled.

    Exhaustive classes come from ``verify.canonical_classes``.  Below
    CLUSTER_FROM the whole enumeration of a length is cycled, as the suite
    runs it in one chunk.  From CLUSTER_FROM on, the enumeration of length
    n is cut into slices, one per prefix of length n - CLUSTER_TAIL, and
    the stream runs whole slices in seeded random order.  That is a
    cluster sample: every class of the length is equally likely to be
    decided, and so is every part of the enumeration's search, dead ends
    included.  A slice holds about 15 classes, so the search through a
    slice's dead ends adds at most a few hundred microseconds to the
    operation that pays for it.  Random words are drawn as the run goes,
    outside the timed calls, with the suite's generator.

    The Burnside and 4 phi(n) counts need whole lengths, so after the run
    every length up to GATE_LEN is enumerated and decided in full, untimed.
    The inputs record the first FINGERPRINT random words and slices.
    """

    name = "class-sweep"
    SUITE_LEN = 14
    SUITE_SAMPLES = 100_000
    RANDOM_LEN = 20
    MIX = tuple((n, burnside_class_count(n)) for n in range(1, SUITE_LEN + 1)) + (
        ("random", SUITE_SAMPLES),
    )
    ROUND = 2000
    CLUSTER_FROM = 10
    CLUSTER_TAIL = 4
    GATE_LEN = 10
    ENUM_LEN = 16
    FINGERPRINT = 4096
    # Not the tail rule's choice (p99.99 at the 300,000 classes a run
    # decides): the 30 samples beyond p99.99 are the operations a busy
    # host happened to preempt, so that percentile moved by a factor of
    # two between runs of the same code.  The 3,000 beyond p99 are the
    # long random words and the first classes of slices.
    TAIL_PCT = 99.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.slices = {}
        for n in range(self.CLUSTER_FROM, self.SUITE_LEN + 1):
            prefixes = class_prefixes(n - self.CLUSTER_TAIL)
            rng.shuffle(prefixes)
            self.slices[n] = prefixes
        self.word_seed = rng.getrandbits(64)
        self.order_seed = rng.getrandbits(64)
        words = self.random_words()
        self.inputs = {
            "mix": self.MIX,
            "round": self.ROUND,
            "slices": {n: prefixes[: self.FINGERPRINT] for n, prefixes in self.slices.items()},
            "random_head": [next(words) for _ in range(self.FINGERPRINT)],
            "order_seed": self.order_seed,
        }
        self.decided: dict = {key: 0 for key, _ in self.MIX}
        self.last: dict[int, tuple] = {}  # length -> (slice number, class) last decided
        self.gate: list[tuple[int, int, int]] = []  # (length, classes, primitive)

    @staticmethod
    def _decide(gz, letters):
        cw = gz.words.CyclicWord(letters)
        obstruction = gz.obstructions.certify_nonprimitive(cw)
        verdict = gz.primitivity.is_primitive_power(cw)
        return letters, obstruction, verdict

    @staticmethod
    def _sound(result):
        letters, obstruction, verdict = result
        if obstruction is not None and verdict.is_primitive_power:
            rule = obstruction.rule.value
            return False, f"certified class {letters} is a primitive power ({rule})", None
        return OK

    def warmup(self, gz):
        return lambda: self._decide(gz, (0, 2, 2)), self._sound

    def random_words(self):
        """The seeded stream of random words, drawn as the suite draws them."""
        rng = random.Random(self.word_seed)
        while True:
            yield suite_random_word(rng, self.RANDOM_LEN)

    def classes(self, gz, n):
        """Endless stream of (slice number, prefix, class) of length n."""
        number = 0
        while True:
            for prefix in self.slices.get(n, [()]):
                number += 1
                for letters in gz.verify.canonical_classes(n, prefix):
                    yield number, prefix, letters

    def operations(self, gz):
        streams = {n: self.classes(gz, n) for n in range(1, self.SUITE_LEN + 1)}
        words = self.random_words()
        order = random.Random(self.order_seed)
        done = 0
        while True:
            slots = apportion(self.MIX, self.ROUND, done)
            order.shuffle(slots)
            for key in slots:
                if key == "random":
                    word = next(words)
                    yield (lambda w=word: self._decide(gz, w)), self._random_check
                else:
                    yield self._class_op(gz, key, streams[key])
            done += 1
            yield None

    def _random_check(self, result):
        self.decided["random"] += 1
        return self._sound(result)

    def _class_op(self, gz, n, stream):
        def call():
            number, prefix, letters = next(stream)
            return number, prefix, self._decide(gz, letters)

        def check(result):
            number, prefix, decided = result
            letters = decided[0]
            where = f"canonical_classes({n}, {prefix})"
            self.decided[n] += 1
            previous = self.last.get(n)
            self.last[n] = number, letters
            if len(letters) != n or letters[: len(prefix)] != prefix or not is_canonical_class(letters):
                return False, f"{where} gave {letters}, not a least rotation with that prefix", None
            if previous is not None and previous[0] == number and previous[1] >= letters:
                return False, f"{where} gave {letters} after {previous[1]}", None
            return self._sound(decided)

        return call, check

    def finish(self, gz) -> list[str]:
        """Every length up to GATE_LEN in full against the Burnside and
        4 phi(n) counts, then the primitive enumeration against 4 phi(n)
        and the shape test."""
        problems = []
        for n in range(1, self.GATE_LEN + 1):
            classes = primitive = 0
            for letters in gz.verify.canonical_classes(n):
                result = self._decide(gz, letters)
                verdict = result[2]
                classes += 1
                primitive += verdict.is_primitive
                _, violation, _ = self._sound(result)
                if violation:
                    problems.append(violation)
            self.gate.append((n, classes, primitive))
            if classes != burnside_class_count(n):
                problems.append(f"length {n}: {classes} classes, Burnside says {burnside_class_count(n)}")
            if primitive != primitive_class_count(n):
                problems.append(f"length {n}: {primitive} primitive classes, expected {primitive_class_count(n)}")
        by_length: dict[int, int] = {}
        for cw in gz.primitivity.enumerate_primitives(self.ENUM_LEN):
            by_length[cw.length] = by_length.get(cw.length, 0) + 1
            if not gz.primitivity.oz_form_check(cw):
                problems.append(f"primitive class {cw} fails the shape test")
        for n in range(1, self.ENUM_LEN + 1):
            if by_length.get(n, 0) != primitive_class_count(n):
                problems.append(f"enumerate_primitives: {by_length.get(n, 0)} classes of length {n}")
        return problems

    def summary(self) -> dict:
        return {"decided": self.decided, "gate": self.gate}


LENS_KINDS = ("analyze", "presentation", "shell", "bridge", "complex-bridge")


class LensQueries(Workload):
    """In-process CLI requests, one round at a time; a round holds one
    request of each kind.

    The requests form a fixed deck of DECK_ROUNDS rounds drawn with
    DECK_SEED.  Each kind draws (p, q) uniformly from its population with
    p <= MAX_P (bridge kinds: the pairs with a window), stratified on p:
    round r takes p at the quantile frac(offset + r / golden ratio) of the
    population, then a random q for that p.  The run's seed sets the
    order: every pass over the deck shuffles the rounds, and the kinds
    within each round, as the pass begins.  A run stops only between
    passes.  The deck is
    fixed because request times span four orders of magnitude (an
    analyze takes milliseconds, a bridge search seconds), and a run holds
    too few requests for a fresh sample per seed to give repeatable
    figures.

    Every pass opens with ANCHOR, the first of the bridge search's
    node-budget failures, so each pass takes that failure path (and its
    memory peak) once.
    """

    name = "lens-queries"
    ANCHOR = ("bridge", 133, 45)
    DECK_SEED = 20170217
    DECK_ROUNDS = 40
    TAIL_PCT = 90.0

    def __init__(self, seed: int):
        draw = random.Random(self.DECK_SEED)
        pairs = coprime_pairs()
        populations = {
            False: pairs,
            True: [(p, q) for p, q in pairs if has_window(p, q)],
        }
        choices: dict[bool, dict[int, list[int]]] = {False: {}, True: {}}
        for bridge, population in populations.items():
            for p, q in population:
                choices[bridge].setdefault(p, []).append(q)
        offset = draw.random()
        rounds = []
        for r in range(self.DECK_ROUNDS):
            u = (offset + r * GOLDEN) % 1.0
            requests = []
            for kind in LENS_KINDS:
                bridge = kind.endswith("bridge")
                p = populations[bridge][int(u * len(populations[bridge]))][0]
                requests.append((kind, p, draw.choice(choices[bridge][p])))
            rounds.append(requests)
        self.seed = seed
        self.rounds = rounds
        self.inputs = {"max_p": MAX_P, "anchor": self.ANCHOR, "rounds": rounds, "seed": seed}

    @staticmethod
    def argv(kind: str, p: int, q: int) -> list[str]:
        if kind == "complex-bridge":
            return ["--format", "json", "complex", "bridge", str(p), str(q)]
        return [kind, str(p), str(q)]

    def request(self, gz, kind, p, q):
        argv = self.argv(kind, p, q)
        return (lambda: run_cli(gz, argv)), (lambda r: self.check(gz, kind, p, q, r))

    def warmup(self, gz):
        return self.request(gz, "analyze", 23, 7)

    def operations(self, gz):
        order = random.Random(self.seed)
        rounds = list(self.rounds)
        while True:
            yield self.request(gz, *self.ANCHOR)
            order.shuffle(rounds)
            for requests in rounds:
                for kind, p, q in order.sample(requests, len(requests)):
                    yield self.request(gz, kind, p, q)
            yield None

    def check(self, gz, kind, p, q, result):
        forest = has_window(p, q)
        if kind == "presentation" and not forest:
            code, out, _ = result
            if code != 1 or out:
                return False, f"presentation {p} {q}: contractible case gave exit {code}", None
            return OK
        failure = _exit_failure(result)
        if failure:
            return failure
        _, out, _ = result
        where = f"{kind} {p} {q}"
        if kind in ("analyze", "presentation"):
            if kind == "analyze":
                label = "forest" if forest else "contractible"
                if not out.startswith(f"L({p},{q}): {label}\n"):
                    return False, f"{where}: classification is not {label}", None
            if forest and f"abelianization: {expected_abelianization(p, q)}\n" not in out:
                return False, f"{where}: abelianization is not {expected_abelianization(p, q)}", None
            return OK
        if kind == "shell":
            rows = out.splitlines()[1:]
            flagged = {k for k, row in enumerate(rows) if row.endswith("  primitive")}
            expected = shell_primitive_set(p, modular_inverse_partner(p, q))
            if len(rows) != p + 1 or flagged != expected:
                return False, f"{where}: primitive indices {sorted(flagged)} != {sorted(expected)}", None
            return OK
        if kind == "bridge":
            return OK if self._bridge_text_ok(p, q, out) else (False, f"{where}: malformed bridge", None)
        doc = json.loads(out)
        meta = doc["meta"]
        if (meta["kind"], meta["p"], meta["qbar"]) != ("bridge", p, q):
            return False, f"{where}: meta {meta}", None
        if not meta["simplexCount"] == len(meta["w"]) + 2 == len(doc["triangles"]):
            return False, f"{where}: simplex count does not match w", None
        problem = _round_trip(gz, out, where)
        return (False, problem, None) if problem else OK

    @staticmethod
    def _bridge_text_ok(p: int, q: int, out: str) -> bool:
        fields = dict(
            line.split(" = ", 1) for line in out.splitlines() if line[:4] in ("w = ", "D = ")
        )
        w = "" if fields.get("w") == "ε" else fields.get("w", "?")
        end = re.fullmatch(rf"(?:xy\^{q})*xy\^(\d+)", fields.get("D", ""))
        return (
            set(w) <= {"L", "R"}
            and end is not None
            and int(end.group(1)) in (q - 1, q + 1)
            and f"simplices: {len(w) + 2}\n" in out
            and f"homology: E -> 1, D -> {q}\n" in out
        )

class LongShells(Workload):
    """The oracle on every shell word E_0 .. E_p, then the shell complex as
    JSON and as DOT through the CLI.  Each round draws one p from each of
    BINS equal bins of [P_LO, P_HI), in seeded order.  Request i takes
    qbar at the quantile frac(offset + i / golden ratio) of the residues
    coprime to p in [1, p/2], with a seeded offset, so that every run
    covers both p and qbar evenly; the cost of a request varies by a
    factor of two with qbar alone.
    """

    name = "long-shells"
    P_LO, P_HI = 100, 121
    BINS = 8
    DECK_ROUNDS = 64
    TAIL_PCT = 75.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        width = (self.P_HI - self.P_LO) / self.BINS
        offset = rng.random()
        deck = []
        for _ in range(self.DECK_ROUNDS):
            row = [
                rng.randrange(int(self.P_LO + b * width), int(self.P_LO + (b + 1) * width))
                for b in range(self.BINS)
            ]
            rng.shuffle(row)
            for p in row:
                u = (offset + len(deck) * GOLDEN) % 1.0
                residues = [q for q in range(1, p // 2 + 1) if gcd(p, q) == 1]
                deck.append((p, residues[int(u * len(residues))]))
        self.deck = deck
        self.inputs = {"p_range": [self.P_LO, self.P_HI], "deck": deck}

    def request(self, gz, p, q):
        def call():
            shell = gz.shell_bridge.shell_words(p, q)
            flags = [gz.primitivity.is_primitive(shell.word(k)).is_primitive for k in range(p + 1)]
            as_json = run_cli(gz, ["--format", "json", "complex", "shell", str(p), str(q)])
            as_dot = run_cli(gz, ["--format", "dot", "complex", "shell", str(p), str(q)])
            return flags, as_json, as_dot

        return call, (lambda r: self.check(gz, p, q, r))

    def warmup(self, gz):
        return self.request(gz, 23, 7)

    def operations(self, gz):
        while True:
            for i, (p, q) in enumerate(self.deck):
                yield self.request(gz, p, q)
                if (i + 1) % self.BINS == 0:
                    yield None

    def check(self, gz, p, q, result):
        flags, as_json, as_dot = result
        where = f"shell {p} {q}"
        expected = shell_primitive_set(p, modular_inverse_partner(p, q))
        oracle = {k for k, flag in enumerate(flags) if flag}
        if oracle != expected:
            return False, f"{where}: oracle indices {sorted(oracle)} != {sorted(expected)}", None
        for output in (as_json, as_dot):
            failure = _exit_failure(output)
            if failure:
                return failure
        doc = json.loads(as_json[1])
        marked = {v["label"] for v in doc["vertices"] if v.get("primitive")}
        if marked != {"E"} | {f"E_{k}" for k in expected} or len(doc["triangles"]) != p:
            return False, f"{where}: complex JSON marks {sorted(marked)}", None
        if as_dot[1].count("[peripheries=2]") != len(expected) + 1:
            return False, f"{where}: DOT marks the wrong vertices", None
        problem = _round_trip(gz, as_json[1], where)
        return (False, problem, None) if problem else OK


WORKLOADS = {w.name: w for w in (ClassSweep, LensQueries, LongShells)}
