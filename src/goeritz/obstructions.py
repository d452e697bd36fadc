"""Sound but incomplete non-primitivity tests with certificates.

Each rule matches a forbidden subword pattern of the cyclic word.  A
returned certificate proves the word is not a positive power of a
primitive element; None is always inconclusive.  Matching quantifies
over the four sign relabelings of x and y, and each pattern family is
closed under word reversal, so all checks are invariant under rotation
and inversion.  The generator-role swap is quantified only by
certify_nonprimitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator

from .primitivity import oz_form_check
from .words import CyclicWord, Word

_ORIENTATIONS = ((False, False), (False, True), (True, False), (True, True))


class Rule(str, Enum):
    PP2a = "PP2a"
    PP2b = "PP2b"
    KEY1 = "KEY1"
    KEY2 = "KEY2"
    KEY3 = "KEY3"
    BLOCKDIFF = "BLOCKDIFF"


@dataclass(frozen=True)
class Orientation:
    """Sign relabeling (and role swap) under which a pattern matched."""

    flip_x: bool = False
    flip_y: bool = False
    swap: bool = False

    def to_json(self) -> dict[str, bool]:
        return {"flipX": self.flip_x, "flipY": self.flip_y, "swap": self.swap}


@dataclass(frozen=True)
class Obstruction:
    """A fired rule with the letter positions that witness it.

    witness holds one position run per matched pattern part, indexing
    into the canonical letters of the input cyclic word.
    """

    rule: Rule
    witness: tuple[tuple[int, ...], ...]
    orientation: Orientation
    detail: Any = None

    def to_json(self) -> dict[str, Any]:
        detail = list(self.detail) if isinstance(self.detail, tuple) else self.detail
        return {
            "rule": self.rule.value,
            "witness": [list(part) for part in self.witness],
            "orientation": self.orientation.to_json(),
            "detail": detail,
        }


def _view(code: int, swap: bool, flip_x: bool, flip_y: bool) -> int:
    if swap:
        code ^= 2
    if flip_x and code >> 1 == 0:
        code ^= 1
    if flip_y and code >> 1 == 1:
        code ^= 1
    return code


def _oriented(letters: tuple[int, ...], swap: bool, fx: bool, fy: bool) -> tuple[int, ...]:
    return tuple(_view(c, swap, fx, fy) for c in letters)


def _runs(letters: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Maximal constant-letter runs as (letter, start, length).

    The canonical rotation never splits a run across the wrap except in
    single-run words, so this linear scan is cyclically faithful.
    """
    runs: list[tuple[int, int, int]] = []
    for i, c in enumerate(letters):
        if runs and runs[-1][0] == c and runs[-1][1] + runs[-1][2] == i:
            letter, start, length = runs.pop()
            runs.append((letter, start, length + 1))
        else:
            runs.append((c, i, 1))
    return runs


def _adjacency_positions(v: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """First cyclic position of each two-letter factor."""
    n = len(v)
    first: dict[tuple[int, int], int] = {}
    if n < 2:
        return first
    for i in range(n):
        pair = (v[i], v[(i + 1) % n])
        first.setdefault(pair, i)
    return first


def _span(start: int, length: int, n: int) -> tuple[int, ...]:
    return tuple((start + t) % n for t in range(length))


def _pair(i: int, n: int) -> tuple[int, int]:
    return (i, (i + 1) % n)


def _check_pp2(cyc: CyclicWord, swap: bool) -> Obstruction | None:
    """Both of xy and xy^-1, or both of xy^n x and a disjoint y^(n+2)."""
    letters = cyc.letters
    n = len(letters)
    runs = _runs(letters)
    m = len(runs)
    for fx, fy in _ORIENTATIONS:
        v = _oriented(letters, swap, fx, fy)
        orient = Orientation(fx, fy, swap)
        adj = _adjacency_positions(v)
        for a, b in (((0, 2), (0, 3)), ((3, 1), (2, 1))):
            if a in adj and b in adj:
                return Obstruction(
                    Rule.PP2a, (_pair(adj[a], n), _pair(adj[b], n)), orient
                )
        vruns = [(_view(c, swap, fx, fy), start, length) for c, start, length in runs]
        for idx in range(m if m >= 2 else 0):
            left = vruns[idx]
            mid = vruns[(idx + 1) % m]
            right = vruns[(idx + 2) % m]
            if left[0] != 0 or mid[0] != 2 or right[0] != 0:
                continue
            if (idx + 2) % m == idx and left[2] < 2:
                continue
            gap = mid[2]
            for big, start, length in vruns:
                if big == 2 and start != mid[1] and length >= gap + 2:
                    span = _span(left[1] + left[2] - 1, gap + 2, n)
                    block = _span(start, gap + 2, n)
                    return Obstruction(Rule.PP2b, (span, block), orient, gap)
        doubles = [r for r in vruns if r[0] == 0 and r[2] >= 2]
        blocks = [r for r in vruns if r[0] == 2 and r[2] >= 2]
        if doubles and blocks:
            span = _span(doubles[0][1], 2, n)
            block = _span(blocks[0][1], 2, n)
            return Obstruction(Rule.PP2b, (span, block), orient, 0)
    return None


_KEY1_CLAUSES: tuple[tuple[int, tuple[int, int], tuple[tuple[int, int], ...]], ...] = (
    (1, (0, 2), ((0, 3), (2, 1))),
    (1, (3, 1), ((2, 1), (0, 3))),
    (2, (0, 2), ((1, 2), (3, 0))),
    (2, (3, 1), ((3, 0), (1, 2))),
    (3, (0, 0), ((2, 2),)),
)


def _check_key(cyc: CyclicWord, swap: bool) -> Obstruction | None:
    """xy with an inverted variant nearby, or x^2 together with y^2."""
    letters = cyc.letters
    n = len(letters)
    for fx, fy in _ORIENTATIONS:
        adj = _adjacency_positions(_oriented(letters, swap, fx, fy))
        for clause, anchor, partners in _KEY1_CLAUSES:
            if anchor not in adj:
                continue
            for partner in partners:
                if partner in adj:
                    return Obstruction(
                        Rule.KEY1,
                        (_pair(adj[anchor], n), _pair(adj[partner], n)),
                        Orientation(fx, fy, swap),
                        clause,
                    )
    return None


def _check_key2(cyc: CyclicWord, swap: bool) -> Obstruction | None:
    """A span x y^k x^-1; its exponent sum k is nonzero by reducedness."""
    letters = cyc.letters
    n = len(letters)
    runs = _runs(letters)
    m = len(runs)
    if m < 3:
        return None
    for fx, fy in _ORIENTATIONS:
        vruns = [(_view(c, swap, fx, fy), start, length) for c, start, length in runs]
        for idx in range(m):
            left = vruns[idx]
            mid = vruns[(idx + 1) % m]
            right = vruns[(idx + 2) % m]
            if left[0] == 0 and mid[0] in (2, 3) and right[0] == 1:
                total = mid[2] if mid[0] == 2 else -mid[2]
                span = _span(left[1] + left[2] - 1, mid[2] + 2, n)
                return Obstruction(
                    Rule.KEY2, (span,), Orientation(fx, fy, swap), total
                )
    return None


def _key3_spans(
    vruns: list[tuple[int, int, int]], n: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    m = len(vruns)
    for code, start, length in vruns:
        if code == 0 and length >= 2:
            yield 0, _span(start, 2, n)
    for idx in range(m if m >= 2 else 0):
        code, start, length = vruns[idx]
        if code not in (2, 3):
            continue
        left = vruns[(idx - 1) % m]
        right = vruns[(idx + 1) % m]
        if left[0] != 0 or right[0] != 0:
            continue
        if (idx - 1) % m == (idx + 1) % m and left[2] < 2:
            continue
        total = length if code == 2 else -length
        yield total, _span(left[1] + left[2] - 1, length + 2, n)


def _check_key3(cyc: CyclicWord, swap: bool) -> Obstruction | None:
    """Two x..x spans whose y-exponent sums differ by at least 2."""
    letters = cyc.letters
    n = len(letters)
    runs = _runs(letters)
    for fx, fy in _ORIENTATIONS:
        vruns = [(_view(c, swap, fx, fy), start, length) for c, start, length in runs]
        spans = list(_key3_spans(vruns, n))
        if len(spans) < 2:
            continue
        low = min(spans, key=lambda s: s[0])
        high = max(spans, key=lambda s: s[0])
        if high[0] - low[0] >= 2:
            return Obstruction(
                Rule.KEY3,
                (low[1], high[1]),
                Orientation(fx, fy, swap),
                (low[0], high[0]),
            )
    return None


def check_pp2(w: CyclicWord | Word | str) -> Obstruction | None:
    return _check_pp2(CyclicWord.of(w), swap=False)


def check_key(w: CyclicWord | Word | str) -> Obstruction | None:
    return _check_key(CyclicWord.of(w), swap=False)


def check_key2(w: CyclicWord | Word | str) -> Obstruction | None:
    return _check_key2(CyclicWord.of(w), swap=False)


def check_key3(w: CyclicWord | Word | str) -> Obstruction | None:
    return _check_key3(CyclicWord.of(w), swap=False)


def certify_nonprimitive(w: CyclicWord | Word | str) -> Obstruction | None:
    """First firing rule over all relabelings and both role swaps.

    Some(obstruction) guarantees w is not a positive power of a
    primitive element.  The final rule rejects words that fail the
    Osborne-Zieschang shape; single-generator words are exempt there
    because x^k is a primitive power yet fails the shape for k >= 2.
    """
    cyc = CyclicWord.of(w)
    for matcher in (_check_pp2, _check_key, _check_key2, _check_key3):
        for swap in (False, True):
            obstruction = matcher(cyc, swap)
            if obstruction is not None:
                return obstruction
    generators = {code >> 1 for code in cyc.letters}
    if len(generators) == 2 and not oz_form_check(cyc):
        return Obstruction(Rule.BLOCKDIFF, (), Orientation())
    return None
