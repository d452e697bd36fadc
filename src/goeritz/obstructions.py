"""Sound but incomplete non-primitivity tests with certificates.

Each rule matches a forbidden subword pattern of the cyclic word under
one of eight relabelings: an optional swap of the generator roles, then
optional sign flips of x and y.  A returned certificate proves the word
is not a positive power of a primitive element; None is always
inconclusive.  Each pattern family is closed under word reversal, so
the certifier is invariant under rotation and inversion.

Two rules are tried, PP2 and then KEY1, each over all eight relabelings
in turn:

- PP2a: xy together with xy^-1, or y^-1x^-1 together with yx^-1.
- PP2b: a span x y^n x together with a disjoint y^(n+2), or x^2 together
  with y^2 (detail 0).
- KEY1: xy together with yx^-1, or y^-1x^-1 together with xy^-1.

Other patterns could never fire first after these, so none is tried.
KEY1's other classical pairs are PP2a, with the same swap or the other
one, or PP2b's x^2 with y^2.  KEY2's span x y^k x^-1 holds a KEY1 pair.
KEY3's two x..x spans with y-exponent sums at least 2 apart match PP2
under some relabeling with the same swap.  And a word that uses both
generators and escapes PP2 and KEY1 under all eight relabelings has the
Osborne-Zieschang shape: without x^2 beside y^2 one generator s occurs
only in syllables s^(+-1); KEY1 leaves s one sign, PP2a leaves the other
generator t one sign, and PP2b leaves t's exponents within one of each
other.  No relabeling matches a word of that shape either, so a word is
certified exactly when it uses both generators and fails oz_form_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby
from typing import Any

from .words import X, X_INV, Y, Y_INV, CyclicWord, Word


class Rule(str, Enum):
    PP2a = "PP2a"
    PP2b = "PP2b"
    KEY1 = "KEY1"


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
        return {
            "rule": self.rule.value,
            "witness": [list(part) for part in self.witness],
            "orientation": self.orientation.to_json(),
            "detail": self.detail,
        }


def _view(code: int, swap: bool, flip_x: bool, flip_y: bool) -> int:
    """The pattern letter that input letter code reads as."""
    if swap:
        code ^= 2
    if flip_x and code >> 1 == 0:
        code ^= 1
    if flip_y and code >> 1 == 1:
        code ^= 1
    return code


# The factor pairs of PP2a and of KEY1, in pattern letters.
_PP2A = (((X, Y), (X, Y_INV)), ((Y_INV, X_INV), (Y, X_INV)))
_KEY1 = (((X, Y), (Y, X_INV)), ((Y_INV, X_INV), (X, Y_INV)))


def _relabeling(swap: bool, flip_x: bool, flip_y: bool) -> tuple:
    """The orientation, the input letter that each pattern letter x,
    x^-1, y, y^-1 stands for under it, and the PP2a and KEY1 factor
    pairs spelled in input letters, as bytes."""
    back = {_view(code, swap, flip_x, flip_y): code for code in range(4)}

    def spell(pairs):
        return tuple((bytes(back[c] for c in a), bytes(back[c] for c in b)) for a, b in pairs)

    letters = tuple(back[k] for k in range(4))
    return Orientation(flip_x, flip_y, swap), letters, spell(_PP2A), spell(_KEY1)


_RELABELINGS = tuple(
    _relabeling(swap, flip_x, flip_y)
    for swap in (False, True)
    for flip_x in (False, True)
    for flip_y in (False, True)
)


class _Scan:
    """What the rules read of a cyclic word: its letters as bytes with the
    first letter appended, and its runs.  The canonical rotation starts a
    run, and cyclically adjacent runs use different generators, so every
    two-generator factor sits at a run boundary, the appended letter
    closes the wrap, and word.find gives the first run end that spells a
    factor.  Only PP2b reads the runs, so they are built on first use."""

    def __init__(self, letters: tuple[int, ...]):
        self.letters = letters
        self.n = len(letters)
        self.word = bytes(letters + letters[:1])

    @cached_property
    def runs(self) -> list[tuple[int, int, int]]:
        """(code, start, length) of each run, in order."""
        runs, start = [], 0
        for code, run in groupby(self.letters):
            length = len(list(run))
            runs.append((code, start, length))
            start += length
        return runs


def _span(start: int, length: int, n: int) -> tuple[int, ...]:
    return tuple((start + t) % n for t in range(length))


def _pairs(
    scan: _Scan, pairs: tuple[tuple[bytes, bytes], ...]
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Witness of the first pair of factors that both occur, else None."""
    word, n = scan.word, scan.n
    for a, b in pairs:
        i = word.find(a)
        if i >= 0:
            j = word.find(b)
            if j >= 0:
                return ((i, (i + 1) % n), (j, (j + 1) % n))
    return None


def _pp2(scan: _Scan, relabeling: tuple) -> Obstruction | None:
    """Both of xy and xy^-1 (or of y^-1x^-1 and yx^-1), both of xy^n x
    and a disjoint y^(n+2), or both of x^2 and y^2."""
    orient, (x, _, y, _), pp2a, _ = relabeling
    witness = _pairs(scan, pp2a)
    if witness is not None:
        return Obstruction(Rule.PP2a, witness, orient)
    n = scan.n
    runs = scan.runs
    m = len(runs)
    y_runs = [(start, length) for code, start, length in runs if code == y]
    for k, (code, start, length) in enumerate(runs):
        mid, mid_start, gap = runs[(k + 1) % m]
        if code != x or mid != y or runs[(k + 2) % m][0] != x:
            continue
        for big, big_length in y_runs:
            if big != mid_start and big_length >= gap + 2:
                span = (_span(start + length - 1, gap + 2, n), _span(big, gap + 2, n))
                return Obstruction(Rule.PP2b, span, orient, gap)
    double = next((start for code, start, length in runs if code == x and length >= 2), None)
    block = next((start for start, length in y_runs if length >= 2), None)
    if double is not None and block is not None:
        return Obstruction(Rule.PP2b, (_span(double, 2, n), _span(block, 2, n)), orient, 0)
    return None


def _key1(scan: _Scan, relabeling: tuple) -> Obstruction | None:
    """xy with yx^-1, or y^-1x^-1 with xy^-1."""
    orient, _, _, key1 = relabeling
    witness = _pairs(scan, key1)
    return None if witness is None else Obstruction(Rule.KEY1, witness, orient, 1)


def certify_nonprimitive(w: CyclicWord | Word | str) -> Obstruction | None:
    """First firing rule: PP2 over all eight relabelings, then KEY1.

    Some(obstruction) guarantees w is not a positive power of a
    primitive element.  None holds exactly for words that do not use
    both generators and words with the Osborne-Zieschang shape (see the
    module docstring).
    """
    scan = _Scan(CyclicWord.of(w).letters)
    for rule in (_pp2, _key1):
        for relabeling in _RELABELINGS:
            obstruction = rule(scan, relabeling)
            if obstruction is not None:
                return obstruction
    return None
