"""Freely reduced and cyclic words in the rank-2 free group on x, y.

A :class:`Word` is a freely reduced word stored as syllables
(generator, exponent).  A :class:`CyclicWord` is a conjugacy class of
cyclically reduced words, stored as the lexicographically least rotation
of its letter sequence under the letter order x < x^-1 < y < y^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import xor
from typing import Iterable, NamedTuple

GENERATORS = ("x", "y")

# Letter codes.  The order is the one used for canonical rotations.
X, X_INV, Y, Y_INV = 0, 1, 2, 3

_LETTER_TEXT = ("x", "x^-1", "y", "y^-1")
_GEN_INDEX = {"x": 0, "y": 1}

# Most syllables parse_word builds, counted as it expands each group,
# before the merges of free reduction.  The longest word the package
# writes, a corridor's D-word, holds at most
# shell_bridge.MAX_CORRIDOR_SYLLABLES = 500,002, so every exported
# complex reads back.
MAX_WORD_SYLLABLES = 1_000_000


def letter_code(gen: str, sign: int) -> int:
    """Letter code of gen^sign, sign in {1, -1}."""
    return 2 * _GEN_INDEX[gen] + (0 if sign > 0 else 1)


def letter_inverse(code: int) -> int:
    return code ^ 1


class AbelianPair(NamedTuple):
    """Image of a word in Z^2: exponent sums of x and y."""

    e_x: int
    e_y: int

    def __add__(self, other: "AbelianPair") -> "AbelianPair":  # type: ignore[override]
        return AbelianPair(self.e_x + other.e_x, self.e_y + other.e_y)

    def __neg__(self) -> "AbelianPair":
        return AbelianPair(-self.e_x, -self.e_y)


class WordParseError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _reduce_syllables(pairs: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for gen, exp in pairs:
        if gen not in _GEN_INDEX:
            raise ValueError(f"unknown generator {gen!r}")
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            if merged == 0:
                out.pop()
            else:
                out[-1] = (gen, merged)
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the constructor reduces its input."""

    syllables: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "syllables", _reduce_syllables(self.syllables))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def from_reduced(
        cls, syllables: tuple[tuple[str, int], ...], text: str | None = None
    ) -> "Word":
        """Wrap syllables that are already freely reduced, unchecked: every
        generator x or y, no zero exponent, no two neighbours on one generator.
        text, when given, must be their format_word text; it is cached."""
        word = object.__new__(cls)
        object.__setattr__(word, "syllables", syllables)
        if text is not None:
            object.__setattr__(word, "text", text)
        return word

    @classmethod
    def from_letters(cls, codes: Iterable[int]) -> "Word":
        """The word of letter codes: one syllable per run of equal codes."""
        runs = groupby(codes)
        return cls(tuple((GENERATORS[c >> 1], len(list(r)) * (1 - 2 * (c & 1))) for c, r in runs))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.syllables * n)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def length(self) -> int:
        """Letter count (sum of absolute exponents)."""
        return sum(abs(e) for _, e in self.syllables)

    def letters(self) -> tuple[int, ...]:
        out: list[int] = []
        for gen, exp in self.syllables:
            out.extend([letter_code(gen, 1 if exp > 0 else -1)] * abs(exp))
        return tuple(out)

    def abelianization(self) -> AbelianPair:
        e_x = sum(e for g, e in self.syllables if g == "x")
        e_y = sum(e for g, e in self.syllables if g == "y")
        return AbelianPair(e_x, e_y)

    @cached_property
    def text(self) -> str:
        """The format_word text, computed once."""
        return format_word(self)

    def __str__(self) -> str:
        return self.text


def reduce_word(pairs: Iterable[tuple[str, int]]) -> Word:
    """Freely reduce a raw sequence of (generator, exponent) pairs."""
    return Word(tuple(pairs))


def format_word(w: Word) -> str:
    """Canonical text: reduced syllables, exponent omitted when 1."""
    # The rule of _syllable_text, inlined: a list joins faster than a generator.
    return "".join([g if e == 1 else f"{g}^{e}" for g, e in w.syllables])


def _syllable_text(gen: str, exp: int) -> str:
    """Text of one syllable gen^exp, exp != 0, as format_word writes it."""
    return gen if exp == 1 else f"{gen}^{exp}"


def parse_word(text: str) -> Word:
    """Parse word text.

    Grammar: word := term+ ; term := letter ['^' int] | '(' word ')' '^' int ;
    letter in {x, y}; whitespace is ignored; "" parses to the identity.
    Text that expands to more than MAX_WORD_SYLLABLES syllables raises
    WordParseError before the group that passes the budget is expanded.
    """
    pairs, pos = _parse_terms(text, 0, depth=0)
    if pos != len(text):
        raise WordParseError(f"unexpected character {text[pos]!r}", pos)
    if len(pairs) > MAX_WORD_SYLLABLES:
        raise WordParseError(f"word holds more than {MAX_WORD_SYLLABLES} syllables", 0)
    return Word(tuple(pairs))


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    pos = _skip_ws(text, pos)
    start = pos
    if pos < len(text) and text[pos] in "+-":
        pos += 1
    digits = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == digits:
        raise WordParseError("expected an integer exponent", start)
    return int(text[start:pos]), pos


def _parse_terms(text: str, pos: int, depth: int) -> tuple[list[tuple[str, int]], int]:
    pairs: list[tuple[str, int]] = []
    saw_term = False
    while True:
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            break
        ch = text[pos]
        if ch in _GEN_INDEX:
            exp = 1
            pos += 1
            nxt = _skip_ws(text, pos)
            if nxt < len(text) and text[nxt] == "^":
                exp, pos = _parse_int(text, nxt + 1)
            pairs.append((ch, exp))
            saw_term = True
        elif ch == "(":
            start = pos
            inner, pos = _parse_terms(text, pos + 1, depth + 1)
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ")":
                raise WordParseError("unclosed parenthesis", pos)
            pos = _skip_ws(text, pos + 1)
            if pos >= len(text) or text[pos] != "^":
                raise WordParseError("parenthesized group requires an exponent", pos)
            exp, pos = _parse_int(text, pos + 1)
            group = Word(tuple(inner))
            if len(pairs) + len(group.syllables) * abs(exp) > MAX_WORD_SYLLABLES:
                raise WordParseError(f"word expands past {MAX_WORD_SYLLABLES} syllables", start)
            pairs.extend((group**exp).syllables)
            saw_term = True
        elif ch == ")":
            if depth == 0:
                raise WordParseError("unmatched ')'", pos)
            break
        else:
            raise WordParseError(f"unexpected character {ch!r}", pos)
    if depth > 0 and not saw_term:
        raise WordParseError("empty parenthesized group", pos)
    return pairs, pos


def _least_rotation(seq: tuple[int, ...]) -> int:
    """First index of the lexicographically least rotation of seq.

    A two-pointer scan over seq + seq (Booth 1980; Shiloach, "Fast
    canonization of circular strings", J. Algorithms 2, 1981) with no
    failure table.  Every start below j other than the candidate i is
    ruled out.  The rotations at i and j agree on k letters; at a
    mismatch, the greater one's starts through k letters past it lose to
    the other's, so those k + 1 starts are ruled out.  Equal rotations
    at i and j (k = n) make seq periodic with period j - i, so i wins.
    Since only starts whose rotation is strictly greater are ruled out,
    i is the first least one, as cyclic_reduce's conjugator needs.  Each
    mismatch adds k + 1 to i + j < 2n, so the scan is linear.
    """
    n = len(seq)
    s = seq + seq
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return i


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced conjugacy class, canonically rotated."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        letters = self.letters
        # Letters a and b cancel exactly when a ^ b == 1.
        if 1 in map(xor, letters, letters[1:] + letters[:1]):
            raise ValueError("letters are not cyclically reduced")
        k = _least_rotation(letters)
        object.__setattr__(self, "letters", letters[k:] + letters[:k])

    @classmethod
    def from_canonical(cls, letters: tuple[int, ...]) -> "CyclicWord":
        """Wrap letters that are already cyclically reduced and in least
        rotation, unchecked, as verify.canonical_classes and cyclic_reduce
        build them."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    @classmethod
    def of(cls, w: "Word | CyclicWord | str") -> "CyclicWord":
        if isinstance(w, CyclicWord):
            return w
        if isinstance(w, str):
            w = parse_word(w)
        return _cyclic_core(w.letters())[0]

    @property
    def length(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def to_word(self) -> Word:
        """The canonical rotation as a linear word."""
        return Word.from_letters(self.letters)

    def abelianization(self) -> AbelianPair:
        return self.to_word().abelianization()

    def inverse(self) -> "CyclicWord":
        return CyclicWord(tuple(letter_inverse(c) for c in reversed(self.letters)))

    def __str__(self) -> str:
        return format_word(self.to_word())


def _cyclic_core(letters: tuple[int, ...]) -> tuple[CyclicWord, int]:
    """The cyclic class of the cyclically reduced core of letters, and the
    length of the conjugator letters[:cut] that brings it into least
    rotation."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == letter_inverse(letters[hi - 1]):
        lo += 1
        hi -= 1
    core = letters[lo:hi]
    k = _least_rotation(core)
    return CyclicWord.from_canonical(core[k:] + core[:k]), lo + k


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split w as conjugator * core * conjugator^-1 with core cyclically reduced.

    Returns (cyclic class of core, conjugator); the identity
    w == conjugator * cyclic.to_word() * conjugator.inverse() holds exactly.
    """
    letters = w.letters()
    cyclic, cut = _cyclic_core(letters)
    return cyclic, Word.from_letters(letters[:cut])
