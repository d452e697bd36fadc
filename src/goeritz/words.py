"""Freely reduced and cyclic words in the rank-2 free group on x, y.

A :class:`Word` is a freely reduced word stored as syllables
(generator, exponent).  A :class:`CyclicWord` is a conjugacy class of
cyclically reduced words, stored as the lexicographically least rotation
of its letter sequence under the letter order x < x^-1 < y < y^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

GENERATORS = ("x", "y")

# Letter codes.  The order is the one used for canonical rotations.
X, X_INV, Y, Y_INV = 0, 1, 2, 3

_LETTER_TEXT = ("x", "x^-1", "y", "y^-1")
_GEN_INDEX = {"x": 0, "y": 1}


def letter_code(gen: str, sign: int) -> int:
    """Letter code of gen^sign, sign in {1, -1}."""
    return 2 * _GEN_INDEX[gen] + (0 if sign > 0 else 1)


def letter_inverse(code: int) -> int:
    return code ^ 1


def letter_gen(code: int) -> str:
    return GENERATORS[code >> 1]


def letter_sign(code: int) -> int:
    return -1 if code & 1 else 1


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
    def from_reduced(cls, syllables: tuple[tuple[str, int], ...]) -> "Word":
        """Wrap syllables that are already freely reduced, unchecked: every
        generator x or y, no zero exponent, no two neighbours on one generator."""
        word = object.__new__(cls)
        object.__setattr__(word, "syllables", syllables)
        return word

    @classmethod
    def from_letters(cls, codes: Iterable[int]) -> "Word":
        return cls(tuple((letter_gen(c), letter_sign(c)) for c in codes))

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

    def __str__(self) -> str:
        return format_word(self)


def reduce_word(pairs: Iterable[tuple[str, int]]) -> Word:
    """Freely reduce a raw sequence of (generator, exponent) pairs."""
    return Word(tuple(pairs))


def format_word(w: Word) -> str:
    """Canonical text: reduced syllables, exponent omitted when 1."""
    return "".join(g if e == 1 else f"{g}^{e}" for g, e in w.syllables)


def parse_word(text: str) -> Word:
    """Parse word text.

    Grammar: word := term+ ; term := letter ['^' int] | '(' word ')' '^' int ;
    letter in {x, y}; whitespace is ignored; "" parses to the identity.
    """
    pairs, pos = _parse_terms(text, 0, depth=0)
    if pos != len(text):
        raise WordParseError(f"unexpected character {text[pos]!r}", pos)
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
            inner, pos = _parse_terms(text, pos + 1, depth + 1)
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ")":
                raise WordParseError("unclosed parenthesis", pos)
            pos = _skip_ws(text, pos + 1)
            if pos >= len(text) or text[pos] != "^":
                raise WordParseError("parenthesized group requires an exponent", pos)
            exp, pos = _parse_int(text, pos + 1)
            group = Word(tuple(inner)) ** exp
            pairs.extend(group.syllables)
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
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    n = len(seq)
    if n <= 1:
        return 0
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = seq[j % n]
        i = f[j - k - 1]
        while i != -1 and sj != seq[(k + i + 1) % n]:
            if sj < seq[(k + i + 1) % n]:
                k = j - i - 1
            i = f[i]
        if sj != seq[(k + i + 1) % n]:
            if sj < seq[k % n]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced conjugacy class, canonically rotated."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        letters = self.letters
        for a, b in zip(letters, letters[1:] + letters[:1]):
            if len(letters) > 1 and a == letter_inverse(b):
                raise ValueError("letters are not cyclically reduced")
        k = _least_rotation(letters)
        object.__setattr__(self, "letters", letters[k:] + letters[:k])

    @classmethod
    def of(cls, w: "Word | CyclicWord | str") -> "CyclicWord":
        if isinstance(w, CyclicWord):
            return w
        if isinstance(w, str):
            w = parse_word(w)
        return cyclic_reduce(w)[0]

    @property
    def length(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    @property
    def syllables(self) -> tuple[tuple[str, int], ...]:
        """Run-length syllables of the canonical rotation.

        Cyclically adjacent runs always use distinct generators except for
        single-syllable words, where the canonical rotation starts at the
        run boundary anyway.
        """
        return Word.from_letters(self.letters).syllables

    def to_word(self) -> Word:
        """The canonical rotation as a linear word."""
        return Word.from_letters(self.letters)

    def abelianization(self) -> AbelianPair:
        return self.to_word().abelianization()

    def inverse(self) -> "CyclicWord":
        return CyclicWord(tuple(letter_inverse(c) for c in reversed(self.letters)))

    def swap_generators(self) -> "CyclicWord":
        """Image under the automorphism exchanging x and y."""
        return CyclicWord(tuple(c ^ 2 for c in self.letters))

    def __str__(self) -> str:
        return format_word(self.to_word())


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split w as conjugator * core * conjugator^-1 with core cyclically reduced.

    Returns (cyclic class of core, conjugator); the identity
    w == conjugator * cyclic.to_word() * conjugator.inverse() holds exactly.
    """
    letters = w.letters()
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == letter_inverse(letters[hi - 1]):
        lo += 1
        hi -= 1
    core = letters[lo:hi]
    k = _least_rotation(core)
    conjugator = Word.from_letters(letters[: lo + k])
    return CyclicWord(core[k:] + core[:k]), conjugator
