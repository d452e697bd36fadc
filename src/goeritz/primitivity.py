"""Primitivity decisions in the rank-2 free group.

A cyclically reduced word that uses both generators is primitive, or a
primitive power, only if it has the Osborne-Zieschang shape: each
generator appears with one sign, one generator s (the separator) appears
only in syllables s^(+-1), and the other generator t has exponent
magnitudes n or n + 1.  Such a word is a product of A = s t^n and
B = s t^(n+1), which form a basis, so rewriting it over A and B keeps the
answer and leaves one letter per s-syllable.  Repeating this is the
Euclidean algorithm on syllables (Osborne and Zieschang 1981; Cohen,
Metzler and Zimmermann 1981): the class is primitive iff the descent ends
at a single letter, and a primitive power iff it ends at a single
syllable.  Each level at least halves the syllable count.  Every level
after level 0 is a positive word, held as bytes of x and y: C-level `in`
and `count` test its shape, and one `replace` and one `translate` spell
the next level.  A CyclicWord runs level 0 there too: a generator with
both signs fails the shape, and otherwise one `translate` of its letter
codes gives the positive image, the class with its inverted generators
flipped back, an automorphism that moves only the first label's signs.
Only a Word or text reads level 0 off its signed syllable exponents,
which it already holds, and tests the shape with one count and one set.
Trace labels are formatted straight from (generator, exponent).  The
least rotation of u^k is (least rotation of u)^k, so power_root reads u
off the canonical one.

enumerate_primitives needs no descent: the primitive classes are the
Christoffel words with their sign choices, one class per coprime pair of
letter counts, so it lists them directly and stays independent of
is_primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from math import gcd
from operator import eq, itemgetter

from .words import CyclicWord, Word, _syllable_text, parse_word

MAX_ENUMERATION_LENGTH = 20

_OTHER = {"x": "y", "y": "x"}
_exponent = itemgetter(1)


def _cyclic_exponents(w: Word) -> tuple[str, list[int]]:
    """Generator of the first syllable and the syllable exponents of the
    cyclically reduced class of w; consecutive syllables alternate
    generators, and so do the last and the first unless there is one."""
    syllables = w.syllables
    exps = list(map(_exponent, syllables))
    lo, hi = 0, len(exps)
    # An odd count of alternating syllables starts and ends with the same generator.
    while hi - lo > 1 and (hi - lo) % 2:
        hi -= 1
        exps[lo] += exps[hi]
        if exps[lo] == 0:
            lo += 1
    return (syllables[lo][0] if lo < hi else ""), exps[lo:hi]


def _shape(exps: list[int]) -> tuple[int, int, list[int], int, int] | None:
    """The descent's test on two or more alternating syllable exponents.

    Returns the offset of the separator's syllables, the separator's
    exponent, the other generator's exponents t and their least and
    greatest value, or None when no separator exists or t spreads over
    more than two adjacent values (which includes mixed signs).  One
    count tests the separator and one set holds the values of t.
    """
    for off in (0, 1):
        s = exps[off::2]
        if abs(s[0]) == 1 and s.count(s[0]) == len(s):
            t = exps[1 - off::2]
            values = set(t)
            lo, hi = min(values), max(values)
            return (off, s[0], t, lo, hi) if hi - lo <= 1 else None
    return None


@dataclass(frozen=True)
class PrimitivityVerdict:
    """The descent's answer for one class; power_root(w) gives the root."""

    is_primitive: bool
    is_primitive_power: bool
    reduction_trace: tuple[tuple[str, int], ...]


# The one verdict on every word that lacks the shape.
_NO_SHAPE = PrimitivityVerdict(False, False, ())

# The other letter of a positive level.
_SWAP = {b"x": b"y", b"y": b"x"}
# Tables that spell one level's blocks as the next level's letters, A as
# x and B as y: from a positive level, where each A is left as its
# separator s and each B is replaced by the marker B; and from level 0
# of a Word, which flags each t-exponent equal to n (an A) with 1.
_BLOCKS = {s: bytes.maketrans(s + b"B", b"xy") for s in (b"x", b"y")}
_FLAGS = bytes.maketrans(b"\0\1", b"yx")
# A class's letter codes x, x^-1, y, y^-1 as its positive image.
_POSITIVE = bytes.maketrans(b"\0\1\2\3", b"xxyy")
# The sign of each generator in a class, by (x inverted, y inverted).
_SIGNS = {
    (False, False): None,
    (True, False): {"x": -1, "y": 1},
    (False, True): {"x": 1, "y": -1},
    (True, True): {"x": -1, "y": -1},
}


def _descend(
    word: bytes, trace: list[tuple[str, int]], signs: dict[str, int] | None = None
) -> int:
    """The descent on a positive word of x and y letters that uses both.

    Each level is rotated to its first change, so no run wraps.  The
    separator s is the first letter if s s is absent, or else the other
    letter if its pair is absent.  With t the other letter, size =
    count(s) and n = floor(t-letters / size), the word is a product of
    blocks A = s t^n and B = s t^(n+1) exactly when t^(n+2) is absent
    and count(s t^(n+1)) is the remainder.  One replace and one
    translate spell the next level, A as x and B as y.  Appends each
    level to trace and returns k when the descent ends at the syllable
    x^k, or 0 when a level lacks the shape.  When word is the positive
    image of a class whose generator g has sign signs[g], the first
    level's label carries those signs, so it maps onto the class itself.
    """
    while True:
        if word[0] == word[-1]:
            cut = len(word) - len(word.lstrip(word[:1]))
            word = word[cut:] + word[:cut]
        s = word[:1]
        if s + s in word:
            s = _SWAP[s]
            if s + s in word:
                return 0
            # The blocks start at s, so the last letter, an s, goes first.
            word = word[-1:] + word[:-1]
        t = _SWAP[s]
        size = word.count(s)
        n, extra = divmod(len(word) - size, size)
        b = s + t * (n + 1)
        if t * (n + 2) in word or word.count(b) != extra:
            return 0
        g, h = s.decode(), t.decode()
        if signs:
            e, sep = signs[h], _syllable_text(g, signs[g])
            label = f"x->{sep}{_syllable_text(h, e * n)}, y->{sep}{_syllable_text(h, e * (n + 1))}"
            signs = None
        else:
            label = f"x->{g}{_syllable_text(h, n)}, y->{g}{h}^{n + 1}"
        trace.append((label, size))
        if not extra:
            return size
        word = word.replace(b, b"B").translate(_BLOCKS[s], t)


def _decide_class(letters: bytes) -> PrimitivityVerdict:
    """is_primitive on the letter codes of a class in least rotation.

    That rotation starts with the least code present, so with an x
    letter whenever there is one; a class of both generators then ends
    with a y letter, and a class of one generator is one letter repeated.
    A generator with both signs leaves no separator or mixes the signs of
    t, so the class lacks the shape.  Otherwise it is the image of its
    positive image under inverting the generators with sign -1, an
    automorphism, so the descent runs on the positive image and only the
    first label takes the signs back.
    """
    if letters[:1] == letters[-1:]:
        return PrimitivityVerdict(len(letters) == 1, bool(letters), ())
    x_inverted, y_inverted = letters[0] == 1, 3 in letters
    if (not x_inverted and 1 in letters) or (y_inverted and 2 in letters):
        return _NO_SHAPE
    trace: list[tuple[str, int]] = []
    k = _descend(letters.translate(_POSITIVE), trace, _SIGNS[x_inverted, y_inverted])
    return PrimitivityVerdict(k == 1, k > 0, tuple(trace)) if trace else _NO_SHAPE


def is_primitive(w: CyclicWord | Word | str) -> PrimitivityVerdict:
    """Decide whether w is primitive and whether it is a primitive power
    u^k (u primitive, k >= 1).  Both answers depend only on w's cyclic
    class, but the trace does so only for a CyclicWord: a Word's trace
    follows the rotation it spells.

    One descent answers both.  Each level adds (label, letters) to the
    reduction trace: the label "x->A, y->B" is the substitution that maps
    the next level's word back onto this level's, and letters is the
    next level's length.  A descent that ends at a syllable g^k makes w
    a power u^k.  A CyclicWord runs every level on bytes, from its letter
    codes; a Word or text runs level 0 on its signed syllable exponents,
    which it already holds, and every later level on bytes.
    """
    if isinstance(w, CyclicWord):
        return _decide_class(bytes(w.letters))
    first, exps = _cyclic_exponents(parse_word(w) if isinstance(w, str) else w)
    if len(exps) <= 1:
        return PrimitivityVerdict(exps in ([1], [-1]), bool(exps), ())
    shape = _shape(exps)
    if shape is None:
        return _NO_SHAPE
    off, s_exp, t, lo, hi = shape
    s_gen = first if off == 0 else _OTHER[first]
    t_gen = _OTHER[s_gen]
    # n and n + step share the sign of t, so neither is 0 and each
    # label is already reduced text.
    n, step = (lo, 1) if lo > 0 else (hi, -1)
    s = _syllable_text(s_gen, s_exp)
    a, b = _syllable_text(t_gen, n), _syllable_text(t_gen, n + step)
    trace = [(f"x->{s}{a}, y->{s}{b}", len(t))]
    k = len(t) if lo == hi else _descend(bytes(map(eq, t, repeat(n))).translate(_FLAGS), trace)
    return PrimitivityVerdict(k == 1, k > 0, tuple(trace))


def power_root(w: CyclicWord | Word | str) -> Word | None:
    """The primitive u with w = u^k, or None unless w is a primitive power:
    the first 1/k of the canonical rotation, with k the last level's
    length, or |w| when w is one syllable."""
    verdict = is_primitive(w)
    if not verdict.is_primitive_power:
        return None
    letters = CyclicWord.of(w).letters
    k = verdict.reduction_trace[-1][1] if verdict.reduction_trace else len(letters)
    return Word.from_letters(letters[: len(letters) // k])


# One verdict answers both questions; both names stay public.
is_primitive_power = is_primitive


def oz_form_check(w: CyclicWord | Word | str) -> bool:
    """Osborne-Zieschang shape test, necessary for primitivity.

    The first level of the descent in is_primitive: true iff w is, up to
    exchanging generator roles, a product of terms x^e y^n and
    x^e y^(n+1) for a single sign e and a fixed n, or a single letter.
    A class of both generators passes exactly when its reduction trace
    holds that level; a class of one generator, when it is primitive.
    Not sufficient: xy^2xy^2xyxy has the shape yet is not even a
    primitive power.  Vacuously true for the identity.
    """
    if isinstance(w, str):
        w = parse_word(w)
    verdict = is_primitive(w)
    return bool(verdict.reduction_trace) or verdict.is_primitive or w.is_identity()


def enumerate_primitives(max_len: int) -> set[CyclicWord]:
    """All primitive conjugacy classes of cyclic length <= max_len.

    Every primitive class of F(x, y) is, up to inverting x or y, the class
    of a Christoffel word, and there is one such class for each coprime
    pair (a, b) of letter counts (Osborne and Zieschang 1981; Kassel and
    Reutenauer, "Sturmian morphisms, the braid group B4, Christoffel
    words and bases of F2", 2007).  So length n >= 2 holds 4 phi(n)
    classes.  Letter i (from 0) of the lower Christoffel word of length
    n with b letters y is y iff floor((i + 1) b / n) > floor(i b / n);
    at n = 1 the pairs (1, 0) and (0, 1) give the single letters.
    """
    if max_len > MAX_ENUMERATION_LENGTH:
        raise ValueError(f"max_len {max_len} exceeds resource guard {MAX_ENUMERATION_LENGTH}")
    classes: set[CyclicWord] = set()
    for n in range(1, max_len + 1):
        for b in range(n + 1):
            if gcd(b, n) == 1:
                is_y = [(i + 1) * b // n > i * b // n for i in range(n)]
                # Letter codes: x or x^-1, then y or y^-1.
                for x, y in product((0, 1), (2, 3)):
                    classes.add(CyclicWord(tuple(y if letter else x for letter in is_y)))
    return classes
