"""Primitivity decisions in the rank-2 free group.

Whitehead's algorithm specializes in rank 2 to four length-reducing
candidate automorphisms acting on conjugacy classes: x -> xy, x -> xy^-1,
y -> yx, y -> yx^-1 (every other Whitehead automorphism agrees with one of
these, or with the identity, in Out(F2)).  A cyclic word is primitive iff
steepest descent under these moves terminates at length 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .words import CyclicWord, Word, letter_inverse

MAX_ENUMERATION_LENGTH = 20

# Letter substitutions, indexed by letter code x, x^-1, y, y^-1.
_MOVES: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...] = (
    ("x->xy", ((0, 2), (3, 1), (2,), (3,))),
    ("x->xy^-1", ((0, 3), (2, 1), (2,), (3,))),
    ("y->yx", ((0,), (1,), (2, 0), (1, 3))),
    ("y->yx^-1", ((0,), (1,), (2, 1), (0, 3))),
)

MOVE_IDS = tuple(name for name, _ in _MOVES)
_MOVE_TABLE = dict(_MOVES)


def _reduce_letters(codes: list[int]) -> tuple[int, ...]:
    """Freely reduce, then cancel across the wrap to cyclic reducedness."""
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    lo, hi = 0, len(stack)
    while hi - lo >= 2 and stack[lo] == stack[hi - 1] ^ 1:
        lo += 1
        hi -= 1
    return tuple(stack[lo:hi])


def _apply_letters(letters: tuple[int, ...], sub: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    out: list[int] = []
    for c in letters:
        out.extend(sub[c])
    return _reduce_letters(out)


def apply_whitehead(w: CyclicWord, move_id: str) -> CyclicWord:
    """Image of the conjugacy class under one of the four moves."""
    return CyclicWord(_apply_letters(w.letters, _MOVE_TABLE[move_id]))


def _descend(letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[str, int], ...]]:
    """Steepest descent; ties broken by move order.

    Whitehead peak reduction guarantees the terminal length is minimal
    over the automorphism orbit, so length 1 at the end decides
    primitivity.
    """
    trace: list[tuple[str, int]] = []
    while len(letters) > 1:
        best: tuple[int, ...] | None = None
        best_id = ""
        for move_id, sub in _MOVES:
            image = _apply_letters(letters, sub)
            if len(image) < len(letters) and (best is None or len(image) < len(best)):
                best, best_id = image, move_id
        if best is None:
            break
        letters = best
        trace.append((best_id, len(letters)))
    return letters, tuple(trace)


def _minimal_period(letters: tuple[int, ...]) -> int:
    """Smallest d dividing the length with s[i] == s[i - d] throughout."""
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and all(letters[i] == letters[i - d] for i in range(d, n)):
            return d
    return n


@dataclass(frozen=True)
class PrimitivityVerdict:
    is_primitive: bool
    is_primitive_power: bool
    power_root: Word | None
    reduction_trace: tuple[tuple[str, int], ...]


def is_primitive(w: CyclicWord | Word | str) -> PrimitivityVerdict:
    """Decide whether the class of w is primitive and whether it is a
    primitive power u^k (u primitive, k >= 1).

    The root u is the subword on the minimal rotational period; w is a
    primitive power iff that root is primitive.
    """
    w = CyclicWord.of(w)
    final, trace = _descend(w.letters)
    primitive = len(final) == 1
    if w.is_identity():
        return PrimitivityVerdict(False, False, None, trace)
    period = _minimal_period(w.letters)
    if period == len(w.letters):
        root, root_primitive = w, primitive
    else:
        root = CyclicWord(w.letters[:period])
        root_primitive = len(_descend(root.letters)[0]) == 1
    power_root = root.to_word() if root_primitive else None
    return PrimitivityVerdict(primitive, root_primitive, power_root, trace)


# One verdict answers both questions; both names stay public.
is_primitive_power = is_primitive


def _role_x_shape(syllables: tuple[tuple[str, int], ...]) -> bool:
    xs = [e for g, e in syllables if g == "x"]
    ys = [e for g, e in syllables if g == "y"]
    if not xs:
        return False
    if not (all(e == 1 for e in xs) or all(e == -1 for e in xs)):
        return False
    if not ys:
        return True
    return max(ys) - min(ys) <= 1


def oz_form_check(w: CyclicWord | Word | str) -> bool:
    """Osborne-Zieschang shape test, necessary for primitivity.

    True iff w is, up to exchanging generator roles, a product of terms
    x^e y^n and x^e y^(n+1) for a single sign e and a fixed n: every
    x-syllable exponent is exactly e and the y-syllable exponents span at
    most two adjacent integers.  Not sufficient: xy^2xy^2xyxy has the
    shape yet is not even a primitive power.  Vacuously true for the
    identity.
    """
    cyc = CyclicWord.of(w)
    if cyc.is_identity():
        return True
    return _role_x_shape(cyc.syllables) or _role_x_shape(cyc.swap_generators().syllables)


def enumerate_primitives(max_len: int) -> set[CyclicWord]:
    """All primitive conjugacy classes of cyclic length <= max_len.

    BFS closure of the four moves from the single-letter seeds.  Complete
    because a primitive word's descent passes only through words no longer
    than itself, and each move's inverse is again one of the four, so the
    reversed path stays inside the length bound.
    """
    if max_len > MAX_ENUMERATION_LENGTH:
        raise ValueError(
            f"max_len {max_len} exceeds resource guard {MAX_ENUMERATION_LENGTH}"
        )
    if max_len < 1:
        return set()
    seeds = [CyclicWord((code,)) for code in range(4)]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        next_frontier: list[CyclicWord] = []
        for w in frontier:
            for move_id in MOVE_IDS:
                image = apply_whitehead(w, move_id)
                if image.length <= max_len and image not in seen:
                    seen.add(image)
                    next_frontier.append(image)
        frontier = next_frontier
    return seen


def primitive_abelianization_ok(w: CyclicWord) -> bool:
    """gcd of the exponent sums is 1, a necessary abelian condition."""
    pair = w.abelianization()
    return gcd(pair.e_x, pair.e_y) == 1
